"""The compiled executor of the Algorithm 4 block kernel (``alg4.c``).

:func:`resolve` returns a callable folding one shard's tiles for one whole
stack in a single GIL-free foreign call — or ``None``, and then the NumPy
kernels of :mod:`repro.backends.vectorized` run: the same bits, slower.  The
object is built on first use with the system compiler (``$CC``, else ``cc``),
kept under a name made of source, flags and machine in a per-user ``0700``
cache directory, loaded through :mod:`ctypes`, and *proved* on a small fixed
block against the NumPy kernel with ``==`` before anything else may call it.
Every failure — no compiler, a failed build, an unusable cache directory, an
object that will not load (one rebuild), a self-check mismatch — is the
fallback plus one ``RuntimeWarning`` per process that names the reason.
Nothing here runs at import; hiding the compiler is the off-switch.

One object serves every host of its machine type: ``alg4_fold`` picks its
eight-column AVX2 loop or its scalar loop per call by cpuid (:func:`isa`
says which), so the proof covers the loop this host runs;
``alg4_fold_scalar`` is the scalar loop alone, for the tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: The whole compiler command line after ``cc``.  ``-ffp-contract=off`` keeps
#: ``a*b + c`` two roundings (aarch64 would fuse them); never ``-ffast-math``
#: or ``-Ofast``, which license reassociation.  No ISA flag: a cached object
#: is valid on every host of its ``platform.machine()`` sharing the directory.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: ``alg4_fold``'s non-zero return codes.
_ERRORS = {
    1: (IndexError, "back-projection coordinate is not finite: index out of range"),
    2: (MemoryError, "alg4_fold could not allocate its per-call scratch"),
}
_INT64 = ctypes.c_int64
_POINTER = ctypes.c_void_p


class Unavailable(Exception):
    """Why the compiled kernel cannot be used here (the warning's text)."""


def source() -> bytes:
    return resources.files(__package__).joinpath("alg4.c").read_bytes()


def object_name(code: bytes) -> str:
    identity = code + " ".join(FLAGS).encode() + platform.machine().encode()
    return f"alg4-{hashlib.sha256(identity).hexdigest()[:20]}.so"


def cache_dir() -> Path:
    """The caller's own ``0700`` directory under ``$XDG_CACHE_HOME`` /
    ``~/.cache``, else under the temporary directory."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    uid = os.getuid() if hasattr(os, "getuid") else 0
    for root in (home, tempfile.gettempdir()):
        path = Path(root) / f"repro-native-{uid}"
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            status = path.lstat()
        except OSError:
            continue
        # Someone else's (or a symlinked, or a writable-by-others) directory
        # could hand this process an object it did not build.
        mine = status.st_uid == uid and not status.st_mode & 0o022
        if mine and stat.S_ISDIR(status.st_mode) and os.access(path, os.W_OK):
            return path
    raise Unavailable("cache not writable")


def build(code: bytes, path: Path) -> None:
    """Compile ``code`` to ``path``: write beside it, then ``os.replace``, so
    concurrent first users each install a complete object."""
    compiler = shlex.split(os.environ.get("CC") or shutil.which("cc") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        raise Unavailable("no compiler")
    partial = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        done = subprocess.run(
            [*compiler, *FLAGS, "-x", "c", "-", "-o", str(partial)],
            input=code, capture_output=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            lines = done.stderr.decode(errors="replace").strip().splitlines()
            raise Unavailable(
                f"build failed: {lines[0] if lines else f'exit status {done.returncode}'}"
            )
        with open(partial, "ab") as image:  # sealed: see _bind
            image.write(hashlib.sha256(partial.read_bytes()).digest())
        os.replace(partial, path)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise Unavailable(f"build failed: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)


def _bind(path: Path, entry_point: str = "alg4_fold") -> Callable:
    # dlopen maps a truncated object without complaint and the process dies of
    # SIGBUS on first touch, so only an image whose trailing digest (ignored by
    # the loader) matches its bytes is ever opened.
    image = path.read_bytes()
    if hashlib.sha256(image[:-32]).digest() != image[-32:]:
        raise OSError(f"{path} is damaged")
    library = ctypes.CDLL(str(path))
    library.alg4_isa.restype = ctypes.c_char_p
    library.alg4_isa.argtypes = ()
    entry = getattr(library, entry_point)
    entry.restype = ctypes.c_int
    entry.argtypes = (
        [_POINTER] + [_INT64] * 3 + [_POINTER, _INT64, _POINTER] + [_INT64] * 3 + [_POINTER]
    )

    def fold(out, z_start: int, tiles, projections, matrices) -> None:
        """Fold ``projections`` (``(Np, Nv, Nu)``, under ``matrices``
        ``(Np, 3, 4)``) into the ``tiles`` (rows of local ``z0, z1, y0, y1``)
        of the ``(Nz, Ny, Nx)`` slab ``out`` starting at slice ``z_start``."""
        projections = np.ascontiguousarray(projections, dtype=np.float32)
        matrices = np.ascontiguousarray(matrices, dtype=np.float64)
        tiles = np.ascontiguousarray(tiles, dtype=np.int64).reshape(-1, 4)
        count, nv, nu = projections.shape
        nz, ny, nx = out.shape
        z0, z1, y0, y1 = tiles.T
        if not (
            out.dtype == np.float32 and out.flags.c_contiguous and out.flags.writeable
            and matrices.shape == (count, 3, 4)
            and (0 <= z0).all() and (z0 <= z1).all() and (z1 <= nz).all()
            and (0 <= y0).all() and (y0 <= y1).all() and (y1 <= ny).all()
        ):
            raise ValueError("alg4_fold operands do not describe one slab and stack")
        status = entry(
            out.ctypes.data, ny, nx, z_start, tiles.ctypes.data, len(tiles),
            projections.ctypes.data, count, nv, nu, matrices.ctypes.data,
        )  # the arrays above stay referenced until the call has returned
        if status:
            error, message = _ERRORS[status]
            raise error(message)

    fold.isa = "scalar" if entry_point == "alg4_fold_scalar" else library.alg4_isa().decode()
    return fold


def _prove(fold: Callable) -> None:
    """``fold`` against the NumPy kernel on a block whose columns leave the
    detector on one side and whose slices pass its top and bottom, in tiles
    of 72, 9, 63, 18, 54, 27, 45 and 36 columns: every tail an eight-lane loop
    can leave."""
    from ..core.geometry import CBCTGeometry
    from .vectorized import BlockWorkspace, _index_grids, accumulate_proposed_block

    geometry = CBCTGeometry(
        nu=14, nv=10, np_=5, du=1.0, dv=1.0, sad=30.0, sdd=45.0, nx=9, ny=8,
        nz=24, dx=1.0, dy=1.0, dz=1.5, detector_offset_u=6.0,
    )
    stack = np.random.default_rng(4).standard_normal((5, 10, 14)).astype(np.float32)
    matrices = np.stack([geometry.projection_matrix(a).matrix for a in geometry.angles])
    expected, got = np.zeros((2, 24, 8, 9), dtype=np.float32)
    j_grid, i_grid = _index_grids(8, 9)
    work = BlockWorkspace("proposed", 10, 14, [(24, 72)])
    for matrix, projection in zip(matrices, stack):
        work.load(projection)
        accumulate_proposed_block(
            expected, work, matrix, np.arange(24, dtype=np.float64), i_grid, j_grid
        )
    tiles = [(0, 6, 0, 8), (6, 11, 0, 1), (6, 11, 1, 8), (11, 16, 0, 2), (11, 16, 2, 8),
             (16, 20, 0, 3), (16, 20, 3, 8), (20, 24, 0, 4), (20, 24, 4, 8)]
    fold(got, 0, tiles, stack, matrices)
    if not np.array_equal(got.view(np.uint32), expected.view(np.uint32)):
        raise Unavailable("self-check mismatch")


def load(entry_point: str = "alg4_fold") -> Callable:
    """The proven ``fold`` of this host, built if the cache has none:
    ``alg4_fold`` (the loop :func:`isa` names) or ``alg4_fold_scalar``."""
    code = source()
    path = cache_dir() / object_name(code)
    try:
        fold = _bind(path, entry_point)
    except (OSError, AttributeError):  # missing, truncated or foreign: build once
        build(code, path)
        try:
            fold = _bind(path, entry_point)
        except (OSError, AttributeError) as exc:
            raise Unavailable(f"build failed: {exc}") from exc
    _prove(fold)
    return fold


class _Resolver:
    """The once-per-process outcome of :func:`load`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resolved = False  # guarded-by: _lock
        self._fold: Optional[Callable] = None  # guarded-by: _lock

    def resolve(self) -> Optional[Callable]:
        with self._lock:
            if not self._resolved:
                try:
                    self._fold = load()
                except Unavailable as exc:
                    warnings.warn(
                        f"compiled Algorithm 4 kernel unavailable ({exc}): "
                        "running the NumPy kernels — same bits, slower",
                        RuntimeWarning, stacklevel=3,
                    )
                self._resolved = True
            return self._fold


_RESOLVER = _Resolver()


def resolve() -> Optional[Callable]:
    """The compiled ``fold(out, z_start, tiles, projections, matrices)`` or
    ``None`` (run the NumPy kernel); decided once per process, thread-safe."""
    return _RESOLVER.resolve()


def isa() -> Optional[str]:
    """The loop the resolved kernel runs — ``"avx2"`` (eight columns per step)
    or ``"scalar"`` — or ``None`` when the NumPy kernels run."""
    fold = resolve()
    return None if fold is None else fold.isa
