"""Simulated parallel file system (PFS).

ABCI mounts a 6.6 PB GPFS file system; the paper measures its aggregate
bandwidth with LLNL's IOR (``BW_load``/``BW_store`` in Section 4.2.1) and a
peak sequential write bandwidth of 28.5 GB/s (Section 5.3.3).  This module
replaces GPFS with :class:`SimulatedPFS`:

* data can be held **in memory** (default — fast, used by tests and by the
  functional distributed runs) or **on local disk** under a directory
  (used by the examples so the output volume really lands in files);
* every write is charged against a per-file striping model (the stripe-size
  ablation reads it); the aggregate ``T_load``/``T_store`` of Eq. 8 and
  Eq. 16 are the performance model's (:mod:`repro.pipeline.perfmodel`);
* files are striped across ``stripe_count`` object-storage targets with a
  configurable ``stripe_size`` — mirroring the paper's note that the output
  slices "written to PFS [are] not tuned to the ideal stripe size".
"""

from __future__ import annotations

import ast
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PFSConfig", "SimulatedPFS"]


@dataclass(frozen=True)
class PFSConfig:
    """Write bandwidth and striping parameters of the simulated file system.

    The defaults model ABCI's GPFS as characterized in the paper:
    28.5 GB/s aggregate sequential write and 1 MiB stripes across 16 targets.
    """

    write_bandwidth: float = 28.5e9
    stripe_size: int = 1 << 20
    stripe_count: int = 16
    per_file_latency: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.write_bandwidth <= 0:
            raise ValueError("write_bandwidth must be positive")
        if self.stripe_size <= 0 or self.stripe_count <= 0:
            raise ValueError("stripe_size and stripe_count must be positive")
        if self.per_file_latency < 0:
            raise ValueError("per_file_latency must be non-negative")

    def stripe_efficiency(self, nbytes: int) -> float:
        """Fraction of peak bandwidth achieved for a file of ``nbytes``.

        A file that spans at least one full stripe per target streams at
        peak; smaller files only engage a subset of the targets.
        """
        if nbytes <= 0:
            return 1.0
        stripes = max(1, -(-nbytes // self.stripe_size))  # ceil division
        engaged = min(stripes, self.stripe_count)
        return engaged / self.stripe_count

    def write_seconds(self, nbytes: int) -> float:
        """Modelled time to write ``nbytes`` as a single file."""
        eff = self.stripe_efficiency(nbytes)
        return self.per_file_latency + nbytes / (self.write_bandwidth * eff)


@dataclass
class PFSStatistics:
    """Aggregate I/O accounting of one simulated file system."""

    bytes_read: int = 0
    bytes_written: int = 0
    files_read: int = 0
    files_written: int = 0
    modelled_write_seconds: float = 0.0


class SimulatedPFS:
    """A named, flat namespace of binary files with modelled write times."""

    def __init__(
        self,
        config: Optional[PFSConfig] = None,
        *,
        root_dir: Optional[os.PathLike] = None,
    ):
        self.config = config or PFSConfig()
        self.root_dir = Path(root_dir) if root_dir is not None else None
        if self.root_dir is not None:
            self.root_dir.mkdir(parents=True, exist_ok=True)
        self._objects: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.stats = PFSStatistics()

    # ------------------------------------------------------------------ #
    def _path_for(self, name: str) -> Path:
        assert self.root_dir is not None
        safe = name.replace("/", "__")
        return self.root_dir / safe

    def write_array(self, name: str, array: np.ndarray) -> float:
        """Store an array under ``name``; returns the modelled write time."""
        array = np.ascontiguousarray(array)
        payload = array.tobytes()
        header = _encode_header(array)
        blob = header + payload
        with self._lock:
            if self.root_dir is not None:
                self._path_for(name).write_bytes(blob)
            else:
                self._objects[name] = blob
            seconds = self.config.write_seconds(len(blob))
            self.stats.bytes_written += len(blob)
            self.stats.files_written += 1
            self.stats.modelled_write_seconds += seconds
        return seconds

    def read_array(self, name: str) -> np.ndarray:
        """Load the array stored under ``name`` (raises ``KeyError`` if absent)."""
        return self.read_view(name).copy()

    def read_view(self, name: str) -> np.ndarray:
        """:meth:`read_array` without its copy: a read-only array over the bytes
        read, for a caller that copies anyway."""
        with self._lock:
            if self.root_dir is not None:
                path = self._path_for(name)
                if not path.exists():
                    raise KeyError(f"no PFS object named {name!r}")
                blob = path.read_bytes()
            else:
                blob = self._stored(name)
            self._count_read(len(blob))
        return _decode_blob(blob, name)

    def read_into(self, name: str, out: np.ndarray) -> None:
        """:meth:`read_array` into ``out``, which must have the stored shape.

        The same lock, statistics (one file, its full size) and header checks
        as :meth:`read_array`.  When ``out`` has the stored dtype and is
        contiguous, the payload goes straight into it — a file's with one
        ``readinto``, an in-memory object's with one copy; otherwise the object
        is decoded and cast.  A stored shape other than ``out``'s is a
        ``ValueError`` naming the object and both shapes, never a broadcast.
        """
        with self._lock:
            if self.root_dir is None:
                blob = self._stored(name)
                size = len(blob)
            else:
                try:
                    handle = self._path_for(name).open("rb")
                except FileNotFoundError:
                    raise KeyError(f"no PFS object named {name!r}") from None
                with handle:
                    size = os.fstat(handle.fileno()).st_size
                    head = handle.read(4)
                    head += handle.read(min(int.from_bytes(head, "little"), max(size - 4, 0)))
                    dtype, shape, _ = _parse_header(head, size, name)
                    _check_shape(name, shape, out.shape)
                    if dtype == out.dtype and out.flags.c_contiguous:
                        blob = None
                        if handle.readinto(memoryview(out).cast("B")) != out.nbytes:
                            raise ValueError(f"corrupt PFS object {name!r}: payload cut short")
                    else:
                        blob = head + handle.read()
            self._count_read(size)
        if blob is not None:
            stored = _decode_blob(blob, name)
            _check_shape(name, stored.shape, out.shape)
            out[...] = stored

    def _stored(self, name: str) -> bytes:
        if name not in self._objects:
            raise KeyError(f"no PFS object named {name!r}")
        return self._objects[name]

    def _count_read(self, nbytes: int) -> None:
        self.stats.bytes_read += nbytes
        self.stats.files_read += 1

    def exists(self, name: str) -> bool:
        with self._lock:
            if self.root_dir is not None:
                return self._path_for(name).exists()
            return name in self._objects

    def list_objects(self) -> List[str]:
        with self._lock:
            if self.root_dir is not None:
                return sorted(p.name for p in self.root_dir.iterdir() if p.is_file())
            return sorted(self._objects)

    def delete(self, name: str) -> None:
        with self._lock:
            if self.root_dir is not None:
                path = self._path_for(name)
                if path.exists():
                    path.unlink()
            else:
                self._objects.pop(name, None)


# --------------------------------------------------------------------------- #
# Tiny self-describing serialization (dtype + shape header, raw bytes payload)
# --------------------------------------------------------------------------- #
#: CPython 3.11 keeps the AST constructor's recursion counter in interpreter
#: state: two threads in ``ast.literal_eval`` at once (iFDK ranks reading
#: their projections) can fail with ``SystemError`` ("AST constructor
#: recursion depth mismatch").  Header parses take turns.
_LITERAL_EVAL_LOCK = threading.Lock()


def _encode_header(array: np.ndarray) -> bytes:
    descr = np.lib.format.dtype_to_descr(array.dtype)
    header = repr({"descr": descr, "shape": array.shape}).encode("ascii")
    return len(header).to_bytes(4, "little") + header


def _parse_header(
    head: bytes, size: int, name: str
) -> Tuple[np.dtype, Tuple[int, ...], int]:
    """``(dtype, shape, payload offset)`` of a stored ``size``-byte object
    whose first bytes are ``head`` — its whole header, if it has one that
    fits; ``name`` is for the error only.

    An on-disk object is outside input: the header is parsed as a literal,
    never evaluated, and a torn or foreign one is a ``ValueError`` naming
    the object — not a traceback from inside NumPy, and never code run.
    """
    try:
        header_len = int.from_bytes(head[:4], "little")
        if len(head) < 4 or size < 4 + header_len or len(head) < 4 + header_len:
            raise ValueError(f"header of {header_len} bytes in a {size}-byte object")
        dtype, shape, offset = _read_header(bytes(head[: 4 + header_len]))
        payload_bytes = size - offset
        expected = dtype.itemsize * math.prod(shape)
        if payload_bytes != expected:
            raise ValueError(f"payload is {payload_bytes} bytes, header promises {expected}")
        return dtype, shape, offset
    except (ValueError, SyntaxError, KeyError, TypeError, MemoryError, RecursionError) as exc:
        raise ValueError(f"corrupt PFS object {name!r}: {exc}") from exc


@lru_cache(maxsize=256)
def _read_header(header: bytes) -> Tuple[np.dtype, Tuple[int, ...], int]:
    """``(dtype, shape, header length)`` of one object's exact header bytes,
    length prefix included: memoised, since a stack's objects share one
    header.  A bad header raises, and a raise is never cached."""
    with _LITERAL_EVAL_LOCK:
        fields = ast.literal_eval(header[4:].decode("ascii"))
    if not isinstance(fields, dict):
        raise ValueError("header is not a dictionary")
    dtype = np.lib.format.descr_to_dtype(fields["descr"])
    shape = tuple(fields["shape"])
    if dtype.hasobject or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ValueError(f"unusable dtype {dtype!r} / shape {shape!r}")
    return dtype, shape, len(header)


def _decode_blob(blob: bytes, name: str) -> np.ndarray:
    """A stored object as a read-only array over its payload bytes (no copy)."""
    dtype, shape, offset = _parse_header(blob, len(blob), name)
    return np.frombuffer(blob, dtype=dtype, offset=offset).reshape(shape)


def _check_shape(name: str, stored: Tuple[int, ...], expected: Tuple[int, ...]) -> None:
    if stored != expected:
        raise ValueError(
            f"corrupt PFS object {name!r}: shape {stored} where {expected} is expected"
        )
