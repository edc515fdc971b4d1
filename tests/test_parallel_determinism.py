"""Concurrency-determinism harness for the tiled backend's worker pool.

``parallel`` is the tiled backend fanned out over worker threads.  The
backend's whole contract is that concurrency is *invisible* in the
output: workers own disjoint tiles of one preallocated volume, so the bits
may depend only on the input stack — never on worker count, scheduling
order, pool reuse or repetition.  This module locks that down:

* **same bits across repeated runs** — two executions of the identical
  reconstruction on one backend instance (a reused, warm pool) are
  byte-identical;
* **same bits across worker counts** — workers ∈ {1, 2, 3, 4} all produce
  the identical volume, equal to the single-threaded ``blocked`` name,
  through the full ``StreamingReconstructor`` path (filter + back-project);
* **golden-acquisition hashes** — on the pinned 32³ golden acquisition
  (full scan and Parker-weighted short scan), ``parallel`` reproduces the
  exact vectorized-family hash at every worker count and stays within the
  conformance RMSE of the checked-in golden volumes;
* **no leaked threads** — after ``StreamingReconstructor`` teardown every worker
  thread is joined (the accounting idiom of ``repro.mpi.engine``: all
  threads this package starts are named, joinable and attributable);
* **native shards** — the compiled Algorithm 4 executor
  (``repro.backends.native``) under the same pool: worker counts agree on
  both executors, racing first users end with one usable object, a failed
  foreign call surfaces after every sibling finished, and every way the
  build-and-cache path can go wrong (no compiler, a corrupt cached object or
  one flipped bit of it, an unusable cache directory) is a rebuild or the
  NumPy fallback with one warning naming the reason — never a crash; and
  the source with its x86-64 blocks removed builds the proven scalar loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.backends import TiledBackend, native
from repro.backends.tiled import WORKER_THREAD_PREFIX, WorkerPool
from repro.core import default_geometry_for_problem
from repro.core.types import ProjectionStack
from repro.streaming import StreamingReconstructor

import test_golden_fdk as golden

pytestmark = pytest.mark.parallel

DATA_DIR = Path(__file__).parent / "data"

WORKER_COUNTS = (1, 2, 3, 4)


def make_stack(geometry, seed: int = 23, *, filtered: bool = True) -> ProjectionStack:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(
        (geometry.np_, geometry.nv, geometry.nu)
    ).astype(np.float32)
    return ProjectionStack(data=data, angles=geometry.angles, filtered=filtered)


def parallel_threads(baseline=()):
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith(WORKER_THREAD_PREFIX) and t not in baseline
    ]


# --------------------------------------------------------------------------- #
# Repetition and worker-count invariance
# --------------------------------------------------------------------------- #
def test_repeated_runs_are_bit_identical():
    """A warm, reused pool must not perturb a single bit between runs."""
    geometry = default_geometry_for_problem(nu=28, nv=20, np_=12, nx=18, ny=14, nz=10)
    stack = make_stack(geometry)
    with TiledBackend(workers=4) as backend:
        first = backend.backproject(stack, geometry, algorithm="proposed").data
        second = backend.backproject(stack, geometry, algorithm="proposed").data
    assert first.tobytes() == second.tobytes()


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("algorithm", ["proposed", "standard"])
def test_worker_counts_agree_end_to_end(algorithm):
    """Full FDK (filter + BP) is invariant across workers and equals blocked."""
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=8, nx=16, ny=16, nz=16)
    raw = make_stack(geometry, filtered=False)
    reference_bytes = None
    for workers in WORKER_COUNTS:
        with StreamingReconstructor(
            geometry, algorithm=algorithm, backend="parallel", workers=workers,
        ) as reconstructor:
            volume = reconstructor.reconstruct_stack(raw.copy()).volume.data
        if reference_bytes is None:
            reference_bytes = volume.tobytes()
        assert volume.tobytes() == reference_bytes, f"workers={workers} diverged"
    blocked = StreamingReconstructor(
        geometry, algorithm=algorithm, backend="blocked"
    ).reconstruct_stack(raw.copy())
    assert blocked.volume.data.tobytes() == reference_bytes


def test_streaming_and_whole_stack_dispatch_agree():
    """The rank runtime's per-projection add() path equals add_stack()."""
    geometry = default_geometry_for_problem(nu=28, nv=20, np_=6, nx=18, ny=14, nz=10)
    stack = make_stack(geometry)
    with TiledBackend(workers=3) as backend:
        whole = backend.backproject(stack, geometry, algorithm="proposed").data
        acc = backend.accumulator(geometry, algorithm="proposed")
        for angle, projection in stack:
            acc.add(projection, angle)
        streamed = acc.volume().data
    np.testing.assert_array_equal(streamed, whole)


# --------------------------------------------------------------------------- #
# Golden-acquisition hashes (full scan and short scan)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def family_hashes():
    """Vectorized-family digest per golden family, computed once."""
    return {
        family: hashlib.sha256(
            golden.reconstruct(family, "vectorized").tobytes()
        ).hexdigest()
        for family in sorted(golden.FAMILIES)
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("family", sorted(golden.FAMILIES))
def test_parallel_reproduces_golden_acquisition_hash(family, workers, family_hashes):
    """Every worker count reproduces the family hash on the 32³ golden scans."""
    geometry = golden.golden_geometry()
    stack = golden.golden_stack()
    if family == "full":
        with StreamingReconstructor(
            geometry, backend="parallel", workers=workers
        ) as reconstructor:
            volume = reconstructor.reconstruct_stack(stack).volume.data
    else:
        with TiledBackend(workers=workers) as backend:
            volume = golden.short_scan_volume(geometry, stack, backend)
    digest = hashlib.sha256(volume.tobytes()).hexdigest()
    assert digest == family_hashes[family], (
        f"parallel workers={workers} drifted from the vectorized family on "
        f"the golden {family} acquisition"
    )


@pytest.mark.parametrize("family", sorted(golden.FAMILIES))
def test_parallel_tracks_checked_in_golden_volume(family):
    """And the result stays inside the conformance RMSE of the pinned npz."""
    stem = golden.FAMILIES[family]
    pinned = np.load(DATA_DIR / f"{stem}.npz")["volume"]
    meta = json.loads((DATA_DIR / f"{stem}.json").read_text())
    assert hashlib.sha256(pinned.tobytes()).hexdigest() == meta["sha256"]
    volume = golden.reconstruct(family, "parallel")
    assert golden.rel_rmse(volume, pinned) <= golden.BACKEND_RMSE_TOL


# --------------------------------------------------------------------------- #
# Thread hygiene
# --------------------------------------------------------------------------- #
def test_no_leaked_threads_after_reconstructor_teardown():
    """close() joins every worker the reconstructor's pool started."""
    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=8, nx=16, ny=16, nz=16)
    stack = make_stack(geometry, filtered=False)
    reconstructor = StreamingReconstructor(geometry, backend="parallel", workers=3)
    reconstructor.reconstruct_stack(stack)
    assert parallel_threads(baseline), "a 3-worker run should have started a pool"
    reconstructor.close()
    leaked = [t for t in parallel_threads(baseline) if t.is_alive()]
    assert not leaked, f"leaked worker threads: {[t.name for t in leaked]}"
    reconstructor.close()  # idempotent


def test_closed_pool_restarts_lazily():
    """Closing a shared backend must never poison later users."""
    backend = TiledBackend(workers=2)
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=4, nx=12, ny=12, nz=8)
    stack = make_stack(geometry)
    first = backend.backproject(stack, geometry).data
    backend.close()
    assert not backend.pool_started
    second = backend.backproject(stack, geometry).data  # restarts lazily
    np.testing.assert_array_equal(first, second)
    backend.close()


def test_workers_one_never_starts_threads():
    """workers=1 is genuinely single-threaded: inline execution, no pool."""
    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=4, nx=12, ny=12, nz=8)
    stack = make_stack(geometry)
    with TiledBackend(workers=1) as backend:
        backend.backproject(stack, geometry)
        assert not backend.pool_started
    assert parallel_threads(baseline) == []


def test_workers_one_driver_never_starts_threads():
    """The chunk driver at one worker is the single-threaded loop it was."""
    from repro.streaming import StackChunkSource, StreamingReconstructor

    before = set(threading.enumerate())
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=12, nx=12, ny=12, nz=8)
    stack = make_stack(geometry, filtered=False)
    with TiledBackend(workers=1) as backend:
        with StreamingReconstructor(geometry, backend=backend, chunk_size=3) as reconstructor:
            result = reconstructor.reconstruct(StackChunkSource(stack))
        assert result.chunk_count == 4 and not backend.pool_started
    assert set(threading.enumerate()) == before


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("workers", [2, 3])
def test_chunk_driver_reads_in_turn_and_leaves_no_thread(workers):
    """Every chunk is read on the calling thread, no ``-filter`` producer is
    ever started, and closing the driver joins its pool — whether the run
    returned or raised."""
    from repro.streaming import StreamingError, StackChunkSource

    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=12, nx=12, ny=12, nz=8)
    stack = make_stack(geometry, filtered=False)
    seen = []

    class Watching(StackChunkSource):
        def chunks(self, bounds):
            for piece in super().chunks(bounds):
                seen.append(threading.current_thread().name)
                yield piece

    driver = StreamingReconstructor(
        geometry, backend="parallel", workers=workers, chunk_size=3
    )
    driver.reconstruct(Watching(stack))
    assert seen == [threading.current_thread().name] * 4

    class Short(Watching):
        def chunks(self, bounds):
            return super().chunks(bounds[:3])

    with pytest.raises(StreamingError, match="partial volume"):
        driver.reconstruct(Short(stack))
    assert not [t for t in parallel_threads(baseline) if "filter" in t.name]
    driver.close()
    leaked = [t for t in parallel_threads(baseline) if t.is_alive()]
    assert not leaked, f"leaked worker threads: {[t.name for t in leaked]}"


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("workers", [2, 3])
def test_chunk_driver_under_thread_switch_stress(workers):
    """A 10 µs switch interval: every run still produces the one-worker bits
    and leaves no thread behind."""
    from repro.streaming import StackChunkSource, StreamingReconstructor

    def reconstruct_streaming(stack, geometry, **options):
        with StreamingReconstructor(geometry, **options) as reconstructor:
            return reconstructor.reconstruct(StackChunkSource(stack))

    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=24, nx=16, ny=16, nz=12)
    stack = make_stack(geometry, filtered=False)
    expected = reconstruct_streaming(stack, geometry, backend="blocked").volume.data
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 20.0
    try:
        with TiledBackend(workers=workers) as backend:
            for chunk_size in (1, 2, 5, 1, 2, 5):
                result = reconstruct_streaming(
                    stack, geometry, backend=backend, chunk_size=chunk_size
                )
                assert result.volume.data.tobytes() == expected.tobytes()
                assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)
    leaked = [t for t in parallel_threads(baseline) if t.is_alive()]
    assert not leaked, f"leaked worker threads: {[t.name for t in leaked]}"


def test_malformed_env_workers_fails_on_use_not_import(monkeypatch):
    """A bad REPRO_PARALLEL_WORKERS must not poison package import.

    The registry instance resolves its worker count lazily, so the error
    surfaces as a ValueError on the first parallel execution — inside the
    CLI's normal exit-2 path — never as an import-time crash of unrelated
    commands.
    """
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "banana")
    backend = TiledBackend()  # construction must succeed
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=4, nx=12, ny=12, nz=8)
    stack = make_stack(geometry)
    with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS"):
        backend.backproject(stack, geometry)
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
    assert TiledBackend().workers == 2


def test_distributed_run_joins_config_owned_pool():
    """IFDKFramework must not leak the pool of an explicit workers count."""
    from repro.pipeline import IFDKConfig, IFDKFramework

    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=8, nx=12, ny=12, nz=8)
    config = IFDKConfig(
        geometry=geometry, rows=2, columns=2, backend="parallel", workers=2
    )
    stack = make_stack(geometry, filtered=False)
    result = IFDKFramework(config).reconstruct(stack)
    assert result.volume.data.shape == (8, 12, 12)
    leaked = [t for t in parallel_threads(baseline) if t.is_alive()]
    assert not leaked, f"leaked worker threads: {[t.name for t in leaked]}"


def test_worker_pool_validation_and_error_propagation():
    with pytest.raises(ValueError, match="positive integer"):
        WorkerPool(0)
    with pytest.raises(ValueError, match="positive integer"):
        TiledBackend(workers=-2)
    pool = WorkerPool(2)
    boom = RuntimeError("tile failed")

    def bad():
        raise boom

    with pytest.raises(RuntimeError, match="tile failed"):
        pool.run([bad, lambda: None])
    pool.close()


def test_the_caller_is_one_of_the_workers():
    """``run`` keeps the calling thread busy with the first task instead of
    parking it (a parked caller wakes every pool thread on its own core)."""
    pool = WorkerPool(3)
    ran = {}
    barrier = threading.Barrier(3)  # all three tasks are in flight at once

    def task(index):
        barrier.wait(timeout=10.0)
        ran[index] = threading.current_thread()

    try:
        pool.run([lambda i=i: task(i) for i in range(3)])
    finally:
        pool.close()
    assert ran[0] is threading.current_thread()
    assert {ran[1].name, ran[2].name} <= {f"{WORKER_THREAD_PREFIX}_{n}" for n in range(3)}
    assert ran[1] is not ran[2]


def test_worker_pool_waits_for_siblings_before_raising():
    """A failed task must not return control while siblings still write.

    Tasks share one output array; if ``run`` re-raised on the first failed
    future, the caller could read (or free) the volume under a live writer.
    """
    pool = WorkerPool(2)
    sibling_started = threading.Event()
    finished = []

    def bad():
        sibling_started.wait(timeout=5.0)
        raise RuntimeError("tile failed")

    def slow():
        sibling_started.set()
        time.sleep(0.2)
        finished.append("slow")

    try:
        for tasks in ([bad, slow], [slow, bad]):  # failing on the caller, or beside it
            finished.clear()
            sibling_started.clear()
            with pytest.raises(RuntimeError, match="tile failed"):
                pool.run(tasks)
            assert finished == ["slow"], "run() raised while a sibling was running"
    finally:
        pool.close()


# --------------------------------------------------------------------------- #
# Native shards: the compiled executor's build, cache, load and failure paths
# --------------------------------------------------------------------------- #
@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """An empty compiled-kernel cache (and nowhere else to fall back to)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path / "cache"


def resolve_fresh():
    """A first use, as a new process would make it: ``(fold, warnings)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolver = native._Resolver()
        fold = resolver.resolve()
        assert resolver.resolve() is fold  # decided once: no second attempt
    return fold, [str(w.message) for w in caught if w.category is RuntimeWarning]


def assert_usable(fold):
    """``fold`` reproduces the NumPy executor's bits on a small stack."""
    geometry = default_geometry_for_problem(nu=20, nv=16, np_=3, nx=10, ny=8, nz=6)
    stack = make_stack(geometry)
    with mock.patch.object(native, "resolve", return_value=None):
        expected = TiledBackend(workers=1).backproject(stack, geometry).data
    with mock.patch.object(native, "resolve", return_value=fold):
        result = TiledBackend(workers=1).backproject(stack, geometry).data
    assert result.tobytes() == expected.tobytes()


def test_compiler_flags_are_pinned(native_executor, empty_cache):
    """No ``-ffast-math``, no ``-Ofast``, no ISA flag; contraction off."""
    assert native.FLAGS == ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
    commands = []
    real_run = subprocess.run

    def run(command, **kwargs):
        commands.append(list(command))
        return real_run(command, **kwargs)

    with mock.patch.object(native.subprocess, "run", run):
        fold, reasons = resolve_fresh()
    assert fold is not None and not reasons
    (command,) = commands  # one build, and a cache hit starts no process
    flags = [arg for arg in command[1:] if arg.startswith("-") and arg != "-"]
    assert flags == ["-O2", "-ffp-contract=off", "-shared", "-fPIC", "-x", "-o"]
    (cached,) = empty_cache.glob("repro-native-*/*")
    assert cached.name == native.object_name(native.source())
    assert cached.parent.stat().st_mode & 0o777 == 0o700
    with mock.patch.object(native.subprocess, "run", side_effect=AssertionError):
        assert_usable(resolve_fresh()[0])


def test_threads_racing_the_first_load_share_one_object(native_executor, empty_cache):
    baseline = set(threading.enumerate())
    resolver = native._Resolver()
    barrier = threading.Barrier(4)
    folds = []

    def first_use():
        barrier.wait(timeout=10.0)
        folds.append(resolver.resolve())

    builds = []
    real_build = native.build
    with mock.patch.object(
        native, "build", lambda *args: (builds.append(args), real_build(*args))
    ):
        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    assert len(builds) == 1 and len(folds) == 4
    assert all(fold is folds[0] for fold in folds)
    assert_usable(folds[0])
    assert [path.suffix for path in empty_cache.glob("repro-native-*/*")] == [".so"]
    assert set(threading.enumerate()) == baseline


def test_builders_racing_one_cache_each_install_a_whole_object(native_executor, empty_cache):
    """Write-then-``os.replace``: whoever loses the race still loads a
    complete object, and no partial file is left beside it."""
    path = native.cache_dir() / native.object_name(native.source())
    threads = [
        threading.Thread(target=native.build, args=(native.source(), path))
        for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert [entry.name for entry in path.parent.iterdir()] == [path.name]
    assert_usable(native.load())


def _wrong_architecture(image: bytes) -> bytes:
    """The same ELF object claiming another machine (``e_machine``, offset 18),
    sealed again: the digest holds, ``dlopen`` itself must refuse it."""
    machine = int.from_bytes(image[18:20], "little")
    other = 183 if machine != 183 else 62  # EM_AARCH64, else EM_X86_64
    body = image[:18] + other.to_bytes(2, "little") + image[20:-32]
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("damage", [
    lambda image: b"",
    lambda image: image[: len(image) // 3],
    _wrong_architecture,
    lambda image: b"not an object at all\n" * 40,
], ids=["zero-byte", "truncated", "wrong-architecture", "text"])
def test_a_corrupt_cached_object_is_a_rebuild(native_executor, empty_cache, damage):
    path = native.cache_dir() / native.object_name(native.source())
    native.build(native.source(), path)
    good = path.read_bytes()
    path.write_bytes(damage(good))
    fold, reasons = resolve_fresh()
    assert not reasons
    assert_usable(fold)
    assert path.read_bytes()[:64] == good[:64] and len(path.read_bytes()) == len(good)


def _install(path: Path, image: bytes) -> None:
    """``image`` at ``path`` as a new file: an object this process has mapped
    is never rewritten in place."""
    partial = path.with_name(path.name + ".partial")
    partial.write_bytes(image)
    os.replace(partial, path)


def _sampled_offsets(image: bytes) -> list:
    """Offsets to damage in a sealed 64-bit little-endian ELF object: header
    fields, ``.text`` and the entry points and lane loop in it, the middle of
    the image, the 32-byte digest trailer."""
    shoff, = struct.unpack_from("<Q", image, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", image, 0x3A)
    headers = [
        struct.unpack_from("<IIQQQQIIQQ", image, shoff + n * shentsize) for n in range(shnum)
    ]

    def name(table, at):
        start = headers[table][4] + at
        return image[start:image.index(b"\0", start)].decode()

    sections = {name(shstrndx, h[0]): h for h in headers}
    _, _, _, text_addr, text_offset, text_size, *_ = sections[".text"]
    symtab, strtab = sections[".symtab"], headers.index(sections[".strtab"])
    functions = {}
    for at in range(symtab[4], symtab[4] + symtab[5], 24):
        st_name, _, _, _, value, size = struct.unpack_from("<IBBHQQ", image, at)
        functions[name(strtab, st_name)] = (value - text_addr + text_offset, size)
    offsets = [0, 4, 18, 0x28, text_offset, text_offset + text_size // 2]
    # The static ones only where the compiler kept them (the lane loop: x86-64).
    for function in ["alg4_fold", "alg4_fold_scalar", "fold", "fold_lanes"]:
        if function in functions or function.startswith("alg4"):
            start, size = functions[function]
            offsets += [start, start + size // 2]
    return offsets + [len(image) // 2, len(image) - 32, len(image) - 1]


def test_every_flipped_bit_of_the_cached_object_is_refused_before_dlopen(
    native_executor, empty_cache
):
    """One bit flipped at each sampled offset of a sealed object: ``_bind``
    raises ``OSError`` without calling ``dlopen``, and ``load`` rebuilds a
    proven object (here by reinstalling the good image, so no flip pays a
    compile)."""
    path = native.cache_dir() / native.object_name(native.source())
    native.build(native.source(), path)
    good = path.read_bytes()
    offsets = _sampled_offsets(good)
    assert len(set(offsets)) >= 13 and max(offsets) < len(good)
    rebuilt = []

    def rebuild(code, target):
        rebuilt.append(target)
        _install(target, good)

    for offset in offsets:
        flipped = bytearray(good)
        flipped[offset] ^= 1 << offset % 8
        _install(path, bytes(flipped))
        with mock.patch.object(native.ctypes, "CDLL", side_effect=AssertionError("dlopen")):
            with pytest.raises(OSError, match="damaged"):
                native._bind(path)
        with mock.patch.object(native, "build", rebuild):
            assert native.load().isa == native.isa()
        assert path.read_bytes() == good
    assert rebuilt == [path] * len(offsets)


def test_the_source_without_its_x86_blocks_builds_the_proven_scalar_loop(
    native_executor, tmp_path
):
    """What a build for another machine type compiles: ``alg4.c`` with its
    x86-64 blocks preprocessed out (``-U__x86_64__`` would also undefine it
    for the C library's headers) builds with the pinned flags, reports the
    scalar loop and passes the same proof."""
    guard = b"#if defined(__x86_64__)"
    code = native.source()
    assert code.count(guard) == 2
    path = tmp_path / "alg4-portable.so"
    native.build(code.replace(guard, b"#if 0"), path)
    fold = native._bind(path)
    assert fold.isa == "scalar"
    native._prove(fold)


@pytest.mark.parametrize("setup, reason", [
    ("cc-false", "build failed"),
    ("no-cc", "no compiler"),
    ("cache-is-a-file", "cache not writable"),
    ("cache-of-another-user", "cache not writable"),
    ("wrong-bits", "self-check mismatch"),
])
def test_every_failure_is_the_numpy_fallback_with_one_named_warning(
    empty_cache, monkeypatch, setup, reason
):
    if setup == "cc-false":
        monkeypatch.setenv("CC", "false")
    elif setup == "no-cc":
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(empty_cache.parent / "tmp"))
    elif setup == "cache-is-a-file":
        empty_cache.write_text("in the way")
        monkeypatch.setattr(native.tempfile, "tempdir", str(empty_cache))
    elif setup == "cache-of-another-user":
        # As seen by a caller with another uid: the directories exist already
        # and are not that caller's.
        for root in (empty_cache, empty_cache.parent / "tmp"):
            (root / f"repro-native-{os.getuid() + 1}").mkdir(parents=True)
        monkeypatch.setattr(native.os, "getuid", lambda uid=os.getuid(): uid + 1)
    elif setup == "wrong-bits":
        if native.resolve() is None:
            pytest.skip("no compiled kernel on this host")
        real_bind = native._bind

        def bind(*args):
            fold = real_bind(*args)

            def off_by_one_ulp(out, *operands):
                fold(out, *operands)
                out.view(np.uint32)[0, 0, 0] ^= 1

            return off_by_one_ulp

        monkeypatch.setattr(native, "_bind", bind)
    fold, reasons = resolve_fresh()
    assert fold is None
    (warning,) = reasons  # once per process, whatever is asked again
    assert reason in warning and "same bits, slower" in warning
    if setup == "cc-false":
        assert not list(empty_cache.glob("repro-native-*/*"))  # no partial file
    # ... and the run a user asked for goes through on the NumPy kernels.
    with mock.patch.object(native, "_RESOLVER", native._Resolver()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        geometry = default_geometry_for_problem(nu=20, nv=16, np_=3, nx=10, ny=8, nz=6)
        with TiledBackend(workers=2) as backend:
            acc = backend.accumulator(geometry)
            acc.add_stack(make_stack(geometry))
    assert acc.executor == "numpy" and np.isfinite(acc.volume().data).all()


def test_fold_checks_its_operands_before_any_pointer_crosses(native_executor):
    fold = native.resolve()
    out = np.zeros((4, 5, 6), dtype=np.float32)
    stack = np.zeros((2, 7, 8), dtype=np.float32)
    matrices = np.zeros((2, 3, 4))
    tiles = [(0, 4, 0, 5)]
    for bad in [
        dict(out=out.astype(np.float64)),
        dict(out=out[:, :, ::2]),
        dict(out=np.zeros((4, 5), dtype=np.float32)),
        dict(tiles=[(0, 5, 0, 5)]),
        dict(tiles=[(0, 4, 0, 6)]),
        dict(tiles=[(-1, 4, 0, 5)]),
        dict(tiles=[(0, 4, 3, 2)]),
        dict(tiles=[(0, 4, 0)]),
        dict(matrices=np.zeros((3, 3, 4))),
        dict(matrices=np.zeros((2, 4, 3))),
        dict(projections=np.zeros((7, 8), dtype=np.float32)),
    ]:
        operands = dict(out=out, tiles=tiles, projections=stack, matrices=matrices)
        operands.update(bad)
        with pytest.raises(ValueError):
            fold(operands["out"], 0, operands["tiles"], operands["projections"],
                 operands["matrices"])
    read_only = out.copy()
    read_only.setflags(write=False)
    with pytest.raises(ValueError):
        fold(read_only, 0, tiles, stack, matrices)


@pytest.mark.usefixtures("executor")
def test_an_index_error_surfaces_after_every_sibling_finished(executor):
    """``WorkerPool.run``'s contract, through a foreign call: with ``inf`` in
    ``p[0, 1]`` row ``j = 0`` has ``u = inf * 0 = NaN`` (an ``IndexError``) and
    every other row a clipped ``u = inf`` — so of two shards one fails and one
    folds its whole stack, and the caller sees the error only after both."""
    baseline = set(threading.enumerate())
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=6, nx=12, ny=12, nz=8)
    garbage = geometry.projection_matrix(0.0).matrix.copy()
    garbage[0, 1] = np.inf
    finished = []
    with TiledBackend(workers=2) as backend:
        acc = backend.accumulator(geometry)
        assert acc.executor == executor and len(acc._shards) == 2
        fold_shard = acc._fold_shard

        def watched(shard, *operands):
            try:
                fold_shard(shard, *operands)
                finished.append("folded")
            except IndexError:
                time.sleep(0.05)  # the sibling must not be waited on by luck
                finished.append("raised")
                raise

        acc._fold_shard = watched
        with mock.patch.object(
            type(geometry), "projection_matrix",
            lambda self, angle: mock.Mock(matrix=garbage),
        ), np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(IndexError, match="not finite|out of bounds"):
                acc.add_stack(make_stack(geometry))
        assert sorted(finished) == ["folded", "raised"]
    assert set(threading.enumerate()) == baseline
