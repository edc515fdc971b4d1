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
  through the full ``FDKReconstructor`` path (filter + back-project);
* **golden-acquisition hashes** — on the pinned 32³ golden acquisition
  (full scan and Parker-weighted short scan), ``parallel`` reproduces the
  exact vectorized-family hash at every worker count and stays within the
  conformance RMSE of the checked-in golden volumes;
* **no leaked threads** — after ``FDKReconstructor`` teardown every worker
  thread is joined (the accounting idiom of ``repro.mpi.engine``: all
  threads this package starts are named, joinable and attributable).
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends import TiledBackend
from repro.backends.tiled import WORKER_THREAD_PREFIX, WorkerPool
from repro.core import FDKReconstructor, default_geometry_for_problem
from repro.core.types import ProjectionStack
from repro.scenarios import reconstruct_scenario

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


@pytest.mark.parametrize("algorithm", ["proposed", "standard"])
def test_worker_counts_agree_end_to_end(algorithm):
    """Full FDK (filter + BP) is invariant across workers and equals blocked."""
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=8, nx=16, ny=16, nz=16)
    raw = make_stack(geometry, filtered=False)
    reference_bytes = None
    for workers in WORKER_COUNTS:
        with FDKReconstructor(
            geometry=geometry, algorithm=algorithm, backend="parallel",
            workers=workers,
        ) as reconstructor:
            volume = reconstructor.reconstruct(raw.copy()).volume.data
        if reference_bytes is None:
            reference_bytes = volume.tobytes()
        assert volume.tobytes() == reference_bytes, f"workers={workers} diverged"
    blocked = FDKReconstructor(geometry=geometry, algorithm=algorithm,
                               backend="blocked").reconstruct(raw.copy())
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
        with FDKReconstructor(
            geometry=geometry, backend="parallel", workers=workers
        ) as reconstructor:
            volume = reconstructor.reconstruct(stack).volume.data
    else:
        with TiledBackend(workers=workers) as backend:
            volume = reconstruct_scenario(
                "short_scan", geometry, stack, backend=backend
            ).volume.data
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
    reconstructor = FDKReconstructor(
        geometry=geometry, backend="parallel", workers=3
    )
    reconstructor.reconstruct(stack)
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
    from repro.streaming import reconstruct_streaming

    before = set(threading.enumerate())
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=12, nx=12, ny=12, nz=8)
    stack = make_stack(geometry, filtered=False)
    with TiledBackend(workers=1) as backend:
        result = reconstruct_streaming(stack, geometry, backend=backend, chunk_size=3)
        assert result.chunk_count == 4 and not backend.pool_started
    assert set(threading.enumerate()) == before


@pytest.fixture
def always_overlap(monkeypatch):
    """Small geometries are back-projection-bound: lift the selection rule."""
    from repro.streaming import reconstructor

    monkeypatch.setattr(reconstructor, "OVERLAP_MIN_FILTER_SHARE", 0.0)


def test_overlapped_driver_thread_is_attributable_and_joined(always_overlap):
    """The driver's producer carries the pool's name prefix (so every leak
    check here sees it), lives only inside a run and is gone after it —
    whether the run returned or raised."""
    from repro.streaming import StreamingError, StreamingReconstructor, StackChunkSource

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
        geometry, backend="parallel", workers=3, chunk_size=3
    )
    driver.reconstruct(Watching(stack))
    assert set(seen) == {WORKER_THREAD_PREFIX + "-filter"}
    assert not [t for t in parallel_threads(baseline) if "filter" in t.name]

    class Short(Watching):
        def chunks(self, bounds):
            return super().chunks(bounds[:3])

    with pytest.raises(StreamingError, match="partial volume"):
        driver.reconstruct(Short(stack))
    assert not [t for t in parallel_threads(baseline) if "filter" in t.name]
    driver.close()
    leaked = [t for t in parallel_threads(baseline) if t.is_alive()]
    assert not leaked, f"leaked worker threads: {[t.name for t in leaked]}"


def test_overlapped_driver_under_thread_switch_stress(always_overlap):
    """More workers than cores and a 10 µs switch interval: every run still
    produces the one-worker bits and leaves no thread behind."""
    from repro.streaming import reconstruct_streaming

    baseline = parallel_threads()
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=24, nx=16, ny=16, nz=12)
    stack = make_stack(geometry, filtered=False)
    expected = reconstruct_streaming(stack, geometry, backend="blocked").volume.data
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 20.0
    try:
        with TiledBackend(workers=4) as backend:
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
        with pytest.raises(RuntimeError, match="tile failed"):
            pool.run([bad, slow])
        assert finished == ["slow"], "run() raised while a sibling was running"
    finally:
        pool.close()
