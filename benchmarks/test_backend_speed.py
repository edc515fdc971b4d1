"""Backend speed micro-benchmark: reference vs the tiled backend's three names.

The paper's pitch is a back-projection that is arithmetically identical but
far cheaper; the backend seam exists so the repo can keep making that trade
safely.  This benchmark pins a real hot-path number to it: the proposed
back-projection (Algorithm 4) of a 64³ volume from 128 projections, timed
on every registered name plus an explicit 4-worker ``parallel`` run
(``vectorized`` and ``blocked`` are the same one-worker tiled backend, so
their two rows double as a repeatability reading), with the conformance
suite guaranteeing all outputs agree (bit-identically, within the tiled
family).  The results are written to
``BENCH_backend_speed.json`` at the repo root so future PRs can track the
hot path instead of guessing, together with the kernel ``executor`` the tiled
names ran (the compiled Algorithm 4 kernel or, on a host without a compiler,
NumPy) and the compiled kernel's ``isa`` (its AVX2 lane loop or its scalar
one).  The filter layer gets the same treatment:
whole-stack ``filter_stack`` throughput (Mpix/s of raw detector samples) on
the filter-bound 512x64x256 stack, per backend name.  Each run also
*appends* a trajectory entry (git sha, UTC date, host cpu count, executor,
isa, per-backend GUPS and filter Mpix/s) to the record's ``history`` list;
``tests/test_bench_trajectory.py`` fails tier-1 if the newest entry
regresses more than 25% against the previous entry measured on the same
host profile.

Two assertions gate the record:

* ``vectorized`` strictly beats ``reference`` — the PR 2 acceptance bar and
  the regression tripwire for the fast kernels;
* ``parallel`` with 4 workers is at least 2× faster than ``blocked`` — the
  multicore tentpole's bar — asserted only when the host actually has ≥ 4
  cores (thread parallelism cannot manufacture cores; on smaller hosts the
  record still tracks the measured speedup and a bounded-overhead check
  keeps the dispatch cost honest).
"""

from __future__ import annotations

import datetime
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends import BACKEND_NAMES, get_backend, native, resolve_backend
from repro.bench.trajectory import HISTORY_LIMIT, git_sha, trajectory_entry
from repro.core import default_geometry_for_problem
from repro.core.types import ProjectionStack, ReconstructionProblem

# slow: wall-clock assertions don't belong in the blocking tier-1 suite
# (they flake under load/coverage instrumentation); the CI benchmarks job
# and `pytest -m bench -o addopts=` run them.
pytestmark = [pytest.mark.bench, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_backend_speed.json"

#: The 64³ / 128-projection hot-path problem of the acceptance criterion.
PROBLEM = ReconstructionProblem(nu=96, nv=96, np_=128, nx=64, ny=64, nz=64)

#: The filter-bound stack (perfbench's ``fdk_filter_wide`` acquisition).
FILTER_PROBLEM = ReconstructionProblem(nu=512, nv=64, np_=256, nx=16, ny=16, nz=16)

#: Worker count of the recorded parallel run (the acceptance criterion's).
PARALLEL_WORKERS = 4

#: Multicore dispatch must not cost more than this on a core-starved host.
MAX_PARALLEL_OVERHEAD = 1.5


def _best_seconds(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _geometry(problem: ReconstructionProblem):
    return default_geometry_for_problem(
        nu=problem.nu, nv=problem.nv, np_=problem.np_,
        nx=problem.nx, ny=problem.ny, nz=problem.nz,
    )


def _filter_mpix_per_s(backends) -> dict:
    """Whole-stack ``filter_stack`` throughput of each ``name -> backend``."""
    geometry = _geometry(FILTER_PROBLEM)
    stack = ProjectionStack(
        data=np.random.default_rng(1).standard_normal(
            (FILTER_PROBLEM.np_, FILTER_PROBLEM.nv, FILTER_PROBLEM.nu),
            dtype=np.float32,
        ),
        angles=geometry.angles,
    )
    rates = {}
    for name, backend in backends.items():
        backend.filter_stack(stack.subset(range(2)), geometry)  # tables, plans
        seconds = _best_seconds(
            lambda: backend.filter_stack(stack, geometry),
            repeats=1 if name == "reference" else 3,
        )
        rates[name] = stack.data.size / seconds / 1e6
    return rates


def test_backend_speed_records_parallel_speedup():
    geometry = _geometry(PROBLEM)
    rng = np.random.default_rng(0)
    stack = ProjectionStack(
        data=rng.standard_normal(
            (PROBLEM.np_, PROBLEM.nv, PROBLEM.nu)
        ).astype(np.float32),
        angles=geometry.angles,
        filtered=True,  # back-projection only: this is the hot path
    )

    def timed(backend, repeats):
        # One small warm-up reconstruction (grid caches, FFT plans, pool).
        backend.backproject(
            stack.subset(range(2)), geometry, algorithm="proposed",
            z_range=(0, 4),
        )
        seconds = _best_seconds(
            lambda: backend.backproject(stack, geometry, algorithm="proposed"),
            repeats=repeats,
        )
        return {"seconds": seconds, "gups": PROBLEM.gups(seconds)}

    results = {}
    for name in BACKEND_NAMES:
        if name == "parallel":
            continue  # recorded separately with an explicit worker count
        results[name] = timed(get_backend(name), 1 if name == "reference" else 2)
    filter_backends = {
        name: get_backend(name) for name in BACKEND_NAMES if name != "parallel"
    }
    with resolve_backend("parallel", workers=PARALLEL_WORKERS) as backend:
        results["parallel"] = timed(backend, 2)
        results["parallel"]["workers"] = PARALLEL_WORKERS
        filter_rates = _filter_mpix_per_s({**filter_backends, "parallel": backend})

    record = {
        "benchmark": "proposed back-projection (Algorithm 4), hot path only",
        "problem": str(PROBLEM),
        "updates": PROBLEM.updates,
        "cpus": os.cpu_count(),
        # Which kernel executor the tiled names ran ("native" / "numpy") and,
        # on the compiled one, its loop ("avx2" / "scalar"): the host profile
        # the trajectory gate compares within.
        "executor": get_backend("vectorized").accumulator(geometry).executor,
        "isa": native.isa(),
        "backends": results,
        "filter_problem": str(FILTER_PROBLEM),
        "filter_mpix_per_s": filter_rates,
        "speedup_vectorized_over_reference": (
            results["reference"]["seconds"] / results["vectorized"]["seconds"]
        ),
        "speedup_parallel_over_blocked": (
            results["blocked"]["seconds"] / results["parallel"]["seconds"]
        ),
    }

    # Carry the trajectory forward: keep the prior record's history (if the
    # file exists and parses) and append this run as the newest entry.
    history = []
    if RESULT_FILE.exists():
        try:
            history = json.loads(RESULT_FILE.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    if not isinstance(history, list):
        history = []
    entry = trajectory_entry(
        record,
        sha=git_sha(REPO_ROOT),
        date=datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
    )
    entry["filter_mpix_per_s"] = filter_rates
    history.append(entry)
    record["history"] = history[-HISTORY_LIMIT:]

    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    assert results["vectorized"]["seconds"] < results["reference"]["seconds"], (
        "vectorized backend must beat reference on the 64^3/128-projection "
        f"micro-benchmark: {record}"
    )
    assert filter_rates["vectorized"] > filter_rates["reference"], (
        f"the real-FFT filter must beat the reference complex FFT: {record}"
    )
    assert results["parallel"]["seconds"] <= (
        MAX_PARALLEL_OVERHEAD * results["blocked"]["seconds"]
    ), f"parallel dispatch overhead exceeds {MAX_PARALLEL_OVERHEAD}x: {record}"
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert record["speedup_parallel_over_blocked"] >= 2.0, (
            f"parallel (workers={PARALLEL_WORKERS}) must be >= 2x faster than "
            f"blocked on a >= {PARALLEL_WORKERS}-core host: {record}"
        )
