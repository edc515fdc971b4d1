"""Recorded goldens: the cost model's bits and the seeded service replays.

Both are pinned exactly, not to a tolerance.  ``data/golden_perfmodel.json``
holds ``float.hex`` of every :meth:`PerformanceBreakdown.as_dict` term of
the ABCI profile over the service's problems on every feasible grid of a
16-GPU cluster and over the Figure 5/6 and Table 5 grids.  The replays pin
the filtered-projection cache counters (hits, misses, insertions, evictions)
and the SHA-256 of the whole report, on the plain queue and on the fair-share
queue.  A change that moves one modelled second or one scheduling decision
fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import (
    PROBLEM_4K,
    PROBLEM_8K,
    figure6_workloads,
    strong_scaling_4k,
    strong_scaling_8k,
    weak_scaling_4k,
    weak_scaling_8k,
)
from repro.core.types import problem_from_string
from repro.gpusim import DEFAULT_PROJECTION_BATCH, TESLA_V100
from repro.pipeline import IFDKPerformanceModel
from repro.service import AdmissionPolicy, ReconstructionService, synthetic_trace
from repro.service.trace import HEAVY_PROBLEM, MIXED_TABLE4_PROBLEMS

GOLDEN_PERFMODEL = Path(__file__).parent / "data" / "golden_perfmodel.json"
CLUSTER_GPUS = 16


def model_grids():
    """``"<problem> R=<r> C=<c>" -> (problem, r, c)`` for every pinned grid."""
    grids = {}

    def add(problem, rows, columns):
        grids[f"{problem} R={rows} C={columns}"] = (problem, rows, columns)

    # The service's problems on every R x C <= 16 whose sub-volume fits a
    # V100 next to the staging batch (choose_grid's Section 4.1.5 rule).
    for spec in (*MIXED_TABLE4_PROBLEMS, HEAVY_PROBLEM):
        problem = problem_from_string(spec)
        batch_bytes = 4 * problem.nu * problem.nv * DEFAULT_PROJECTION_BATCH
        for rows in range(1, CLUSTER_GPUS + 1):
            if problem.output_bytes() // rows + batch_bytes > TESLA_V100.global_memory_bytes:
                continue
            for columns in range(1, CLUSTER_GPUS // rows + 1):
                add(problem, rows, columns)
    # Figure 5a-d and Figure 6.
    for workload in (
        *strong_scaling_4k(), *strong_scaling_8k(), *weak_scaling_4k(), *weak_scaling_8k(),
        *(w for series in figure6_workloads().values() for w in series),
    ):
        add(workload.problem, workload.rows, workload.columns)
    # Table 5.
    for problem, rows in ((PROBLEM_4K, 32), (PROBLEM_8K, 256)):
        for columns in (1, 2, 4, 8):
            add(problem, rows, columns)
    return grids


def model_terms():
    """``float.hex`` of every breakdown term of the default model, per grid."""
    model = IFDKPerformanceModel()
    return {
        key: {
            term: float.hex(value)
            for term, value in model.breakdown(problem, rows, columns).as_dict().items()
        }
        for key, (problem, rows, columns) in model_grids().items()
    }


def test_model_terms_keep_their_recorded_bits():
    recorded = json.loads(GOLDEN_PERFMODEL.read_text())
    terms = model_terms()
    assert sorted(terms) == sorted(recorded)
    moved = [
        f"{key} {term}: {bits} != {recorded[key][term]}"
        for key, row in terms.items()
        for term, bits in row.items()
        if bits != recorded[key].get(term)
    ]
    assert not moved, "\n".join(moved[:20])


#: perfbench's ``svc_replay_fair_1k`` queue: DRR with one heavier tenant.
FAIR = AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0})
#: The same with every fair-share knob set: aging, the per-tenant depth
#: quota (rejections with a Retry-After) and the in-flight cap (throttling).
FAIR_QUOTAS = AdmissionPolicy(
    fair_share=True, tenant_weights={"tenant-0": 3.0}, aging_seconds=30.0,
    max_queue_depth_per_tenant=32, max_inflight_per_tenant=3,
)


@pytest.mark.parametrize("jobs, seed, policy, admission, counters, digest", [
    pytest.param(500, 3, "slo", None, (437, 63, 47, 34), "7c4f9d9f6a9ba56a",
                 id="slo-500-seed3"),
    pytest.param(1000, 7, "slo", None, (923, 77, 54, 41), "d3ff78447ac65755",
                 id="slo-1000-seed7"),
    pytest.param(3000, 3, "slo", None, (1410, 198, 164, 151), "315ab1548f89583c",
                 id="slo-3000-seed3"),
    pytest.param(3000, 3, "fifo", None, (537, 213, 213, 197), "b97971c1cbd53e3e",
                 id="fifo-3000-seed3"),
    pytest.param(1000, 1, "slo", FAIR, (931, 69, 46, 33), "36bcb42e32e3e132",
                 id="fair-1000-seed1", marks=pytest.mark.fairness),
    pytest.param(1000, 2, "slo", FAIR_QUOTAS, (632, 84, 68, 55), "0b0bcc7cdfda025f",
                 id="fair-quotas-1000-seed2", marks=pytest.mark.fairness),
])
def test_replay_is_pinned(jobs, seed, policy, admission, counters, digest):
    trace = synthetic_trace(jobs, cluster_gpus=CLUSTER_GPUS, seed=seed)
    with ReconstructionService(CLUSTER_GPUS, policy=policy, admission=admission) as service:
        report = service.replay(trace).as_dict()
        stats = service.cache.stats
        assert (stats.hits, stats.misses, stats.insertions, stats.evictions) == counters
    # Compared by digest: a diff of two megabyte-long reports would take
    # pytest minutes to render.
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
