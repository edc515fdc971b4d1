"""The queue's and the scheduler's incremental bookkeeping equals the
re-computation it replaces, bit for bit.

* ``JobQueue.backlog_seconds`` sums a dict of admitted estimates; the old
  code re-summed ``job.estimated_seconds or 0.0`` over the admitted jobs.
* ``_ReleaseOrder`` sorts a cycle's running placements once and inserts each
  new one; the old code sorted ``list(running) + placements`` per call.
* ``best_plan`` walks the allocation table up to the budget; the old code
  filtered it into ``candidate_plans`` and took ``min`` over that.
"""

from __future__ import annotations

import warnings
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import problem_from_string
from repro.service import (
    AdmissionPolicy,
    AllocationPlan,
    ClusterScheduler,
    FairShareQueue,
    GPUCluster,
    JobQueue,
    Placement,
    ReconstructionJob,
)
from repro.service.scheduler import _ReleaseOrder

PROBLEMS = [
    problem_from_string(spec)
    for spec in (
        "512x512x1024->256x256x256",
        "1024x1024x1024->1024x1024x1024",
        "2048x2048x4096->2048x2048x2048",
    )
]

#: Values whose sums round differently in different orders, so that adding
#: in any order but admission order is caught.
estimates = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**6).map(lambda n: n / 7.0),
    st.sampled_from([0.1, 0.2, 0.3, 1e-3, 1e4 / 3.0]),
)
queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), estimates, st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("remove"), st.integers(0, 60)),
        st.tuples(st.just("drain")),
    ),
    max_size=60,
)


def generator_sum(queue: JobQueue) -> float:
    """The parent's ``backlog_seconds``, verbatim."""
    return sum(job.estimated_seconds or 0.0 for job in queue._admitted.values())


@given(
    ops=queue_ops,
    fair=st.booleans(),
    cap=st.one_of(st.none(), st.floats(min_value=1.0, max_value=5e4)),
    depth=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_backlog_equals_the_generator_sum(ops, fair, cap, depth):
    policy = AdmissionPolicy(
        max_depth=depth, max_backlog_seconds=cap,
        fair_share=fair, max_queue_depth_per_tenant=8 if fair else None,
    )
    queue_type = FairShareQueue if fair else JobQueue
    queue = queue_type(policy, estimator=lambda job: 2.5)
    queued = []
    sequence = 0
    for op in ops:
        if op[0] == "offer":
            _, estimate, priority, tenant = op
            sequence += 1
            job = ReconstructionJob(
                problem=PROBLEMS[tenant], tenant=f"tenant-{tenant}",
                priority=priority, estimated_seconds=estimate,
                arrival_seconds=float(sequence), job_id=f"job-{sequence}",
            )
            expected = generator_sum(queue)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                if queue.offer(job):
                    queued.append(job)
            if (job.rejection_reason or "").startswith("backlog"):
                backlog = expected + job.estimated_seconds
                assert job.retry_after_seconds == max(1.0, backlog - cap)
        elif op[0] == "remove" and queued:
            job = queued.pop(op[1] % len(queued))
            queue.remove(job)
        elif op[0] == "drain":
            assert {id(j) for j in queue.drain()} == {id(j) for j in queued}
            queued.clear()
        assert queue.backlog_seconds == generator_sum(queue)


def placement(finish_offset: float, start: float) -> Placement:
    plan = AllocationPlan(
        gpus=1, rows=1, columns=1, runtime_seconds=finish_offset, cache_hit=False,
    )
    return Placement(job=None, plan=plan, start_seconds=start)


#: Few distinct finishes, so ties are common.
finishes = st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.5]), st.sampled_from([0.0, 1.0]))


@given(
    running=st.lists(finishes, max_size=8),
    ops=st.lists(st.one_of(finishes, st.just("read")), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_release_order_is_the_stable_sort(running, ops):
    running = [placement(*f) for f in running]
    placed = []
    order = _ReleaseOrder(running)
    for op in ops + ["read"]:
        if op == "read":
            expected = sorted(running + placed, key=lambda p: p.finish_seconds)
            got = order.placements()
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))
        else:
            placed.append(placement(*op))
            order.add(placed[-1])


def old_best_plan(
    scheduler: ClusterScheduler, job, gpu_budget: int, now: float, require_slo: bool
) -> Optional[AllocationPlan]:
    """The parent's ``best_plan``, verbatim."""
    plans = scheduler.candidate_plans(job, gpu_budget)
    deadline = job.deadline_seconds
    for plan in plans:
        if plan.finish_at(now) <= deadline:
            return plan
    if require_slo or not plans:
        return None
    return min(plans, key=lambda p: (p.runtime_seconds, p.gpus))


@given(
    problem=st.sampled_from(PROBLEMS),
    slo=st.one_of(st.none(), st.floats(min_value=0.1, max_value=400.0)),
    budget=st.integers(0, 40),
    now=st.floats(min_value=0.0, max_value=100.0),
    require_slo=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_best_plan_equals_the_candidate_list_search(problem, slo, budget, now, require_slo):
    scheduler = ClusterScheduler(GPUCluster(32))
    job = ReconstructionJob(problem=problem, slo_seconds=slo)
    assert scheduler.best_plan(job, budget, now, require_slo=require_slo) is old_best_plan(
        scheduler, job, budget, now, require_slo
    )
