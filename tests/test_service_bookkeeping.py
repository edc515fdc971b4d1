"""The queue's and the scheduler's incremental bookkeeping equals the
re-computation it replaces, bit for bit.

* ``JobQueue.backlog_seconds`` sums a dict of admitted estimates; the old
  code re-summed ``job.estimated_seconds or 0.0`` over the admitted jobs.
* ``_ReleaseOrder`` sorts a cycle's running placements once and inserts each
  new one; the old code sorted ``list(running) + placements`` per call.
* ``best_plan`` walks the allocation table up to the budget; the old code
  filtered it into ``candidate_plans`` and took ``min`` over that.
* ``CacheKey.for_job`` returns one key per raw job identity; the old code
  resolved the scenario token and built the key for every job.
* ``ReconstructionProblem`` and ``CacheKey`` hash once, at construction, and
  ``Placement.finish_seconds`` is stored; the old code recomputed each on
  every read.  A key's stored hash is of its process's string hashes, so a
  pickled key is hashed anew where it is loaded.
"""

from __future__ import annotations

import base64
import os
import pickle
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ReconstructionProblem, problem_from_string
from repro.scenarios import (
    SCENARIO_PRESETS,
    AcquisitionScenario,
    cache_token_for,
    register_scenario,
)
from repro.scenarios import scenario as scenario_module
from repro.service import (
    AdmissionPolicy,
    AllocationPlan,
    CacheKey,
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


# --------------------------------------------------------------------------- #
# One cache key per job identity; hashes and finishes computed once
# --------------------------------------------------------------------------- #
def old_cache_key(job: ReconstructionJob) -> CacheKey:
    """The parent's ``CacheKey.for_job``: the key built field by field."""
    problem = job.problem
    return CacheKey(
        dataset_id=job.dataset_id,
        ramp_filter=job.ramp_filter,
        nu=problem.nu,
        nv=problem.nv,
        np_=problem.np_,
        scenario=cache_token_for(job.scenario),
        acquisition=job.acquisition,
    )


#: Preset names, unregistered names that spell a preset's token (so they
#: share its key: "full" is full_scan's token, "short" short_scan's), and
#: unregistered names that are their own token.
scenario_names = st.sampled_from(
    sorted(SCENARIO_PRESETS) + ["full", "short", "helical", "offset_detector "]
)
identities = st.fixed_dictionaries({
    "problem": st.sampled_from(PROBLEMS),
    "dataset_id": st.sampled_from(["ds-0", "ds-1", "ds-1 "]),
    "ramp_filter": st.sampled_from(["ram-lak", "shepp-logan"]),
    "scenario": scenario_names,
    "acquisition": st.sampled_from(["", "a1b2c3", "geometry-7"]),
})


@given(identities=st.lists(identities, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_for_job_is_the_key_built_field_by_field(identities):
    jobs = [ReconstructionJob(**identity) for identity in identities]
    keys = [CacheKey.for_job(job) for job in jobs]
    for job, key in zip(jobs, keys):
        expected = old_cache_key(job)
        assert key == expected and hash(key) == hash(expected)
        assert job.cache_key is key
    for a, key_a in zip(identities, keys):
        for b, key_b in zip(identities, keys):
            if a == b:
                assert key_a is key_b


def test_a_registration_rekeys_the_names_it_resolves():
    before = ReconstructionJob(problem=PROBLEMS[0], dataset_id="ds-0", scenario="test-alias")
    assert before.cache_key.scenario == "test-alias"  # unregistered: verbatim
    register_scenario(AcquisitionScenario(name="test-alias", short_scan=True))
    try:
        after = ReconstructionJob(problem=PROBLEMS[0], dataset_id="ds-0", scenario="test-alias")
        assert after.cache_key.scenario == "short"
        assert after.cache_key == CacheKey.for_job(
            ReconstructionJob(problem=PROBLEMS[0], dataset_id="ds-0", scenario="short_scan")
        )
        assert before.cache_key.scenario == "test-alias"  # a job keeps its key
    finally:
        scenario_module._registry.pop("test-alias")
        for reset in scenario_module._on_register.values():
            reset()


sizes = st.integers(1, 4096)


@given(fields=st.tuples(sizes, sizes, sizes, sizes, sizes, sizes))
@settings(max_examples=100, deadline=None)
def test_equal_problems_hash_equal(fields):
    a, b = ReconstructionProblem(*fields), ReconstructionProblem(*fields)
    assert a == b and hash(a) == hash(b) == hash(fields)
    assert hash(pickle.loads(pickle.dumps(a))) == hash(a)


@given(identity=identities)
@settings(max_examples=100, deadline=None)
def test_equal_keys_hash_equal(identity):
    job = ReconstructionJob(**identity)
    built, memoised = old_cache_key(job), CacheKey.for_job(job)
    assert hash(built) == hash(memoised) == hash(old_cache_key(job))
    assert {built: 1}[memoised] == 1
    copied = pickle.loads(pickle.dumps(memoised))
    assert copied == memoised and hash(copied) == hash(memoised)


@given(
    runtime=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_stored_finish_has_the_bits_of_finish_at(runtime, start):
    held = placement(runtime, start)
    assert struct.pack("<d", held.finish_seconds) == struct.pack(
        "<d", held.plan.finish_at(start)
    )


def test_a_pickled_key_is_found_in_a_process_with_other_string_hashes():
    key = CacheKey.for_job(ReconstructionJob(
        problem=PROBLEMS[0], dataset_id="ds-pickled", scenario="short_scan",
        acquisition="a1b2c3",
    ))
    seed = os.environ.get("PYTHONHASHSEED", "")
    child_seed = "1" if seed == "0" else "0"
    script = textwrap.dedent(f"""
        import base64, pickle, sys
        from repro.service import CacheKey, FilteredProjectionCache
        assert hash("ds-pickled") != {hash("ds-pickled")}  # other string hashes
        key = pickle.loads(base64.b64decode(sys.stdin.read()))
        fresh = CacheKey(
            dataset_id="ds-pickled", ramp_filter="ram-lak", nu={key.nu},
            nv={key.nv}, np_={key.np_}, scenario="short", acquisition="a1b2c3",
        )
        assert hash(key) == hash(fresh)
        assert {{fresh: "hit"}}[key] == "hit"
        cache = FilteredProjectionCache()
        cache.insert(fresh, nbytes=1)
        assert cache.contains(key)
        print("found")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ, "PYTHONHASHSEED": child_seed,
        "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    child = subprocess.run(
        [sys.executable, "-c", script], input=base64.b64encode(pickle.dumps(key)).decode(),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "found"
