"""The live queue, fair-share queue and scheduler held to their frozen parents.

``src/repro/service/{queue,fairness,scheduler}.py`` build one allocation
table per problem, keep the queue in order and skip empty DRR rounds.
None of that may move a schedule: ``tests/frozen_parent_service.py`` keeps
the three classes as they stood before, and every test here runs the same
input through both and compares with ``==`` — floats included, so a sum
taken in another order (one ulp of ``retry_after_s``) fails.

The one place where equality with the parent is mathematical rather than
bitwise is the closed-form DRR skip (``k`` additions against one
multiply-add): :func:`test_drr_skip_is_exact_on_dyadic_values` holds it on
dyadic quanta, weights and costs, which are exact in both arithmetics;
the service-level replays run it on the performance model's costs.

A replay records each cycle's scheduling order by reading it whole before
the scheduler sees it; a cycle with no free GPU reads none, in the live
scheduler and in the frozen one alike.  The fair queue yields its order as it is read, so
the fair replays also run unrecorded, with jobs placed between yields, and
compare everything the replay decided.

Backfill asks "can anything still fit?" once per class of waiting job and
leaves the walk when nothing can.  That must be a no-op too: the replays
pinned at a small depth cap are where it fires on most cycles, and
:func:`test_nothing_fits_iff_no_waiting_job_would_be_backfilled` holds the
predicate itself to the per-job rule.

The second half holds the *cost* of a scheduling cycle by call counts, not
by a stopwatch, and a disabled metrics registry to doing no work.
"""

import contextlib
import itertools
import random
import types
from collections import Counter
from unittest import mock

import frozen_parent_service as parent
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.fairness as fairness_module
import repro.service.queue as queue_module
import repro.service.scheduler as scheduler_module
from repro.core.types import ReconstructionProblem
from repro.obs import MetricsRegistry
from repro.pipeline.perfmodel import IFDKPerformanceModel
from repro.service import (
    AdmissionPolicy,
    CacheKey,
    ClusterScheduler,
    FairShareQueue,
    FilteredProjectionCache,
    GPUCluster,
    JobQueue,
    ReconstructionJob,
    ReconstructionService,
    synthetic_trace,
)
from repro.service.scheduler import AllocationPlan
from repro.service.trace import HEAVY_PROBLEM, MIXED_TABLE4_PROBLEMS

GIB = 1024**3
#: No (R, C) grid of up to 16 V100s holds this one: the infeasible path.
INFEASIBLE = "4096x4096x4096->4096x4096x4096"
PROBLEMS = [*MIXED_TABLE4_PROBLEMS, HEAVY_PROBLEM, INFEASIBLE]


# --------------------------------------------------------------------------- #
# Running one input through the live classes and through the frozen parents
# --------------------------------------------------------------------------- #
def frozen_parents():
    """Make ``ReconstructionService`` build (and ``report()`` recognise) the
    frozen queue / fair-share queue / scheduler instead of the live ones."""
    return mock.patch.multiple(
        "repro.service.service",
        JobQueue=parent.JobQueue,
        FairShareQueue=parent.FairShareQueue,
        ClusterScheduler=parent.ClusterScheduler,
    )


def make_jobs(specs):
    """Fresh jobs for one side; explicit ids so both sides name them alike."""
    jobs, now = [], 0.0
    for index, spec in enumerate(specs):
        now += spec["gap"]
        jobs.append(ReconstructionJob(
            problem=spec["problem"],
            tenant=spec["tenant"],
            dataset_id=f"ds-{spec['dataset']}",
            priority=spec["priority"],
            slo_seconds=spec["slo"],
            arrival_seconds=now,
            tenant_weight=spec["weight"],
            max_inflight=spec["max_inflight"],
            job_id=f"j{index:03d}",
        ))
    return jobs


def replay(specs, *, frozen, gpus, policy, admission, capacity, obs=None, record=True):
    """Everything observable about one replay, as plain comparable values.

    ``record`` reads each cycle's whole scheduling order up front to keep
    it; without it the scheduler reads the order as it does in service,
    lazily, and leaves it where nothing more can be placed."""
    trace = types.SimpleNamespace(jobs=lambda: make_jobs(specs), description="")
    with contextlib.ExitStack() as stack:
        if frozen:
            stack.enter_context(frozen_parents())
        service = stack.enter_context(ReconstructionService(
            gpus, policy=policy, admission=admission, obs=obs,
            cache=FilteredProjectionCache(capacity_bytes=capacity),
        ))
        queue = service.queue
        orders = []
        scheduling_order = queue.scheduling_order

        def recording(now, running=()):
            order = list(scheduling_order(now, running))
            orders.append([job.job_id for job in order])
            return order

        if record:
            queue.scheduling_order = recording
        report = service.replay(trace)
        return {
            "jobs": report.jobs,
            # NaN-valued KPIs (no SLO jobs, zero makespan) must compare equal.
            "summary": {k: repr(v) for k, v in report.summary.items()},
            "orders": orders,
            "cache": vars(service.cache.stats),
            "fairness": {
                name: getattr(queue, name, None)
                for name in ("aged_promotions", "quota_rejections", "deficit_rounds")
            },
            "obs": service.obs_snapshot(),
        }


def assert_same_replay(specs, *, record=True, **config):
    live = replay(specs, frozen=False, record=record, **config)
    frozen = replay(specs, frozen=True, record=record, **config)
    # Read lazily, the live DRR counters count only the part of each order
    # the scheduler read; everything the replay decided must still agree.
    for field in live if record else ("jobs", "summary", "cache"):
        assert live[field] == frozen[field], field
    return live


def random_specs(n_jobs, seed, mean_gap):
    """A seeded trace: full-size inputs that a list strategy rarely reaches."""
    rng = random.Random(seed)
    return [
        {
            "problem": rng.choice(PROBLEMS),
            "tenant": rng.choice("abc"),
            # Few datasets: a key flips from miss to hit mid-trace, and the
            # small cache capacities below evict it again.
            "dataset": rng.randrange(4),
            "priority": rng.randrange(3),
            # None, unmeetable, loose.
            "slo": rng.choice([None, 0.01, rng.uniform(5.0, 400.0)]),
            "gap": rng.choice([0.0, rng.expovariate(1.0 / mean_gap)]),
            "weight": rng.choice([None, None, rng.uniform(0.05, 8.0)]),
            "max_inflight": rng.choice([None, None, 1, 2]),
        }
        for _ in range(n_jobs)
    ]


job_specs = st.builds(
    random_specs,
    n_jobs=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    mean_gap=st.sampled_from([0.1, 0.5, 3.0]),
)
#: The heavy dataset alone is 64 GiB: at these capacities it evicts the rest.
capacities = st.sampled_from([64 * GIB, 70 * GIB, 96 * GIB])
policies = st.sampled_from(["slo", "slo", "slo", "fifo"])
plain_admission = st.builds(
    AdmissionPolicy,
    max_depth=st.integers(1, 8),
    max_backlog_seconds=st.one_of(st.none(), st.floats(5.0, 200.0)),
)
fair_admission = st.builds(
    AdmissionPolicy,
    max_depth=st.one_of(st.integers(1, 8), st.just(32)),  # 32: DRR over real depth
    max_backlog_seconds=st.one_of(st.none(), st.floats(5.0, 200.0)),
    fair_share=st.just(True),
    tenant_weights=st.one_of(
        st.none(), st.dictionaries(st.sampled_from(["a", "b"]), st.floats(0.05, 8.0))
    ),
    default_tenant_weight=st.floats(0.05, 4.0),
    max_inflight_per_tenant=st.one_of(st.none(), st.integers(1, 3)),
    max_queue_depth_per_tenant=st.one_of(st.none(), st.integers(1, 4)),
    quantum_seconds=st.floats(0.5, 20.0),
    aging_seconds=st.one_of(st.none(), st.floats(0.5, 30.0)),
)


@given(
    specs=job_specs,
    gpus=st.sampled_from([4, 16]),
    policy=policies,
    admission=st.one_of(st.none(), plain_admission),
    capacity=capacities,
)
@settings(max_examples=100, deadline=None)
def test_plain_replay_equals_the_frozen_parent(specs, gpus, policy, admission, capacity):
    assert_same_replay(
        specs, gpus=gpus, policy=policy, admission=admission, capacity=capacity
    )


fair_replays = given(
    specs=job_specs,
    gpus=st.sampled_from([4, 16]),
    policy=policies,
    admission=fair_admission,
    capacity=capacities,
)


@pytest.mark.fairness
@fair_replays
@settings(max_examples=100, deadline=None)
def test_fair_replay_equals_the_frozen_parent(specs, gpus, policy, admission, capacity):
    assert_same_replay(
        specs, gpus=gpus, policy=policy, admission=admission, capacity=capacity
    )


@pytest.mark.fairness
@fair_replays
@settings(max_examples=100, deadline=None)
def test_fair_replay_read_lazily_equals_the_frozen_parent(
    specs, gpus, policy, admission, capacity
):
    """The recorded replay reads every order whole before the scheduler
    sees it; here the scheduler places and rejects jobs between the
    fair queue's yields, as it does in service."""
    assert_same_replay(
        specs, gpus=gpus, policy=policy, admission=admission, capacity=capacity,
        record=False,
    )


def test_replays_reach_every_path_the_oracle_claims():
    """One fixed trace per queue on which both admission rejections, the
    infeasible path, a miss-to-hit flip, an eviction, aging and the tenant
    quota all fire — so the properties above are not vacuously equal."""
    trace = synthetic_trace(60, seed=5, mean_interarrival_seconds=0.4)
    specs = [
        {
            "problem": INFEASIBLE if index == 7 else entry.problem,
            "tenant": "abc"[index % 3], "dataset": index % 4,
            "priority": entry.priority, "slo": entry.slo_seconds, "gap": 0.4,
            "weight": None, "max_inflight": None,
        }
        for index, entry in enumerate(trace.entries)
    ]
    reasons, evictions = "", 0
    for admission in (
        AdmissionPolicy(max_depth=3),
        AdmissionPolicy(max_depth=8, max_backlog_seconds=60.0),
    ):
        plain = assert_same_replay(
            specs, gpus=16, policy="slo", capacity=70 * GIB, admission=admission
        )
        reasons += " ".join(str(job["rejection_reason"]) for job in plain["jobs"])
        evictions += plain["cache"]["evictions"]
        assert plain["cache"]["hits"]
        assert any(len(order) > 1 for order in plain["orders"])
    assert evictions
    for fragment in ("queue full", "backlog", "infeasible"):
        assert fragment in reasons

    fair = assert_same_replay(
        specs, gpus=16, policy="slo", capacity=70 * GIB,
        admission=AdmissionPolicy(
            max_depth=8, max_queue_depth_per_tenant=2, max_inflight_per_tenant=2,
            aging_seconds=5.0, tenant_weights={"a": 3.0},
        ),
    )
    assert fair["fairness"]["aged_promotions"] > 0
    assert fair["fairness"]["quota_rejections"]
    assert fair["fairness"]["deficit_rounds"] > 0


# --------------------------------------------------------------------------- #
# Where the backfill walk is left early
# --------------------------------------------------------------------------- #
def overload_specs(n_jobs, seed, mean_gap):
    """The synthetic trace's shape — a quarter heavy low-priority jobs that
    need a quarter of the cluster or more, interactive ones with SLOs they
    can meet — so a head is blocked while GPUs are free, which
    ``random_specs`` (a third best-effort, a third hopeless: both start on
    whatever is free) rarely produces.  Plus everything the cut must see
    through: an infeasible problem, datasets that flip between hit and
    miss, hopeless and absent SLOs, per-job weights and in-flight caps."""
    rng = random.Random(seed)
    specs = []
    for _ in range(n_jobs):
        kind = rng.random()
        heavy = kind < 0.25
        slo = (90.0 if heavy else 25.0) * rng.choice([0.5, 1.0, 3.0])
        specs.append({
            "problem": (HEAVY_PROBLEM if heavy else INFEASIBLE if kind < 0.28
                        else rng.choice(MIXED_TABLE4_PROBLEMS)),
            "tenant": rng.choice("abc"),
            "dataset": rng.randrange(4),
            "priority": 2 if heavy else rng.randrange(2),
            "slo": rng.choice([None, 0.01] + 8 * [slo]),
            "gap": rng.expovariate(1.0 / mean_gap),
            "weight": rng.choice([None, None, rng.uniform(0.05, 8.0)]),
            "max_inflight": rng.choice([None, None, 1, 2]),
        })
    return specs


#: Arrivals faster than service and a depth cap of 8-16: a short trace pins
#: the queue at its cap and a cycle with free GPUs mostly has a blocked head.
pinned_specs = st.builds(
    overload_specs,
    n_jobs=st.integers(40, 100),
    seed=st.integers(0, 2**32 - 1),
    mean_gap=st.sampled_from([0.6, 1.2, 2.4]),
)
pinned_plain = st.builds(
    AdmissionPolicy,
    max_depth=st.integers(8, 16),
    max_backlog_seconds=st.one_of(st.none(), st.floats(100.0, 2000.0)),
)
pinned_fair = st.builds(
    AdmissionPolicy,
    max_depth=st.integers(8, 16),
    fair_share=st.just(True),
    tenant_weights=st.one_of(
        st.none(), st.dictionaries(st.sampled_from(["a", "b"]), st.floats(0.05, 8.0))
    ),
    # Withheld jobs stay queued: they are in the census, not in the order.
    max_inflight_per_tenant=st.one_of(st.none(), st.integers(1, 3)),
    quantum_seconds=st.floats(0.5, 20.0),
    aging_seconds=st.one_of(st.none(), st.floats(0.5, 30.0)),
)


@given(specs=pinned_specs, gpus=st.sampled_from([4, 16]), admission=pinned_plain,
       capacity=capacities)
@settings(max_examples=100, deadline=None)
def test_plain_replay_pinned_at_its_cap_equals_the_frozen_parent(
    specs, gpus, admission, capacity
):
    assert_same_replay(
        specs, gpus=gpus, policy="slo", admission=admission, capacity=capacity
    )


@pytest.mark.fairness
@given(specs=pinned_specs, gpus=st.sampled_from([4, 16]), admission=pinned_fair,
       capacity=capacities)
@settings(max_examples=100, deadline=None)
def test_fair_replay_pinned_at_its_cap_equals_the_frozen_parent(
    specs, gpus, admission, capacity
):
    assert_same_replay(
        specs, gpus=gpus, policy="slo", admission=admission, capacity=capacity
    )


@contextlib.contextmanager
def counted_backfill_answers():
    """Count what the per-class question answered, by its answer."""
    answers = Counter()
    can_backfill = ClusterScheduler._can_backfill

    def counting(*args):
        answer = can_backfill(*args)
        answers[answer] += 1
        return answer

    with mock.patch.object(ClusterScheduler, "_can_backfill", staticmethod(counting)):
        yield answers


@pytest.mark.parametrize("admission, seeds", [
    pytest.param(AdmissionPolicy(max_depth=12), (1, 3), id="plain"),
    pytest.param(
        AdmissionPolicy(max_depth=12, fair_share=True, max_inflight_per_tenant=2,
                        tenant_weights={"a": 3.0}),
        (1, 4), id="fair", marks=pytest.mark.fairness,
    ),
])
def test_pinned_replays_do_leave_the_walk_early(admission, seeds):
    """The two properties above are not vacuously equal: on two such
    traces per queue the question is asked dozens of times, answers
    "nothing fits" often and "something may" before a backfill."""
    answers, reasons = Counter(), ""
    for seed in seeds:
        specs = overload_specs(90, seed=seed, mean_gap=2.4)
        with counted_backfill_answers() as counted:
            live = replay(specs, frozen=False, gpus=16, policy="slo",
                          admission=admission, capacity=70 * GIB)
        assert live == replay(specs, frozen=True, gpus=16, policy="slo",
                              admission=admission, capacity=70 * GIB)
        answers += counted
        reasons += " ".join(str(job["rejection_reason"]) for job in live["jobs"])
        assert live["cache"]["hits"] and live["cache"]["evictions"]
    assert answers[False] >= 20 and answers[True] >= 1  # 71 / 3 plain, 28 / 31 fair
    assert "infeasible" in reasons and "queue full" in reasons


def trace_specs(trace):
    """A synthetic trace as ``make_jobs`` specs (same arrivals on both sides)."""
    specs, previous = [], 0.0
    for entry in trace.entries:
        specs.append({
            "problem": entry.problem, "tenant": entry.tenant,
            "dataset": entry.dataset_id, "priority": entry.priority,
            "slo": entry.slo_seconds, "gap": entry.arrival_seconds - previous,
            "weight": None, "max_inflight": None,
        })
        previous = entry.arrival_seconds
    return specs


@pytest.mark.parametrize("seed, admission", [
    pytest.param(13, None, id="plain-13"),
    pytest.param(17, None, id="plain-17"),
    pytest.param(
        19, AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0}),
        id="fair-19", marks=pytest.mark.fairness,
    ),
])
def test_full_size_replays_equal_the_frozen_parent(seed, admission):
    """The benchmark's shape — default 256-deep queue, pinned for most of
    the trace — on seeds nothing else in this file or its issue uses."""
    trace = synthetic_trace(1300 if admission else 1500, cluster_gpus=16, seed=seed)
    live = assert_same_replay(
        trace_specs(trace), gpus=16, policy="slo", admission=admission,
        capacity=FilteredProjectionCache().capacity_bytes,
    )
    assert max(len(order) for order in live["orders"]) == 256


def random_table(rng, cached):
    """Any table ``best_plan`` accepts: power-of-two counts, fewest first;
    runtimes in no particular order (the model's fall with the count, the
    argument for the exit does not need them to)."""
    counts = [gpus for gpus in (1, 2, 4, 8, 16) if rng.random() < 0.6]
    return [
        AllocationPlan(gpus=gpus, rows=1, columns=gpus, cache_hit=cached,
                       runtime_seconds=rng.choice([0.5, 3.0, rng.uniform(0.5, 120.0)]))
        for gpus in counts
    ]


@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(1, 4),
    free=st.integers(0, 16),
    spare=st.integers(0, 16),
    now=st.sampled_from([0.0, 7.25, 1000.0 / 3.0]),
    wait=st.one_of(st.just(float("inf")), st.floats(0.0, 150.0)),
)
@settings(max_examples=300, deadline=None)
def test_nothing_fits_iff_no_waiting_job_would_be_backfilled(
    seed, classes, free, spare, now, wait
):
    rng = random.Random(seed)
    reservation_time = now + wait
    scheduler = ClusterScheduler(GPUCluster(16), cache=FilteredProjectionCache())
    queue = JobQueue()
    problems = [ReconstructionProblem(64 + index, 64, 64, 32, 32, 32)
                for index in range(classes)]
    for problem in problems:
        for cached in (False, True):
            scheduler._tables[problem, cached] = random_table(rng, cached)
        assert queue.offer(ReconstructionJob(problem=problem))
    can_backfill = scheduler._can_backfill(
        scheduler._backfill_envelope(queue), free, spare, now, reservation_time
    )

    # The per-job rule, for every job that could be waiting on this census:
    # either cache state; deadline missed whatever runs, met by anything,
    # met by some plans only, and none at all.
    placed = []
    for problem, cached, slo in itertools.product(
        problems, (False, True), (1e-6, 1e9, now + rng.uniform(0.5, 120.0), None)
    ):
        job = ReconstructionJob(problem=problem, slo_seconds=slo,
                                dataset_id=f"ds-{problem.nu}-{cached}")
        if cached:
            scheduler.cache.insert(job.cache_key, nbytes=1)
        plan = scheduler.best_plan(job, free, now)
        placed.append(plan is not None and (
            plan.finish_at(now) <= reservation_time or plan.gpus <= spare
        ))
        assert plan is None or plan.cache_hit is cached
    assert can_backfill == any(placed)


# --------------------------------------------------------------------------- #
# The queues and the scheduler directly
# --------------------------------------------------------------------------- #
def queue_job(index, tenant, cost, priority, slo, weight=None):
    job = ReconstructionJob(
        problem=MIXED_TABLE4_PROBLEMS[0], tenant=tenant, priority=priority,
        slo_seconds=slo, arrival_seconds=float(index // 2), tenant_weight=weight,
        job_id=f"q{index:03d}",
    )
    job.estimated_seconds = cost
    return job


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["offer", "offer", "remove", "drain"]),
            st.floats(0.1, 50.0),            # cost
            st.integers(0, 2),               # priority
            st.one_of(st.none(), st.sampled_from([5.0, 30.0])),  # slo: key ties
            st.integers(0, 10**6),           # which queued job to remove
        ),
        max_size=40,
    ),
    max_depth=st.integers(1, 6),
    cap=st.one_of(st.none(), st.floats(10.0, 120.0)),
)
@settings(max_examples=100, deadline=None)
def test_queue_operations_equal_the_frozen_parent(ops, max_depth, cap):
    policy = AdmissionPolicy(max_depth=max_depth, max_backlog_seconds=cap)
    live, frozen = JobQueue(policy), parent.JobQueue(policy)
    for index, (op, cost, priority, slo, pick) in enumerate(ops):
        if op == "offer":
            a = queue_job(index, "t", cost, priority, slo)
            b = queue_job(index, "t", cost, priority, slo)
            assert live.offer(a) == frozen.offer(b)
            assert (a.state, a.rejection_reason, a.retry_after_seconds) == (
                b.state, b.rejection_reason, b.retry_after_seconds)
        elif op == "remove" and len(live):
            live.remove(live.ordered()[pick % len(live)])
            frozen.remove(frozen.ordered()[pick % len(frozen)])
        elif op == "drain":
            assert [j.job_id for j in live.drain()] == [j.job_id for j in frozen.drain()]
        assert [j.job_id for j in live.ordered()] == [j.job_id for j in frozen.ordered()]
        assert [j.job_id for j in live] == [j.job_id for j in live.ordered()]
        assert len(live) == len(frozen)
        assert live.backlog_seconds == frozen.backlog_seconds


def test_remove_matches_identity_and_fails_loudly():
    queue = JobQueue()
    first, twin = queue_job(0, "t", 1.0, 1, None), queue_job(0, "t", 1.0, 1, None)
    twin.sequence = first.sequence  # an equal job, not the same job
    assert first == twin
    queue.offer(first)
    with pytest.raises(ValueError, match="not queued"):
        queue.remove(twin)
    # The ordered-queue invariant: a key that moves while the job waits is
    # a caller bug, and it surfaces at the removal instead of as a
    # silently mis-ordered queue.
    first.priority = 0
    with pytest.raises(ValueError, match="changed while it waited"):
        queue.remove(first)
    first.priority = 1
    queue.remove(first)
    assert len(queue) == 0 and queue.backlog_seconds == 0
    with pytest.raises(ValueError):
        queue.remove(first)


DYADIC_WEIGHTS = [2.0**-6, 2.0**-3, 0.25, 0.5, 1.0, 1.5, 3.0, 8.0]


@pytest.mark.fairness
@given(
    jobs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(0, 128).map(lambda quarters: quarters / 4.0),  # cost; 0 -> quantum
            st.integers(0, 2),
            st.one_of(st.none(), st.sampled_from(DYADIC_WEIGHTS)),
        ),
        min_size=1, max_size=16,
    ),
    quantum=st.sampled_from([0.25, 0.5, 2.5, 5.0]),
    default_weight=st.sampled_from(DYADIC_WEIGHTS),
    inflight=st.one_of(st.none(), st.integers(1, 3)),
    placed_per_cycle=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_drr_skip_is_exact_on_dyadic_values(
    jobs, quantum, default_weight, inflight, placed_per_cycle
):
    policy = AdmissionPolicy(
        fair_share=True, quantum_seconds=quantum, max_depth=64,
        default_tenant_weight=default_weight, max_inflight_per_tenant=inflight,
    )
    live, frozen = FairShareQueue(policy), parent.FairShareQueue(policy)
    for queue in (live, frozen):
        for index, (tenant, cost, priority, weight) in enumerate(jobs):
            assert queue.offer(queue_job(index, tenant, cost, priority, None, weight))
    while len(live):
        live_order = list(live.scheduling_order(0.0))
        frozen_order = frozen.scheduling_order(0.0)
        assert [j.job_id for j in live_order] == [j.job_id for j in frozen_order]
        assert live.deficit_rounds == frozen.deficit_rounds
        # The scheduler places a prefix; attained service steers the next cycle.
        for a, b in list(zip(live_order, frozen_order))[:placed_per_cycle]:
            live.remove(a)
            frozen.remove(b)
        assert live.fairness_index() == frozen.fairness_index()
        assert live.share_of_service() == frozen.share_of_service()
    assert len(frozen) == 0


@pytest.mark.parametrize("problem", PROBLEMS)
def test_allocation_tables_equal_the_parents_candidate_plans(problem):
    live = ClusterScheduler(GPUCluster(16), max_gpus_per_job=8)
    frozen = parent.ClusterScheduler(GPUCluster(16), max_gpus_per_job=8)
    job = ReconstructionJob(problem=problem, slo_seconds=20.0)
    # Miss, hit, evicted again: the cached flag is asked afresh every time.
    for cached in (False, True, False):
        live.cache = frozen.cache = FilteredProjectionCache()
        if cached:
            live.cache.insert(job.cache_key, nbytes=1)
        for budget in range(0, 18):
            plans = live.candidate_plans(job, budget)
            assert plans == frozen.candidate_plans(job, budget)
            assert all(plan.cache_hit is cached for plan in plans)
            assert [p.gpus for p in plans] == sorted(p.gpus for p in plans)
            for now in (0.0, 15.0):
                for require_slo in (False, True):
                    assert live.best_plan(
                        job, budget, now, require_slo=require_slo
                    ) == frozen.best_plan(job, budget, now, require_slo=require_slo)
            assert live.largest_plan(job, budget) == frozen.largest_plan(job, budget)
    # A returned list is the caller's: editing it must not reach the table.
    live.candidate_plans(job, 16).clear()
    assert live.candidate_plans(job, 16) == frozen.candidate_plans(job, 16)


# --------------------------------------------------------------------------- #
# Complexity held by counts
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def counted_calls():
    """Count the calls a scheduling cycle used to repeat, by their inputs."""
    counts = {name: Counter() for name in
              ("choose_grid", "breakdown", "for_job", "sort_key", "best_plan")}
    choose_grid = scheduler_module.choose_grid
    breakdown = IFDKPerformanceModel.breakdown
    for_job = CacheKey.for_job.__func__
    sort_key = queue_module.job_sort_key

    def counting_choose_grid(problem, gpus, **kwargs):
        counts["choose_grid"][problem, gpus] += 1
        return choose_grid(problem, gpus, **kwargs)

    def counting_breakdown(self, problem, rows, columns):
        counts["breakdown"][problem, rows, columns] += 1
        return breakdown(self, problem, rows, columns)

    def counting_for_job(cls, job):
        counts["for_job"][job.job_id] += 1
        return for_job(cls, job)

    def counting_sort_key(job):
        counts["sort_key"][job.job_id] += 1
        return sort_key(job)

    best_plan = ClusterScheduler.best_plan

    def counting_best_plan(self, job, *args, **kwargs):
        counts["best_plan"][job.job_id] += 1
        return best_plan(self, job, *args, **kwargs)

    with mock.patch.object(scheduler_module, "choose_grid", counting_choose_grid), \
            mock.patch.object(ClusterScheduler, "best_plan", counting_best_plan), \
            mock.patch.object(IFDKPerformanceModel, "breakdown", counting_breakdown), \
            mock.patch.object(CacheKey, "for_job", classmethod(counting_for_job)), \
            mock.patch.object(queue_module, "job_sort_key", counting_sort_key), \
            mock.patch.object(fairness_module, "job_sort_key", counting_sort_key):
        yield counts


def counted_replay(n_jobs, admission=None):
    trace = synthetic_trace(n_jobs, cluster_gpus=16, seed=3)
    with counted_calls() as counts, ReconstructionService(
        16, policy="slo", admission=admission
    ) as service:
        summary = service.replay(trace).summary
        assert summary["jobs_completed"] + summary["jobs_rejected"] == n_jobs
        return counts, service


def test_plain_replay_derives_each_table_entry_once_and_each_key_once():
    small, _ = counted_replay(300)
    large, _ = counted_replay(1200)
    for counts in (small, large):
        # Once per (problem, GPU count) and cache state: a table entry.
        assert max(counts["choose_grid"].values()) <= 2
        assert max(counts["breakdown"].values()) <= 2
        # Once per job: its cache key; twice: its sort key (offer, remove).
        assert max(counts["for_job"].values()) == 1
        assert max(counts["sort_key"].values()) <= 2
    assert sum(large["choose_grid"].values()) <= 2 * 5 * len(PROBLEMS)
    # Evaluations per job do not follow the queue depth: the submission's
    # feasibility check, the cycles in which the job is at the head, and
    # those in which something could still be backfilled.
    assert sum(small["best_plan"].values()) <= 5 * 300  # 3.3 per job; the parent: 18
    assert sum(large["best_plan"].values()) <= 5 * 1200  # 3.2; the parent: 46
    for name in small:
        growth = sum(large[name].values()) / sum(small[name].values())
        assert growth <= 4.2, (name, growth)  # the parent's choose_grid: 8.3x


def test_plain_benchmark_replay_evaluates_a_job_a_few_times():
    counts, _ = counted_replay(3000)  # svc_replay_plain_3k at seed 3
    assert sum(counts["best_plan"].values()) <= 12_000  # 8 695; the parent: 233 095


@pytest.mark.fairness
def test_fair_benchmark_replay_evaluates_a_job_a_few_times():
    admission = AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0})
    counts, _ = counted_replay(1000, admission)  # svc_replay_fair_1k at seed 3
    assert sum(counts["best_plan"].values()) <= 5_000  # 3 338; the parent: 35 610


@pytest.mark.fairness
def test_fair_benchmark_replay_reads_a_few_jobs_of_the_order_per_job(monkeypatch):
    """The scheduler reads no order in a cycle with no free GPU, leaves it at
    ``free == 0`` or where backfill can place nothing, and the order is
    yielded as it is read."""
    yielded = []
    scheduling_order = FairShareQueue.scheduling_order

    def counting(self, now, running=()):
        for job in scheduling_order(self, now, running):
            yielded.append(job)
            yield job

    monkeypatch.setattr(FairShareQueue, "scheduling_order", counting)
    admission = AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0})
    counted_replay(1000, admission)  # svc_replay_fair_1k at seed 3
    # 2 591 in the 1 153 of 1 987 cycles that start with a free GPU (3 425
    # when every cycle read one job); read whole: 229 522.
    assert len(yielded) <= 5 * 1000


@pytest.mark.parametrize("policy", ["slo", "fifo"])
@pytest.mark.parametrize("admission", [
    pytest.param(None, id="plain"),
    pytest.param(AdmissionPolicy(fair_share=True), id="fair", marks=pytest.mark.fairness),
    pytest.param(AdmissionPolicy(fair_share=True, aging_seconds=1.0), id="fair-aging",
                 marks=pytest.mark.fairness),
])
def test_a_cycle_with_no_free_gpu_reads_nothing(policy, admission):
    queue = JobQueue() if admission is None else FairShareQueue(admission)
    for index, tenant in enumerate("aabbc"):
        assert queue.offer(queue_job(index, tenant, 2.0, 1, None))
    orders = []
    scheduling_order = queue.scheduling_order

    def counting(now, running=()):
        orders.append(now)
        return scheduling_order(now, running)

    queue.scheduling_order = counting

    def state():
        return ([job.job_id for job in queue.ordered()],
                getattr(queue, "deficit_rounds", None),
                getattr(queue, "aged_promotions", None))

    cluster = GPUCluster(4)
    scheduler = ClusterScheduler(cluster, policy=policy)
    cluster.allocate(4)
    before = state()
    for now in (10.0, 50.0):  # every head long past its aging bound
        assert scheduler.schedule(queue, now, []) == ([], [])
    assert orders == []
    assert state() == before
    # With a GPU free the same cycle reads the queue, and a read shows.
    cluster.release(4)
    placements, _ = scheduler.schedule(queue, 50.0, [])
    assert placements and state() != before
    if policy == "slo":
        assert orders == [50.0]
        if admission is not None:  # a DRR round, or an aged promotion
            assert state()[1:] != before[1:]


def distinct_specs(n_jobs, seed):
    """``overload_specs`` with every job its own problem (a projection
    fewer each): as many classes as waiting jobs, the envelope's worst case."""
    specs = overload_specs(n_jobs, seed, mean_gap=1.2)
    for index, spec in enumerate(specs):
        inputs, volume = spec["problem"].split("->")
        nu, nv, projections = inputs.split("x")
        spec["problem"] = f"{nu}x{nv}x{int(projections) - index}->{volume}"
    assert len({spec["problem"] for spec in specs}) == n_jobs
    return specs


@pytest.mark.parametrize("n_jobs, max_depth", [(300, 32), (600, 64)])
def test_a_queue_of_distinct_problems_consults_no_more_tables_than_the_parent(
    n_jobs, max_depth
):
    """One consultation is one ``(problem, cached)`` table fetched for one
    question: a ``candidate_plans`` call in the frozen parent (which derives
    it), an ``_allocation_table`` call here (a job's evaluation, or one of
    the two tables a waiting problem adds to the envelope).  With one class
    per job the envelope is as long as the walk it replaces, so it is kept
    until the set of waiting problems changes; rebuilt in every backfill
    cycle this reads 1.8x / 1.9x the parent's tables at these two depths."""
    consulted = Counter()
    allocation_table = ClusterScheduler._allocation_table
    candidate_plans = parent.ClusterScheduler.candidate_plans
    schedule = ClusterScheduler.schedule

    def counting_table(self, problem, cached):
        consulted["live"] += 1
        return allocation_table(self, problem, cached)

    def counting_candidates(self, job, gpu_budget):
        consulted["frozen"] += 1
        return candidate_plans(self, job, gpu_budget)

    def counting_schedule(self, queue, now, running):
        consulted["cycles"] += 1
        return schedule(self, queue, now, running)

    with mock.patch.object(ClusterScheduler, "_allocation_table", counting_table), \
            mock.patch.object(ClusterScheduler, "schedule", counting_schedule), \
            mock.patch.object(parent.ClusterScheduler, "candidate_plans", counting_candidates):
        live = assert_same_replay(
            distinct_specs(n_jobs, seed=1), gpus=16, policy="slo",
            admission=AdmissionPolicy(max_depth=max_depth), capacity=96 * GIB,
        )
    # Every cycle, those with no free GPU (which read no order) included.
    cycles = consulted["cycles"]
    assert max(len(order) for order in live["orders"]) == max_depth
    # 8.4 against 8.1 per cycle at depth 32, 15.4 against 14.8 at depth 64.
    assert consulted["live"] / cycles <= consulted["frozen"] / cycles + 1.0


def census_job(index, problem, tenant):
    job = ReconstructionJob(problem=problem, tenant=tenant, job_id=f"c{index:03d}")
    job.estimated_seconds = 1.0
    return job


@pytest.mark.parametrize("fair", [False, pytest.param(True, marks=pytest.mark.fairness)])
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(["offer", "offer", "offer", "remove", "remove_unqueued", "drain"]),
        st.sampled_from(PROBLEMS[:4]),
        st.sampled_from(["a", "b"]),
        st.integers(0, 10**6),  # which queued job to remove
    ),
    max_size=40,
))
@settings(max_examples=100, deadline=None)
def test_census_counts_exactly_what_is_queued(fair, ops):
    """After any admission, depth or quota rejection, removal, refused
    removal or drain, the census is the multiset of the queued jobs'
    problems, and its epoch has moved whenever a problem entered or left."""
    if fair:
        queue = FairShareQueue(AdmissionPolicy(
            max_depth=5, fair_share=True, max_queue_depth_per_tenant=3))
    else:
        queue = JobQueue(AdmissionPolicy(max_depth=5))
    outcomes = Counter()
    for index, (op, problem, tenant, pick) in enumerate(ops):
        before, epoch = dict(queue.waiting_problems()), queue.census_epoch
        if op == "offer":
            job = census_job(index, problem, tenant)
            admitted = queue.offer(job)
            outcomes[admitted or job.rejection_reason.split(":")[0]] += 1
        elif op == "remove" and len(queue):
            queue.remove(queue.ordered()[pick % len(queue)])
        elif op == "remove_unqueued":
            with pytest.raises(ValueError, match="not queued"):
                queue.remove(census_job(index, problem, tenant))
            assert dict(queue.waiting_problems()) == before
        elif op == "drain":
            queue.drain()
        census = queue.waiting_problems()
        assert dict(census) == Counter(job.problem for job in queue.ordered())
        assert sum(census.values()) == len(queue)
        assert queue.census_epoch >= epoch
        if set(census) != set(before):
            assert queue.census_epoch > epoch
        with pytest.raises(TypeError):
            census[problem] = 1  # a view, not the queue's dictionary
    assert set(outcomes) <= {True, "queue full", "tenant quota"}


@pytest.mark.serving
@pytest.mark.parametrize("admission", [
    None,
    pytest.param(AdmissionPolicy(fair_share=True, max_inflight_per_tenant=1),
                 marks=pytest.mark.fairness),
], ids=["plain", "fair"])
def test_census_is_rebuilt_by_a_journal_recovery(tmp_path, admission):
    problems = [PROBLEMS[0], PROBLEMS[1], PROBLEMS[0], HEAVY_PROBLEM, PROBLEMS[0]]
    with ReconstructionService(16, admission=admission, state_dir=tmp_path) as first:
        for index, problem in enumerate(problems):
            assert first.submit(
                ReconstructionJob(problem=problem, job_id=f"r{index}"), now=float(index)
            )
        expected = dict(first.queue.waiting_problems())
        assert sum(expected.values()) == 5 and len(expected) == 3
    with ReconstructionService(16, admission=admission, state_dir=tmp_path) as second:
        assert second.recovered_jobs == 5
        assert dict(second.queue.waiting_problems()) == expected
        second.run_until_idle()
        assert not second.queue.waiting_problems()
        assert second.report().summary["jobs_completed"] == 5.0


@pytest.mark.fairness
def test_fair_replay_walks_a_bounded_number_of_drr_rounds_per_emitted_job(monkeypatch):
    """Walked rounds are counted through ``min``, which the DRR loop calls
    once per walked round (shadowed in the module's namespace)."""
    walked = []
    monkeypatch.setattr(
        fairness_module, "min", lambda values: walked.append(1) or min(values),
        raising=False,
    )
    emitted = []
    scheduling_order = FairShareQueue.scheduling_order

    def recording(self, now, running=()):
        emitted.append(list(scheduling_order(self, now, running)))
        return emitted[-1]

    monkeypatch.setattr(FairShareQueue, "scheduling_order", recording)
    admission = AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0})
    counts, service = counted_replay(600, admission)
    tenants = 4
    jobs_emitted = sum(len(order) for order in emitted)
    # A walked round emits a job or retires a tenant (or, rarely, lands an
    # ulp short of a cost and is walked again): at most one per emitted
    # job plus one per tenant per cycle.
    assert len(walked) <= jobs_emitted + tenants * len(emitted)
    # ... where the parent walked every round it counted.
    assert service.queue.deficit_rounds > 4 * len(walked)  # 7.0x on this trace
    # Per job: offer + remove, plus at most one aging sort per cycle waited.
    assert max(counts["for_job"].values()) == 1
    assert sum(counts["sort_key"].values()) <= 2 * 600


# --------------------------------------------------------------------------- #
# Observability: same numbers when enabled, no work when disabled
# --------------------------------------------------------------------------- #
FAIR = AdmissionPolicy(fair_share=True, tenant_weights={"a": 3.0}, aging_seconds=20.0)
OBS_SPECS = [
    {"problem": MIXED_TABLE4_PROBLEMS[i % 3], "tenant": "abc"[i % 3], "dataset": i % 5,
     "priority": i % 2, "slo": 40.0, "gap": 0.5, "weight": None, "max_inflight": None}
    for i in range(40)
]


@pytest.mark.fairness
def test_live_registry_reads_the_parents_values():
    config = dict(gpus=16, policy="slo", admission=FAIR, capacity=96 * GIB)
    live = replay(OBS_SPECS, frozen=False, obs=MetricsRegistry(), **config)
    frozen = replay(OBS_SPECS, frozen=True, obs=MetricsRegistry(), **config)
    assert live["obs"] == frozen["obs"]
    snapshot = live["obs"]
    for tenant in "abc":
        assert snapshot[f"service.fairness.share[tenant={tenant}]"] > 0
        assert snapshot[f"service.latency_seconds[tenant={tenant}]_count"] > 0
    assert snapshot["service.latency_seconds_count"] == snapshot["service.jobs_completed"]
    assert snapshot["service.fairness.deficit_rounds"] == live["fairness"]["deficit_rounds"]


@pytest.mark.fairness
def test_disabled_registry_costs_nothing(monkeypatch):
    """No per-tenant instrument name is formatted and no share table is
    sorted for a registry that would drop the value."""

    class Disabled(MetricsRegistry):
        def __init__(self):
            super().__init__(enabled=False)
            self.asked = []

        def _get(self, name, cls):
            self.asked.append(name)
            return super()._get(name, cls)

    shares = []
    share_of_service = FairShareQueue.share_of_service
    monkeypatch.setattr(
        FairShareQueue, "share_of_service",
        lambda self: shares.append(1) or share_of_service(self),
    )
    obs = Disabled()
    config = dict(gpus=16, policy="slo", admission=FAIR, capacity=96 * GIB)
    disabled = replay(OBS_SPECS, frozen=False, obs=obs, **config)
    assert disabled["obs"] == {} and disabled["summary"]["jobs_completed"] == "40.0"
    assert "service.jobs_completed" in obs.asked
    assert not [name for name in obs.asked if "[tenant=" in name]
    assert not shares
    replay(OBS_SPECS, frozen=False, obs=MetricsRegistry(), **config)
    assert len(shares) == 40  # one per placement under a live registry
