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

The second half holds the *cost* of a scheduling cycle by call counts, not
by a stopwatch, and a disabled metrics registry to doing no work.
"""

import contextlib
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


def replay(specs, *, frozen, gpus, policy, admission, capacity, obs=None):
    """Everything observable about one replay, as plain comparable values."""
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
            order = scheduling_order(now, running)
            orders.append([job.job_id for job in order])
            return order

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


def assert_same_replay(specs, **config):
    live = replay(specs, frozen=False, **config)
    frozen = replay(specs, frozen=True, **config)
    for field in live:
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


@pytest.mark.fairness
@given(
    specs=job_specs,
    gpus=st.sampled_from([4, 16]),
    policy=policies,
    admission=fair_admission,
    capacity=capacities,
)
@settings(max_examples=100, deadline=None)
def test_fair_replay_equals_the_frozen_parent(specs, gpus, policy, admission, capacity):
    assert_same_replay(
        specs, gpus=gpus, policy=policy, admission=admission, capacity=capacity
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
        assert (live.peek() and live.peek().job_id) == (frozen.peek() and frozen.peek().job_id)
        assert len(live) == len(frozen)
        assert live.backlog_seconds == frozen.backlog_seconds
        assert (live.offered, live.rejected) == (frozen.offered, frozen.rejected)


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
        live_order = live.scheduling_order(0.0)
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
    counts = {name: Counter() for name in ("choose_grid", "breakdown", "for_job", "sort_key")}
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

    with mock.patch.object(scheduler_module, "choose_grid", counting_choose_grid), \
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
    for name in small:
        growth = sum(large[name].values()) / sum(small[name].values())
        assert growth <= 4.2, (name, growth)  # the parent's choose_grid: 8.3x


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
        emitted.append(scheduling_order(self, now, running))
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
    assert service.queue.deficit_rounds > 4 * len(walked)  # 6.2x on this trace
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
