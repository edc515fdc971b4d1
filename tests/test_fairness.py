"""Fair-share scheduling invariants: DRR shares, quotas, aging, determinism.

These tests drive the :class:`~repro.service.fairness.FairShareQueue`
directly with hand-built jobs of known cost, so every invariant is exact:
weight-proportional interleaving, bounded starvation under aging, quota
rejections carrying Retry-After hints, and bit-identical scheduling orders
on replays.
"""

import math
import threading
import types

import pytest

from repro.core.types import problem_from_string
from repro.obs import MetricsRegistry
from repro.service import (
    AdmissionPolicy,
    FairShareQueue,
    ReconstructionJob,
    ReconstructionService,
    jains_index,
    synthetic_trace,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import QUOTA_REJECTION_PREFIX

pytestmark = pytest.mark.fairness

PROBLEM = problem_from_string("48x48x24->32x32x32")
SMALL = "512x512x1024->256x256x256"


def make_job(
    tenant: str,
    job_id: str,
    *,
    cost: float = 1.0,
    arrival: float = 0.0,
    priority: int = 1,
    slo: float = None,
    weight: float = None,
    max_inflight: int = None,
) -> ReconstructionJob:
    job = ReconstructionJob(
        problem=PROBLEM,
        tenant=tenant,
        dataset_id=f"ds-{job_id}",
        priority=priority,
        slo_seconds=slo,
        arrival_seconds=arrival,
        tenant_weight=weight,
        max_inflight=max_inflight,
        job_id=job_id,
    )
    job.estimated_seconds = cost
    return job


def fill(queue: FairShareQueue, jobs) -> None:
    for job in jobs:
        assert queue.offer(job), job.rejection_reason


def running_placement(job: ReconstructionJob):
    """The slice of a Placement that scheduling_order consults."""
    return types.SimpleNamespace(job=job)


# --------------------------------------------------------------------------- #
# Jain's fairness index
# --------------------------------------------------------------------------- #
class TestJainsIndex:
    def test_equal_allocations_are_perfectly_fair(self):
        assert jains_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jains_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_is_nan(self):
        assert math.isnan(jains_index([]))

    def test_all_zero_is_fair_by_convention(self):
        assert jains_index([0.0, 0.0]) == 1.0

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jains_index([1.0, -1.0])


# --------------------------------------------------------------------------- #
# Weighted DRR shares
# --------------------------------------------------------------------------- #
class TestWeightedShares:
    def test_two_to_one_weights_interleave_two_to_one(self):
        policy = AdmissionPolicy(
            tenant_weights={"a": 2.0, "b": 1.0}, quantum_seconds=1.0
        )
        queue = FairShareQueue(policy)
        fill(queue, [make_job("a", f"a-{i}", cost=1.0) for i in range(6)])
        fill(queue, [make_job("b", f"b-{i}", cost=1.0) for i in range(6)])
        order = list(queue.scheduling_order(0.0))
        assert len(order) == 12
        # Each DRR round grants a two unit-cost jobs and b one: every
        # prefix of complete rounds holds the 2:1 share exactly.
        first_six = [job.tenant for job in order[:6]]
        assert first_six.count("a") == 4
        assert first_six.count("b") == 2

    def test_equal_weights_alternate(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=1.0)
        )
        fill(queue, [make_job("a", f"a-{i}") for i in range(3)])
        fill(queue, [make_job("b", f"b-{i}") for i in range(3)])
        tenants = [job.tenant for job in queue.scheduling_order(0.0)]
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_plan_carried_weight_is_adopted_for_unconfigured_tenant(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=1.0)
        )
        fill(queue, [make_job("vip", f"v-{i}", weight=3.0) for i in range(6)])
        fill(queue, [make_job("std", f"s-{i}") for i in range(6)])
        assert queue.weight_of("vip") == 3.0
        first_four = [j.tenant for j in list(queue.scheduling_order(0.0))[:4]]
        assert first_four.count("vip") == 3

    def test_operator_weights_beat_plan_overrides(self):
        queue = FairShareQueue(
            AdmissionPolicy(tenant_weights={"vip": 1.0}, quantum_seconds=1.0)
        )
        fill(queue, [make_job("vip", "v-0", weight=100.0)])
        assert queue.weight_of("vip") == 1.0

    def test_attained_service_lets_shortchanged_tenant_catch_up(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=1.0)
        )
        a0 = make_job("a", "a-0")
        fill(queue, [a0])
        queue.remove(a0)  # a has attained service; b has none
        fill(queue, [make_job("a", "a-1"), make_job("b", "b-0")])
        assert [j.tenant for j in queue.scheduling_order(0.0)] == ["b", "a"]

    def test_within_tenant_order_stays_priority_then_deadline(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=10.0)
        )
        urgent = make_job("a", "a-urgent", priority=0, arrival=5.0)
        relaxed = make_job("a", "a-relaxed", priority=2, arrival=0.0)
        fill(queue, [relaxed, urgent])
        assert [j.job_id for j in queue.scheduling_order(10.0)] == [
            "a-urgent", "a-relaxed",
        ]

    @staticmethod
    def _drain_with_plan_weight(weight: float, *, timeout: float = 5.0):
        """Two Table-4 jobs, one carrying ``tenant_weight``; drain on a thread."""
        service = ReconstructionService(16, admission=AdmissionPolicy(fair_share=True))
        for tenant, plan_weight in (("std", None), ("tiny", weight)):
            assert service.submit(ReconstructionJob(
                problem="512x512x1024->256x256x256", tenant=tenant,
                tenant_weight=plan_weight,
            ))
        # A daemon: before the fix this walks ~2e9 Python rounds under the
        # service lock, and the test must fail its join, not hang the run.
        worker = threading.Thread(target=service.run_until_idle, daemon=True)
        worker.start()
        worker.join(timeout)
        return service, worker

    def test_a_tiny_plan_weight_cannot_stall_the_service(self):
        # DRR walked cost / (quantum x weight) rounds per emitted job, and
        # tenant_weight is a plan field validated only as > 0: at 1e-9 one
        # POST /plans held the service lock for ~20 minutes per cycle.
        service, worker = self._drain_with_plan_weight(1e-9)
        assert not worker.is_alive(), "scheduling cycle still walking empty DRR rounds"
        assert service.report().summary["jobs_completed"] == 2.0
        assert service.queue.deficit_rounds > 10**9  # counted, not walked

    @pytest.mark.parametrize(
        "weight, rounds", [(1.0, 3), (1e-2, 225), (1e-4, 22_432), (1e-5, 224_312)]
    )
    def test_skipped_rounds_are_counted_as_the_walk_counted_them(self, weight, rounds):
        service, worker = self._drain_with_plan_weight(weight)
        assert not worker.is_alive()
        assert service.queue.deficit_rounds == rounds


class TestWeightFloor:
    """``tenant_weight=1e-320`` passed every ``> 0`` check, was queued, and
    ``quantum x weight`` underflowed: the scheduling cycle raised
    ``OverflowError`` for that submission and for every later one."""

    GOOD = dict(target="service", backend="vectorized", tenant="good")

    def test_an_underflowing_plan_weight_is_refused_before_it_is_queued(self):
        from repro.api import plan_for_problem

        service = ReconstructionService(
            4, backend="vectorized", admission=AdmissionPolicy(fair_share=True)
        )
        good = plan_for_problem(SMALL, **self.GOOD)
        for index in range(3):
            service.submit_plan(good, dataset_id=f"queued-{index}")
        bad = plan_for_problem(SMALL, **{**self.GOOD, "tenant": "evil"},
                               tenant_weight=1e-320)
        with pytest.raises(ValueError, match="at least 1e-09"):
            bad.validate()
        with pytest.raises(ValueError, match="at least 1e-09"):
            service.submit_plan(bad, dataset_id="bad")
        assert len(service.queue) == 3  # nothing of it was queued
        service.submit_plan(good, dataset_id="after")
        service.run_until_idle()  # raised OverflowError, forever, before
        assert len(service.queue) == 0
        assert service.report().summary["jobs_completed"] == 4.0

    @pytest.mark.parametrize("weight", [1e-320, 1e-10, 0.0, float("nan")])
    def test_one_floor_at_every_door(self, weight):
        from repro.service.job import MIN_TENANT_WEIGHT

        assert MIN_TENANT_WEIGHT <= 1e-9  # the 1e-9 case above still runs
        with pytest.raises(ValueError):
            ReconstructionJob(problem=SMALL, tenant_weight=weight)
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_weights={"a": weight})
        with pytest.raises(ValueError):
            AdmissionPolicy(default_tenant_weight=weight)
        ReconstructionJob(problem=SMALL, tenant_weight=MIN_TENANT_WEIGHT)
        AdmissionPolicy(tenant_weights={"a": MIN_TENANT_WEIGHT})

    def test_over_http_it_is_a_400_and_the_next_submission_completes(self):
        import json
        import urllib.error
        import urllib.request

        from repro.api import plan_for_problem
        from repro.service import ServiceHTTPServer

        def post(url, plan):
            request = urllib.request.Request(
                url, data=plan.to_json().encode("utf-8"), method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        service = ReconstructionService(
            4, backend="vectorized", admission=AdmissionPolicy(fair_share=True)
        )
        server = ServiceHTTPServer(service, auto_advance=True)
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/plans"
            bad = plan_for_problem(SMALL, **{**self.GOOD, "tenant": "evil"},
                                   tenant_weight=1e-320)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(url, bad)
            assert excinfo.value.code == 400
            assert "tenant_weight" in json.loads(excinfo.value.read())["error"]
            good = post(url, plan_for_problem(SMALL, **self.GOOD))
            assert good["state"] == "completed"
        finally:
            server.stop()
            service.close()


# --------------------------------------------------------------------------- #
# Quotas
# --------------------------------------------------------------------------- #
class TestQuotas:
    def test_depth_quota_rejects_with_retry_after(self):
        queue = FairShareQueue(
            AdmissionPolicy(max_queue_depth_per_tenant=2)
        )
        fill(queue, [make_job("a", "a-0", cost=7.0), make_job("a", "a-1", cost=7.0)])
        extra = make_job("a", "a-2")
        assert not queue.offer(extra)
        assert extra.rejection_reason.startswith(QUOTA_REJECTION_PREFIX)
        assert extra.retry_after_seconds == pytest.approx(14.0)
        assert queue.quota_rejections == {"a": 1}
        # The other tenant is unaffected by a's quota.
        assert queue.offer(make_job("b", "b-0"))

    def test_quota_rejections_reach_the_obs_registry(self):
        obs = MetricsRegistry()
        queue = FairShareQueue(
            AdmissionPolicy(max_queue_depth_per_tenant=1), obs=obs
        )
        fill(queue, [make_job("a", "a-0")])
        queue.offer(make_job("a", "a-1"))
        snap = obs.snapshot()
        assert snap["service.fairness.quota_rejections"] == 1.0
        assert snap["service.fairness.quota_rejections[tenant=a]"] == 1.0

    def test_inflight_cap_withholds_but_never_rejects(self):
        queue = FairShareQueue(
            AdmissionPolicy(max_inflight_per_tenant=1, quantum_seconds=1.0)
        )
        queued = make_job("a", "a-1")
        fill(queue, [queued, make_job("b", "b-0")])
        running = [running_placement(make_job("a", "a-0"))]
        order = list(queue.scheduling_order(0.0, running))
        # a is at its cap: its queued job is withheld, not rejected.
        assert [j.job_id for j in order] == ["b-0"]
        assert queued.rejection_reason is None
        # Once a's running job finishes, the withheld job is schedulable.
        assert [j.job_id for j in queue.scheduling_order(0.0)] == [
            "a-1", "b-0",
        ]

    def test_plan_carried_inflight_cap_is_adopted(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=1.0)
        )
        fill(queue, [make_job("a", "a-1", max_inflight=1)])
        running = [running_placement(make_job("a", "a-0"))]
        assert list(queue.scheduling_order(0.0, running)) == []


# --------------------------------------------------------------------------- #
# Starvation aging
# --------------------------------------------------------------------------- #
class TestAging:
    def test_aged_job_of_light_tenant_preempts_heavy_backlog(self):
        policy = AdmissionPolicy(
            tenant_weights={"heavy": 1000.0, "light": 1.0},
            quantum_seconds=1.0,
            aging_seconds=30.0,
        )
        queue = FairShareQueue(policy)
        fill(queue, [make_job("heavy", f"h-{i}", arrival=25.0) for i in range(8)])
        starved = make_job("light", "l-0", arrival=0.0, slo=40.0)
        fill(queue, [starved])
        order = list(queue.scheduling_order(31.0))
        assert order[0].job_id == "l-0"
        assert queue.aged_promotions == 1

    def test_only_one_job_per_tenant_ages_per_cycle(self):
        policy = AdmissionPolicy(
            tenant_weights={"heavy": 1000.0, "light": 1.0},
            quantum_seconds=1.0,
            aging_seconds=10.0,
        )
        queue = FairShareQueue(policy)
        fill(queue, [make_job("light", f"l-{i}", arrival=0.0) for i in range(5)])
        fill(queue, [make_job("heavy", "h-0", arrival=99.0)])
        order = list(queue.scheduling_order(100.0))
        # All five light jobs waited past aging, but only the oldest jumps;
        # the rest take the normal DRR path, so aging cannot collapse the
        # whole order into FIFO.
        assert order[0].tenant == "light"
        assert queue.aged_promotions == 1

    def test_no_aging_without_the_knob(self):
        queue = FairShareQueue(
            AdmissionPolicy(fair_share=True, quantum_seconds=1.0)
        )
        fill(queue, [make_job("a", "a-0", arrival=0.0)])
        list(queue.scheduling_order(1e9))
        assert queue.aged_promotions == 0

    def test_placing_the_aged_job_mid_read_leaves_the_rest_of_the_order(self):
        # The scheduler removes each placed job while it reads the order,
        # and remove() charges attained service: the DRR visit order is
        # the one the queue had when reading began, not the one after.
        def build():
            queue = FairShareQueue(AdmissionPolicy(
                fair_share=True, quantum_seconds=1.0, aging_seconds=30.0
            ))
            fill(queue, [make_job("a", f"a-{i}", arrival=0.0) for i in range(3)])
            for tenant in "bc":
                fill(queue, [
                    make_job(tenant, f"{tenant}-{i}", arrival=50.0) for i in range(2)
                ])
            return queue

        expected = [j.job_id for j in build().scheduling_order(60.0)]
        assert expected == ["a-0", "a-1", "b-0", "c-0", "a-2", "b-1", "c-1"]
        queue = build()
        order = iter(queue.scheduling_order(60.0))
        first = next(order)
        queue.remove(first)
        assert [first.job_id, *(j.job_id for j in order)] == expected
        assert queue.aged_promotions == 1


# --------------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def build(self):
        policy = AdmissionPolicy(
            tenant_weights={"a": 2.0, "b": 1.0, "c": 0.5},
            quantum_seconds=2.0,
            aging_seconds=50.0,
        )
        queue = FairShareQueue(policy)
        for tenant, n in (("a", 7), ("b", 5), ("c", 9)):
            fill(queue, [
                make_job(tenant, f"{tenant}-{i}", cost=0.5 + (i % 3),
                         arrival=float(i), priority=i % 2)
                for i in range(n)
            ])
        return queue

    def test_same_snapshot_yields_identical_order(self):
        first = [j.job_id for j in self.build().scheduling_order(20.0)]
        second = [j.job_id for j in self.build().scheduling_order(20.0)]
        assert first == second
        assert len(first) == 21

    def test_order_covers_every_waiting_job_exactly_once(self):
        queue = self.build()
        order = [j.job_id for j in queue.scheduling_order(20.0)]
        assert sorted(order) == sorted(j.job_id for j in queue.ordered())


# --------------------------------------------------------------------------- #
# Policy validation and queue selection
# --------------------------------------------------------------------------- #
class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tenant_weights": {"a": 0.0}},
        {"tenant_weights": {"a": -1.0}},
        {"default_tenant_weight": 0.0},
        {"max_inflight_per_tenant": 0},
        {"max_queue_depth_per_tenant": 0},
        {"quantum_seconds": 0.0},
        {"aging_seconds": 0.0},
    ])
    def test_invalid_fairness_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_fairness_enabled_flags(self):
        assert not AdmissionPolicy().fairness_enabled
        assert AdmissionPolicy(fair_share=True).fairness_enabled
        assert AdmissionPolicy(tenant_weights={"a": 2.0}).fairness_enabled
        assert AdmissionPolicy(max_inflight_per_tenant=4).fairness_enabled
        assert AdmissionPolicy(aging_seconds=30.0).fairness_enabled

    def test_service_picks_fair_queue_when_enabled(self):
        with ReconstructionService(
            4, admission=AdmissionPolicy(fair_share=True)
        ) as service:
            assert isinstance(service.queue, FairShareQueue)
        with ReconstructionService(4, admission=AdmissionPolicy()) as service:
            assert not isinstance(service.queue, FairShareQueue)


# --------------------------------------------------------------------------- #
# Metrics integration
# --------------------------------------------------------------------------- #
class TestFairnessMetrics:
    def test_summary_emits_fairness_keys_under_fair_share(self):
        policy = AdmissionPolicy(
            max_depth=500,
            tenant_weights={"a": 2.0, "b": 1.0},
        )
        trace = synthetic_trace(
            30, seed=11, heavy_fraction=0.0,
            tenant_mix={"a": 1.0, "b": 1.0},
        )
        with ReconstructionService(16, admission=policy) as service:
            report = service.replay(trace)
        summary = report.summary
        assert 0.0 < summary["fairness_index"] <= 1.0
        shares = [
            v for k, v in summary.items() if k.endswith("_share_of_service")
        ]
        assert shares and sum(shares) == pytest.approx(1.0)

    def test_summary_has_no_fairness_keys_without_fair_share(self):
        trace = synthetic_trace(10, seed=1, heavy_fraction=0.0)
        with ReconstructionService(16) as service:
            report = service.replay(trace)
        assert "fairness_index" not in report.summary
        assert "quota_rejections" not in report.summary

    def test_quota_rejections_counted_per_tenant(self):
        metrics = ServiceMetrics()
        job = make_job("a", "a-0")
        job.mark_rejected(f"{QUOTA_REJECTION_PREFIX}: tenant 'a' capped",
                          retry_after_seconds=2.0)
        metrics.record(job)
        other = make_job("b", "b-0")
        other.mark_rejected("infeasible: no decomposition")
        metrics.record(other)
        assert metrics.quota_rejections == {"a": 1}
        summary = metrics.summary()
        assert summary["quota_rejections"] == 1.0
        assert summary["tenant[a]_quota_rejections"] == 1.0
        assert "tenant[b]_quota_rejections" not in summary
