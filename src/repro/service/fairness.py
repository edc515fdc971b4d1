"""Weighted fair-share scheduling across tenants: DRR, quotas, aging.

Before this layer the service scheduled purely by ``(priority, deadline,
FIFO)`` — :attr:`~repro.service.job.ReconstructionJob.tenant` was reporting
metadata, so one tenant flooding urgent jobs starved every other tenant's
tail latency, which the per-tenant p99 histograms could *observe* but
nothing could *prevent*.  :class:`FairShareQueue` sits between admission
and the :class:`~repro.service.scheduler.ClusterScheduler`:

* **per-tenant subqueues** — each internally ordered by
  :func:`~repro.service.job.job_sort_key`, so a tenant's own jobs still
  run by priority and deadline, and kept as jobs are admitted, placed or
  drained (bisected in by the key the base queue computed), never rebuilt;
* **deficit round-robin** — :meth:`scheduling_order` interleaves tenants'
  jobs by visiting tenants cyclically and granting each a deficit of
  ``quantum_seconds x weight`` estimated service seconds per visit; a job
  is emitted once its tenant's deficit covers its estimated cost.  Under
  contention the placed prefix of that order gives each tenant a service
  share proportional to its weight.  Tenants are visited in ascending
  order of *attained* weight-normalized service (charged when jobs are
  actually placed), so fairness holds across scheduling cycles, not just
  within one;
* **quotas** — ``max_queue_depth_per_tenant`` rejects excess *waiting*
  jobs with a ``tenant quota`` reason and a Retry-After hint (the service
  HTTP front door turns these into ``429``), and ``max_inflight_per_tenant``
  withholds a tenant's jobs from the scheduling order while the tenant is
  at its running-job cap (throttling, never rejection);
* **starvation aging** — once a tenant's oldest waiting job has waited
  ``aging_seconds``, it jumps to the front of the order regardless of
  deficits.  Only one job per tenant per cycle ages, so a deadline job of
  a light tenant preempts a heavy tenant's backlog without aging
  collapsing the whole queue back into FIFO order.

Everything is deterministic: subqueue order, tenant visiting order and
deficit arithmetic are pure functions of the queue snapshot and the
persisted attained-service accounting — replaying the same trace twice
yields bit-identical placement orders.

The order is yielded as the scheduler reads it, under the service lock,
so a cycle pays for the jobs it considers, not for the whole queue: each
kept subqueue is copied into a deque in one C-level step per tenant (the
Python-level work is per tenant, not per waiting job), DRR rounds are
walked only until the scheduler stops reading, and rounds in which no
tenant can afford its head (``cost / (quantum x weight)`` of them per job —
unbounded as a plan-carried weight goes to zero) are taken in closed form.
The DRR counters count the rounds and jobs of the prefix considered, and
a cycle with no free GPU considers none: the scheduler returns before it
asks for the order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import NULL_METRICS
from ..obs.metrics import plain_sum
from .job import ReconstructionJob, job_sort_key
from .queue import QUOTA_REJECTION_PREFIX, AdmissionPolicy, JobQueue

__all__ = ["FairShareQueue", "jains_index"]


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index of a set of non-negative allocations.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when every value is equal, ``1/n``
    when one value holds everything.  ``nan`` for an empty sequence; by
    convention 1.0 when all allocations are zero (nobody is treated worse
    than anybody else).
    """
    values = list(values)
    if not values:
        return float("nan")
    if any(v < 0 for v in values):
        raise ValueError("Jain's index is defined over non-negative values")
    square_sum = plain_sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = plain_sum(values)
    return (total * total) / (len(values) * square_sum)


class FairShareQueue(JobQueue):
    """A :class:`JobQueue` whose scheduling order is weighted-fair.

    Admission (depth/backlog caps) is inherited; on top of it this queue
    enforces the per-tenant quotas of its :class:`AdmissionPolicy` and
    replaces the global ``(priority, deadline, FIFO)`` scheduling order
    with deficit round-robin across per-tenant subqueues (module
    docstring).  Pass the service's obs registry as ``obs`` to surface the
    fairness counters (``service.fairness.*``).
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        *,
        estimator=None,
        obs=None,
    ):
        super().__init__(policy, estimator=estimator)
        self.obs = obs if obs is not None else NULL_METRICS
        # Operator-configured weights win; plan-carried overrides register
        # lazily for tenants the policy does not name.
        self._weights: Dict[str, float] = dict(self.policy.tenant_weights or {})  # guarded-by: caller
        self._inflight_caps: Dict[str, int] = {}  # guarded-by: caller
        # Lifetime service accounting, charged when a job is placed:
        # raw estimated seconds and weight-normalized seconds per tenant.
        self._service_seconds: Dict[str, float] = {}  # guarded-by: caller
        self._attained: Dict[str, float] = {}  # guarded-by: caller
        # Each tenant's waiting jobs in scheduling order, with their sort
        # keys beside them (as ``_ordered`` / ``_keys``), kept by the
        # ``_queued`` / ``_unqueued`` hooks; only tenants with waiting jobs.
        self._subqueues: Dict[
            str, Tuple[List[ReconstructionJob], List[Tuple[int, float, int]]]
        ] = {}  # guarded-by: caller
        self.deficit_rounds = 0
        self.quota_rejections: Dict[str, int] = {}  # guarded-by: caller
        self.aged_promotions = 0

    # ------------------------------------------------------------------ #
    # Tenant configuration
    # ------------------------------------------------------------------ #
    def weight_of(self, tenant: str) -> float:
        """The tenant's scheduling weight (policy > plan override > default)."""
        return self._weights.get(tenant, self.policy.default_tenant_weight)

    def inflight_cap_of(self, tenant: str) -> Optional[int]:
        """The tenant's in-flight quota (policy-wide cap > plan override)."""
        if self.policy.max_inflight_per_tenant is not None:
            return self.policy.max_inflight_per_tenant
        return self._inflight_caps.get(tenant)

    def weights_snapshot(self) -> Dict[str, float]:
        """Resolved weight of every tenant this queue has seen."""
        tenants = set(self._weights) | set(self._service_seconds)
        return {tenant: self.weight_of(tenant) for tenant in sorted(tenants)}

    def share_of_service(self) -> Dict[str, float]:
        """Each tenant's fraction of the estimated service seconds placed."""
        total = plain_sum(self._service_seconds.values())
        if total <= 0:
            return {}
        return {
            tenant: seconds / total
            for tenant, seconds in sorted(self._service_seconds.items())
        }

    def _register(self, job: ReconstructionJob) -> None:
        """Adopt a plan-carried weight/quota for an unconfigured tenant."""
        if job.tenant_weight is not None and job.tenant not in (
            self.policy.tenant_weights or {}
        ):
            self._weights[job.tenant] = float(job.tenant_weight)
        if job.max_inflight is not None:
            self._inflight_caps.setdefault(job.tenant, int(job.max_inflight))

    # ------------------------------------------------------------------ #
    # Admission: per-tenant queue-depth quota on top of the base caps
    # ------------------------------------------------------------------ #
    def offer(self, job: ReconstructionJob) -> bool:
        self._register(job)
        depth_cap = self.policy.max_queue_depth_per_tenant
        if depth_cap is not None and job.tenant in self._subqueues:
            depth = len(self._subqueues[job.tenant][0])
            if depth >= depth_cap:
                # Retry-After from the backlog estimate: the tenant's own
                # queued service seconds must drain before a slot frees
                # (an upper bound — other tenants' service runs beside it),
                # added in admission order (see JobQueue).
                backlog = plain_sum(
                    j.estimated_seconds or 0.0
                    for j in self._admitted.values() if j.tenant == job.tenant
                )
                job.mark_rejected(
                    f"{QUOTA_REJECTION_PREFIX}: tenant {job.tenant!r} has "
                    f"{depth} queued jobs at its cap {depth_cap}",
                    retry_after_seconds=max(1.0, backlog),
                )
                self.quota_rejections[job.tenant] = (
                    self.quota_rejections.get(job.tenant, 0) + 1
                )
                self.obs.counter("service.fairness.quota_rejections").inc()
                self.obs.counter(
                    f"service.fairness.quota_rejections[tenant={job.tenant}]"
                ).inc()
                return False
        return super().offer(job)

    def _queued(self, job: ReconstructionJob, key: Tuple[int, float, int]) -> None:
        subqueue = self._subqueues.get(job.tenant)
        if subqueue is None:
            self._subqueues[job.tenant] = ([job], [key])
            return
        jobs, keys = subqueue
        index = bisect_right(keys, key)  # ties keep admission order
        keys.insert(index, key)
        jobs.insert(index, job)

    def _unqueued(self, job: ReconstructionJob, key: Tuple[int, float, int]) -> None:
        jobs, keys = self._subqueues[job.tenant]
        if len(jobs) == 1:
            del self._subqueues[job.tenant]
            return
        index = bisect_left(keys, key)
        while jobs[index] is not job:
            index += 1
        del keys[index], jobs[index]

    def drain(self) -> List[ReconstructionJob]:
        self._subqueues.clear()
        return super().drain()

    # ------------------------------------------------------------------ #
    # Service accounting: charged when the scheduler places a job
    # ------------------------------------------------------------------ #
    def remove(self, job: ReconstructionJob) -> None:
        super().remove(job)
        cost = job.estimated_seconds or 0.0
        tenant = job.tenant
        self._service_seconds[tenant] = (
            self._service_seconds.get(tenant, 0.0) + cost
        )
        self._attained[tenant] = (
            self._attained.get(tenant, 0.0) + cost / self.weight_of(tenant)
        )
        if self.obs.enabled:
            for name, share in self.share_of_service().items():
                self.obs.gauge(f"service.fairness.share[tenant={name}]").set(share)

    def fairness_index(self) -> float:
        """Jain's index of the weight-normalized service attained so far."""
        return jains_index(list(self._attained.values()))

    # ------------------------------------------------------------------ #
    # The fair scheduling order
    # ------------------------------------------------------------------ #
    def scheduling_order(
        self, now: float, running: Sequence = ()
    ) -> Iterator[ReconstructionJob]:
        """Aged jobs first, then deficit round-robin across tenants.

        Jobs of tenants at their in-flight cap are withheld entirely (they
        stay queued for a later cycle); every other waiting job is yielded
        exactly once.  The scheduler places a prefix of this order, so
        under contention placed service follows the weights.  It removes
        placed jobs between yields, and :meth:`remove` charges attained
        service: so all queue state read here is read before the first
        yield, and the order is the one the queue had when reading began.
        """
        quantum = self.policy.quantum_seconds

        per_tenant: Dict[str, Deque[ReconstructionJob]] = {
            tenant: deque(jobs) for tenant, (jobs, _) in self._subqueues.items()
        }

        # Per-tenant emission budget: in-flight cap minus currently running.
        inflight: Dict[str, int] = {}
        for placement in running:
            tenant = placement.job.tenant
            inflight[tenant] = inflight.get(tenant, 0) + 1
        budget: Dict[str, Optional[int]] = {}
        for tenant in per_tenant:
            cap = self.inflight_cap_of(tenant)
            budget[tenant] = (
                None if cap is None else max(0, cap - inflight.get(tenant, 0))
            )

        # DRR visit order: least attained weight-normalized service first
        # (ties on tenant name), so tenants short-changed in earlier cycles
        # catch up first.
        visit = sorted(per_tenant, key=lambda t: (self._attained.get(t, 0.0), t))
        grant = {tenant: quantum * self.weight_of(tenant) for tenant in visit}

        def within_budget(job: ReconstructionJob) -> bool:
            remaining = budget[job.tenant]
            if remaining is not None:
                if remaining == 0:
                    return False
                budget[job.tenant] = remaining - 1
            return True

        # Starvation aging: each tenant's oldest waiting job (by scheduling
        # order) jumps the fair order once it has waited aging_seconds.
        # One job per tenant per cycle bounds the bypass.
        aging = self.policy.aging_seconds
        if aging is not None:
            aged: List[ReconstructionJob] = []
            for tenant in sorted(per_tenant):
                head = per_tenant[tenant][0]
                if now - head.arrival_seconds >= aging:
                    aged.append(head)
            for job in sorted(aged, key=job_sort_key):
                if within_budget(job):
                    per_tenant[job.tenant].popleft()
                    self.aged_promotions += 1
                    self.obs.counter("service.fairness.aged_jobs").inc()
                    yield job

        # Deficit round-robin over the remainder.
        active = [
            tenant for tenant in visit
            if per_tenant[tenant] and budget[tenant] != 0
        ]
        deficits = dict.fromkeys(active, 0.0)
        while active:
            # A round in which no tenant can afford its head only adds the
            # grants, and there are cost / grant of them per emitted job —
            # unbounded as a plan-carried weight goes to zero.  Take all
            # but the last in one step; the round that may emit is walked
            # with the plain additions and comparisons below.
            idle = min(
                math.ceil(
                    ((per_tenant[tenant][0].estimated_seconds or quantum)
                     - deficits[tenant]) / grant[tenant]
                )
                for tenant in active
            ) - 1
            rounds = 1
            if idle > 0:
                rounds += idle
                for tenant in active:
                    deficits[tenant] += idle * grant[tenant]
            self.deficit_rounds += rounds
            self.obs.counter("service.fairness.deficit_rounds").inc(rounds)
            drained = False
            for tenant in active:
                deficit = deficits[tenant] + grant[tenant]
                subqueue = per_tenant[tenant]
                while subqueue:
                    head = subqueue[0]
                    cost = head.estimated_seconds or quantum
                    if deficit < cost:
                        break
                    if not within_budget(head):
                        subqueue.clear()  # budget exhausted this cycle
                        break
                    subqueue.popleft()
                    deficit -= cost
                    yield head
                deficits[tenant] = deficit
                drained = drained or not subqueue
            if drained:
                # Classic DRR, no hoarding: a tenant with nothing left
                # leaves the rotation and its deficit with it.
                active = [tenant for tenant in active if per_tenant[tenant]]
