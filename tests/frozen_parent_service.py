"""The service's queue, fair-share queue and scheduler as they stood before
the scheduling cycle stopped re-deriving what cannot change (PR 16).

Frozen verbatim from ``src/repro/service/{queue,fairness,scheduler}.py`` at
commit e521b9c, edited since only to fold its three float ``sum()``s left
to right through its own ``_plain_sum`` (the builtin compensates from
Python 3.12 on, so the frozen bits would otherwise depend on the
interpreter), to drop the unread ``JobQueue.peek``, and to return from
``ClusterScheduler.schedule`` before reading the queue when no GPU is free
(as the live scheduler does: such a cycle places and rejects nothing either
way, but the recorded per-cycle orders and the DRR / aging counters count
what a cycle reads).  The fold is written out here rather than imported
from ``repro.obs.metrics``, so that a change to the live helper moves the
live queue and not this reference.  ``tests/test_service_equivalence.py``
replays random traces through a service built on these and one built on
the live classes and holds every job record, summary and scheduling order
to ``==``.  These re-derive ``choose_grid`` / the Eq. 8-19 model for every
waiting job at every event, ``sorted()`` the queue per call and walk every
empty DRR round — the costs the rewrite removed, and the reason this lives
under ``tests/``.  The value types (jobs, plans, placements, the cluster,
the admission policy) are the live ones: the rewrite did not touch them.
"""

import warnings
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.types import ReconstructionProblem
from repro.obs import NULL_METRICS
from repro.pipeline.config import choose_grid
from repro.pipeline.perfmodel import IFDKPerformanceModel
from repro.service.cache import CacheKey, FilteredProjectionCache
from repro.service.fairness import jains_index
from repro.service.job import ReconstructionJob, job_sort_key
from repro.service.queue import (
    QUOTA_REJECTION_PREFIX,
    AdmissionPolicy,
    model_runtime_estimator,
)
from repro.service.scheduler import AllocationPlan, GPUCluster, Placement


def _plain_sum(values) -> float:
    """Left to right, one rounding per addition, on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


class JobQueue:
    """Priority queue of waiting jobs with admission control."""

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        *,
        estimator: Optional[Callable[[ReconstructionJob], Optional[float]]] = None,
    ):
        self.policy = policy or AdmissionPolicy()
        # The queue has no lock of its own: the owning service serializes
        # every call on its lock (see ReconstructionService).
        self._jobs: List[ReconstructionJob] = []  # guarded-by: caller
        self.offered = 0  # guarded-by: caller
        self.rejected = 0  # guarded-by: caller
        # Lazily built: most callers (the service) estimate before offering,
        # so the model is only constructed when a job actually needs it.
        self._estimator = estimator

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[ReconstructionJob]:
        return iter(self.ordered())

    @property
    def backlog_seconds(self) -> float:
        """Sum of the queued jobs' estimated service times."""
        return _plain_sum(job.estimated_seconds or 0.0 for job in self._jobs)

    def ordered(self) -> List[ReconstructionJob]:
        """Snapshot of the queue in scheduling order."""
        return sorted(self._jobs, key=job_sort_key)

    def scheduling_order(
        self, now: float, running: Sequence = ()
    ) -> List[ReconstructionJob]:
        """The order the scheduler should consider waiting jobs in.

        The seam the fair-share layer plugs into: the base queue ignores
        ``now`` and the running placements and returns the plain
        ``(priority, deadline, FIFO)`` order;
        :class:`~repro.service.fairness.FairShareQueue` overrides this with
        deficit-round-robin across per-tenant subqueues, starvation aging
        and in-flight quotas.
        """
        return self.ordered()

    # ------------------------------------------------------------------ #
    def offer(self, job: ReconstructionJob) -> bool:
        """Apply admission control; enqueue on success.

        Returns ``True`` and marks the job ``QUEUED`` when admitted;
        otherwise marks it ``REJECTED`` with the reason and returns
        ``False``.

        A job arriving without ``estimated_seconds`` does **not** bypass the
        backlog cap: its service time is estimated from the performance
        model (and recorded on the job, so it also counts against later
        arrivals).  Only when no estimate can be produced at all is the job
        admitted with a warning — loud, never silent.
        """
        self.offered += 1
        if len(self._jobs) >= self.policy.max_depth:
            # Transient overload, not infeasibility: hint when a slot
            # should free (the mean queued service time).
            job.mark_rejected(
                f"queue full: depth {len(self._jobs)} at cap {self.policy.max_depth}",
                retry_after_seconds=max(
                    1.0, self.backlog_seconds / max(1, len(self._jobs))
                ),
            )
            self.rejected += 1
            return False
        cap = self.policy.max_backlog_seconds
        if cap is not None:
            if job.estimated_seconds is None:
                job.estimated_seconds = self._estimate(job)
            if job.estimated_seconds is None:
                warnings.warn(
                    f"job {job.job_id} has no runtime estimate and none could "
                    "be derived from the performance model; admitting it "
                    "without counting it against the backlog cap",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                backlog = self.backlog_seconds + job.estimated_seconds
                if backlog > cap:
                    job.mark_rejected(
                        f"backlog {backlog:.1f}s exceeds admission cap {cap:.1f}s",
                        retry_after_seconds=max(1.0, backlog - cap),
                    )
                    self.rejected += 1
                    return False
        job.mark_queued()
        self._jobs.append(job)
        return True

    def _estimate(self, job: ReconstructionJob) -> Optional[float]:
        if self._estimator is None:
            self._estimator = model_runtime_estimator()
        return self._estimator(job)

    def remove(self, job: ReconstructionJob) -> None:
        """Remove a specific job (used when the scheduler places it)."""
        self._jobs.remove(job)

    def drain(self) -> List[ReconstructionJob]:
        """Remove and return every queued job in scheduling order."""
        jobs = self.ordered()
        self._jobs.clear()
        return jobs


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
        total = _plain_sum(self._service_seconds.values())
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
        if depth_cap is not None:
            queued = [j for j in self._jobs if j.tenant == job.tenant]
            if len(queued) >= depth_cap:
                # Retry-After from the backlog estimate: the tenant's own
                # queued service seconds must drain before a slot frees
                # (an upper bound — other tenants' service runs beside it).
                backlog = _plain_sum(j.estimated_seconds or 0.0 for j in queued)
                job.mark_rejected(
                    f"{QUOTA_REJECTION_PREFIX}: tenant {job.tenant!r} has "
                    f"{len(queued)} queued jobs at its cap {depth_cap}",
                    retry_after_seconds=max(1.0, backlog),
                )
                self.offered += 1
                self.rejected += 1
                self.quota_rejections[job.tenant] = (
                    self.quota_rejections.get(job.tenant, 0) + 1
                )
                self.obs.counter("service.fairness.quota_rejections").inc()
                self.obs.counter(
                    f"service.fairness.quota_rejections[tenant={job.tenant}]"
                ).inc()
                return False
        return super().offer(job)

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
    ) -> List[ReconstructionJob]:
        """Aged jobs first, then deficit round-robin across tenants.

        Jobs of tenants at their in-flight cap are withheld entirely (they
        stay queued for a later cycle); every other waiting job appears
        exactly once.  The scheduler places a prefix of this order, so
        under contention placed service follows the weights.
        """
        if not self._jobs:
            return []
        quantum = self.policy.quantum_seconds

        # Per-tenant emission budget: in-flight cap minus currently running.
        inflight: Dict[str, int] = {}
        for placement in running:
            tenant = placement.job.tenant
            inflight[tenant] = inflight.get(tenant, 0) + 1
        budget: Dict[str, Optional[int]] = {}
        for job in self._jobs:
            if job.tenant not in budget:
                cap = self.inflight_cap_of(job.tenant)
                budget[job.tenant] = (
                    None if cap is None
                    else max(0, cap - inflight.get(job.tenant, 0))
                )

        order: List[ReconstructionJob] = []

        def emit(job: ReconstructionJob) -> bool:
            remaining = budget[job.tenant]
            if remaining is not None:
                if remaining == 0:
                    return False
                budget[job.tenant] = remaining - 1
            order.append(job)
            return True

        per_tenant: Dict[str, Deque[ReconstructionJob]] = {}
        for job in self.ordered():
            per_tenant.setdefault(job.tenant, deque()).append(job)

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
                if emit(job):
                    per_tenant[job.tenant].popleft()
                    self.aged_promotions += 1
                    self.obs.counter("service.fairness.aged_jobs").inc()

        # Deficit round-robin over the remainder.  Visit order: least
        # attained weight-normalized service first (ties on tenant name),
        # so tenants short-changed in earlier cycles catch up first.
        active = [
            tenant for tenant in sorted(
                per_tenant,
                key=lambda t: (self._attained.get(t, 0.0), t),
            )
            if per_tenant[tenant] and budget[tenant] != 0
        ]
        deficits: Dict[str, float] = {tenant: 0.0 for tenant in active}
        rounds = 0
        while active:
            rounds += 1
            for tenant in list(active):
                deficits[tenant] += quantum * self.weight_of(tenant)
                subqueue = per_tenant[tenant]
                while subqueue:
                    head = subqueue[0]
                    cost = head.estimated_seconds or quantum
                    if deficits[tenant] < cost:
                        break
                    if not emit(head):
                        subqueue.clear()  # budget exhausted this cycle
                        break
                    subqueue.popleft()
                    deficits[tenant] -= cost
                if not subqueue:
                    active.remove(tenant)
                    deficits[tenant] = 0.0  # classic DRR: no hoarding
        self.deficit_rounds += rounds
        if rounds:
            self.obs.counter("service.fairness.deficit_rounds").inc(rounds)
        return order


class ClusterScheduler:
    """Chooses when each queued job runs and on how many GPUs."""

    POLICIES = ("slo", "fifo")

    def __init__(
        self,
        cluster: GPUCluster,
        *,
        model: Optional[IFDKPerformanceModel] = None,
        policy: str = "slo",
        cache: Optional[FilteredProjectionCache] = None,
        max_gpus_per_job: Optional[int] = None,
    ):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {self.POLICIES}")
        self.cluster = cluster
        self.model = model or IFDKPerformanceModel()
        self.policy = policy
        self.cache = cache
        self.max_gpus_per_job = max_gpus_per_job or cluster.total_gpus
        # Traces reuse a handful of problem shapes, and every scheduling
        # event re-evaluates them; memoize the Eq. 8-19 evaluations.
        self._runtime_cache: dict = {}

    # ------------------------------------------------------------------ #
    # Cost prediction
    # ------------------------------------------------------------------ #
    def runtime_seconds(
        self,
        problem: ReconstructionProblem,
        rows: int,
        columns: int,
        *,
        cached: bool = False,
    ) -> float:
        """Predicted end-to-end runtime of one job on an ``R x C`` grid.

        A cache hit removes the filtering stage from the Eq. 17 overlap:
        the ranks stream already-filtered projections from the PFS, so
        ``T_compute = max(T_load, T_AllGather, T_bp)``.
        """
        return self.stage_times(problem, rows, columns, cached=cached)[0]

    def stage_times(
        self,
        problem: ReconstructionProblem,
        rows: int,
        columns: int,
        *,
        cached: bool = False,
    ) -> Tuple[float, float, float]:
        """``(runtime, T_flt, T_bp)`` for one job on an ``R x C`` grid.

        The filtering term is zero on a cache hit — the stage never runs —
        which is the per-stage information :class:`AllocationPlan` and the
        service metrics surface.
        """
        key = (problem, rows, columns, cached)
        hit = self._runtime_cache.get(key)
        if hit is not None:
            return hit
        breakdown = self.model.breakdown(problem, rows, columns)
        t_flt = 0.0 if cached else breakdown.t_flt
        if cached:
            t_compute = max(breakdown.t_load, breakdown.t_allgather, breakdown.t_bp)
            seconds = t_compute + breakdown.t_post
        else:
            seconds = breakdown.t_runtime
        times = (seconds, t_flt, breakdown.t_bp)
        self._runtime_cache[key] = times
        return times

    def _is_cached(self, job: ReconstructionJob) -> bool:
        if self.cache is None:
            return False
        return self.cache.contains(CacheKey.for_job(job))

    def candidate_plans(self, job: ReconstructionJob, gpu_budget: int) -> List[AllocationPlan]:
        """All feasible power-of-two allocations within ``gpu_budget`` GPUs."""
        cached = self._is_cached(job)
        budget = min(gpu_budget, self.max_gpus_per_job)
        plans: List[AllocationPlan] = []
        gpus = 1
        while gpus <= budget:
            try:
                rows, columns = choose_grid(
                    job.problem, gpus, device=self.cluster.device
                )
            except ValueError:
                rows = columns = 0  # infeasible at this count (memory)
            if rows:
                runtime, t_flt, t_bp = self.stage_times(
                    job.problem, rows, columns, cached=cached
                )
                plans.append(
                    AllocationPlan(
                        gpus=gpus,
                        rows=rows,
                        columns=columns,
                        runtime_seconds=runtime,
                        cache_hit=cached,
                        filter_seconds=t_flt,
                        backprojection_seconds=t_bp,
                    )
                )
            gpus *= 2
        return plans

    def best_plan(
        self,
        job: ReconstructionJob,
        gpu_budget: int,
        now: float,
        *,
        require_slo: bool = False,
    ) -> Optional[AllocationPlan]:
        """The allocation the **slo** policy would pick within ``gpu_budget``.

        Cheapest (fewest GPUs) plan meeting the deadline; otherwise — unless
        ``require_slo`` — the plan with the earliest finish (ties broken
        toward fewer GPUs, so a hopeless SLO does not monopolize the
        cluster).
        """
        plans = self.candidate_plans(job, gpu_budget)
        if not plans:
            return None
        meeting = [p for p in plans if p.finish_at(now) <= job.deadline_seconds]
        if meeting:
            return min(meeting, key=lambda p: p.gpus)
        if require_slo:
            return None
        return min(plans, key=lambda p: (p.runtime_seconds, p.gpus))

    def largest_plan(self, job: ReconstructionJob, gpu_budget: int) -> Optional[AllocationPlan]:
        """The biggest feasible allocation (what naive FIFO always takes)."""
        plans = self.candidate_plans(job, gpu_budget)
        if not plans:
            return None
        return max(plans, key=lambda p: p.gpus)

    # ------------------------------------------------------------------ #
    # Scheduling cycle
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        queue: JobQueue,
        now: float,
        running: Sequence[Placement],
    ) -> Tuple[List[Placement], List[ReconstructionJob]]:
        """Place as many queued jobs as the policy allows at time ``now``.

        Returns ``(placements, rejected)``; placed jobs are removed from the
        queue, marked running and have their GPUs allocated.  Jobs that can
        never run on this cluster (memory-infeasible even with every GPU)
        are removed and returned as rejected.
        """
        if self.cluster.free_gpus == 0:
            return [], []
        if self.policy == "fifo":
            return self._schedule_fifo(queue, now)
        return self._schedule_slo(queue, now, running)

    def _place(self, queue: JobQueue, job: ReconstructionJob,
               plan: AllocationPlan, now: float) -> Placement:
        queue.remove(job)
        self.cluster.allocate(plan.gpus)
        cache_hit = plan.cache_hit
        if self.cache is not None:
            # The counted lookup: statistics reflect jobs that actually ran.
            cache_hit = self.cache.lookup(CacheKey.for_job(job))
        job.mark_running(
            now, gpus=plan.gpus, rows=plan.rows, columns=plan.columns,
            cache_hit=cache_hit,
            filter_seconds=plan.filter_seconds,
            backprojection_seconds=plan.backprojection_seconds,
        )
        return Placement(job=job, plan=plan, start_seconds=now)

    def _schedule_fifo(
        self, queue: JobQueue, now: float
    ) -> Tuple[List[Placement], List[ReconstructionJob]]:
        """Naive baseline: whole cluster per job, strict submission order."""
        placements: List[Placement] = []
        rejected: List[ReconstructionJob] = []
        while len(queue) > 0 and self.cluster.free_gpus == self.cluster.total_gpus:
            head = min(queue.ordered(), key=lambda j: (j.arrival_seconds, j.sequence))
            plan = self.largest_plan(head, self.cluster.total_gpus)
            if plan is None:
                queue.remove(head)
                head.mark_rejected("infeasible: does not fit the cluster")
                rejected.append(head)
                continue
            placements.append(self._place(queue, head, plan, now))
        return placements, rejected

    def _schedule_slo(
        self,
        queue: JobQueue,
        now: float,
        running: Sequence[Placement],
    ) -> Tuple[List[Placement], List[ReconstructionJob]]:
        placements: List[Placement] = []
        rejected: List[ReconstructionJob] = []
        blocked_head: Optional[ReconstructionJob] = None
        reservation_time = float("inf")
        spare_at_reservation = 0

        # The queue owns the consideration order: plain (priority,
        # deadline, FIFO) for a JobQueue, weighted deficit-round-robin
        # with quotas and aging for a FairShareQueue.
        for job in queue.scheduling_order(now, running):
            free = self.cluster.free_gpus
            if free == 0:
                break
            if blocked_head is None:
                plan = self.best_plan(job, free, now, require_slo=True)
                if plan is not None:
                    placements.append(self._place(queue, job, plan, now))
                    continue
                # Nothing that fits the free GPUs meets the SLO.  Waiting
                # for a larger allocation may still meet it — prefer that
                # over knowingly burning the deadline.
                deferred = self._deferred_slo_reservation(
                    job, now, list(running) + placements
                )
                if deferred is not None:
                    blocked_head = job
                    reservation_time, gpus_needed, available = deferred
                    spare_at_reservation = max(0, available - gpus_needed)
                    continue
                # The SLO is unmeetable either way: run best-effort now.
                plan = self.best_plan(job, free, now)
                if plan is not None:
                    placements.append(self._place(queue, job, plan, now))
                    continue
                # Head does not fit right now.  Can it ever run?
                full_plan = self.best_plan(job, self.cluster.total_gpus, now)
                if full_plan is None:
                    queue.remove(job)
                    job.mark_rejected("infeasible: does not fit the cluster")
                    rejected.append(job)
                    continue
                blocked_head = job
                reservation_time, available = self._reservation_for(
                    full_plan.gpus, now, list(running) + placements
                )
                spare_at_reservation = max(0, available - full_plan.gpus)
                continue
            # Backfill mode: only jobs that stay out of the head's way.
            plan = self.best_plan(job, free, now)
            if plan is None:
                continue
            fits_before = plan.finish_at(now) <= reservation_time
            fits_beside = plan.gpus <= spare_at_reservation
            if fits_before or fits_beside:
                placements.append(self._place(queue, job, plan, now))
                if fits_beside and not fits_before:
                    spare_at_reservation -= plan.gpus
        return placements, rejected

    def _deferred_slo_reservation(
        self, job: ReconstructionJob, now: float, running: Sequence[Placement]
    ) -> Optional[Tuple[float, int, int]]:
        """A future start that still meets the job's SLO, if one exists.

        Considers every allocation size (cheapest first) over the whole
        cluster: the job starts when enough running jobs have released
        their GPUs, and qualifies when that start plus the predicted
        runtime stays inside the deadline.  Returns ``(reservation_time,
        gpus, gpus_available_then)`` or ``None``.
        """
        if job.deadline_seconds == float("inf"):
            return None  # best-effort jobs never wait for bigger grids
        for plan in sorted(
            self.candidate_plans(job, self.cluster.total_gpus),
            key=lambda p: p.gpus,
        ):
            start, available = self._reservation_for(plan.gpus, now, running)
            if start <= now or start == float("inf"):
                continue
            if start + plan.runtime_seconds <= job.deadline_seconds:
                return start, plan.gpus, available
        return None

    def _reservation_for(
        self, gpus_needed: int, now: float, running: Sequence[Placement]
    ) -> Tuple[float, int]:
        """Earliest time ``gpus_needed`` GPUs are free, and how many are then.

        Walks the running placements in finish order, accumulating released
        GPUs onto the currently-free pool.
        """
        free = self.cluster.free_gpus
        if free >= gpus_needed:
            return now, free
        for placement in sorted(running, key=lambda p: p.finish_seconds):
            free += placement.gpus
            if free >= gpus_needed:
                return placement.finish_seconds, free
        return float("inf"), free
