"""SLO-aware packing of reconstruction jobs onto a simulated GPU cluster.

The scheduler treats the cluster as a flat pool of identical GPUs (one MPI
rank per GPU, as in the paper) and, for every waiting job, chooses **how
many GPUs to spend and how to shape them** into the ``(R, C)`` rank grid of
Section 4.1:

* candidate allocations are power-of-two GPU counts (the grids the paper
  evaluates);
* for each count, ``choose_grid`` picks the smallest ``R`` satisfying the
  Section 4.1.5 device-memory constraint;
* the :class:`~repro.pipeline.perfmodel.IFDKPerformanceModel` predicts the
  job's runtime on that grid — with the filtering term dropped when the
  job's dataset is already in the
  :class:`~repro.service.cache.FilteredProjectionCache`.  Both are pure
  functions of (problem, GPU count, cache hit), so the scheduler derives
  the allocation table of a ``(problem, cached)`` pair once and every
  later evaluation of any job on that problem reads a prefix of it; only
  *whether* the dataset is cached is asked afresh each time, because
  completions and evictions change that between cycles;
* the **slo** policy then picks the *cheapest* allocation whose predicted
  completion meets the job's deadline (bin-packing GPUs across concurrent
  jobs).  When nothing that fits the free GPUs can meet the SLO, it defers
  the job behind a reservation if a larger grid started at a known release
  time still would, and only otherwise falls back to the fastest feasible
  allocation.  Jobs are considered in ``(priority, deadline)`` order with
  EASY-style backfill: when the head job does not fit, a GPU reservation is
  computed for it from the running jobs' finish times, and later jobs may
  only jump ahead if they finish before that reservation or fit into GPUs
  the head will not need.  Whether *any* waiting job still could is asked
  once per class of job, not once per job: the tables make that a question
  about the waiting problems (the queue's census), answered from the
  fastest runtime per GPU count over all of them, and a cycle leaves the
  backfill walk as soon as the answer is no — exactly where the per-job
  walk would have placed nothing more (the argument is written at the
  exit, in ``_schedule_slo``).
* the **fifo** baseline mimics a naive one-job-at-a-time deployment: strict
  arrival order, each job gets the whole cluster, later jobs wait — the
  configuration the service layer exists to beat.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.types import ReconstructionProblem
from ..gpusim.device import DeviceSpec, TESLA_V100
from ..pipeline.config import choose_grid
from ..pipeline.perfmodel import IFDKPerformanceModel
from .cache import FilteredProjectionCache
from .job import ReconstructionJob
from .queue import JobQueue

__all__ = ["GPUCluster", "Placement", "ClusterScheduler"]


class GPUCluster:
    """A pool of identical GPUs with simple counted allocation."""

    def __init__(self, total_gpus: int, *, device: DeviceSpec = TESLA_V100):
        if total_gpus <= 0:
            raise ValueError("total_gpus must be positive")
        self.total_gpus = total_gpus
        self.device = device
        self.in_use = 0

    @property
    def free_gpus(self) -> int:
        return self.total_gpus - self.in_use

    def allocate(self, gpus: int) -> None:
        if gpus <= 0:
            raise ValueError("gpus must be positive")
        if gpus > self.free_gpus:
            raise RuntimeError(
                f"cannot allocate {gpus} GPUs: only {self.free_gpus} free"
            )
        self.in_use += gpus

    def release(self, gpus: int) -> None:
        if gpus <= 0 or gpus > self.in_use:
            raise RuntimeError(f"cannot release {gpus} GPUs ({self.in_use} in use)")
        self.in_use -= gpus


@dataclass(frozen=True)
class AllocationPlan:
    """One candidate execution of a job: GPU count, grid and predicted time.

    ``filter_seconds``/``backprojection_seconds`` carry the per-stage split
    of the Eq. 8-19 breakdown (``T_flt``/``T_bp``), so the service can
    report how each completed job divided its time between the two hot
    paths instead of losing that split above the single-node result.
    """

    gpus: int
    rows: int
    columns: int
    runtime_seconds: float
    cache_hit: bool
    filter_seconds: float = 0.0
    backprojection_seconds: float = 0.0

    def finish_at(self, start: float) -> float:
        return start + self.runtime_seconds


@dataclass(eq=False)
class Placement:
    """A job actually running on the cluster.

    Compared by identity: the service takes each completed placement out of
    its running list, and comparing fields would compare whole jobs, field
    by field, with every placement ahead of it in that list.
    """

    job: ReconstructionJob
    plan: AllocationPlan
    start_seconds: float
    # Stored, not derived on each read: the event loop and every cycle's
    # release order read it many times per placement.
    finish_seconds: float = field(init=False)

    def __post_init__(self) -> None:
        self.finish_seconds = self.plan.finish_at(self.start_seconds)

    @property
    def gpus(self) -> int:
        return self.plan.gpus


class _ReleaseOrder:
    """One cycle's running placements in the order they free their GPUs.

    Sorted by finish on first read, then kept sorted as the cycle places
    jobs: a new placement goes after every equal finish, exactly where a
    stable sort of ``running + placements`` would put it, so a reservation
    never re-sorts the whole list.
    """

    def __init__(self, running: Sequence[Placement]):
        self._unsorted: Optional[List[Placement]] = list(running)
        self._placements: List[Placement] = []
        self._finishes: List[float] = []  # beside it, for bisect

    def add(self, placement: Placement) -> None:
        if self._unsorted is not None:
            self._unsorted.append(placement)
            return
        finish = placement.finish_seconds
        index = bisect_right(self._finishes, finish)
        self._finishes.insert(index, finish)
        self._placements.insert(index, placement)

    def placements(self) -> List[Placement]:
        """Every placement, earliest finish first (ties in arrival order)."""
        if self._unsorted is not None:
            self._placements = sorted(self._unsorted, key=lambda p: p.finish_seconds)
            self._finishes = [p.finish_seconds for p in self._placements]
            self._unsorted = None
        return self._placements


class ClusterScheduler:
    """Chooses when each queued job runs and on how many GPUs."""

    POLICIES = ("slo", "fifo")

    def __init__(
        self,
        cluster: GPUCluster,
        *,
        policy: str = "slo",
        cache: Optional[FilteredProjectionCache] = None,
        max_gpus_per_job: Optional[int] = None,
    ):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {self.POLICIES}")
        self.cluster = cluster
        self.model = IFDKPerformanceModel()
        self.policy = policy
        self.cache = cache
        self.max_gpus_per_job = max_gpus_per_job or cluster.total_gpus
        # Traces reuse a handful of problem shapes, and a waiting job is
        # evaluated at every cycle in which something could still fit:
        # one allocation table per (problem, cached), built on first use.
        # Keyed by problem, never hung on the jobs — per-job tables cost
        # 2.4 % peak RSS on a 3000-job replay.
        self._tables: Dict[Tuple[ReconstructionProblem, bool], List[AllocationPlan]] = {}
        # (queue, its census_epoch, envelope): see _backfill_envelope.
        self._envelope: Tuple[Optional[JobQueue], int, Dict[int, float]] = (None, 0, {})

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
        the ranks stream already-filtered projections from the PFS
        (:meth:`~repro.pipeline.perfmodel.PerformanceBreakdown.without_filtering`).
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
        breakdown = self.model.breakdown(problem, rows, columns)
        if cached:
            breakdown = breakdown.without_filtering()
        return breakdown.t_runtime, breakdown.t_flt, breakdown.t_bp

    def _is_cached(self, job: ReconstructionJob) -> bool:
        # Never memoized: a dataset becomes cached, or is evicted, between
        # two evaluations of the same waiting job.
        if self.cache is None:
            return False
        return self.cache.contains(job.cache_key)

    def _allocation_table(
        self, problem: ReconstructionProblem, cached: bool
    ) -> List[AllocationPlan]:
        """Every feasible power-of-two allocation of ``problem``, fewest GPUs first."""
        table = self._tables.get((problem, cached))
        if table is not None:
            return table
        table = []
        gpus = 1
        while gpus <= self.max_gpus_per_job:
            try:
                rows, columns = choose_grid(
                    problem, gpus, device=self.cluster.device
                )
            except ValueError:
                rows = columns = 0  # infeasible at this count (memory)
            if rows:
                runtime, t_flt, t_bp = self.stage_times(
                    problem, rows, columns, cached=cached
                )
                table.append(
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
        self._tables[problem, cached] = table
        return table

    def candidate_plans(self, job: ReconstructionJob, gpu_budget: int) -> List[AllocationPlan]:
        """All feasible power-of-two allocations within ``gpu_budget`` GPUs."""
        table = self._allocation_table(job.problem, self._is_cached(job))
        return [plan for plan in table if plan.gpus <= gpu_budget]

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
        deadline = job.deadline_seconds
        fastest: Optional[AllocationPlan] = None
        for plan in self._allocation_table(job.problem, self._is_cached(job)):
            if plan.gpus > gpu_budget:
                break  # fewest GPUs first: the rest are over budget too
            if plan.finish_at(now) <= deadline:
                return plan
            # Strictly faster only: a tie keeps the fewer GPUs seen first.
            if fastest is None or plan.runtime_seconds < fastest.runtime_seconds:
                fastest = plan
        return None if require_slo else fastest

    def largest_plan(self, job: ReconstructionJob, gpu_budget: int) -> Optional[AllocationPlan]:
        """The biggest feasible allocation (what naive FIFO always takes)."""
        plans = self.candidate_plans(job, gpu_budget)
        return plans[-1] if plans else None

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

        With no free GPU the cycle reads nothing: no scheduling order is
        built and no job is considered, so a fair queue counts no DRR round
        and promotes no aged job.  Such a cycle would place and reject
        nothing anyway: the slo walk stops at the first job it reads when
        no GPU is free, and fifo waits for the whole cluster.
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
            cache_hit = self.cache.lookup(job.cache_key)
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
        release = _ReleaseOrder(running)
        blocked_head: Optional[ReconstructionJob] = None
        reservation_time = float("inf")
        spare_at_reservation = 0
        # Backfill mode: the fastest runtime per GPU count over every
        # waiting problem (fetched on entering it), and whether (free,
        # spare) moved since the envelope was last asked.
        envelope: Optional[Dict[int, float]] = None
        recheck = True

        def place(job: ReconstructionJob, plan: AllocationPlan) -> None:
            placement = self._place(queue, job, plan, now)
            placements.append(placement)
            release.add(placement)

        # The queue owns the consideration order: plain (priority,
        # deadline, FIFO) for a JobQueue, weighted deficit-round-robin
        # with quotas and aging for a FairShareQueue.  It is read once,
        # removing placed and rejected jobs as it goes, and left where
        # nothing more can be placed.
        for job in queue.scheduling_order(now, running):
            free = self.cluster.free_gpus
            if free == 0:
                break
            if blocked_head is None:
                plan = self.best_plan(job, free, now, require_slo=True)
                if plan is not None:
                    place(job, plan)
                    continue
                # Nothing that fits the free GPUs meets the SLO.  Waiting
                # for a larger allocation may still meet it — prefer that
                # over knowingly burning the deadline.
                deferred = self._deferred_slo_reservation(
                    job, now, release.placements()
                )
                if deferred is not None:
                    blocked_head = job
                    reservation_time, gpus_needed, available = deferred
                    spare_at_reservation = max(0, available - gpus_needed)
                    continue
                # The SLO is unmeetable either way: run best-effort now.
                plan = self.best_plan(job, free, now)
                if plan is not None:
                    place(job, plan)
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
                    full_plan.gpus, now, release.placements()
                )
                spare_at_reservation = max(0, available - full_plan.gpus)
                continue
            # Backfill mode: only jobs that stay out of the head's way.
            if recheck:
                # Asked per class of waiting job, not per job.  A job is
                # backfilled iff the plan best_plan picks for it — always
                # an entry of its problem's table with gpus <= free — fits
                # beside the head (gpus <= spare) or before it (now +
                # runtime <= reservation_time).  Float addition is
                # monotone (a <= b implies now + a <= now + b), so at each
                # GPU count the fastest entry decides the second test for
                # every plan at that count; and the envelope covers both
                # cache states of every waiting problem — the head's own
                # and jobs a fair-share queue withholds included — a
                # superset of anything a remaining job could evaluate.
                # now and reservation_time are fixed for the cycle, free
                # and spare move only on a placement, which asks again.
                # So when no entry passes, the rest of the walk places
                # nothing, and it has no side effect to lose
                # (cache.contains is a peek; a fair queue yields its order
                # lazily and its DRR counters count only what was read):
                # leaving here is exact.
                if envelope is None:
                    envelope = self._backfill_envelope(queue)
                if not self._can_backfill(
                    envelope, free, spare_at_reservation, now, reservation_time
                ):
                    break
                recheck = False
            plan = self.best_plan(job, free, now)
            if plan is None:
                continue
            fits_before = plan.finish_at(now) <= reservation_time
            fits_beside = plan.gpus <= spare_at_reservation
            if fits_before or fits_beside:
                place(job, plan)
                if fits_beside and not fits_before:
                    spare_at_reservation -= plan.gpus
                recheck = True
        return placements, rejected

    def _backfill_envelope(self, queue: JobQueue) -> Dict[int, float]:
        """``gpus -> fastest runtime`` over both allocation tables (cached
        and uncached) of every problem waiting in ``queue``.

        A function of the *set* of waiting problems alone, so the last one
        built is kept until a problem enters or leaves that queue's census:
        a queue of many distinct problems pinned at its depth cap (most
        arrivals rejected, the set unchanged) is not re-read every cycle.
        """
        built_for, epoch, envelope = self._envelope
        if built_for is not queue or epoch != queue.census_epoch:
            envelope = {}
            for problem in queue.waiting_problems():
                for cached in (False, True):
                    for plan in self._allocation_table(problem, cached):
                        fastest = envelope.get(plan.gpus)
                        if fastest is None or plan.runtime_seconds < fastest:
                            envelope[plan.gpus] = plan.runtime_seconds
            self._envelope = (queue, queue.census_epoch, envelope)
        return envelope

    @staticmethod
    def _can_backfill(
        envelope: Dict[int, float],
        free: int,
        spare: int,
        now: float,
        reservation_time: float,
    ) -> bool:
        """Whether any waiting problem has a plan that the backfill rule
        would let run now: within the free GPUs, and beside the head's
        reservation or finished before it."""
        return any(
            gpus <= free and (gpus <= spare or now + fastest <= reservation_time)
            for gpus, fastest in envelope.items()
        )

    def _deferred_slo_reservation(
        self, job: ReconstructionJob, now: float, released: Sequence[Placement]
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
        for plan in self.candidate_plans(job, self.cluster.total_gpus):
            start, available = self._reservation_for(plan.gpus, now, released)
            if start <= now or start == float("inf"):
                continue
            if start + plan.runtime_seconds <= job.deadline_seconds:
                return start, plan.gpus, available
        return None

    def _reservation_for(
        self, gpus_needed: int, now: float, released: Sequence[Placement]
    ) -> Tuple[float, int]:
        """Earliest time ``gpus_needed`` GPUs are free, and how many are then.

        Walks the running placements ``released`` (in finish order, see
        :class:`_ReleaseOrder`), accumulating their GPUs onto the
        currently-free pool.
        """
        free = self.cluster.free_gpus
        if free >= gpus_needed:
            return now, free
        for placement in released:
            free += placement.gpus
            if free >= gpus_needed:
                return placement.finish_seconds, free
        return float("inf"), free
