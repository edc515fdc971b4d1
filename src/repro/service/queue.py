"""The service job queue with admission control.

Admission control keeps the service stable under overload instead of letting
the queue (and every tenant's latency) grow without bound:

* **depth cap** — at most ``max_depth`` jobs may wait;
* **backlog cap** — the sum of the queued jobs' estimated service times may
  not exceed ``max_backlog_seconds`` (the service estimates each job's
  full-cluster runtime at submission via the performance model).

Jobs that fail admission are marked :attr:`~repro.service.job.JobState.REJECTED`
with a reason, so tenants can tell "try later" from "never feasible" (the
latter is detected by the service before the queue is consulted).

The queue is kept in scheduling order — ``(priority, deadline, submission
order)`` via :func:`~repro.service.job.job_sort_key` — from :meth:`JobQueue.offer`
on: admission bisects the job into place, so reading the order is a copy
and the head is ``[0]``; nothing is re-sorted per scheduling cycle.
Selective removal (the scheduler backfills jobs from the middle of the
queue) bisects to the job's key and matches by identity.

**Invariant:** a queued job's ``priority``, ``slo_seconds``,
``arrival_seconds`` and ``problem`` do not change while it waits —
``submit`` stamps the arrival before offering, nothing in the service
touches them afterwards, and :meth:`JobQueue.remove` raises if it cannot
find the job under its current key, so a caller that breaks this fails
loudly instead of corrupting the order.

Beside the scheduling order and the admission order the queue keeps a third
view of the same jobs: a census ``problem -> number of waiting jobs``
(:meth:`JobQueue.waiting_problems`).  A job's allocation table is a
function of its problem, so the scheduler's backfill asks "can anything
still fit?" once per waiting *problem* instead of once per waiting job.
The census is maintained where the other two views are (admission,
removal, drain), under the same caller-held lock and the same
fixed-while-waiting invariant; ``census_epoch`` moves whenever a problem
enters or leaves it, so what the scheduler derives from the *set* of
waiting problems is rebuilt only then.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.types import ReconstructionProblem
from ..obs.metrics import plain_sum
from .job import MIN_TENANT_WEIGHT, ReconstructionJob, job_sort_key

__all__ = [
    "AdmissionPolicy",
    "JobQueue",
    "QUOTA_REJECTION_PREFIX",
]

#: Rejection reasons carrying this prefix are per-tenant fair-share quota
#: rejections: transient backpressure ("try later", HTTP 429), never a
#: statement about feasibility.
QUOTA_REJECTION_PREFIX = "tenant quota"


def model_runtime_estimator(model=None) -> Callable[[ReconstructionJob], Optional[float]]:
    """An estimator of a job's service time from the Eq. 8-19 model.

    Returns a callable mapping a job to its predicted runtime on the
    smallest feasible power-of-two GPU grid (the most conservative — i.e.
    largest — admission estimate), or ``None`` when no grid up to 1024 GPUs
    fits the problem.  This is the default the queue falls back on when a
    job arrives without ``estimated_seconds``, so the backlog admission cap
    cannot be silently bypassed.
    """
    from ..pipeline.config import choose_grid  # late import: pipeline imports core
    from ..pipeline.perfmodel import IFDKPerformanceModel

    model = model or IFDKPerformanceModel()

    def estimate(job: ReconstructionJob) -> Optional[float]:
        gpus = 1
        while gpus <= 1024:
            try:
                rows, columns = choose_grid(job.problem, gpus)
            except ValueError:
                gpus *= 2
                continue
            return model.breakdown(job.problem, rows, columns).t_runtime
        return None

    return estimate


@dataclass(frozen=True)
class AdmissionPolicy:
    """Limits enforced when a job is offered to the queue.

    The fair-share fields configure the
    :class:`~repro.service.fairness.FairShareQueue` the service builds when
    any of them is set (or ``fair_share=True`` forces it with defaults):

    * ``tenant_weights`` — scheduling weight per tenant name; unlisted
      tenants get ``default_tenant_weight``.  Weights are relative service
      shares under contention (weight 2 gets twice the cluster seconds of
      weight 1), enforced by deficit round-robin.
    * ``max_inflight_per_tenant`` — at most this many of a tenant's jobs
      may be running at once; excess stays queued (throttling, not
      rejection).
    * ``max_queue_depth_per_tenant`` — at most this many of a tenant's
      jobs may *wait*; excess is rejected with a ``tenant quota`` reason
      and a Retry-After hint (the HTTP 429 path).
    * ``quantum_seconds`` — the DRR quantum: estimated service seconds a
      tenant may spend per round-robin visit, scaled by its weight.
    * ``aging_seconds`` — starvation bound: once a tenant's *oldest*
      waiting job has waited this long, it jumps the fair-share order (one
      job per tenant per cycle, so aging cannot undo fairness wholesale).
    """

    max_depth: int = 256
    max_backlog_seconds: Optional[float] = None
    fair_share: bool = False
    tenant_weights: Optional[Mapping[str, float]] = None
    default_tenant_weight: float = 1.0
    max_inflight_per_tenant: Optional[int] = None
    max_queue_depth_per_tenant: Optional[int] = None
    quantum_seconds: float = 5.0
    aging_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.max_backlog_seconds is not None and self.max_backlog_seconds <= 0:
            raise ValueError("max_backlog_seconds must be positive when given")
        if self.tenant_weights is not None:
            for tenant, weight in self.tenant_weights.items():
                if not weight >= MIN_TENANT_WEIGHT:
                    raise ValueError(
                        f"tenant weight for {tenant!r} must be at least "
                        f"{MIN_TENANT_WEIGHT:g} (got {weight!r})"
                    )
        if not self.default_tenant_weight >= MIN_TENANT_WEIGHT:
            raise ValueError(
                f"default_tenant_weight must be at least {MIN_TENANT_WEIGHT:g}"
            )
        for name in ("max_inflight_per_tenant", "max_queue_depth_per_tenant"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be a positive integer when given")
        if not self.quantum_seconds > 0:
            raise ValueError("quantum_seconds must be positive")
        if self.aging_seconds is not None and self.aging_seconds <= 0:
            raise ValueError("aging_seconds must be positive when given")

    @property
    def fairness_enabled(self) -> bool:
        """Whether any fair-share knob asks for a FairShareQueue."""
        return bool(
            self.fair_share
            or self.tenant_weights is not None
            or self.max_inflight_per_tenant is not None
            or self.max_queue_depth_per_tenant is not None
            or self.aging_seconds is not None
        )


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
        # Three views of the same jobs.  Scheduling order: ``_ordered`` with
        # its sort keys beside it for bisect (no ``key=`` before Python
        # 3.10).  Admission order: ``_admitted`` by ``id(job)`` — the
        # backlog sums must add in this order, a sum over the sorted view
        # differs from it in the last bit of ``retry_after_seconds`` — and
        # ``_estimates`` beside it, each job's ``estimated_seconds or 0.0``
        # as admitted, so the backlog is one left fold over a dict's values,
        # kept in ``_backlog`` until the next offer, remove or drain.
        # Census: ``_waiting`` counts the jobs per problem, no zero entries;
        # ``census_epoch`` moves whenever a problem enters or leaves it.
        self._ordered: List[ReconstructionJob] = []  # guarded-by: caller
        self._keys: List[Tuple[int, float, int]] = []  # guarded-by: caller
        self._admitted: Dict[int, ReconstructionJob] = {}  # guarded-by: caller
        self._estimates: Dict[int, float] = {}  # guarded-by: caller
        self._backlog: Optional[float] = None  # guarded-by: caller
        self._waiting: Dict[ReconstructionProblem, int] = {}  # guarded-by: caller
        self.census_epoch = 0  # guarded-by: caller
        # Lazily built: most callers (the service) estimate before offering,
        # so the model is only constructed when a job actually needs it.
        self._estimator = estimator

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[ReconstructionJob]:
        return iter(self.ordered())

    @property
    def backlog_seconds(self) -> float:
        """Sum of the queued jobs' estimated service times, in admission order.

        A left fold (:func:`~repro.obs.metrics.plain_sum`), so its bits do not
        depend on the interpreter, read again only after the queue changed:
        a rejected offer leaves the queue and the sum as they were.
        """
        if self._backlog is None:
            self._backlog = plain_sum(self._estimates.values())
        return self._backlog

    def ordered(self) -> List[ReconstructionJob]:
        """Snapshot of the queue in scheduling order."""
        return list(self._ordered)

    def scheduling_order(
        self, now: float, running: Sequence = ()
    ) -> Iterable[ReconstructionJob]:
        """The order the scheduler should consider waiting jobs in.

        The seam the fair-share layer plugs into: the base queue ignores
        ``now`` and the running placements and returns the plain
        ``(priority, deadline, FIFO)`` order;
        :class:`~repro.service.fairness.FairShareQueue` overrides this with
        deficit-round-robin across per-tenant subqueues, starvation aging
        and in-flight quotas.

        The contract is an iterable, read once: the caller may
        :meth:`remove` a job it has been given while it is still reading,
        and the rest of the order is unchanged by it.  An override may
        therefore yield lazily, so that a caller that stops early does not
        pay for the jobs it never reads.
        """
        return self.ordered()

    def waiting_problems(self) -> Mapping[ReconstructionProblem, int]:
        """Read-only census: how many jobs of each problem are waiting.

        Counts every queued job, including those a fair-share queue
        withholds from :meth:`scheduling_order` this cycle.  The *set* of
        problems is unchanged for as long as ``census_epoch`` is.
        """
        return MappingProxyType(self._waiting)

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
        if len(self) >= self.policy.max_depth:
            # Transient overload, not infeasibility: hint when a slot
            # should free (the mean queued service time).
            job.mark_rejected(
                f"queue full: depth {len(self)} at cap {self.policy.max_depth}",
                retry_after_seconds=max(
                    1.0, self.backlog_seconds / max(1, len(self))
                ),
            )
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
                    return False
        job.mark_queued()
        key = job_sort_key(job)
        # After every equal key: ties keep admission order, as a stable
        # sort of the admission-ordered list would.
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._ordered.insert(index, job)
        self._admitted[id(job)] = job
        self._estimates[id(job)] = job.estimated_seconds or 0.0
        self._backlog = None
        waiting = self._waiting.get(job.problem, 0)
        self._waiting[job.problem] = waiting + 1
        if not waiting:
            self.census_epoch += 1
        self._queued(job, key)
        return True

    # A subclass keeping another view of the waiting jobs hooks in here: the
    # key is the one ``offer`` / ``remove`` bisected with, computed once.
    def _queued(self, job: ReconstructionJob, key: Tuple[int, float, int]) -> None:
        """Called after ``job`` was admitted under ``key``."""

    def _unqueued(self, job: ReconstructionJob, key: Tuple[int, float, int]) -> None:
        """Called after ``job``, queued under ``key``, was removed."""

    def _estimate(self, job: ReconstructionJob) -> Optional[float]:
        if self._estimator is None:
            self._estimator = model_runtime_estimator()
        return self._estimator(job)

    def remove(self, job: ReconstructionJob) -> None:
        """Remove a specific job (used when the scheduler places it).

        Found by its sort key, matched by identity; raises ``ValueError``
        when the job is not queued under its current key (never offered,
        already removed, or its key fields changed while it waited).
        """
        key = job_sort_key(job)
        for index in range(bisect_left(self._keys, key), bisect_right(self._keys, key)):
            if self._ordered[index] is job:
                del self._keys[index], self._ordered[index]
                del self._admitted[id(job)], self._estimates[id(job)]
                self._backlog = None
                waiting = self._waiting[job.problem]
                if waiting == 1:
                    del self._waiting[job.problem]
                    self.census_epoch += 1
                else:
                    self._waiting[job.problem] = waiting - 1
                self._unqueued(job, key)
                return
        raise ValueError(
            f"job {job.job_id} is not queued under its sort key {key}: it was "
            "never admitted, was already removed, or its priority / SLO / "
            "arrival changed while it waited"
        )

    def drain(self) -> List[ReconstructionJob]:
        """Remove and return every queued job in scheduling order."""
        jobs = self.ordered()
        self._keys.clear()
        self._ordered.clear()
        self._admitted.clear()
        self._estimates.clear()
        self._backlog = None
        self._waiting.clear()
        self.census_epoch += 1
        return jobs
