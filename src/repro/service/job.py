"""Reconstruction jobs and their lifecycle.

The serving layer treats one end-to-end reconstruction (the whole Section 4
pipeline: load → filter → AllGather → back-project → reduce → store) as a
*job*.  A job carries the reconstruction problem, the tenant that submitted
it, a priority class, a latency SLO and — once the scheduler has placed it —
the ``(R, C)`` rank-grid decomposition and GPU allocation it ran with.

States follow the usual service lifecycle::

    PENDING --offer--> QUEUED --place--> RUNNING --finish [, pilot ok]--> COMPLETED
       |                  |                  |
       +--admission-------+--> REJECTED      +--pilot crash/timeout--> FAILED

A job reaches one terminal state, once.  ``FAILED`` is only ever set by
the real-execution path: a job whose pilot reconstruction crashed its
worker process or exhausted its timeout/retry budget is failed loudly
(with the reason recorded) instead of being counted as completed.  With
real execution a running job completes when both its simulated finish has
passed and its pilot has succeeded, whichever comes second.

:data:`LIFECYCLE`, beside :class:`JobState`, is the lifecycle written
once: each journal event, the state it puts a job in, and the journal
field <-> job attribute pairs it carries.  The job store writes and replays
through it and the service's one transition method looks events up in it,
so **a new event or a new journaled field is added there and nowhere
else**.

Priorities are small integers with **0 the most urgent** (like an inverted
Unix nice value); ties break on the earlier SLO deadline, then on submission
order.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..core.types import ReconstructionProblem, problem_from_string
from .cache import CacheKey

__all__ = [
    "LIFECYCLE",
    "MIN_TENANT_WEIGHT",
    "TERMINAL_EVENTS",
    "TERMINAL_STATES",
    "JobState",
    "JobsByState",
    "ReconstructionJob",
    "job_sort_key",
]

#: Smallest fair-share weight a plan, a job or an admission policy may carry.
#: A DRR visit grants ``quantum_seconds x weight``: far enough below this the
#: product underflows, ``cost / grant`` is infinite and every scheduling cycle
#: of the service raises from then on — so smaller weights are refused at the
#: door instead of queued.
MIN_TENANT_WEIGHT = 1e-9

_job_counter = itertools.count()


def reserve_job_ids(job_ids) -> None:
    """Number every later default job id past the ``job-NNNN`` in ``job_ids``.

    The counter starts at zero in each process, so a service recovering a
    journal written by an earlier one calls this with the recovered ids.
    """
    global _job_counter
    taken = [int(job_id[4:]) for job_id in job_ids
             if job_id.startswith("job-") and job_id[4:].isdigit()]
    if taken:
        _job_counter = itertools.count(max(max(taken) + 1, next(_job_counter)))


class JobState(enum.Enum):
    """Lifecycle state of a :class:`ReconstructionJob`."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


#: States that end a lifecycle.  A job reaches one of them once, and enters
#: the service's outcome ledger then.
TERMINAL_STATES = frozenset({JobState.COMPLETED, JobState.REJECTED, JobState.FAILED})


@dataclass(frozen=True)
class Transition:
    """One journal event: the state it leaves a job in and what it carries.

    ``state`` is ``None`` for a side record, which enriches a job without
    moving it.  Each entry of ``fields`` is ``(journal field, job attribute,
    replay default)``: the writer journals the attribute under the field
    name, and replay sets the attribute from the field — as journaled when
    the default is ``None``, otherwise coerced to the default's type with
    the default standing in for a missing or null value.
    """

    state: Optional[JobState]
    fields: Tuple[Tuple[str, str, object], ...] = ()

    def journal_fields(self, job: "ReconstructionJob") -> dict:
        """What this event writes about ``job``."""
        return {name: getattr(job, attribute) for name, attribute, _ in self.fields}

    def apply(self, job: "ReconstructionJob", record: dict) -> None:
        """Replay one journaled ``record`` of this event onto ``job``."""
        for name, attribute, default in self.fields:
            value = record.get(name)
            if default is not None:
                value = type(default)(value or default)
            setattr(job, attribute, value)
        if self.state is not None:
            job.state = self.state


#: The lifecycle, once.  ``submitted`` is the one event that creates a job
#: instead of changing one: it carries the static identity
#: (:meth:`ReconstructionJob.to_payload`) under ``job``.  A caller may
#: journal more fields with an event (``placed`` carries the planned
#: ``finish``); replay ignores what the table does not pair.
LIFECYCLE: Dict[str, Transition] = {
    "submitted": Transition(JobState.PENDING),
    "queued": Transition(JobState.QUEUED),
    "rejected": Transition(
        JobState.REJECTED, (("reason", "rejection_reason", "rejected"),)
    ),
    "placed": Transition(JobState.RUNNING, (
        ("start", "start_seconds", 0.0),
        ("gpus", "gpus", 0),
        ("rows", "rows", 0),
        ("columns", "columns", 0),
        ("cache_hit", "cache_hit", False),
        ("filter_seconds", "filter_seconds", None),
        ("backprojection_seconds", "backprojection_seconds", None),
    )),
    "executed": Transition(None, (
        ("start", "executed_start_seconds", 0.0),
        ("finish", "executed_finish_seconds", None),
        ("workers", "workers", 1),
        ("pilot_cache_hit", "pilot_cache_hit", None),
        ("attempts", "execution_attempts", 0),
    )),
    "completed": Transition(JobState.COMPLETED, (("finish", "finish_seconds", 0.0),)),
    "failed": Transition(JobState.FAILED, (
        ("reason", "failure_reason", "failed"),
        ("attempts", "execution_attempts", 0),
    )),
}


#: Events that end a job's lifecycle; anything else leaves it in flight.
TERMINAL_EVENTS = frozenset(
    name for name, transition in LIFECYCLE.items()
    if transition.state in TERMINAL_STATES
)


#: The static identity ``submitted`` carries: job field -> coercion on
#: replay.  A field a payload lacks (or holds as null) keeps its default.
_IDENTITY = {
    "job_id": str,
    "problem": problem_from_string,
    "tenant": str,
    "dataset_id": str,
    "priority": int,
    "slo_seconds": float,
    "arrival_seconds": float,
    "ramp_filter": str,
    "scenario": str,
    "tenant_weight": float,
    "max_inflight": int,
    "plan_key": str,
    "acquisition": str,
    "backend": str,
    "estimated_seconds": float,
}


def _slotted(*memos: str):
    """Rebuild a dataclass with ``__slots__`` and no instance dict.

    What ``dataclass(slots=True)`` does from Python 3.10, done one way on
    every version: the fields plus ``memos`` (slots that are not fields)
    become slots, and the class attributes that held field defaults go
    (the generated ``__init__`` carries the defaults itself).
    """

    def rebuild(cls):
        slots = tuple(f.name for f in fields(cls)) + memos
        body = {
            name: value for name, value in cls.__dict__.items()
            if name not in slots and name not in ("__dict__", "__weakref__")
        }
        body["__slots__"] = slots
        slotted = type(cls)(cls.__name__, cls.__bases__, body)
        slotted.__qualname__ = cls.__qualname__
        return slotted

    return rebuild


@_slotted("_cache_key")
@dataclass
class ReconstructionJob:
    """One tenant request for a full reconstruction.

    Parameters
    ----------
    problem:
        The reconstruction problem to solve.
    tenant:
        Identifier of the submitting tenant: per-tenant reporting, and the
        fair-share queue's subqueue, weight, quotas and attained service.
    dataset_id:
        Content key of the input projection dataset.  Two jobs with the same
        ``dataset_id`` and ``ramp_filter`` read the *same* acquisitions, so
        the second can reuse the first's filtered projections from the
        :class:`~repro.service.cache.FilteredProjectionCache`.
    priority:
        Priority class, 0 = most urgent.
    slo_seconds:
        Latency target measured from :attr:`arrival_seconds`; ``None`` means
        best-effort.
    arrival_seconds:
        Submission time on the simulated service clock.
    scenario:
        Acquisition-scenario preset name (see
        :func:`repro.scenarios.available_scenarios`).  Part of the job's
        *data identity*: two jobs on the same dataset but different
        scenarios filter different projections (different angular subset,
        detector window and redundancy weights), so the filtered-projection
        cache must never serve one to the other.
    """

    problem: ReconstructionProblem
    tenant: str = "default"
    dataset_id: str = ""
    priority: int = 1
    slo_seconds: Optional[float] = None
    arrival_seconds: float = 0.0
    ramp_filter: str = "ram-lak"
    scenario: str = "full_scan"
    # Fair-share QoS overrides carried from the submitting plan: the
    # tenant's scheduling weight and in-flight quota.  Only consulted when
    # the service runs a FairShareQueue, and only for tenants the service's
    # own AdmissionPolicy does not already configure (operator wins).
    tenant_weight: Optional[float] = None
    max_inflight: Optional[int] = None
    job_id: str = ""
    # Canonical identity of the plan this job was derived from (see
    # ReconstructionJob.from_plan); empty for hand-built or trace jobs.
    plan_key: str = ""
    # Acquisition-physics token of the job's geometry (see
    # repro.api.acquisition_token).  Trace jobs carry only a problem
    # shape, so theirs stays "" — the physics is implied by dataset_id.
    acquisition: str = ""

    # Filled in by the service / scheduler.
    state: JobState = JobState.PENDING
    backend: str = "reference"
    estimated_seconds: Optional[float] = None
    start_seconds: Optional[float] = None
    finish_seconds: Optional[float] = None
    gpus: Optional[int] = None
    rows: Optional[int] = None
    columns: Optional[int] = None
    cache_hit: bool = False
    filter_seconds: Optional[float] = None
    backprojection_seconds: Optional[float] = None
    rejection_reason: Optional[str] = None
    # Real-execution accounting, filled in by the dispatcher when the
    # service runs placements for real (wall-clock seconds on the pool's
    # epoch, not the simulated service clock).
    workers: Optional[int] = None
    executed_start_seconds: Optional[float] = None
    executed_finish_seconds: Optional[float] = None
    # Whether the pilot's filtered projections came from the shared on-disk
    # cache (None when no real pilot ran or the dispatcher has no cache
    # attached).
    pilot_cache_hit: Optional[bool] = None
    # How many times the real execution was attempted (retries after worker
    # crashes/timeouts increment this past 1).
    execution_attempts: int = 0
    failure_reason: Optional[str] = None
    # Backpressure hint attached to quota/backlog rejections: how long the
    # tenant should wait before resubmitting (drives HTTP 429 Retry-After).
    # ``None`` for admitted jobs and for never-feasible rejections.
    retry_after_seconds: Optional[float] = None
    sequence: int = field(default_factory=lambda: next(_job_counter))

    def __post_init__(self) -> None:
        self._cache_key = None
        if isinstance(self.problem, str):
            self.problem = problem_from_string(self.problem)
        if self.priority < 0:
            raise ValueError("priority must be non-negative (0 = most urgent)")
        # ``not x > 0``, not ``x <= 0``: NaN must fail too.  A NaN deadline
        # has no place in the ordered queue (every comparison is false) and
        # a NaN arrival never becomes due on the event loop's clock.
        if self.slo_seconds is not None and not self.slo_seconds > 0:
            raise ValueError(
                f"slo_seconds must be positive when given (got {self.slo_seconds!r})"
            )
        if not self.arrival_seconds >= 0:
            raise ValueError(
                f"arrival_seconds must be non-negative (got {self.arrival_seconds!r})"
            )
        if not self.scenario:
            raise ValueError("scenario must be a non-empty preset name")
        if self.tenant_weight is not None and not self.tenant_weight >= MIN_TENANT_WEIGHT:
            raise ValueError(
                f"tenant_weight must be at least {MIN_TENANT_WEIGHT:g} when given"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be a positive integer when given")
        if not self.job_id:
            self.job_id = f"job-{self.sequence:04d}"
        if not self.dataset_id:
            self.dataset_id = f"dataset-{self.job_id}"

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(
        cls,
        plan,
        *,
        dataset_id: str = "",
        arrival_seconds: float = 0.0,
        job_id: str = "",
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
        slo_seconds: Optional[float] = None,
    ) -> "ReconstructionJob":
        """Derive a service job from a :class:`~repro.api.ReconstructionPlan`.

        The plan supplies the problem (its base geometry), the filtering
        and scenario identity, the backend and the QoS defaults (tenant,
        priority, SLO); its canonical :meth:`~repro.api.ReconstructionPlan.key`
        is recorded on the job so reports and caches share one identity.
        Per-submission values (``dataset_id``, arrival time, an explicit
        tenant/priority/SLO) override the plan's defaults.  The key, the
        acquisition token and the problem are read from the plan, which
        derives them once: a plan submitted for many datasets shares them.
        """
        job = cls(
            problem=plan.problem,
            acquisition=plan.acquisition,
            tenant=plan.tenant if tenant is None else tenant,
            dataset_id=dataset_id,
            priority=plan.priority if priority is None else priority,
            slo_seconds=plan.slo_seconds if slo_seconds is None else slo_seconds,
            arrival_seconds=arrival_seconds,
            ramp_filter=plan.ramp_filter,
            scenario=plan.scenario,
            tenant_weight=plan.tenant_weight,
            max_inflight=plan.max_inflight,
            job_id=job_id,
            plan_key=plan.key(),
        )
        job.backend = plan.backend
        return job

    # ------------------------------------------------------------------ #
    @property
    def cache_key(self) -> CacheKey:
        """Key of the filtered projections this job consumes, built on first
        use: the scheduler asks at every evaluation of a waiting job, and
        the fields the key reads are fixed once the job is submitted."""
        key = self._cache_key
        if key is None:
            key = self._cache_key = CacheKey.for_job(self)
        return key

    @property
    def deadline_seconds(self) -> float:
        """Absolute completion deadline (``inf`` for best-effort jobs)."""
        if self.slo_seconds is None:
            return float("inf")
        return self.arrival_seconds + self.slo_seconds

    @property
    def latency_seconds(self) -> Optional[float]:
        """Arrival-to-completion latency; ``None`` until the job finishes."""
        if self.finish_seconds is None:
            return None
        return self.finish_seconds - self.arrival_seconds

    @property
    def met_slo(self) -> Optional[bool]:
        """Whether the job finished inside its SLO (``None`` until done)."""
        if self.finish_seconds is None:
            return None
        return self.finish_seconds <= self.deadline_seconds

    @property
    def runtime_seconds(self) -> Optional[float]:
        if self.start_seconds is None or self.finish_seconds is None:
            return None
        return self.finish_seconds - self.start_seconds

    @property
    def executed_wall_seconds(self) -> Optional[float]:
        """Measured wall-clock of the real pilot execution (``None`` if none ran)."""
        if self.executed_start_seconds is None or self.executed_finish_seconds is None:
            return None
        return self.executed_finish_seconds - self.executed_start_seconds

    @property
    def worker_seconds(self) -> Optional[float]:
        """Worker occupancy of the real execution: wall seconds × workers."""
        wall = self.executed_wall_seconds
        if wall is None or self.workers is None:
            return None
        return wall * self.workers

    # ------------------------------------------------------------------ #
    def mark_queued(self) -> None:
        self.state = JobState.QUEUED

    def mark_running(self, now: float, *, gpus: int, rows: int, columns: int,
                     cache_hit: bool,
                     filter_seconds: Optional[float] = None,
                     backprojection_seconds: Optional[float] = None) -> None:
        self.state = JobState.RUNNING
        self.start_seconds = now
        self.gpus = gpus
        self.rows = rows
        self.columns = columns
        self.cache_hit = cache_hit
        self.filter_seconds = filter_seconds
        self.backprojection_seconds = backprojection_seconds

    def mark_completed(self, now: float) -> None:
        self.state = JobState.COMPLETED
        self.finish_seconds = now

    def mark_executed(self, start: float, finish: float, *, workers: int) -> None:
        """Record the real (wall-clock) execution of this job's placement."""
        if finish < start:
            raise ValueError("execution must finish at or after its start")
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self.executed_start_seconds = start
        self.executed_finish_seconds = finish
        self.workers = int(workers)

    def mark_rejected(
        self, reason: str, *, retry_after_seconds: Optional[float] = None
    ) -> None:
        """Reject the job; ``retry_after_seconds`` marks a *transient*
        rejection (quota/backlog backpressure — "try later"), as opposed to
        a never-feasible one."""
        self.state = JobState.REJECTED
        self.rejection_reason = reason
        self.retry_after_seconds = retry_after_seconds

    def mark_failed(self, reason: str) -> None:
        """Fail the job loudly (pilot crash, timeout, exhausted retries)."""
        self.state = JobState.FAILED
        self.failure_reason = reason

    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """The *static* identity of this job, for the durable job store.

        Only submission-time fields travel: the journal records state
        transitions as separate events, and recovery rebuilds a fresh
        ``PENDING`` job from this payload before replaying them.
        """
        payload = {name: getattr(self, name) for name in _IDENTITY}
        payload["problem"] = str(self.problem)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ReconstructionJob":
        """Rebuild a fresh ``PENDING`` job from :meth:`to_payload` output."""
        for required in ("problem", "job_id"):
            if payload.get(required) is None:
                raise ValueError(f"job payload missing required field {required!r}")
        return cls(**{
            name: coerce(payload[name])
            for name, coerce in _IDENTITY.items()
            if payload.get(name) is not None
        })

    # ------------------------------------------------------------------ #
    def as_record(self) -> dict:
        """Flat dictionary for reports and tables."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "dataset": self.dataset_id,
            "problem": str(self.problem),
            "priority": self.priority,
            "state": self.state.value,
            "arrival_s": self.arrival_seconds,
            "start_s": self.start_seconds,
            "finish_s": self.finish_seconds,
            "latency_s": self.latency_seconds,
            "slo_s": self.slo_seconds,
            "met_slo": self.met_slo,
            "gpus": self.gpus,
            "grid": (f"{self.rows}x{self.columns}"
                     if self.rows and self.columns else None),
            "cache_hit": self.cache_hit,
            "scenario": self.scenario,
            "backend": self.backend,
            "plan_key": self.plan_key or None,
            "filter_s": self.filter_seconds,
            "backprojection_s": self.backprojection_seconds,
            "workers": self.workers,
            "executed_wall_s": self.executed_wall_seconds,
            "worker_seconds": self.worker_seconds,
            "pilot_cache_hit": self.pilot_cache_hit,
            "execution_attempts": self.execution_attempts,
            "rejection_reason": self.rejection_reason,
            "retry_after_s": self.retry_after_seconds,
            "failure_reason": self.failure_reason,
        }


@dataclass
class JobsByState:
    """One list of jobs, viewed by state: a job is in it once and has one
    state, so the views cannot disagree the way separate lists can."""

    jobs: List[ReconstructionJob] = field(default_factory=list)  # guarded-by: caller

    def in_state(self, state: JobState) -> List[ReconstructionJob]:
        return [job for job in self.jobs if job.state is state]

    @property
    def completed(self) -> List[ReconstructionJob]:
        return self.in_state(JobState.COMPLETED)

    @property
    def rejected(self) -> List[ReconstructionJob]:
        return self.in_state(JobState.REJECTED)

    @property
    def failed(self) -> List[ReconstructionJob]:
        return self.in_state(JobState.FAILED)


def job_sort_key(job: ReconstructionJob) -> Tuple[int, float, int]:
    """Scheduling order: priority class, then earliest deadline, then FIFO."""
    return (job.priority, job.deadline_seconds, job.sequence)
