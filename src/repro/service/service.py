"""The reconstruction service: queue + scheduler + cache + metrics.

:class:`ReconstructionService` is the seam every serving feature plugs into.
It owns the simulated cluster, admits jobs through the
:class:`~repro.service.queue.JobQueue`, lets the
:class:`~repro.service.scheduler.ClusterScheduler` pack them onto GPUs, and
advances a discrete-event clock: time jumps between job arrivals and job
completions, with a scheduling cycle after every event.  Job runtimes come
from the calibrated Eq. 8-19 performance model, so a 2,048-GPU deployment
replays in milliseconds of wall time.

On completion each job's filtered projections are inserted into the
:class:`~repro.service.cache.FilteredProjectionCache` (in ``cache_dir`` when
given); later jobs on the same dataset/filter skip the filtering stage
(``T_flt`` leaves the Eq. 17 overlap), which shortens them and frees
filtering capacity.

With ``workers > 0`` the service additionally owns a
:class:`~repro.service.process_dispatch.ProcessDispatcher`: every scheduling
cycle's placements are dispatched as one batch onto a pool of that many
worker processes, where each job runs a pilot reconstruction concurrently
with its co-scheduled peers.  Submission is serialized on a reentrant
service lock:
concurrent tenants may call :meth:`submit` from their own threads, and the
event loop processes each event atomically under the same lock, so
concurrent submissions interleave between events rather than corrupting
them.  The measured worker accounting lands in
:class:`~repro.service.metrics.ServiceMetrics`.

Whoever moves a job — queue, scheduler, event loop, dispatcher — the
bookkeeping of the move is written once, in
:meth:`ReconstructionService._transition`: the registry, the journal, the
lifetime ``service.jobs_*`` counters and the outcome ledger are touched
there and nowhere else, with the event looked up in
:data:`repro.service.job.LIFECYCLE` (the only place an event or a
journaled field is added).
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import math
import threading
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.types import ReconstructionProblem
from ..gpusim.device import DeviceSpec, TESLA_V100
from ..obs import NULL_METRICS, MetricsRegistry, get_tracer
from .cache import FilteredProjectionCache
from .fairness import FairShareQueue
from .job import TERMINAL_EVENTS, ReconstructionJob, reserve_job_ids
from .metrics import ServiceMetrics
from .process_dispatch import ProcessDispatcher
from .queue import AdmissionPolicy, JobQueue
from .scheduler import ClusterScheduler, GPUCluster, Placement
from .store import JobStore
from .trace import ArrivalTrace

__all__ = ["ReconstructionService"]

#: The lifetime counter a live event bumps.  A submission counts once it is
#: admitted, so ``submitted`` itself bumps nothing and ``queued`` does.
_EVENT_COUNTERS = {
    "queued": "service.jobs_submitted",
    "rejected": "service.jobs_rejected",
    "placed": "service.jobs_placed",
    "completed": "service.jobs_completed",
    "failed": "service.jobs_failed",
}

#: What ``_dispatch`` enters instead of a span when tracing is off.
_NO_SPAN = contextlib.nullcontext()


class _Instruments(dict):
    """A registry's instruments of one kind, by name, each asked for once.

    The ask happens at first use, not up front: asking a live registry
    creates the instrument, so its snapshot lists only what has moved.
    """

    def __init__(self, ask: Callable[[str], Any]):
        super().__init__()
        self._ask = ask

    def __missing__(self, name: str) -> Any:
        instrument = self[name] = self._ask(name)
        return instrument


class ServiceReport:
    """Outcome of one replayed workload: the KPI ``summary`` and one record
    per job.

    The records are built on the first read of :attr:`jobs` (or
    :meth:`as_dict`), from the ledger that
    :meth:`ReconstructionService.report` copied under the service lock, and
    under that lock again: most readers want only the summary, and a
    3000-job replay's records cost more than its summary.  A record
    describes its job as of that first read.
    """

    def __init__(
        self,
        policy: str,
        cluster_gpus: int,
        summary: Dict[str, float],
        ledger: List[ReconstructionJob],
        *,
        lock,
        description: str = "",
        backend: str = "reference",
    ):
        self.policy = policy
        self.cluster_gpus = cluster_gpus
        self.summary = summary
        self.description = description
        self.backend = backend
        self._ledger: Optional[List[ReconstructionJob]] = ledger
        self._lock = lock
        self._records: List[Dict] = []

    @property
    def jobs(self) -> List[Dict]:
        """Every ledger job's record, by arrival then submission order."""
        if self._ledger is not None:
            with self._lock:
                ledger = sorted(
                    self._ledger, key=lambda j: (j.arrival_seconds, j.sequence)
                )
                self._records = [job.as_record() for job in ledger]
            self._ledger = None
        return self._records

    def as_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "cluster_gpus": self.cluster_gpus,
            "backend": self.backend,
            "description": self.description,
            "summary": self.summary,
            "jobs": self.jobs,
        }


class ReconstructionService:
    """A multi-tenant reconstruction-as-a-service front end (simulated)."""

    def __init__(
        self,
        cluster_gpus: int = 16,
        *,
        policy: str = "slo",
        cache: Optional[FilteredProjectionCache] = None,
        admission: Optional[AdmissionPolicy] = None,
        device: DeviceSpec = TESLA_V100,
        max_gpus_per_job: Optional[int] = None,
        backend: str = "reference",
        workers: int = 0,
        pilot_problem: Union[ReconstructionProblem, str, None] = None,
        obs: Optional[MetricsRegistry] = None,
        state_dir=None,
        cache_dir=None,
        dispatch_timeout_seconds: float = 60.0,
        dispatch_max_retries: int = 2,
        fault_injection: Optional[Dict[str, dict]] = None,
    ):
        from ..backends import get_backend  # late import: backends import core

        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
            raise ValueError(
                f"workers must be a non-negative integer (got {workers!r}); "
                "0 disables real execution"
            )
        self.backend = get_backend(backend).name
        self.workers = int(workers)
        # Lifetime instruments (queue waits, cache hits, scheduler cycles,
        # dispatch faults).  ServiceMetrics stays the source of truth for
        # per-job KPI reductions; the registry covers what per-job records
        # cannot.
        self.obs = obs if obs is not None else NULL_METRICS
        self._counters = _Instruments(self.obs.counter)
        self._gauges = _Instruments(self.obs.gauge)
        self._histograms = _Instruments(self.obs.histogram)
        self.dispatcher: Optional[ProcessDispatcher] = None
        if self.workers:
            self.dispatcher = ProcessDispatcher(
                self.workers,
                backend=self.backend,
                pilot_problem=pilot_problem,
                cache_dir=cache_dir,
                timeout_seconds=dispatch_timeout_seconds,
                max_retries=dispatch_max_retries,
                fault_injection=fault_injection,
                on_executed=functools.partial(self._transition, "executed"),
                on_failed=functools.partial(self._transition, "failed"),
                obs=self.obs,
            )
        self._lock = threading.RLock()
        self.cluster = GPUCluster(cluster_gpus, device=device)
        # With a cache_dir, entries and their LRU recency are files: they
        # survive restarts and are shared with the pilot worker processes.
        self.cache = cache if cache is not None else FilteredProjectionCache(directory=cache_dir)
        self.scheduler = ClusterScheduler(
            self.cluster,
            policy=policy,
            cache=self.cache,
            max_gpus_per_job=max_gpus_per_job,
        )
        self.metrics = ServiceMetrics()  # guarded-by: _lock
        # Any fair-share knob on the admission policy upgrades the queue
        # to weighted deficit-round-robin with quotas and aging.
        if admission is not None and admission.fairness_enabled:
            self.queue: JobQueue = FairShareQueue(admission, obs=self.obs)  # guarded-by: _lock
        else:
            self.queue = JobQueue(admission)  # guarded-by: _lock
        self._running: List[Placement] = []  # guarded-by: _lock
        self._finish_heap: List = []  # guarded-by: _lock  (finish, sequence, Placement)
        self.clock_seconds = 0.0  # guarded-by: _lock
        # Registry of every job this service has seen (by id), for the
        # HTTP front door and restart recovery.
        self.jobs: Dict[str, ReconstructionJob] = {}  # guarded-by: _lock
        self.store: Optional[JobStore] = (
            JobStore(state_dir) if state_dir is not None else None
        )
        self.recovered_jobs = 0
        if self.store is not None:
            self._recover()

    @property
    def policy(self) -> str:
        return self.scheduler.policy

    @property
    def running_jobs(self) -> List[ReconstructionJob]:
        with self._lock:
            return [placement.job for placement in self._running]

    # ------------------------------------------------------------------ #
    # Restart recovery and the one transition path
    # ------------------------------------------------------------------ #
    def _recover(self) -> None:
        """Replay the job store's journal into this fresh service.

        Terminal jobs (completed / rejected / failed) come back as records
        only — their outcome is history, visible to ``report()`` and the
        HTTP registry.  In-flight jobs (submitted / queued / placed when
        the previous incarnation died) are re-admitted through the normal
        ``submit`` path at their original arrival times: at-least-once
        execution, no lost jobs, no duplicates (the journal dedups by id).
        Jobs built after it are numbered past every recovered id.
        """
        with self._lock:
            recovered = self.store.recover()
            self.recovered_jobs = len(recovered)
            reserve_job_ids(job.job_id for job in recovered.jobs)
            for job in recovered.jobs:
                # A terminal event is named after the state it means.
                event = job.state.value if job.state.value in TERMINAL_EVENTS else "submitted"
                self._transition(event, job, recovered=True)
            for job in recovered.pending:
                self.submit(job, now=job.arrival_seconds)

    def _transition(
        self, event: str, job: ReconstructionJob, *, recovered: bool = False, **extra
    ) -> None:
        """The bookkeeping of one lifecycle event, for every caller.

        The job's own fields are set by whoever moved it (queue, scheduler,
        event loop, dispatcher); this makes the move known: the registry
        holds the job, the journal gets the event with the fields
        :data:`~repro.service.job.LIFECYCLE` pairs with it (plus ``extra``),
        the event's lifetime counter moves, and a job reaching a terminal
        state enters the ledger.  ``recovered`` marks history replayed from
        the journal: it is neither journaled nor counted again — an
        in-flight job counts as recovered and is then resubmitted live.
        """
        terminal = event in TERMINAL_EVENTS
        with self._lock:
            self.jobs[job.job_id] = job
            if recovered:
                if not terminal:
                    self._counters["service.jobs_recovered"].inc()
            else:
                if self.store is not None:
                    self.store.record(event, job, **extra)
                counter = _EVENT_COUNTERS.get(event)
                if counter is not None:
                    # `service.jobs_completed` counts completions *observed*
                    # at simulated completion time; counters never decrease.
                    self._counters[counter].inc()
            if terminal and not self.metrics.record(job):
                # A late pilot failure overturned a completion.  This
                # counter reconciles the monotonic one with
                # summary()["jobs_completed"]: current = observed - overturned.
                self._counters["service.completions_overturned"].inc()

    # ------------------------------------------------------------------ #
    # Submission and the event loop
    # ------------------------------------------------------------------ #
    def submit(self, job: ReconstructionJob, now: Optional[float] = None) -> bool:
        """Admit one job at time ``now`` (default: the service clock).

        Returns ``False`` — with the job marked ``REJECTED`` — when the job
        cannot ever run on this cluster or fails queue admission control.
        Safe to call from concurrent tenant threads: queue, cache and
        metrics mutations are serialized on the service lock.

        A plan-derived job (non-empty ``plan_key``) whose plan declared a
        different backend than this service runs is a caller error, not a
        rejection: the plan's key *is* its numerics identity, so silently
        re-targeting the job would make every record lie about what
        executed.  Raises :class:`ValueError` before any state changes —
        as does a NaN or infinite ``now``, which would stamp the job with
        an arrival the ordered queue and the event loop cannot compare.
        """
        if job.plan_key and job.backend != self.backend:
            raise ValueError(
                f"job {job.job_id} carries plan {job.plan_key} declaring "
                f"backend {job.backend!r}, but this service runs "
                f"{self.backend!r}; build the service from the plan "
                "(Session does) or align the plan's backend"
            )
        if now is not None and not math.isfinite(now):
            raise ValueError(
                f"job {job.job_id} cannot be submitted at now={now!r}: the "
                "service clock is a finite number of seconds"
            )
        with self._lock:
            now = self.clock_seconds if now is None else now
            job.arrival_seconds = now
            job.backend = self.backend  # every rank runs one backend
            # Journal the submission before deciding its fate: a service
            # killed mid-admission re-admits the job on recovery.
            self._transition("submitted", job)
            feasibility = self.scheduler.best_plan(job, self.cluster.total_gpus, now)
            if feasibility is None:
                job.mark_rejected(
                    f"infeasible: no (R, C) decomposition of {job.problem} fits "
                    f"{self.cluster.total_gpus} x {self.cluster.device.name}"
                )
                admitted = False
            else:
                job.estimated_seconds = feasibility.runtime_seconds
                admitted = self.queue.offer(job)  # marks the job queued or rejected
            self._transition("queued" if admitted else "rejected", job)
            return admitted

    def submit_plan(
        self, plan, *, dataset_id: str = "", now: Optional[float] = None
    ) -> ReconstructionJob:
        """Derive a job from a declarative plan and submit it.

        The canonical plan-centric submission path: the job inherits the
        plan's problem, filtering/scenario identity, QoS fields and
        :meth:`~repro.api.ReconstructionPlan.key`, so the cache and the
        report speak the same identity as every other execution surface.
        Returns the job; inspect ``job.state`` / ``job.rejection_reason``
        for the admission outcome.

        The plan's backend must match this service's (every rank of the
        cluster runs one backend, and the plan's key *declares* the
        backend) — :meth:`submit` raises on the mismatch instead of
        silently executing on different numerics than the recorded
        identity.  The plan's ``cluster_gpus`` and ``workers`` describe
        the service a :class:`~repro.api.Session` would build; submitting
        to an existing service runs on that service's cluster and
        dispatcher.
        """
        job = ReconstructionJob.from_plan(plan, dataset_id=dataset_id)
        self.submit(job, now=now)
        return job

    def _dispatch(self, now: float) -> None:
        with self._lock:
            tracer = get_tracer()
            span = (
                tracer.span("service.schedule", now=now, queued=len(self.queue))
                if tracer.enabled else _NO_SPAN
            )
            with span:
                placements, rejected = self.scheduler.schedule(
                    self.queue, now, self._running
                )
            self._counters["service.scheduler_cycles"].inc()
            for job in rejected:
                self._transition("rejected", job)
            for placement in placements:
                self._running.append(placement)
                heapq.heappush(
                    self._finish_heap,
                    (placement.finish_seconds, placement.job.sequence, placement),
                )
                self._transition(
                    "placed", placement.job, finish=placement.finish_seconds
                )
                self._histograms["service.queue_wait_seconds"].observe(
                    placement.start_seconds - placement.job.arrival_seconds
                )
                if placement.plan.cache_hit:
                    self._counters["service.cache_hits"].inc()
                else:
                    self._counters["service.cache_misses"].inc()
            depth = len(self.queue)
            self.metrics.sample_queue_depth(depth)
            self._gauges["service.queue_depth"].set(depth)
        # Real execution rides along as one batch per scheduling cycle; the
        # pool runs outside the lock so submissions never wait on pilots.
        if self.dispatcher is not None and placements:
            self.dispatcher.dispatch(placements)

    def _complete(self, placement: Placement) -> None:
        with self._lock:
            now = placement.finish_seconds
            self._running.remove(placement)
            self.cluster.release(placement.gpus)
            job = placement.job
            job.mark_completed(now)
            self._transition("completed", job)
            if self.obs.enabled and job.latency_seconds is not None:
                self._histograms["service.latency_seconds"].observe(
                    job.latency_seconds
                )
                # Per-tenant tail: the aggregate histogram hides a starved
                # tenant behind everyone else's fast completions.
                self._histograms[
                    f"service.latency_seconds[tenant={job.tenant}]"
                ].observe(job.latency_seconds)
            # Filtering ran as part of the job (unless it was a hit); its
            # output is now on the PFS for every later job on the dataset —
            # unless it is larger than the whole cache, which no eviction fixes.
            nbytes = job.problem.input_bytes()
            if nbytes <= self.cache.capacity_bytes:
                self.cache.insert(job.cache_key, nbytes=nbytes)

    def run_until_idle(self) -> None:
        """Drain the queue, all running jobs and any real executions."""
        self._drain(arrivals=[])
        if self.dispatcher is not None:
            self.dispatcher.drain()

    def reset(self) -> None:
        """Forget all jobs and metrics and rewind the clock to zero.

        The filtered-projection cache is deliberately kept warm — in a
        long-lived service its contents survive individual workloads.  The
        dispatcher's worker accounting restarts with the metrics, so a
        replay's summary always agrees with the dispatcher's counters.
        """
        with self._lock:
            if self._running or len(self.queue):
                raise RuntimeError("cannot reset while jobs are queued or running")
            self.metrics = ServiceMetrics()
            self.jobs.clear()  # every job here is terminal: nothing queued or running
            self._finish_heap.clear()
            self.clock_seconds = 0.0
            dispatcher = self.dispatcher
        # Draining waits on pilots for up to their timeouts, so it must
        # happen after the lock is released: submitters never wait on it.
        if dispatcher is not None:
            dispatcher.drain()
            dispatcher.reset_accounting()

    def replay(self, trace: ArrivalTrace) -> ServiceReport:
        """Replay a trace from t=0 and return the service report.

        Each replay starts from fresh metrics (see :meth:`reset`); only the
        cache carries over between replays on the same service.
        """
        arrivals = trace.jobs()
        self.reset()
        self._drain(arrivals=arrivals)
        if self.dispatcher is not None:
            self.dispatcher.drain()  # worker accounting must be complete
        return self.report(description=trace.description)

    def close(self) -> None:
        """Join the dispatcher's workers and close the job store."""
        try:
            if self.dispatcher is not None:
                self.dispatcher.close()
        finally:
            if self.store is not None:
                self.store.close()

    def __enter__(self) -> "ReconstructionService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    def _drain(self, arrivals: List[ReconstructionJob]) -> None:
        """Advance the event loop until nothing is queued, running or arriving.

        Each iteration — clock advance, completions, arrivals, starvation
        sweep — executes atomically under the service lock (the lock is
        reentrant, so the nested ``submit``/``_complete`` calls compose),
        and concurrent tenant submissions interleave *between* events.
        """
        arrivals = sorted(arrivals, key=lambda j: (j.arrival_seconds, j.sequence))
        next_arrival = 0
        with self._lock:
            start = self.clock_seconds
        self._dispatch(start)
        while True:
            with self._lock:
                if not (
                    next_arrival < len(arrivals)
                    or self._finish_heap
                    or len(self.queue)
                ):
                    break
                arrival_time = (
                    arrivals[next_arrival].arrival_seconds
                    if next_arrival < len(arrivals) else float("inf")
                )
                finish_time = (
                    self._finish_heap[0][0] if self._finish_heap else float("inf")
                )
                now = min(arrival_time, finish_time)
                if now == float("inf"):
                    # Queued jobs but nothing running or arriving: the
                    # scheduler cannot place them now and no future event
                    # will free GPUs.
                    for job in self.queue.drain():
                        job.mark_rejected(
                            "starved: no future completion can free enough GPUs"
                        )
                        self._transition("rejected", job)
                    break
                self.clock_seconds = now
                while self._finish_heap and self._finish_heap[0][0] <= now:
                    _, _, placement = heapq.heappop(self._finish_heap)
                    self._complete(placement)
                while (
                    next_arrival < len(arrivals)
                    and arrivals[next_arrival].arrival_seconds <= now
                ):
                    self.submit(arrivals[next_arrival], now=now)
                    next_arrival += 1
            self._dispatch(now)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """The KPI summary of :meth:`report`, without its per-job records:
        what ``GET /metrics`` serves.

        Runs under the service lock (reentrant, so the event loop may call
        it too): ``GET /metrics`` executes on HTTP handler threads while
        ``POST /advance`` mutates the metrics lists, and an unlocked
        snapshot would tear mid-update.
        """
        with self._lock:
            tenant_weights = (
                self.queue.weights_snapshot()
                if isinstance(self.queue, FairShareQueue) else None
            )
            summary = self.metrics.summary(
                cache=self.cache, cluster_gpus=self.cluster.total_gpus,
                tenant_weights=tenant_weights,
            )
            if self.dispatcher is not None:
                summary.update(self.dispatcher.fault_summary())
        return summary

    def report(self, description: str = "") -> ServiceReport:
        """Current metrics as a :class:`ServiceReport`: :meth:`summary` and
        a copy of the ledger, taken under one hold of the service lock; the
        per-job records are built from that copy when first read."""
        with self._lock:
            summary = self.summary()
            ledger = list(self.metrics.jobs)
        return ServiceReport(
            self.policy,
            self.cluster.total_gpus,
            summary,
            ledger,
            lock=self._lock,
            description=description,
            backend=self.backend,
        )

    def obs_snapshot(self) -> Dict[str, float]:
        """Flat snapshot of the lifetime instruments (empty when disabled)."""
        return self.obs.snapshot()
