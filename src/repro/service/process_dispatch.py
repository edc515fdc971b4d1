"""Real execution of placed jobs: the :class:`ProcessDispatcher`.

The discrete-event service predicts job runtimes with the Eq. 8-19 model —
which is what lets a 2,048-GPU replay finish in milliseconds — and with
``workers=0`` that is all it does.  With ``workers=N`` every scheduling
cycle's new placements are handed to this dispatcher as one batch, and each
job executes a **pilot reconstruction** — a scaled-down but genuine FDK
execution (ramp filter + tile-kernel back-projection on the service's
compute backend) standing in for the full problem the simulated cluster is
solving — in a **process pool**, which is what turns the simulator into a
servable system:

* placements on disjoint GPU sets genuinely overlap in wall-clock, and each
  job records when its execution started and finished and how many workers
  it occupied (:meth:`ReconstructionJob.mark_executed`), reduced by
  :class:`~repro.service.metrics.ServiceMetrics` to the
  ``worker_seconds_total`` / ``jobs_executed`` KPIs;
* workers are spawned (never forked) and initialized once with a
  module-level pilot runtime, so a worker crash cannot corrupt the
  service's state — it costs a pool rebuild, not the process;
* each job has a per-attempt **timeout** and a bounded **retry budget**
  with exponential backoff; a pilot that hangs is killed (the pool's
  worker processes are terminated and the pool rebuilt) and the job
  retried or failed loudly — the service never hangs on a stuck worker;
* a crashed worker (``BrokenProcessPool``) is detected, counted, and the
  pool is rebuilt **one worker narrower** (never below one): repeated
  crashes degrade capacity gracefully instead of thrashing;
* with a ``cache_dir``, pilots share a :class:`~repro.service.cache.FilteredProjectionCache`
  on it: the first worker process to filter a dataset writes the filtered
  projections to disk, and every other worker — and every future service
  incarnation — gets a cache hit (``job.pilot_cache_hit``), the Eq. 17
  ``T_flt`` saving made real across process boundaries.

The simulated clock is untouched: latencies, SLO attainment and GPU
utilization still come from the event loop, so model-level tests and
benchmarks are unaffected by how long the pilots really take.

Fault injection (``fault_injection={"job-0001": {"crash_attempts": [1]}}``)
exists so the crash/timeout/retry machinery is testable on demand: the
worker consults it before running the pilot and either ``os._exit``\\ s
(a genuine SIGCHLD-visible death, not an exception) or sleeps past the
timeout.  Production paths simply pass no faults.

Every result is awaited with a bounded timeout, so ``drain`` terminates in
``O(pending × timeout)`` even if every worker wedges — "failed loudly,
never a hang" is structural, not best-effort.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union
import multiprocessing
import threading

import numpy as np

from ..core.filtering import _pocketfft
from ..core.types import ProjectionStack, ReconstructionProblem, problem_from_string
from ..obs import NULL_METRICS, MetricsRegistry, get_tracer
from .cache import CacheKey, FilteredProjectionCache
from .job import ReconstructionJob
from .scheduler import Placement

__all__ = ["ProcessDispatcher"]

#: Default pilot: small enough that CLI submits stay instant, real enough
#: that the hot-path kernels (not Python overhead) dominate.
DEFAULT_PILOT_PROBLEM = ReconstructionProblem(
    nu=24, nv=24, np_=8, nx=16, ny=16, nz=16
)

#: First retry's delay; doubles with every further attempt.
RETRY_BACKOFF_SECONDS = 0.05


# --------------------------------------------------------------------- #
# Worker-side pilot runtime (module-level so spawn can import it)
# --------------------------------------------------------------------- #
_RUNTIME: Optional[dict] = None


def _pilot_init(
    problem_spec: str, backend_name: str, cache_dir: Optional[str]
) -> None:
    """Build this worker process's pilot runtime once, at pool start."""
    global _RUNTIME
    from ..backends import get_backend
    from ..core import default_geometry_for_problem

    problem = problem_from_string(problem_spec)
    geometry = default_geometry_for_problem(
        nu=problem.nu, nv=problem.nv, np_=problem.np_,
        nx=problem.nx, ny=problem.ny, nz=problem.nz,
    )
    rng = np.random.default_rng(2026)
    raw = ProjectionStack(
        data=rng.standard_normal(
            (problem.np_, problem.nv, problem.nu)
        ).astype(np.float32),
        angles=geometry.angles,
        filtered=False,  # pilots run filter + back-projection
    )
    cache = None if cache_dir is None else FilteredProjectionCache(directory=cache_dir)
    # Loaded here, once per worker: a pilot's filter_seconds times
    # filtering, not the first load of the transforms.
    _pocketfft()
    _RUNTIME = {
        "backend": get_backend(backend_name),
        "geometry": geometry,
        "raw": raw,
        "cache": cache,
    }


def _pilot_execute(payload: dict) -> dict:
    """One pilot reconstruction in a worker process.

    Returns ``{"cache_hit": bool | None, "filter_seconds": float}``.
    Fault injection runs first so crash/timeout paths are reachable even
    when the pilot itself would succeed.
    """
    fault = payload.get("fault") or {}
    attempt = int(payload.get("attempt", 1))
    if attempt in (fault.get("crash_attempts") or []):
        os._exit(13)  # a real worker death, not a catchable exception
    sleep_attempts = fault.get("sleep_attempts")
    sleep_seconds = fault.get("sleep_seconds")
    if sleep_seconds and (sleep_attempts is None or attempt in sleep_attempts):
        time.sleep(float(sleep_seconds))
    if fault.get("raise_attempts") and attempt in fault["raise_attempts"]:
        raise RuntimeError(f"injected pilot failure (attempt {attempt})")
    runtime = _RUNTIME
    if runtime is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("pilot runtime not initialized")
    backend = runtime["backend"]
    geometry = runtime["geometry"]
    cache = runtime["cache"]
    key = CacheKey(**payload["cache_key"])
    cache_hit: Optional[bool] = None
    filtered = None
    filter_start = time.perf_counter()
    if cache is not None:
        filtered = cache.get_filtered(key)
        cache_hit = filtered is not None
    if filtered is None:
        filtered = backend.filter_stack(
            runtime["raw"], geometry, window=key.ramp_filter
        )
        if cache is not None:
            cache.insert(key, filtered=filtered)
    filter_seconds = time.perf_counter() - filter_start
    backend.backproject(filtered, geometry, algorithm="proposed")
    return {"cache_hit": cache_hit, "filter_seconds": filter_seconds}


# --------------------------------------------------------------------- #
# Dispatcher (service side)
# --------------------------------------------------------------------- #
@dataclass
class _Pending:
    job: ReconstructionJob
    payload: dict
    attempt: int
    submitted: float  # absolute perf_counter at (re)submission
    parent: Optional[int]
    future: object = None


class ProcessDispatcher:
    """Runs pilots in a spawn-safe process pool with timeout/retry/degrade.

    * ``drain`` **returns the jobs that failed** (crash or timeout past the
      retry budget) instead of raising; ``on_executed`` / ``on_failed`` hand
      each outcome to the owning service as it is observed (journal, metrics);
    * the dispatcher owns the fault counters — ``retries`` / ``timeouts`` /
      ``crashes`` per accounting window (:meth:`fault_summary`), mirrored as
      they happen into the lifetime ``dispatch.*`` instruments of ``obs``;
    * ``effective_workers`` may shrink below the configured width after
      crashes (graceful degradation), never below one.
    """

    def __init__(
        self,
        workers: int,
        *,
        backend: str = "vectorized",
        pilot_problem: Union[ReconstructionProblem, str, None] = None,
        cache_dir=None,
        timeout_seconds: float = 60.0,
        max_retries: int = 2,
        fault_injection: Optional[Dict[str, dict]] = None,
        on_executed: Optional[Callable[[ReconstructionJob], None]] = None,
        on_failed: Optional[Callable[[ReconstructionJob], None]] = None,
        obs: Optional[MetricsRegistry] = None,
    ):
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be a positive integer (got {workers!r})")
        if timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        from ..backends import get_backend  # late import: backends import core

        self.workers = int(workers)
        self._width = int(workers)  # degrades after crashes, never below 1
        self.backend = get_backend(backend).name
        if pilot_problem is None:
            pilot_problem = DEFAULT_PILOT_PROBLEM
        elif isinstance(pilot_problem, str):
            pilot_problem = problem_from_string(pilot_problem)
        self.pilot_problem = pilot_problem
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.timeout_seconds = float(timeout_seconds)
        self.max_retries = int(max_retries)
        self.fault_injection = dict(fault_injection or {})
        self.on_executed = on_executed
        self.on_failed = on_failed
        self.obs = obs if obs is not None else NULL_METRICS

        self._executor: Optional[ProcessPoolExecutor] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._pending: List[_Pending] = []  # guarded-by: _lock
        self._epoch = time.perf_counter()
        self.batches_dispatched = 0
        self.jobs_executed = 0
        self.jobs_failed = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.busy_worker_seconds = 0.0

    # ------------------------------------------------------------------ #
    @property
    def effective_workers(self) -> int:
        """Current pool width (shrinks after crashes, never below one)."""
        return self._width

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._width,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_pilot_init,
                    initargs=(str(self.pilot_problem), self.backend, self.cache_dir),
                )
            return self._executor

    def _payload_for(self, job: ReconstructionJob, attempt: int) -> dict:
        # The pilot filters its own scaled-down stack, so the cache key uses
        # the *pilot* detector shape with the job's data/filter identity —
        # two jobs on one dataset share the entry, two datasets never do.
        key = dataclasses.replace(
            CacheKey.for_job(job),
            nu=self.pilot_problem.nu,
            nv=self.pilot_problem.nv,
            np_=self.pilot_problem.np_,
        )
        return {
            "job_id": job.job_id,
            "attempt": attempt,
            "cache_key": dataclasses.asdict(key),
            "fault": self.fault_injection.get(job.job_id),
        }

    def dispatch(self, placements: Sequence[Placement]) -> None:
        """Queue one scheduling cycle's placements on the process pool."""
        placements = list(placements)
        if not placements:
            return
        with self._lock:
            self.batches_dispatched += 1
        tracer = get_tracer()
        with tracer.span("dispatch.batch", jobs=len(placements)) as batch:
            parent = batch.span_id if tracer.enabled else None
            for placement in placements:
                self._submit(placement.job, attempt=1, parent=parent)

    def _submit(
        self, job: ReconstructionJob, *, attempt: int, parent: Optional[int]
    ) -> None:
        entry = _Pending(
            job=job,
            payload=self._payload_for(job, attempt),
            attempt=attempt,
            submitted=time.perf_counter(),
            parent=parent,
        )
        executor = self._ensure()
        try:
            entry.future = executor.submit(_pilot_execute, entry.payload)
        except BrokenExecutor:
            # Pool broke since the last drain: rebuild once and resubmit.
            self._teardown_pool()
            entry.future = self._ensure().submit(_pilot_execute, entry.payload)
        with self._lock:
            self._pending.append(entry)

    # ------------------------------------------------------------------ #
    def drain(self) -> List[ReconstructionJob]:
        """Await every dispatched pilot; return the jobs that failed.

        Bounded: each pending result is awaited with the per-attempt
        timeout, so even a pool of wedged workers resolves in
        ``O(pending × timeout)`` — a hung pilot becomes a timed-out (and
        retried or failed) job, never a hung service.
        """
        failed: List[ReconstructionJob] = []
        while True:
            with self._lock:
                pending, self._pending = self._pending, []
            if not pending:
                return failed
            queue = list(pending)
            while queue:
                entry = queue.pop(0)
                self._await(entry, queue, failed)

    def _await(
        self, entry: _Pending, queue: List[_Pending], failed: List[ReconstructionJob]
    ) -> None:
        tracer = get_tracer()
        try:
            result = entry.future.result(timeout=self.timeout_seconds)
        except FutureTimeoutError:
            with self._lock:
                self.timeouts += 1
            self.obs.counter("dispatch.timeouts").inc()
            reason = (
                f"pilot timed out after {self.timeout_seconds:.1f}s "
                f"(attempt {entry.attempt})"
            )
            # The worker is wedged: kill the pool, rebuild at the same
            # width, revive the collateral futures, then retry or fail.
            self._rebuild_pool(queue, width=self._width)
            self._retry_or_fail(entry, reason, queue, failed)
            return
        except BrokenExecutor:
            with self._lock:
                self.crashes += 1
            self.obs.counter("dispatch.crashes").inc()
            reason = f"pilot worker crashed (attempt {entry.attempt})"
            # Degrade one worker per crash so a poisoned workload converges
            # to a narrow-but-live pool instead of thrashing a wide one.
            self._rebuild_pool(queue, width=max(1, self._width - 1))
            self._retry_or_fail(entry, reason, queue, failed)
            return
        except Exception as exc:  # noqa: BLE001 - pilot raised; pool is healthy
            reason = f"pilot raised {type(exc).__name__}: {exc} (attempt {entry.attempt})"
            self._retry_or_fail(entry, reason, queue, failed)
            return
        finish = time.perf_counter()
        job = entry.job
        job.mark_executed(
            entry.submitted - self._epoch, finish - self._epoch, workers=1
        )
        job.execution_attempts = entry.attempt
        if isinstance(result, dict) and result.get("cache_hit") is not None:
            job.pilot_cache_hit = bool(result["cache_hit"])
            self.obs.counter(
                "dispatch.pilot_cache_hits" if job.pilot_cache_hit
                else "dispatch.pilot_cache_misses"
            ).inc()
        with self._lock:
            self.jobs_executed += 1
            self.busy_worker_seconds += finish - entry.submitted
        tracer.record(
            "dispatch.process",
            entry.submitted,
            finish,
            parent=entry.parent,
            job=job.job_id,
            attempt=entry.attempt,
            cache_hit=job.pilot_cache_hit,
            backend=self.backend,
        )
        if self.on_executed is not None:
            self.on_executed(job)

    def _retry_or_fail(
        self,
        entry: _Pending,
        reason: str,
        queue: List[_Pending],
        failed: List[ReconstructionJob],
    ) -> None:
        job = entry.job
        job.execution_attempts = entry.attempt
        if entry.attempt <= self.max_retries:
            with self._lock:
                self.retries += 1
            self.obs.counter("dispatch.retries").inc()
            time.sleep(RETRY_BACKOFF_SECONDS * (2 ** (entry.attempt - 1)))
            retry = _Pending(
                job=job,
                payload=self._payload_for(job, entry.attempt + 1),
                attempt=entry.attempt + 1,
                submitted=time.perf_counter(),
                parent=entry.parent,
            )
            retry.future = self._ensure().submit(_pilot_execute, retry.payload)
            queue.append(retry)
            return
        job.mark_failed(reason)
        with self._lock:
            self.jobs_failed += 1
        failed.append(job)
        get_tracer().record(
            "dispatch.process",
            entry.submitted,
            time.perf_counter(),
            parent=entry.parent,
            job=job.job_id,
            attempt=entry.attempt,
            outcome="failed",
        )
        if self.on_failed is not None:
            self.on_failed(job)

    # ------------------------------------------------------------------ #
    def _teardown_pool(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def _rebuild_pool(self, queue: List[_Pending], *, width: int) -> None:
        """Kill the pool, restart at ``width``, resubmit collateral entries.

        Entries whose futures already resolved keep their outcome — a result
        *or* the pilot's own exception, which ``_await`` routes through
        ``_retry_or_fail`` without re-running the pilot (re-execution would
        duplicate side effects at the same attempt number).  Only entries
        the old pool took down with it — never started, cancelled, or
        resolved to the pool's own ``BrokenExecutor`` — are resubmitted on
        the new one at the same attempt number (a pool rebuild is not the
        job's fault).
        """
        self._teardown_pool()
        self._width = max(1, int(width))
        executor = self._ensure()
        for entry in queue:
            future = entry.future
            if future is not None and future.done() and not future.cancelled():
                exception = future.exception()
                if exception is None or not isinstance(exception, BrokenExecutor):
                    continue
            entry.submitted = time.perf_counter()
            entry.future = executor.submit(_pilot_execute, entry.payload)

    # ------------------------------------------------------------------ #
    def fault_summary(self) -> Dict[str, float]:
        """This accounting window's ``dispatch_*`` summary keys — empty unless
        a fault occurred, so fault-free report shapes stay exact."""
        counts = {
            "dispatch_retries": self.retries,
            "dispatch_timeouts": self.timeouts,
            "dispatch_crashes": self.crashes,
        }
        return {k: float(v) for k, v in counts.items()} if any(counts.values()) else {}

    def reset_accounting(self) -> None:
        """Zero cumulative counters at a quiescent point (drained)."""
        with self._lock:
            if self._pending:
                raise RuntimeError("cannot reset accounting with executions pending")
            self.batches_dispatched = 0
            self.jobs_executed = 0
            self.jobs_failed = 0
            self.retries = 0
            self.timeouts = 0
            self.crashes = 0
            self.busy_worker_seconds = 0.0
            self._epoch = time.perf_counter()

    def close(self) -> None:
        """Drain remaining pilots (failures become failed jobs) and shut down."""
        try:
            self.drain()
        finally:
            with self._lock:
                executor, self._executor = self._executor, None
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessDispatcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
