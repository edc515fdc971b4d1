"""Real concurrent execution of placed jobs: the batched dispatcher.

The discrete-event service predicts job runtimes with the Eq. 8-19 model —
which is what lets a 2,048-GPU replay finish in milliseconds — but until
this module nothing actually *ran* when the scheduler placed a job.  The
:class:`BatchedDispatcher` closes that gap: every scheduling cycle's new
placements are handed over as one batch to a persistent worker pool, where
each job executes a **pilot reconstruction** — a scaled-down but genuine
FDK execution (ramp filter tables + tile-kernel back-projection on the
service's compute backend) standing in for the full problem the simulated
cluster is solving.

What the pilot buys:

* placements on disjoint GPU sets genuinely overlap in wall-clock (the
  concurrency claim of the scheduler becomes measurable, not asserted);
* worker accounting is real: each job records when its execution started
  and finished on the pool and how many backend workers it occupied
  (:meth:`ReconstructionJob.mark_executed`), and
  :class:`~repro.service.metrics.ServiceMetrics` reduces those records to
  ``worker_seconds_total`` / ``jobs_executed`` service KPIs;
* the ``parallel`` backend's pool is exercised under concurrent callers —
  exactly the regime the conformance suite's determinism guarantees must
  hold in.

The simulated clock is untouched: latencies, SLO attainment and GPU
utilization still come from the event loop, so model-level tests and
benchmarks are unaffected by how long the pilots really take.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core import default_geometry_for_problem
from ..core.types import ProjectionStack, ReconstructionProblem, problem_from_string
from ..obs import NULL_TRACER, get_tracer
from ..obs.tracer import Tracer
from .job import ReconstructionJob
from .scheduler import Placement

__all__ = ["BatchedDispatcher", "DEFAULT_PILOT_PROBLEM", "DISPATCH_THREAD_PREFIX"]

#: Thread-name prefix of dispatcher workers (leak checks grep for this).
DISPATCH_THREAD_PREFIX = "repro-dispatch"

#: Default pilot: small enough that CLI submits stay instant, real enough
#: that the hot-path kernels (not Python overhead) dominate.
DEFAULT_PILOT_PROBLEM = ReconstructionProblem(
    nu=24, nv=24, np_=8, nx=16, ny=16, nz=16
)


class BatchedDispatcher:
    """Runs each placed job's pilot reconstruction on a worker pool.

    Parameters
    ----------
    workers:
        Pool width — how many placements execute concurrently.
    backend:
        Compute backend the pilots run on (the service passes its own, so
        "every rank of this cluster runs one backend" stays true for the
        real executions too).
    pilot_problem:
        The scaled-down problem every pilot solves (a
        :class:`ReconstructionProblem` or spec string).  The pilot input
        stack is seeded and built once; workers share it read-only.
    streaming_chunk_size:
        Pilots execute through the chunk driver
        (:class:`~repro.streaming.StreamingReconstructor` fed by a
        :class:`~repro.streaming.StackChunkSource` over the shared pilot
        stack); this sets its chunk size, ``None`` meaning one chunk (the
        whole stack).  Output is bit-identical either way, so this is a
        service *configuration*, not a plan field.
    """

    def __init__(
        self,
        workers: int,
        *,
        backend: str = "parallel",
        pilot_problem: Union[ReconstructionProblem, str, None] = None,
        streaming_chunk_size: Optional[int] = None,
    ):
        from ..backends import check_workers, get_backend  # late: backends import core

        self.workers = check_workers(workers)
        self._backend = get_backend(backend)
        if pilot_problem is None:
            pilot_problem = DEFAULT_PILOT_PROBLEM
        elif isinstance(pilot_problem, str):
            pilot_problem = problem_from_string(pilot_problem)
        self.pilot_problem = pilot_problem
        self._geometry = default_geometry_for_problem(
            nu=pilot_problem.nu, nv=pilot_problem.nv, np_=pilot_problem.np_,
            nx=pilot_problem.nx, ny=pilot_problem.ny, nz=pilot_problem.nz,
        )
        rng = np.random.default_rng(2026)
        self._stack = ProjectionStack(
            data=rng.standard_normal(
                (pilot_problem.np_, pilot_problem.nv, pilot_problem.nu)
            ).astype(np.float32),
            angles=self._geometry.angles,
            filtered=True,  # pilots exercise the back-projection hot path
        )
        from ..streaming import StackChunkSource, StreamingReconstructor

        # One shared reconstructor over the service's backend instance:
        # each run builds its own accumulator, so concurrent pilots are
        # independent.
        self._streaming = StreamingReconstructor(
            self._geometry, backend=self._backend, chunk_size=streaming_chunk_size
        )
        self._source = StackChunkSource(self._stack)
        self._run_pilot = (
            partial(self._streaming.reconstruct_stack, self._stack)
            if streaming_chunk_size is None
            else partial(self._streaming.reconstruct, self._source)
        )
        self.streaming_chunk_size = streaming_chunk_size
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._pending: List[Future] = []
        self._epoch = time.perf_counter()
        self.batches_dispatched = 0
        self.jobs_executed = 0
        self.busy_worker_seconds = 0.0

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        return self._backend.name

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=DISPATCH_THREAD_PREFIX,
                )
            return self._executor

    def dispatch(self, placements: Sequence[Placement]) -> None:
        """Queue one scheduling cycle's placements as a single batch.

        The ambient tracer is captured *here*, on the dispatching thread:
        each pilot's ``dispatch.execute`` span runs on a pool thread, where
        thread-local ambience does not reach, so the tracer and the batch
        span's id travel with the task explicitly.
        """
        placements = list(placements)
        if not placements:
            return
        executor = self._ensure()
        tracer = get_tracer()
        # The lock only guards the counters and the pending list, never the
        # submit loop: ``_execute``'s completion accounting on pool threads
        # takes the same lock, so holding it across every ``submit`` call
        # would serialize fast pilots behind the dispatching thread.
        with self._lock:
            self.batches_dispatched += 1
        with tracer.span("dispatch.batch", jobs=len(placements)) as batch:
            parent = batch.span_id if tracer.enabled else None
            for placement in placements:
                future = executor.submit(
                    self._execute, placement.job, tracer, parent
                )
                with self._lock:
                    self._pending.append(future)

    def _execute(
        self,
        job: ReconstructionJob,
        tracer: Tracer = NULL_TRACER,
        parent: Optional[int] = None,
    ) -> None:
        start = time.perf_counter() - self._epoch
        with tracer.span(
            "dispatch.execute",
            payload_bytes=int(self._stack.data.nbytes),
            parent=parent,
            job=job.job_id,
            backend=self.backend,
            streaming=self.streaming_chunk_size is not None,
        ):
            self._run_pilot()
        finish = time.perf_counter() - self._epoch
        # One pool slot per job, times the backend's own worker fan-out.
        occupied = getattr(self._backend, "workers", 1)
        job.mark_executed(start, finish, workers=occupied)
        with self._lock:
            self.jobs_executed += 1
            self.busy_worker_seconds += (finish - start) * occupied

    def drain(self) -> None:
        """Block until every dispatched execution has finished.

        Failures propagate to the caller (the first one raises), after all
        other pending executions have been collected.
        """
        while True:
            with self._lock:
                pending, self._pending = self._pending, []
            if not pending:
                return
            first_error: Optional[BaseException] = None
            for future in pending:
                try:
                    future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error

    def reset_accounting(self) -> None:
        """Zero the cumulative counters for a fresh replay.

        Refuses while executions are pending — accounting may only be reset
        at a quiescent point (the service drains first).
        """
        with self._lock:
            if self._pending:
                raise RuntimeError("cannot reset accounting with executions pending")
            self.batches_dispatched = 0
            self.jobs_executed = 0
            self.busy_worker_seconds = 0.0
            self._epoch = time.perf_counter()

    def close(self) -> None:
        """Drain (propagating any pilot failure) and join every worker thread."""
        try:
            self.drain()
        finally:
            with self._lock:
                executor, self._executor = self._executor, None
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> "BatchedDispatcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
