"""The chunk driver: the one filter→back-project loop of the repo.

:class:`StreamingReconstructor` is the one single-node reconstructor and its
keyword constructor the one keyword surface; a
:class:`~repro.api.ReconstructionPlan` describes the same run
(:meth:`StreamingReconstructor.from_plan`).  It pulls bounded chunks from a
:class:`~repro.streaming.ProjectionChunkSource`, filters each through the
shared driver (:meth:`ComputeBackend.filter_stack` with the scenario's
redundancy rows sliced to the chunk) and folds it into one persistent
:class:`~repro.backends.base.VolumeAccumulator`.  An in-memory stack runs
through the same loop at the same resolved chunk
(:meth:`StreamingReconstructor.reconstruct_stack`: the constructor's
``chunk_size`` or budget, else
:data:`~repro.streaming.chunks.DEFAULT_CHUNK_SIZE` projections per backend
worker) — that is all a non-streaming :class:`~repro.api.Session` does — so
no run holds a second ``(Np, Nv, Nu)`` array of filtered rows.

Every run has one schedule, whichever kernel executor back-projects: each
chunk is read, filtered on all of the backend's ``workers``, then
back-projected on all of them, in acquisition order.  The paper overlaps the
two stages (Fig. 4) because they run on different hardware, the filter on
CPUs beside a GPU back-projection; here both share the same cores.

Bit-identity is the design invariant, not an accident:

* every filtering table (cosine weights, ramp response, FDK scale) depends
  only on the geometry, and the per-row FFT convolution is independent of
  how rows are batched — so a chunk's filtered rows equal the same rows of
  a one-chunk filtering bit-for-bit;
* the scenario redundancy table is ``(Np, Nu)`` and slices cleanly to each
  chunk's global projection window;
* back-projection is a sum over projections, and chunks are accumulated in
  acquisition order through one accumulator — the floating-point
  accumulation order is *exactly* the one-chunk order, on every backend
  (``parallel`` included: its shards accumulate each tile in sequential
  stack order per dispatch).

``tests/test_streaming.py`` pins that invariant across the full
backend × scenario × dtype × chunk-size matrix, on every kernel executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..backends.base import ComputeBackend
from ..core.filtering import RAMP_FILTERS, _pocketfft
from ..core.geometry import CBCTGeometry
from ..core.types import ProjectionStack, Volume
from ..obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    get_tracer,
    peak_rss_bytes,
)
from .chunks import chunk_working_set_bytes, plan_chunks, resolve_chunk_size
from .sources import ProjectionChunkSource, StackChunkSource, StreamingError

__all__ = ["StreamingReconstructor"]


@dataclass
class StreamingResult:
    """Outcome of one streaming reconstruction, with chunk accounting."""

    volume: Volume
    num_projections: int
    chunk_size: int
    chunk_count: int
    filter_seconds: float
    backprojection_seconds: float
    #: Over-estimated streaming working set of one executed chunk.
    working_set_bytes: int
    #: The budget the run was planned under (``None`` = unconstrained).
    memory_budget_bytes: Optional[int]
    #: Process-lifetime peak RSS sampled after the last chunk.
    peak_rss_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.backprojection_seconds


class StreamingReconstructor:
    """FDK reconstruction in chunks, of a whole stack or a chunk source.

    Parameters
    ----------
    geometry:
        Acquisition geometry (detector, trajectory and volume description).
    ramp_filter:
        One of :data:`repro.core.filtering.RAMP_FILTERS`.
    algorithm:
        Back-projection algorithm: ``"proposed"`` (Algorithm 4, default) or
        ``"standard"`` (Algorithm 2).
    z_range:
        Optional Z slab to reconstruct.
    backend:
        A backend *name* (``reference``, ``vectorized``, ``blocked`` or
        ``parallel``, resolved through the registry) or a live
        :class:`ComputeBackend` instance (used as-is; ``workers`` must then
        be ``None``).
    scenario:
        Optional acquisition scenario (an
        :class:`~repro.scenarios.scenario.AcquisitionScenario` or preset name).
        ``geometry`` must already be the scenario-shaped geometry (see
        :meth:`AcquisitionScenario.apply_geometry`); its per-projection
        redundancy-weight table rides into the filtering stage.
    workers:
        Worker-thread count for the ``parallel`` backend name.  When given,
        the reconstructor owns a dedicated pool (close it with
        :meth:`close` or a ``with`` block); on any other backend it raises
        :class:`ValueError`.  ``None`` uses the shared registry backend.
    chunk_size:
        Projections per chunk of :meth:`reconstruct` and
        :meth:`reconstruct_stack` (``None`` derives it from the budget, or
        falls back to :data:`~repro.streaming.chunks.DEFAULT_CHUNK_SIZE`
        per backend worker).
    memory_budget_bytes:
        Upper bound on the streaming working set (see
        :func:`~repro.streaming.chunk_working_set_bytes` for exactly what
        is counted).  Chunk planning never exceeds it; an infeasible
        combination raises :class:`ValueError` up front.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving the
        ``streaming.chunks`` counter and ``streaming.peak_rss_bytes``
        gauge; defaults to the process-wide no-op registry.
    """

    def __init__(
        self,
        geometry: CBCTGeometry,
        *,
        ramp_filter: str = "ram-lak",
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
        backend: Union[str, ComputeBackend] = "reference",
        scenario: Optional[object] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if ramp_filter not in RAMP_FILTERS:
            raise ValueError(
                f"unknown ramp filter {ramp_filter!r}; valid: {RAMP_FILTERS}"
            )
        if algorithm not in ("proposed", "standard"):
            raise ValueError("algorithm must be 'proposed' or 'standard'")
        self.geometry = geometry
        self.ramp_filter = ramp_filter
        self.algorithm = algorithm
        self.z_range = z_range
        self.chunk_size = chunk_size
        self.memory_budget_bytes = memory_budget_bytes
        self.metrics = metrics if metrics is not None else NULL_METRICS
        if isinstance(backend, ComputeBackend):
            if workers is not None:
                raise ValueError(
                    "workers only applies when the backend is given by name; "
                    "size the backend instance directly instead"
                )
            self.backend = backend
            self._owns_backend = False
        else:
            from ..backends import resolve_backend  # late: backends import core

            self.backend = resolve_backend(backend, workers=workers)
            # A dedicated pool (explicit workers) is ours to tear down;
            # shared registry backends are left alone.
            self._owns_backend = workers is not None
        if scenario is None:
            self.scenario = None
            #: The scenario's ``(Np, Nu)`` ray-redundancy table, if any.
            self.redundancy = None
        else:
            from ..scenarios import get_scenario  # late: scenarios import core

            self.scenario = get_scenario(scenario)
            self.redundancy = self.scenario.redundancy_weights(self.geometry)
        # Fail on an infeasible chunk/budget combination at construction,
        # before any source is opened or accumulator allocated.
        resolve_chunk_size(
            geometry, geometry.np_,
            chunk_size=chunk_size, memory_budget_bytes=memory_budget_bytes,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(
        cls, plan, *, metrics: Optional[MetricsRegistry] = None
    ) -> "StreamingReconstructor":
        """The executor a single-node plan describes.

        The plan's scenario is resolved and its geometry derived, so the
        reconstructor is ready for the scenario-shaped stack.  A
        ``streaming: true`` plan runs :meth:`reconstruct` under its
        ``chunk_size`` / ``memory_budget_bytes``; any other plan (which sets
        neither) runs :meth:`reconstruct_stack` at the default chunk.
        """
        scenario = plan.resolved_scenario()
        return cls(
            plan.scenario_geometry(),
            ramp_filter=plan.ramp_filter,
            algorithm=plan.algorithm,
            backend=plan.backend,
            scenario=None if scenario.is_ideal else scenario,
            workers=plan.workers,
            chunk_size=plan.chunk_size,
            memory_budget_bytes=plan.memory_budget_bytes,
            metrics=metrics,
        )

    def close(self) -> None:
        """Join the worker pool of a dedicated ``parallel`` backend.

        Idempotent; a no-op for shared registry backends and instances.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "StreamingReconstructor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    def reconstruct(self, source: ProjectionChunkSource) -> StreamingResult:
        """Stream every chunk of ``source`` into one reconstructed volume.

        The source must deliver exactly the acquisition the geometry
        describes; any shortfall, reordering beyond the source's window or
        bound mismatch raises (:class:`StreamingError` /
        :class:`TimeoutError`) — a partial volume is never returned.
        """
        np_total = int(source.num_projections)
        if np_total != self.geometry.np_:
            raise ValueError(
                f"source promises {np_total} projections but the geometry "
                f"acquires {self.geometry.np_}"
            )
        return self._run(source, self._chunk(np_total), get_tracer())

    def reconstruct_stack(self, stack: ProjectionStack) -> StreamingResult:
        """Filter and back-project an in-memory stack, chunk by chunk.

        The chunk is the one :meth:`reconstruct` resolves, so only one
        chunk of filtered rows is held at a time.  The stack's own angles
        and projection count define the run, so a subset or sparse-view
        stack of the acquisition is accepted — only a scenario's
        ``(Np, Nu)`` redundancy table pins the count.  The trace carries
        one ``filter`` and one ``backproject`` span per chunk, without
        per-chunk wrappers.
        """
        if self.redundancy is not None and stack.np_ != self.geometry.np_:
            raise ValueError(
                f"scenario {self.scenario.name!r} weights "
                f"{self.geometry.np_} projections but the stack has {stack.np_}"
            )
        return self._run(StackChunkSource(stack), self._chunk(stack.np_), NULL_TRACER)

    def _chunk(self, num_projections: int) -> int:
        """The chunk size a run of ``num_projections`` executes."""
        return resolve_chunk_size(
            self.geometry, num_projections,
            chunk_size=self.chunk_size,
            memory_budget_bytes=self.memory_budget_bytes,
            workers=self.backend.workers,
        )

    def _filtered(self, piece, index: int, tracer) -> ProjectionStack:
        """Chunk ``index`` filtered on all ``workers`` (pre-filtered: as is)."""
        stack = piece.stack
        if stack.filtered:
            if self.redundancy is not None:
                raise ValueError(
                    f"scenario {self.scenario.name!r} applies redundancy "
                    "weights in the filtering stage, but this source "
                    "delivers pre-filtered projections (already filtered): "
                    "filter raw projections here, or drop the scenario"
                )
            return stack
        with tracer.span(
            "filter.chunk",
            payload_bytes=int(stack.data.nbytes),
            chunk=index, start=piece.start, stop=piece.stop,
        ):
            # The chunk's rows of the scenario's (Np, Nu) table.
            return self.backend.filter_stack(
                stack, self.geometry, self.ramp_filter,
                redundancy=None if self.redundancy is None
                else self.redundancy[piece.start:piece.stop],
            )

    def _run(
        self, source: ProjectionChunkSource, chunk: int, tracer
    ) -> StreamingResult:
        """Read, filter and accumulate each chunk in turn, in acquisition
        order (``tracer`` records the chunk spans)."""
        np_total = int(source.num_projections)
        bounds = plan_chunks(np_total, chunk)
        # Loaded before the first chunk's clock starts (filter_stack does so
        # before its span): filter_seconds times filtering, not a load.
        _pocketfft()
        acc = self.backend.accumulator(
            self.geometry, algorithm=self.algorithm, z_range=self.z_range
        )
        chunk_counter = self.metrics.counter("streaming.chunks")
        filter_seconds = backproject_seconds = 0.0
        delivered = 0
        for index, piece in enumerate(source.chunks(bounds)):
            if index >= len(bounds) or (piece.start, piece.stop) != bounds[index]:
                raise StreamingError(
                    f"source yielded chunk [{piece.start}, {piece.stop}) "
                    f"where the plan expected "
                    f"{bounds[index] if index < len(bounds) else 'no chunk'}"
                )
            t0 = time.perf_counter()
            filtered = self._filtered(piece, index, tracer)
            t1 = time.perf_counter()
            with tracer.span(
                "backproject.chunk",
                payload_bytes=int(filtered.data.nbytes),
                chunk=index, start=piece.start, stop=piece.stop,
            ):
                acc.add_stack(filtered)
            filter_seconds += t1 - t0
            backproject_seconds += time.perf_counter() - t1
            delivered += piece.size
            chunk_counter.inc()
            # Drop this chunk's rows before the next one is filtered: one
            # chunk of filtered rows is held at a time.
            del piece, filtered
        if delivered != np_total:
            raise StreamingError(
                f"source delivered {delivered} of {np_total} projections — "
                "refusing to return a partial volume"
            )
        volume = acc.volume()
        rss = peak_rss_bytes()
        self.metrics.gauge("streaming.peak_rss_bytes").set(rss)
        return StreamingResult(
            volume=volume,
            num_projections=np_total,
            chunk_size=chunk,
            chunk_count=len(bounds),
            filter_seconds=filter_seconds,
            backprojection_seconds=backproject_seconds,
            working_set_bytes=chunk_working_set_bytes(self.geometry, chunk),
            memory_budget_bytes=self.memory_budget_bytes,
            peak_rss_bytes=rss,
        )

