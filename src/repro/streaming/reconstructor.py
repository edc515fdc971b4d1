"""The chunk driver: the one filter→back-project loop of the repo.

:class:`StreamingReconstructor` pulls bounded chunks from a
:class:`~repro.streaming.ProjectionChunkSource`, filters each through the
shared driver (:meth:`ComputeBackend.filter_stack` with the scenario's
redundancy rows sliced to the chunk) and folds it into one persistent
:class:`~repro.backends.base.VolumeAccumulator`.  Filtering the whole
``(Np, Nv, Nu)`` stack and then back-projecting it is the one-chunk case of
the same loop (:meth:`StreamingReconstructor.reconstruct_stack`) — that is
all :class:`~repro.core.fdk.FDKReconstructor` and a non-streaming
:class:`~repro.api.Session` do.

On the compiled kernel executor (:mod:`repro.backends.native`) the stages
run strictly in turn, filter and shards on all ``workers``: its kernel
releases the GIL, so a second shard buys more than hiding the filter does.
On the NumPy executor — a host without a C compiler — a run with a second
worker, more than one chunk and a filter-bound geometry
(:data:`OVERLAP_MIN_FILTER_SHARE`) is the paper's Fig. 4a pipeline at depth
two: a producer thread reads and filters chunk *n + 1* while the calling
thread back-projects chunk *n* on the other ``workers - 1`` shards.

Bit-identity is the design invariant, not an accident:

* every filtering table (cosine weights, ramp response, FDK scale) depends
  only on the geometry, and the per-row FFT convolution is independent of
  how rows are batched — so a chunk's filtered rows equal the same rows of
  the whole-stack filtering bit-for-bit;
* the scenario redundancy table is ``(Np, Nu)`` and slices cleanly to each
  chunk's global projection window;
* back-projection is a sum over projections, and chunks are accumulated in
  acquisition order through one accumulator, whichever thread filtered
  them — the floating-point accumulation order is *exactly* the
  whole-stack order, on every backend (``parallel`` included: its shards
  accumulate each tile in sequential stack order per dispatch).

``tests/test_streaming.py`` pins that invariant across the full
backend × scenario × dtype × chunk-size matrix, in turn and overlapped.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Tuple, Union

from ..backends.base import ComputeBackend
from ..backends.tiled import WORKER_THREAD_PREFIX
from ..core.filtering import RAMP_FILTERS
from ..core.geometry import CBCTGeometry
from ..core.types import ProjectionStack, Volume
from ..obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    get_tracer,
    peak_rss_bytes,
)
from ..pipeline.circular_buffer import ahead
from .chunks import (
    _fft_pad,
    chunk_working_set_bytes,
    plan_chunks,
    resolve_chunk_size,
)
from .sources import ProjectionChunkSource, StackChunkSource, StreamingError

__all__ = ["StreamingReconstructor", "StreamingResult", "reconstruct_streaming"]

#: FALLBACK ONLY — read when the kernel executor is ``numpy`` (no compiler on
#: the host); ROADMAP item 3 replaces it and :func:`_filter_share` with the
#: calibrated cost model.  The estimated filter share of a projection's work
#: from which a chunked run with a second worker overlaps its stages.  That
#: hands one worker to the filter thread and cuts the shards for the other
#: ``workers - 1``: it pays only where hiding the filter beats one more shard,
#: and only while the kernel holds the GIL (a second NumPy shard buys 1.07x).
#: NumPy executor, two workers on a 2-vCPU Xeon, 14 geometries in fresh
#: processes — op ms overlapped / in turn, by estimated share:
#: .06 383/313, .20 397/346, .31 197/194, .34 227/224, .41 387/339, .49 401/410
#: | .55 101/155, .58 338/361 (``stream_pfs_par``), .59 214/377, .90 171/240.
#: Below, a run is the in-turn loop on ``workers`` shards; that forgoes 3-40 % on
#: four 32³-48³ volumes (.31 101/167, .41 135/167, .44 260/267, .45 174/188)
#: where the second NumPy *shard* is what costs.
#:
#: The compiled executor never overlaps (``_run`` reads the accumulator's
#: ``executor``).  Same host, same protocol, 14 geometries — op ms overlapped
#: / in turn / in turn on ONE worker, by estimated share: .05 218/143/232,
#: .20 123/104/174, .31 45/54/67 (128x128x128->32^3; three re-runs 68/70,
#: 68/71, 68/71: a 3-4 % tie, the one row not won in turn), .34 113/102/172,
#: .41 318/259/456, .41 83/72/116, .43 239/165/290, .45 107/86/148,
#: .49 296/229/398, .53 133/103/178, .58 284/205/350 (``stream_pfs_par``),
#: .59 216/162/277, .69 137/102/167, .90 153/101/147.  No geometry loses more
#: than 5 % in turn, so none keeps the overlap; and the second shard, which
#: cost up to 40 % on 32^3-48^3 volumes, now buys 1.24-1.76x on every row.
OVERLAP_MIN_FILTER_SHARE = 0.5

#: The overlapped loop's filter stage: one chunk ahead and no more, so a run
#: under a memory budget has at most two chunks in flight.
_one_ahead = partial(ahead, depth=1, name=WORKER_THREAD_PREFIX + "-filter")


def _filter_share(geometry: CBCTGeometry, nz: int) -> float:
    """FALLBACK ONLY (the NumPy executor's overlap rule, fitted on its
    kernel).  Estimated filter share of one projection's single-thread work.  In
    units of 1.5 ns the filter costs ``Nv·pad·log2(pad) / 2``, the kernel
    ``Nx·Ny·(5·Nz + Nv)`` (voxel updates plus per-column detector tables):
    nine geometries, shares within 0.06 from 32³ to 128³ (16³: 0.90 for 0.72,
    its per-projection overhead is not modelled)."""
    pad = _fft_pad(geometry.nu)
    filtering = geometry.nv * pad * (pad.bit_length() - 1) / 2
    return filtering / (filtering + geometry.nx * geometry.ny * (5 * nz + geometry.nv))


def plan_fields(plan) -> dict:
    """The reconstructor arguments a single-node plan describes.

    Shared by :meth:`StreamingReconstructor.from_plan` and
    :meth:`FDKReconstructor.from_plan <repro.core.fdk.FDKReconstructor.from_plan>`:
    the scenario is resolved and its geometry derived, so the reconstructor
    is ready for the scenario-shaped stack.
    """
    scenario = plan.resolved_scenario()
    return dict(
        geometry=plan.scenario_geometry(),
        ramp_filter=plan.ramp_filter,
        algorithm=plan.algorithm,
        backend=plan.backend,
        scenario=None if scenario.is_ideal else scenario,
        workers=plan.workers,
    )


@dataclass
class StreamingResult:
    """Outcome of one streaming reconstruction, with chunk accounting."""

    volume: Volume
    num_projections: int
    chunk_size: int
    chunk_count: int
    #: Filter time on the critical path: the stage's own time in turn; when
    #: overlapped, its part of the driver's waits (the rest is the source's).
    filter_seconds: float
    backprojection_seconds: float
    #: The filter stage's busy time, wherever it ran.
    filter_busy_seconds: float
    #: Over-estimated streaming working set of one executed chunk.
    working_set_bytes: int
    #: The budget the run was planned under (``None`` = unconstrained).
    memory_budget_bytes: Optional[int]
    #: Process-lifetime peak RSS sampled after the last chunk.
    peak_rss_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.backprojection_seconds

    @property
    def overlap_delta(self) -> float:
        """The paper's δ: stage busy time over critical path (1 in turn)."""
        busy = self.filter_busy_seconds + self.backprojection_seconds
        return busy / self.total_seconds if self.total_seconds > 0 else 1.0


class StreamingReconstructor:
    """Chunked FDK reconstruction under an explicit memory budget.

    Parameters mirror :class:`~repro.core.fdk.FDKReconstructor` (geometry,
    ramp filter, algorithm, Z slab, backend, scenario, workers) plus the
    streaming knobs:

    chunk_size:
        Projections per chunk (``None`` derives it from the budget, or
        falls back to :data:`~repro.streaming.DEFAULT_CHUNK_SIZE`).
    memory_budget_bytes:
        Upper bound on the streaming working set (see
        :func:`~repro.streaming.chunk_working_set_bytes` for exactly what
        is counted).  Chunk planning never exceeds it; an infeasible
        combination raises :class:`ValueError` up front.
    backend:
        A backend *name* (resolved through the registry, with ``workers``
        sizing a dedicated pool exactly as on ``FDKReconstructor``) or a
        live :class:`ComputeBackend` instance (used as-is; ``workers``
        must then be ``None``).
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

        A ``streaming: true`` plan runs :meth:`reconstruct` under its
        ``chunk_size`` / ``memory_budget_bytes``; any other plan runs
        :meth:`reconstruct_stack` and never consults them.
        """
        return cls(
            **plan_fields(plan),
            chunk_size=plan.chunk_size,
            memory_budget_bytes=plan.memory_budget_bytes,
            metrics=metrics,
        )

    def close(self) -> None:
        """Join the worker pool of a dedicated ``parallel`` backend."""
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
        chunk = resolve_chunk_size(
            self.geometry, np_total,
            chunk_size=self.chunk_size,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        return self._run(source, chunk, get_tracer())

    def reconstruct_stack(self, stack: ProjectionStack) -> StreamingResult:
        """The one-chunk case: filter the whole stack, then back-project it.

        The stack's own angles and projection count define the run, so a
        subset or sparse-view stack of the acquisition is accepted — only a
        scenario's ``(Np, Nu)`` redundancy table pins the count.  The trace
        carries the stage spans (``filter``, ``backproject``) without
        per-chunk wrappers.
        """
        if self.redundancy is not None and stack.np_ != self.geometry.np_:
            raise ValueError(
                f"scenario {self.scenario.name!r} weights "
                f"{self.geometry.np_} projections but the stack has {stack.np_}"
            )
        return self._run(StackChunkSource(stack), stack.np_, NULL_TRACER)

    def _filtered_chunks(
        self, source: ProjectionChunkSource, bounds, span, backend
    ) -> Iterator[tuple]:
        """The filter half of a step, on ``backend`` under a ``span``:
        ``(index, chunk, filtered, seconds reading, seconds filtering)``."""
        resumed = time.perf_counter()
        for index, piece in enumerate(source.chunks(bounds)):
            if index >= len(bounds) or (piece.start, piece.stop) != bounds[index]:
                raise StreamingError(
                    f"source yielded chunk [{piece.start}, {piece.stop}) "
                    f"where the plan expected "
                    f"{bounds[index] if index < len(bounds) else 'no chunk'}"
                )
            stack = piece.stack
            t0 = time.perf_counter()
            if stack.filtered:
                if self.redundancy is not None:
                    raise ValueError(
                        f"scenario {self.scenario.name!r} applies redundancy "
                        "weights in the filtering stage, but this source "
                        "delivers pre-filtered projections (already filtered): "
                        "filter raw projections here, or drop the scenario"
                    )
                filtered = stack
            else:
                with span(
                    payload_bytes=int(stack.data.nbytes),
                    chunk=index, start=piece.start, stop=piece.stop,
                ):
                    # The chunk's rows of the scenario's (Np, Nu) table.
                    filtered = backend.filter_stack(
                        stack, self.geometry, self.ramp_filter,
                        redundancy=None if self.redundancy is None
                        else self.redundancy[piece.start:piece.stop],
                    )
            t1 = time.perf_counter()
            yield index, piece, filtered, t0 - resumed, t1 - t0
            resumed = time.perf_counter()

    def _run(
        self, source: ProjectionChunkSource, chunk: int, tracer
    ) -> StreamingResult:
        """The filter→accumulate loop (``tracer`` records the chunk spans);
        overlapped, :func:`_one_ahead` runs the same filter steps on a thread."""
        np_total = int(source.num_projections)
        bounds = plan_chunks(np_total, chunk)
        workers = self.backend.workers
        z0, z1 = self.z_range or (0, self.geometry.nz)
        filters = self.backend
        acc = filters.accumulator(
            self.geometry, algorithm=self.algorithm, z_range=self.z_range
        )
        # Overlap costs the shards a worker, so it can pay only while the
        # kernel executor holds the GIL; the compiled one runs in turn.
        overlap = len(bounds) > 1 and workers >= 2 and acc.executor == "numpy" and (
            _filter_share(self.geometry, z1 - z0) >= OVERLAP_MIN_FILTER_SHARE
        )
        if overlap:  # one worker filters ahead, the shards are cut for the rest
            filters = self.backend.on_workers(1)
            acc = self.backend.on_workers(workers - 1).accumulator(
                self.geometry, algorithm=self.algorithm, z_range=self.z_range
            )
        chunk_counter = self.metrics.counter("streaming.chunks")
        # Whichever thread filters, its spans hang under the caller's.
        span = partial(tracer.span, "filter.chunk", parent=tracer.current_span_id())
        steps = self._filtered_chunks(source, bounds, span, filters)
        filter_busy = filter_waited = backproject_seconds = 0.0
        delivered = 0
        with closing(_one_ahead(steps) if overlap else steps) as filtered_chunks:
            asked = time.perf_counter()
            for index, piece, filtered, reading, busy in filtered_chunks:
                t1 = time.perf_counter()
                # The filter's part of the wait (the rest is the source's).
                filter_waited += (t1 - asked) * busy / ((reading + busy) or 1.0)
                filter_busy += busy
                with tracer.span(
                    "backproject.chunk",
                    payload_bytes=int(filtered.data.nbytes),
                    chunk=index, start=piece.start, stop=piece.stop,
                ):
                    acc.add_stack(filtered)
                asked = time.perf_counter()
                backproject_seconds += asked - t1
                delivered += piece.size
                chunk_counter.inc()
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
            filter_seconds=filter_waited if overlap else filter_busy,
            filter_busy_seconds=filter_busy,
            backprojection_seconds=backproject_seconds,
            working_set_bytes=chunk_working_set_bytes(self.geometry, chunk),
            memory_budget_bytes=self.memory_budget_bytes,
            peak_rss_bytes=rss,
        )


def reconstruct_streaming(
    source: Union[ProjectionChunkSource, ProjectionStack],
    geometry: CBCTGeometry,
    *,
    ramp_filter: str = "ram-lak",
    algorithm: str = "proposed",
    backend: Union[str, ComputeBackend] = "reference",
    scenario: Optional[object] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
) -> StreamingResult:
    """One-call streaming reconstruction (a bare stack is wrapped)."""
    if isinstance(source, ProjectionStack):
        source = StackChunkSource(source)
    with StreamingReconstructor(
        geometry,
        ramp_filter=ramp_filter,
        algorithm=algorithm,
        backend=backend,
        scenario=scenario,
        workers=workers,
        chunk_size=chunk_size,
        memory_budget_bytes=memory_budget_bytes,
    ) as reconstructor:
        return reconstructor.reconstruct(source)
