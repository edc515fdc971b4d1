"""Per-rank runtime of the iFDK pipeline (Section 4.1.3 / Figure 4).

Each MPI rank runs the stages of Figure 4a in order on its own thread, a
*step* at a time.  A step is ``s = max(1, N_batch // R)`` AllGather rounds, so
its ``s·R`` projections are one §4.1.5 batch wherever ``R ≤ N_batch``:

* **Load + filter** — reads this rank's ``s`` projections of the step from
  the PFS at once and filters them (Algorithm 1) in one call.
* **AllGather** — shares the filtered step with the other ranks of its
  *column* in one ``MPI_Allgather``, straight into round-major, i.e.
  projection, order.  Angles are the dataset's.
* **Back-projection** — stages the gathered step "host to device" and
  back-projects it into this rank's Z slab in one call of the selected kernel
  (Algorithm 4 by default).  After the last step the rank copies the
  sub-volume "device to host", reduces it across its *row* with
  ``MPI_Reduce`` and (on the row root) stores the slab to the PFS.

The paper overlaps these stages on three threads because they run on
different hardware: CPUs filter while a GPU back-projects.  Here every stage
runs on the same cores, so threads only contend for them; the overlap lives
where the paper quantifies it, in the performance model
(:mod:`~repro.pipeline.perfmodel`: Eq. 17's ``T_compute`` and Table 5's δ).
The numerics run on the CPU after
:meth:`~repro.pipeline.config.IFDKConfig.validate_device_memory` has held the
rank's sub-volume and projection batch to the V100 capacity (Section 4.1.5).
Every stage is timed as a plain :class:`repro.obs.Span` tagged ``rank=`` /
``stage=``, with the thread's CPU time in ``cpu_s`` beside the wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.filtering import _pocketfft
from ..core.types import ProjectionStack
from ..gpusim.kernels import get_kernel
from ..mpi.communicator import SimCommunicator
from ..obs import Span, Tracer
from ..pfs.projection_io import dataset_angles, read_projection_subset
from ..pfs.storage import SimulatedPFS
from ..pfs.volume_io import write_volume_slices
from .config import IFDKConfig
from .decomposition import Decomposition

__all__ = ["RankResult", "run_rank"]

#: The stages of Figure 4, in pipeline order.
STAGES = ("load", "filter", "allgather", "h2d", "backprojection", "d2h", "reduce", "store")


@dataclass
class RankResult:
    """What one rank reports back after the reconstruction."""

    rank: int
    row: int
    column: int
    projections_filtered: int
    projections_backprojected: int
    stored_slab: Optional[Tuple[int, int]]
    stage_seconds: Dict[str, float]
    #: The same stages' thread CPU time: ``stage_seconds`` less the waiting.
    stage_cpu_seconds: Dict[str, float]
    overlap_delta: float
    #: The stage spans, on the ``time.perf_counter`` clock itself (ranks share
    #: no tracer epoch), so runs and ranks compare on one timeline.
    spans: List[Span] = field(default_factory=list)


def _overlap_delta(spans: Iterable[Span], stages: Tuple[str, ...]) -> float:
    """The paper's δ over ``stages``: summed stage time divided by elapsed
    wall time.  δ > 1 means the stages genuinely overlapped (Table 5's
    criterion for the pipelining being effective)."""
    spans = [span for span in spans if span.name in stages]
    if not spans:
        return 0.0
    total = sum(span.duration for span in spans)
    wall = max(span.stop for span in spans) - min(span.start for span in spans)
    return total / wall if wall > 0 else float("inf")


def run_rank(
    comm: SimCommunicator,
    config: IFDKConfig,
    pfs: SimulatedPFS,
    *,
    volume_name: str = "reconstruction",
) -> RankResult:
    """The SPMD program of one iFDK rank (to be launched by ``run_spmd``)."""
    if comm.size != config.n_ranks:
        raise ValueError(
            f"communicator has {comm.size} ranks but the configuration needs "
            f"{config.n_ranks} (R={config.rows}, C={config.columns})"
        )
    config.validate_device_memory()
    decomposition = Decomposition(config)
    assignment = decomposition.assignment(comm.rank)
    # Figure 3: a column shares its projections, a row reduces its slab.
    column_comm = comm.Split(color=assignment.column, key=assignment.row)
    row_comm = comm.Split(color=assignment.row, key=assignment.column)

    tracer = Tracer()
    geometry = config.geometry
    backend = config.compute_backend()
    all_angles = dataset_angles(pfs)
    rounds = config.projections_per_rank
    per_step = max(1, config.projection_batch // config.rows)

    @contextmanager
    def stage(name: str, payload_bytes: int = 0):
        with tracer.span(name, payload_bytes, rank=comm.rank, stage=name) as span:
            cpu = time.thread_time()
            yield
            span.attrs["cpu_s"] = time.thread_time() - cpu

    # Loaded before the first filter stage's clock starts (filter_stack does
    # so before its span): the stage times filtering, not a library load.
    _pocketfft()
    # load -> filter -> AllGather -> back-project, a step at a time (Figure 4a)
    accumulator = backend.accumulator(
        geometry, algorithm=get_kernel(config.kernel).algorithm, z_range=assignment.z_range
    )
    projections = 0
    for first in range(0, rounds, per_step):
        step = range(first, min(first + per_step, rounds))
        indices = assignment.owned_projections[step.start:step.stop]
        with stage("load", geometry.nu * geometry.nv * 4 * len(indices)):
            stack = read_projection_subset(pfs, indices)
        with stage("filter"):
            filtered = backend.filter_stack(stack, geometry, config.ramp_filter).data
        # Step arrays die at their last use: kept to the next step they cost 6 % peak RSS.
        del stack
        # Round ``t`` of column rank ``r'`` lands at ``t·R + r'``: projection order.
        batch = np.empty((len(step), config.rows) + filtered.shape[1:], filtered.dtype)
        with stage("allgather", int(batch.nbytes)):
            column_comm.Allgather(filtered, batch.swapaxes(0, 1))
        del filtered
        expected = [decomposition.allgather_round_indices(assignment.column, t) for t in step]
        owned = tuple(round_indices[assignment.row] for round_indices in expected)
        if indices != owned:
            raise RuntimeError(f"rank {comm.rank} filtered {indices}, not {owned}")
        with stage("h2d", int(batch.nbytes)):
            angles = all_angles[np.concatenate(expected)]
            staged = ProjectionStack(batch.reshape(-1, *batch.shape[2:]), angles, filtered=True)
        with stage("backprojection", int(batch.nbytes)):
            accumulator.add_stack(staged)
        projections += staged.np_
        del batch, staged

    # ------------------------------------------------------------------ #
    # Post-processing: D2H, row Reduce, store (Figure 4b)
    # ------------------------------------------------------------------ #
    subvolume = accumulator.volume().data
    with stage("d2h", int(subvolume.nbytes)):
        host_subvolume = np.ascontiguousarray(subvolume)

    with stage("reduce", int(subvolume.nbytes)):
        reduced = row_comm.Reduce(host_subvolume, root=0)

    stored_slab: Optional[Tuple[int, int]] = None
    if row_comm.rank == 0:
        with stage("store", int(host_subvolume.nbytes)):
            write_volume_slices(
                pfs, volume_name, reduced, z_offset=assignment.z_range[0], slices_per_file=1
            )
        stored_slab = assignment.z_range

    comm.Barrier()

    spans = [
        replace(span, start=span.start + tracer.t0, stop=span.stop + tracer.t0)
        for span in tracer.spans()
    ]
    return RankResult(
        rank=comm.rank,
        row=assignment.row,
        column=assignment.column,
        projections_filtered=len(assignment.owned_projections),
        projections_backprojected=projections,
        stored_slab=stored_slab,
        stage_seconds={**dict.fromkeys(STAGES, 0.0), **tracer.stage_totals()},
        stage_cpu_seconds={
            name: sum(s.attrs["cpu_s"] for s in spans if s.name == name) for name in STAGES
        },
        overlap_delta=_overlap_delta(
            spans, ("load", "filter", "allgather", "backprojection", "h2d")
        ),
        spans=spans,
    )
