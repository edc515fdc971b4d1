"""Per-rank runtime of the iFDK pipeline (Section 4.1.3 / Figure 4).

Each MPI rank runs three cooperating threads joined by circular buffers:

* **Filtering thread** — loads this rank's projections from the PFS and
  runs the filtering stage (Algorithm 1) on the CPU, pushing filtered
  projections into the first buffer.
* **Main thread** — pops filtered projections, shares them with the other
  ranks of its *column* through ``MPI_Allgather`` (one projection per rank
  per round), and pushes the gathered batch into the second buffer.  After
  the last round it waits for the BP thread, copies the sub-volume "device
  to host", reduces it across its *row* with ``MPI_Reduce`` and (on the row
  root) stores the slab to the PFS.
* **BP thread** — pops gathered batches, stages them "host to device" and
  back-projects them into this rank's Z slab with the selected kernel
  (Algorithm 4 by default).

The real paper offloads the BP thread's work to a physical GPU; here the
numerics run on the CPU while the :class:`~repro.gpusim.memory.DeviceMemoryPool`
enforces the V100 capacity constraint and the PCIe/collective cost models
record what the transfers would have cost at scale.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.types import ProjectionStack
from ..gpusim.kernels import get_kernel
from ..gpusim.memory import DeviceMemoryPool
from ..gpusim.transfer import PCIeModel
from ..mpi.communicator import SimCommunicator
from ..mpi.datatypes import ReduceOp
from ..mpi.grid import RankGrid2D
from ..pfs.projection_io import read_projection_subset
from ..pfs.storage import SimulatedPFS
from ..pfs.volume_io import write_volume_slices
from .circular_buffer import CircularBuffer
from .config import IFDKConfig
from .decomposition import Decomposition, RankAssignment
from .tracing import PipelineTracer, TraceEvent

__all__ = ["RankResult", "run_rank"]


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
    overlap_delta: float
    modelled_seconds: Dict[str, float]
    events: List[TraceEvent] = field(default_factory=list)
    device_peak_bytes: int = 0


def _filtering_thread(
    config: IFDKConfig,
    assignment: RankAssignment,
    pfs: SimulatedPFS,
    out_buffer: CircularBuffer,
    tracer: PipelineTracer,
    errors: List[BaseException],
) -> None:
    """Load + filter this rank's own projections, in AllGather-round order."""
    try:
        backend = config.compute_backend()
        for index in assignment.owned_projections:
            with tracer.span("load", payload_bytes=config.geometry.nu * config.geometry.nv * 4):
                stack = read_projection_subset(pfs, [index])
            with tracer.span("filter"):
                filtered = backend.filter_stack(
                    stack, config.geometry, config.ramp_filter
                ).data[0]
            out_buffer.put((index, float(stack.angles[0]), filtered))
    except BaseException as exc:  # noqa: BLE001 - surfaced by run_rank
        errors.append(exc)
    finally:
        out_buffer.close()


def _bp_thread(
    config: IFDKConfig,
    assignment: RankAssignment,
    in_buffer: CircularBuffer,
    tracer: PipelineTracer,
    errors: List[BaseException],
    result_holder: Dict[str, np.ndarray],
) -> None:
    """Back-project gathered batches into this rank's Z slab."""
    try:
        accumulator = config.compute_backend().accumulator(
            config.geometry,
            algorithm=get_kernel(config.kernel).algorithm,
            z_range=assignment.z_range,
        )
        projections = 0
        for angles, batch in in_buffer:
            with tracer.span("h2d", payload_bytes=int(batch.nbytes)):
                staged = ProjectionStack(data=batch, angles=angles, filtered=True)
            with tracer.span("backprojection", payload_bytes=int(batch.nbytes)):
                accumulator.add_stack(staged)
            projections += staged.np_
        result_holder["subvolume"] = accumulator.volume().data
        result_holder["projections"] = projections
    except BaseException as exc:  # noqa: BLE001 - surfaced by run_rank
        errors.append(exc)
    finally:
        in_buffer.close()  # a stopped consumer must not leave ``put`` blocked


def run_rank(
    comm: SimCommunicator,
    config: IFDKConfig,
    pfs: SimulatedPFS,
    *,
    volume_name: str = "reconstruction",
    pcie: Optional[PCIeModel] = None,
    buffer_capacity: int = 8,
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
    grid = RankGrid2D(rows=config.rows, columns=config.columns)
    position, column_comm, row_comm = grid.split(comm)
    assert (position.row, position.column) == (assignment.row, assignment.column)

    pcie = pcie or PCIeModel(device=config.device, gpus_per_node=config.gpus_per_node)
    tracer = PipelineTracer(rank=comm.rank)
    geometry = config.geometry

    # Device-memory accounting for this rank (Section 4.1.5 constraint).
    pool = DeviceMemoryPool(config.device, materialize=False)
    pool.allocate(
        "subvolume", (config.slab_thickness, geometry.ny, geometry.nx), np.float32
    )
    pool.allocate(
        "projection_batch", (config.projection_batch, geometry.nv, geometry.nu), np.float32
    )

    filtered_buffer: CircularBuffer = CircularBuffer(buffer_capacity)
    gathered_buffer: CircularBuffer = CircularBuffer(buffer_capacity)
    errors: List[BaseException] = []
    bp_output: Dict[str, np.ndarray] = {}

    filter_thread = threading.Thread(
        target=_filtering_thread,
        args=(config, assignment, pfs, filtered_buffer, tracer, errors),
        name=f"rank{comm.rank}-filter",
    )
    bp_thread = threading.Thread(
        target=_bp_thread,
        args=(config, assignment, gathered_buffer, tracer, errors, bp_output),
        name=f"rank{comm.rank}-bp",
    )
    filter_thread.start()
    bp_thread.start()

    # ------------------------------------------------------------------ #
    # Main thread: AllGather rounds (Figure 4a)
    # ------------------------------------------------------------------ #
    projection_shape = (geometry.nv, geometry.nu)
    angle_send = np.zeros(1, dtype=np.float64)
    rounds = config.projections_per_rank
    modelled = {"allgather": 0.0, "h2d": 0.0}
    try:
        for round_index in range(rounds):
            item = filtered_buffer.get()
            if item is None:
                raise RuntimeError(
                    "filtering thread ended before producing all projections"
                )
            index, angle, filtered = item
            angle_send[0] = angle
            with tracer.span("allgather", payload_bytes=int(filtered.nbytes) * config.rows):
                gathered = column_comm.Allgather(np.ascontiguousarray(filtered))
                gathered_angles = column_comm.Allgather(angle_send)[:, 0]
            expected = decomposition.allgather_round_indices(
                assignment.column, round_index
            )
            if index != expected[assignment.row]:
                raise RuntimeError(
                    f"rank {comm.rank} filtered projection {index} but round "
                    f"{round_index} expected {expected[assignment.row]}"
                )
            gathered_buffer.put((gathered_angles.copy(), gathered))
    except BaseException as exc:  # noqa: BLE001
        errors.append(exc)
    finally:
        gathered_buffer.close()
        filtered_buffer.close()  # releases a filtering thread blocked in put

    filter_thread.join()
    bp_thread.join()
    if errors:
        raise errors[0]  # the failure itself; later ones are its fallout

    # ------------------------------------------------------------------ #
    # Post-processing: D2H, row Reduce, store (Figure 4b)
    # ------------------------------------------------------------------ #
    subvolume = bp_output["subvolume"]
    with tracer.span("d2h", payload_bytes=int(subvolume.nbytes)):
        host_subvolume = np.ascontiguousarray(subvolume)
    modelled["d2h"] = pcie.transfer_seconds(int(subvolume.nbytes))

    with tracer.span("reduce", payload_bytes=int(subvolume.nbytes)):
        reduced = row_comm.Reduce(host_subvolume, op=ReduceOp.SUM, root=0)

    stored_slab: Optional[Tuple[int, int]] = None
    if row_comm.rank == 0:
        with tracer.span("store", payload_bytes=int(host_subvolume.nbytes)):
            modelled["store"] = write_volume_slices(
                pfs,
                volume_name,
                reduced,
                z_offset=assignment.z_range[0],
                slices_per_file=1,
            )
        stored_slab = assignment.z_range

    comm.Barrier()

    stage_seconds = {
        stage: tracer.stage_seconds(stage)
        for stage in ("load", "filter", "allgather", "h2d", "backprojection", "d2h", "reduce", "store")
    }
    return RankResult(
        rank=comm.rank,
        row=assignment.row,
        column=assignment.column,
        projections_filtered=len(assignment.owned_projections),
        projections_backprojected=int(bp_output["projections"]),
        stored_slab=stored_slab,
        stage_seconds=stage_seconds,
        overlap_delta=tracer.overlap_delta(
            ["load", "filter", "allgather", "backprojection", "h2d"]
        ),
        modelled_seconds=modelled,
        events=tracer.events(),
        device_peak_bytes=pool.peak_bytes,
    )
