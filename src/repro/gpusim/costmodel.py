"""Analytic throughput model for the back-projection kernels (Table 4).

The paper measures the kernels of Table 3 on a real V100; this environment
has no GPU, so Table 4 is regenerated from a roofline-style model whose
inputs are (a) the :class:`~repro.gpusim.device.DeviceSpec` constants and
(b) the per-kernel characteristics of :class:`~repro.gpusim.kernels.KernelVariant`.

Model
-----

For a problem ``Nu×Nv×Np → Nx×Ny×Nz`` the kernel performs
``U = Nx·Ny·Nz·Np`` voxel updates.  The execution time is::

    T = Np · T_prep(proj)  +  U · max(T_flop, T_mem)  +  T_layout

* ``T_prep`` — per-projection preparation: copying the projection into a
  texture array and/or transposing it (``projection_prep_passes`` full
  passes over its bytes at the device's layout-transformation bandwidth,
  with an L2-residency boost for small projections).
* ``T_flop`` — ``flops_per_update / effective FP32 throughput``.
* ``T_mem`` — per-update DRAM traffic divided by effective bandwidth.  The
  traffic is the detector read-path term (texture / L1 / global, from
  :mod:`repro.gpusim.texture`) plus the volume read-modify-write amortized
  over the ``Nbatch = 32`` projections staged per kernel launch.
* ``T_layout`` — the one-time volume transpose for kernels that keep the
  volume k-major (Table 3's "Transpose volume"), plus a per-launch kernel
  overhead.

Exact GUPS values are *not* expected to match the paper (that would require
the authors' silicon); the model is calibrated so that the qualitative
structure of Table 4 holds: the ordering of the kernels at small α, the
degradation of every kernel as α grows, the sensitivity of Bp-L1 to the
projection size, and the crossover where RTK-32 overtakes the proposed
kernels for tiny outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..core.types import ReconstructionProblem
from .device import DeviceSpec, TESLA_V100
from .kernels import DEFAULT_PROJECTION_BATCH, KERNEL_VARIANTS, KernelVariant

__all__ = [
    "BackprojectionCostModel",
    "predict_table4",
]

#: Sustained device-to-device bandwidth of a strided layout transformation
#: (transpose) relative to a straight copy.  Derived from the paper's own
#: observation that transposing a projection is "a small fraction" of the
#: back-projection time while still costing several passes over DRAM.
_TRANSPOSE_BANDWIDTH = 138e9
#: Sustained bandwidth of copying a projection into a texture (cudaArray).
_TEXTURE_COPY_BANDWIDTH = 336e9
#: Speed-up of layout transformations whose working set fits in L2.
_L2_RESIDENT_BOOST = 2.7


@dataclass(frozen=True)
class KernelTiming:
    """Predicted timing breakdown of one kernel on one problem."""

    kernel: str
    problem: ReconstructionProblem
    prep_seconds: float
    update_seconds: float
    layout_seconds: float
    supported: bool = True

    @property
    def total_seconds(self) -> float:
        return self.prep_seconds + self.update_seconds + self.layout_seconds

    @property
    def gups(self) -> float:
        """Giga-updates per second (the Table 4 metric)."""
        if not self.supported:
            return float("nan")
        return self.problem.gups(self.total_seconds)


class BackprojectionCostModel:
    """Roofline-style cost model for the Table 3 kernels on one device."""

    def __init__(
        self,
        device: DeviceSpec = TESLA_V100,
        *,
        projection_batch: int = DEFAULT_PROJECTION_BATCH,
    ):
        if projection_batch <= 0:
            raise ValueError("projection_batch must be positive")
        self.device = device
        self.projection_batch = int(projection_batch)

    # ------------------------------------------------------------------ #
    def _prep_seconds_per_projection(
        self, kernel: KernelVariant, projection_bytes: int
    ) -> float:
        """Per-projection preparation time (texture copy and/or transpose)."""
        launch = self.device.kernel_launch_overhead
        copy_bytes = 0.0
        transpose_bytes = 0.0
        if kernel.uses_texture:
            copy_bytes += 2.0 * projection_bytes  # read + write into cudaArray
        if kernel.transpose_projection:
            transpose_bytes += 2.0 * projection_bytes
        if not kernel.uses_texture and not kernel.transpose_projection:
            # The projection still has to be staged into device-friendly
            # layout once (a straight copy).
            copy_bytes += 2.0 * projection_bytes

        transpose_bw = _TRANSPOSE_BANDWIDTH
        if 2.0 * projection_bytes <= self.device.l2_cache_bytes:
            transpose_bw *= _L2_RESIDENT_BOOST
        return (
            launch
            + copy_bytes / _TEXTURE_COPY_BANDWIDTH
            + transpose_bytes / transpose_bw
        )

    def _seconds_per_update(
        self, kernel: KernelVariant, projection_bytes: int
    ) -> float:
        """Roofline per-update time: max(compute, memory)."""
        flop_time = kernel.flops_per_update / self.device.effective_fp32_flops
        detector_bytes = kernel.read_path.bytes_per_update(
            projection_bytes, self.device
        )
        volume_bytes = 8.0 / self.projection_batch  # read-modify-write, amortized
        mem_time = (detector_bytes + volume_bytes) / self.device.effective_dram_bandwidth
        return max(flop_time, mem_time)

    def _layout_seconds(self, kernel: KernelVariant, output_bytes: int) -> float:
        """One-time volume reshape for k-major kernels (Algorithm 4 line 22)."""
        if not kernel.transpose_volume:
            return 0.0
        return 2.0 * output_bytes / _TRANSPOSE_BANDWIDTH

    # ------------------------------------------------------------------ #
    def timing(
        self, kernel: KernelVariant, problem: ReconstructionProblem
    ) -> KernelTiming:
        """Predict the timing breakdown for ``kernel`` on ``problem``."""
        projection_bytes = problem.nu * problem.nv * 4
        output_bytes = problem.output_bytes()
        supported = kernel.supports_output_bytes(output_bytes) and (
            kernel.device_output_bytes(output_bytes)
            + self.projection_batch * projection_bytes
            <= self.device.global_memory_bytes
        )
        prep = problem.np_ * self._prep_seconds_per_projection(kernel, projection_bytes)
        update = problem.updates * self._seconds_per_update(kernel, projection_bytes)
        layout = self._layout_seconds(kernel, output_bytes)
        return KernelTiming(
            kernel=kernel.name,
            problem=problem,
            prep_seconds=prep,
            update_seconds=update,
            layout_seconds=layout,
            supported=supported,
        )

    def gups(self, kernel: KernelVariant, problem: ReconstructionProblem) -> float:
        """Predicted GUPS (``nan`` when the kernel cannot run the problem)."""
        return self.timing(kernel, problem).gups

    def table4_row(self, problem: ReconstructionProblem) -> Dict[str, float]:
        """Predicted GUPS of every Table 3 kernel for one problem."""
        return {
            kernel.name: self.gups(kernel, problem) for kernel in KERNEL_VARIANTS
        }


def predict_table4(
    problems: Iterable[ReconstructionProblem],
    device: DeviceSpec = TESLA_V100,
) -> List[Dict[str, object]]:
    """Predict the full Table 4: one row per problem, one column per kernel."""
    model = BackprojectionCostModel(device)
    rows: List[Dict[str, object]] = []
    for problem in problems:
        row: Dict[str, object] = {
            "problem": str(problem),
            "alpha": problem.alpha,
        }
        row.update(model.table4_row(problem))
        rows.append(row)
    return rows
