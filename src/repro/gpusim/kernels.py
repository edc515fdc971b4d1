"""The back-projection kernel variants of Table 3.

The paper compares five CUDA kernels on a V100 (Tables 3 and 4):

========  ============= ========= ===================== =================
Kernel    Texture cache L1 cache  Transpose projection  Transpose volume
========  ============= ========= ===================== =================
RTK-32    yes           no        no                    no
Bp-Tex    yes           no        no                    yes
Tex-Tran  yes           no        yes                   yes
Bp-L1     no            no        yes                   yes
L1-Tran   no            yes       yes                   yes
========  ============= ========= ===================== =================

RTK-32 executes the *standard* Algorithm 2; the other four execute the
*proposed* Algorithm 4 and differ only in their detector read path and
layout choices — which change performance, never results.  Accordingly a
:class:`KernelVariant` here is a Table 3 row plus the architectural
characteristics the throughput model of :mod:`repro.gpusim.costmodel` needs
to predict its GUPS on a given device.  Its voxel values are those of its
``algorithm`` on the ``reference`` backend
(``get_backend("reference").backproject(stack, geometry,
algorithm=kernel.algorithm)``).

Listing 1's ``shflBP`` has no lane-level model here: under a full mask its
``__shfl_sync`` hands every lane the registers of one lane, so the kernel
computes Algorithm 4's voxel values, which ``reference`` already computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .texture import ReadPathModel, read_path_for

__all__ = [
    "KernelVariant",
    "KERNEL_VARIANTS",
    "BP_L1",
    "L1_TRAN",
    "get_kernel",
    "DEFAULT_PROJECTION_BATCH",
]

#: ``Nbatch`` in Listing 1: projections staged per kernel launch.
DEFAULT_PROJECTION_BATCH = 32


@dataclass(frozen=True)
class KernelVariant:
    """One back-projection kernel variant (a row of Table 3).

    Attributes
    ----------
    name:
        The paper's kernel name.
    algorithm:
        ``"standard"`` (Algorithm 2) or ``"proposed"`` (Algorithm 4): what
        the ``reference`` backend's ``backproject`` runs for this kernel.
    uses_texture, uses_l1:
        Detector read path (mutually exclusive; neither means plain global
        loads through L2 only).
    transpose_projection, transpose_volume:
        Layout choices of Table 3.
    flops_per_update:
        Arithmetic cost of one voxel update (coordinate computation,
        weighting and bilinear interpolation).
    projection_prep_passes:
        Number of full passes over the projection's bytes needed before the
        kernel can use it (copy into a texture array and/or transpose).
    """

    name: str
    algorithm: str
    uses_texture: bool
    uses_l1: bool
    transpose_projection: bool
    transpose_volume: bool
    flops_per_update: float
    projection_prep_passes: float
    max_output_bytes: Optional[int] = None
    detector_bytes_base: Optional[float] = None
    detector_bytes_pressure: Optional[float] = None
    #: Device-memory footprint of the output volume relative to its size
    #: (RTK's dual-buffered volume needs 2x, which is why Table 4 marks its
    #: >8 GB outputs as N/A on a 16 GB V100).
    output_memory_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.algorithm not in ("standard", "proposed"):
            raise ValueError("algorithm must be 'standard' or 'proposed'")
        if self.uses_texture and self.uses_l1:
            raise ValueError("texture and L1 read paths are mutually exclusive")

    # ------------------------------------------------------------------ #
    @property
    def read_path(self) -> ReadPathModel:
        """Detector read-path model for the cost model.

        ``detector_bytes_base``/``detector_bytes_pressure`` override the
        defaults of the path class — used to express second-order locality
        effects the paper observes (e.g. the untransposed texture access of
        Bp-Tex is slightly less cache friendly than Tex-Tran's).
        """
        path = read_path_for(self.uses_texture, self.uses_l1)
        if self.detector_bytes_base is None and self.detector_bytes_pressure is None:
            return path
        from dataclasses import replace as _replace

        kwargs = {}
        if self.detector_bytes_base is not None:
            kwargs["base_bytes_per_update"] = self.detector_bytes_base
        if self.detector_bytes_pressure is not None:
            kwargs["cache_pressure_bytes"] = self.detector_bytes_pressure
        return _replace(path, **kwargs)

    def characteristics(self) -> Dict[str, bool]:
        """The Table 3 row for this kernel."""
        return {
            "Texture cache": self.uses_texture,
            "L1 cache": self.uses_l1,
            "Transpose projection": self.transpose_projection,
            "Transpose volume": self.transpose_volume,
        }

    def supports_output_bytes(self, nbytes: int) -> bool:
        """Whether the kernel can generate an output volume of ``nbytes``.

        ``max_output_bytes`` is an explicit cap; the dual-buffering of RTK is
        expressed through :attr:`output_memory_multiplier` and checked against
        the device capacity by the cost model.
        """
        if self.max_output_bytes is None:
            return True
        return nbytes <= self.max_output_bytes

    def device_output_bytes(self, nbytes: int) -> float:
        """Device-memory footprint of an output volume of ``nbytes``."""
        return self.output_memory_multiplier * nbytes


#: RTK 1.4.0's ``kernel_fdk_3Dgrid`` extended to 32-projection batches.
RTK_32 = KernelVariant(
    name="RTK-32",
    algorithm="standard",
    uses_texture=True,
    uses_l1=False,
    transpose_projection=False,
    transpose_volume=False,
    flops_per_update=36.0,
    projection_prep_passes=2.0,
    output_memory_multiplier=2.0,  # dual-buffered volume (Section 5.2)
)

#: shflBP reading the untransposed projection through the texture unit.
#: Its u-major access order makes the 2-D texture fetches slightly less
#: cache friendly than Tex-Tran's, which is what the paper observes when
#: comparing the two (Section 5.2, observation I).
BP_TEX = KernelVariant(
    name="Bp-Tex",
    algorithm="proposed",
    uses_texture=True,
    uses_l1=False,
    transpose_projection=False,
    transpose_volume=True,
    flops_per_update=20.0,
    projection_prep_passes=2.0,
    detector_bytes_base=6.6,
    detector_bytes_pressure=0.8,
)

#: shflBP with transposed projections, still through the texture unit.
TEX_TRAN = KernelVariant(
    name="Tex-Tran",
    algorithm="proposed",
    uses_texture=True,
    uses_l1=False,
    transpose_projection=True,
    transpose_volume=True,
    flops_per_update=20.0,
    projection_prep_passes=4.0,
)

#: shflBP with transposed projections read as plain global loads.
BP_L1 = KernelVariant(
    name="Bp-L1",
    algorithm="proposed",
    uses_texture=False,
    uses_l1=False,
    transpose_projection=True,
    transpose_volume=True,
    flops_per_update=20.0,
    projection_prep_passes=2.0,
)

#: The proposed kernel: transposed projection through ``__ldg``/L1.
L1_TRAN = KernelVariant(
    name="L1-Tran",
    algorithm="proposed",
    uses_texture=False,
    uses_l1=True,
    transpose_projection=True,
    transpose_volume=True,
    flops_per_update=20.0,
    projection_prep_passes=2.0,
)

#: All Table 3 kernels in the paper's column order.
KERNEL_VARIANTS = (RTK_32, BP_TEX, TEX_TRAN, BP_L1, L1_TRAN)

_KERNELS_BY_NAME = {k.name.lower(): k for k in KERNEL_VARIANTS}


def get_kernel(name: str) -> KernelVariant:
    """Look up a kernel variant by its Table 3 name (case insensitive)."""
    try:
        return _KERNELS_BY_NAME[name.lower()]
    except KeyError:
        valid = ", ".join(k.name for k in KERNEL_VARIANTS)
        raise ValueError(f"unknown kernel {name!r}; valid kernels: {valid}") from None
