"""Simulated GPU substrate for the iFDK reproduction.

The paper runs its back-projection kernels on Tesla V100 GPUs; this package
replaces the physical device with (a) an explicit architectural model
(:mod:`~repro.gpusim.device`), (b) the five kernel variants of Table 3 as
rows of read-path and layout characteristics (:mod:`~repro.gpusim.kernels`;
a kernel's voxel values are its algorithm's on the ``reference`` backend)
and (c) a roofline-style throughput model that regenerates Table 4
(:mod:`~repro.gpusim.costmodel`).  The device-memory capacity that shapes
the distributed design is checked once, by Section 4.1.5's rule in
:func:`repro.pipeline.config.fits_device_memory`; PCIe transfer costs are
Eq. 11 and Eq. 14 of :mod:`repro.pipeline.perfmodel`.
"""

from .costmodel import (
    BackprojectionCostModel,
    KernelTiming,
    predict_table4,
)
from .device import A100_40GB, TESLA_V100, DeviceSpec
from .kernels import (
    BP_L1,
    BP_TEX,
    DEFAULT_PROJECTION_BATCH,
    KERNEL_VARIANTS,
    L1_TRAN,
    RTK_32,
    TEX_TRAN,
    KernelVariant,
    get_kernel,
)
from .texture import GlobalReadPath, L1ReadPath, ReadPathModel, TextureReadPath

__all__ = [
    "A100_40GB",
    "BP_L1",
    "BP_TEX",
    "BackprojectionCostModel",
    "DEFAULT_PROJECTION_BATCH",
    "DeviceSpec",
    "GlobalReadPath",
    "KERNEL_VARIANTS",
    "KernelTiming",
    "KernelVariant",
    "L1ReadPath",
    "L1_TRAN",
    "RTK_32",
    "ReadPathModel",
    "TESLA_V100",
    "TEX_TRAN",
    "TextureReadPath",
    "get_kernel",
    "predict_table4",
]
