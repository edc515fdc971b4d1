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
    predict_table4,
)
from .device import TESLA_V100, DeviceSpec
from .kernels import (
    BP_L1,
    DEFAULT_PROJECTION_BATCH,
    KERNEL_VARIANTS,
    L1_TRAN,
    KernelVariant,
    get_kernel,
)
from .texture import ReadPathModel

__all__ = [
    "BP_L1",
    "BackprojectionCostModel",
    "DEFAULT_PROJECTION_BATCH",
    "DeviceSpec",
    "KERNEL_VARIANTS",
    "KernelVariant",
    "L1_TRAN",
    "ReadPathModel",
    "TESLA_V100",
    "get_kernel",
    "predict_table4",
]
