"""Simulated GPU device specifications.

The paper's evaluation platform is the Nvidia Tesla V100 (16 GB, PCIe gen3
x16).  No GPU is available in this environment, so the GPU is represented by
an explicit :class:`DeviceSpec` — the set of architectural constants the
paper's design decisions depend on: global-memory capacity (drives the
``R`` parameter selection of Section 4.1.5, whose one rule is
:func:`repro.pipeline.config.fits_device_memory`), DRAM bandwidth and FP32
throughput (drive the back-projection kernel cost model of Table 4) and L2
capacity (drives the cache-hit behaviour of the non-texture kernels).  PCIe
is not a device constant here: ``T_H2D``/``T_D2H`` take ``bw_pcie`` from the
performance model's profile (:mod:`repro.pipeline.perfmodel`).

The defaults are published figures for the V100-PCIe-16GB; the efficiency
factors are sustained fractions of those peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceSpec", "TESLA_V100"]

GiB = 1024**3


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural constants of one GPU.

    Attributes
    ----------
    name:
        Marketing name of the device.
    global_memory_bytes:
        Device (HBM) memory capacity in bytes.
    dram_bandwidth:
        Peak DRAM bandwidth in bytes/second.
    dram_efficiency:
        Sustained fraction of peak DRAM bandwidth achieved by streaming
        kernels (STREAM-like).
    fp32_flops:
        Peak single-precision throughput in FLOP/s.
    fp32_efficiency:
        Sustained fraction of the FP32 peak for the back-projection mix
        (FMA + divides + interpolation address arithmetic).
    l2_cache_bytes:
        L2 cache capacity (shared by all SMs).
    sm_count, warp_size:
        Streaming-multiprocessor count and threads per warp.
    kernel_launch_overhead:
        Fixed host-side cost of launching one kernel, in seconds.
    """

    name: str
    global_memory_bytes: int
    dram_bandwidth: float
    fp32_flops: float
    l2_cache_bytes: int
    sm_count: int
    warp_size: int = 32
    dram_efficiency: float = 0.85
    fp32_efficiency: float = 0.60
    kernel_launch_overhead: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.global_memory_bytes <= 0 or self.l2_cache_bytes <= 0:
            raise ValueError("memory capacities must be positive")
        if self.dram_bandwidth <= 0 or self.fp32_flops <= 0:
            raise ValueError("bandwidth and FLOPs must be positive")
        if not 0 < self.dram_efficiency <= 1 or not 0 < self.fp32_efficiency <= 1:
            raise ValueError("efficiency factors must be in (0, 1]")
        if self.warp_size <= 0 or self.sm_count <= 0:
            raise ValueError("warp_size and sm_count must be positive")

    # ------------------------------------------------------------------ #
    @property
    def effective_dram_bandwidth(self) -> float:
        """Sustained DRAM bandwidth (bytes/s)."""
        return self.dram_bandwidth * self.dram_efficiency

    @property
    def effective_fp32_flops(self) -> float:
        """Sustained FP32 throughput (FLOP/s)."""
        return self.fp32_flops * self.fp32_efficiency

    def with_memory(self, nbytes: int) -> "DeviceSpec":
        """A copy of this device with a different memory capacity."""
        return replace(self, global_memory_bytes=int(nbytes))


#: The paper's evaluation GPU: Tesla V100 SXM2/PCIe 16 GB.
TESLA_V100 = DeviceSpec(
    name="Tesla V100 16GB",
    global_memory_bytes=16 * GiB,
    dram_bandwidth=900e9,
    fp32_flops=14.0e12,
    l2_cache_bytes=6 * 1024 * 1024,
    sm_count=80,
)
