"""Detector read-path models: texture cache, L1/__ldg and plain global loads.

Table 3 distinguishes the kernel variants by how they fetch the (possibly
transposed) projection during back-projection:

* **Texture path** (RTK-32, Bp-Tex, Tex-Tran) — reads are serviced by the 2-D
  layered texture cache; spatial locality is good regardless of layout, so
  the effective DRAM traffic per voxel update is nearly constant.
* **L1 path** (L1-Tran) — reads go through ``__ldg`` into the per-SM L1;
  combined with the transposed projection and the k-major volume layout the
  accesses are contiguous, which roughly halves the per-update traffic.
* **Plain global path** (Bp-L1) — no texture, no ``__ldg``: reads are only
  cached in L2, so the effective traffic depends strongly on whether the
  projection's working set fits in the 6 MB L2 (this is what makes Bp-L1
  competitive for 512² projections and poor for 2k² projections in Table 4).

Each model returns *effective DRAM bytes per voxel update*, the quantity the
throughput model of :mod:`repro.gpusim.costmodel` needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec

__all__ = [
    "ReadPathModel",
    "read_path_for",
]

#: Reference projection size used to normalize cache-pressure effects (2k²·4B).
_REFERENCE_PROJ_BYTES = 2048 * 2048 * 4


@dataclass(frozen=True)
class ReadPathModel:
    """Base read-path model: constant effective bytes per update."""

    base_bytes_per_update: float
    cache_pressure_bytes: float = 0.0

    def bytes_per_update(self, projection_bytes: int, device: DeviceSpec) -> float:
        """Effective DRAM bytes fetched from the projection per voxel update."""
        pressure = min(projection_bytes / _REFERENCE_PROJ_BYTES, 1.0)
        return self.base_bytes_per_update + self.cache_pressure_bytes * pressure


@dataclass(frozen=True)
class TextureReadPath(ReadPathModel):
    """2-D layered texture fetches (RTK-32, Bp-Tex, Tex-Tran)."""

    base_bytes_per_update: float = 6.1
    cache_pressure_bytes: float = 0.1


@dataclass(frozen=True)
class L1ReadPath(ReadPathModel):
    """``__ldg``/L1 fetches of a transposed projection (L1-Tran)."""

    base_bytes_per_update: float = 3.25
    cache_pressure_bytes: float = 0.25


@dataclass(frozen=True)
class GlobalReadPath(ReadPathModel):
    """Uncached global loads (Bp-L1): effectiveness set by L2 residency.

    The hit fraction falls linearly from 1 to ``min_hit_fraction`` as the
    projection grows from a small fraction of L2 to several times its size.
    """

    base_bytes_per_update: float = 6.4
    miss_bytes_per_update: float = 22.0
    min_hit_fraction: float = 0.2

    def bytes_per_update(self, projection_bytes: int, device: DeviceSpec) -> float:
        ratio = projection_bytes / device.l2_cache_bytes
        hit = max(self.min_hit_fraction, min(1.0, 1.2 - ratio))
        return hit * self.base_bytes_per_update + (1.0 - hit) * self.miss_bytes_per_update


def read_path_for(uses_texture: bool, uses_l1: bool) -> ReadPathModel:
    """Read-path model matching a Table 3 characteristics row."""
    if uses_texture and uses_l1:
        raise ValueError("a kernel uses either the texture path or the L1 path")
    if uses_texture:
        return TextureReadPath()
    if uses_l1:
        return L1ReadPath()
    return GlobalReadPath()
