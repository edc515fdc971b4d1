"""Device global-memory allocation tracking.

High-resolution reconstruction is "limited by GPU memory capacity"
(Section 1); the whole 2-D decomposition of iFDK exists to keep each rank's
sub-volume plus its 32-projection staging batch inside the 16 GB of a V100.
The tracker below enforces that constraint in the simulation: every buffer
the per-rank pipeline would place in device memory is allocated through it,
and exceeding the capacity raises :class:`DeviceOutOfMemoryError` exactly
where a real CUDA allocation would fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .device import DeviceSpec

__all__ = ["DeviceOutOfMemoryError", "DeviceAllocation", "DeviceMemoryPool"]


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation would exceed the device's global memory."""


@dataclass
class DeviceAllocation:
    """One live allocation in the simulated device memory."""

    name: str
    nbytes: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    array: Optional[np.ndarray] = None


class DeviceMemoryPool:
    """A simple tracking allocator for one simulated GPU.

    Parameters
    ----------
    device:
        The device whose capacity is enforced.
    materialize:
        When True (default) allocations are backed by real NumPy arrays (the
        functional simulation); when False only the byte accounting is kept
        (used by the at-scale performance model, where an 8 GB sub-volume per
        simulated rank would not fit in host memory).
    """

    def __init__(self, device: DeviceSpec, *, materialize: bool = True):
        self.device = device
        self.materialize = materialize
        self._allocations: Dict[str, DeviceAllocation] = {}
        self._peak_bytes = 0

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        return sum(a.nbytes for a in self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.device.global_memory_bytes - self.used_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def allocations(self) -> Dict[str, DeviceAllocation]:
        return dict(self._allocations)

    # ------------------------------------------------------------------ #
    def allocate(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype=np.float32,
    ) -> DeviceAllocation:
        """Allocate a named buffer; raises if the name exists or memory is full."""
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(
                f"cannot allocate {name!r} ({nbytes / 2**30:.2f} GiB): "
                f"{self.free_bytes / 2**30:.2f} GiB free of "
                f"{self.device.global_memory_bytes / 2**30:.2f} GiB on {self.device.name}"
            )
        allocation = DeviceAllocation(
            name=name,
            nbytes=nbytes,
            shape=tuple(int(s) for s in shape),
            dtype=dtype,
            array=np.zeros(shape, dtype=dtype) if self.materialize else None,
        )
        self._allocations[name] = allocation
        self._peak_bytes = max(self._peak_bytes, self.used_bytes)
        return allocation

    def free(self, name: str) -> None:
        """Free a named buffer."""
        if name not in self._allocations:
            raise KeyError(f"no allocation named {name!r}")
        del self._allocations[name]

    def reset(self) -> None:
        """Free all allocations (keeps the peak statistic)."""
        self._allocations.clear()

    # ------------------------------------------------------------------ #
    def can_fit_reconstruction(
        self,
        subvolume_voxels: int,
        nu: int,
        nv: int,
        batch: int = 32,
        itemsize: int = 4,
    ) -> bool:
        """Section 4.1.5 feasibility check for one rank's working set."""
        required = itemsize * (subvolume_voxels + nu * nv * batch)
        return required <= self.device.global_memory_bytes
