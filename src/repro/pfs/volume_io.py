"""Volume output on the simulated PFS.

Section 4.1.3: "the volume of size Nx×Ny×Nz is stored as slices of number
Nz, the size of each slice is Nx×Ny.  There is room for improvement by
tuning the size of each slice to optimize for the throughput of storing to
the PFS (i.e. tune slice size to optimize for file striping)."  The writer
below stores Z-slices (optionally grouped into slabs — the stripe-tuning
knob) and the reader reassembles the full volume, so the distributed store
path and the stripe-size ablation benchmark share one implementation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.types import Volume
from .storage import SimulatedPFS

__all__ = [
    "write_volume_slices",
    "read_volume",
]


def slice_object_name(volume_name: str, z_start: int, z_stop: int) -> str:
    """PFS object name of the slab covering ``[z_start, z_stop)``."""
    return f"volumes/{volume_name}/z{z_start:06d}-{z_stop:06d}"


def write_volume_slices(
    pfs: SimulatedPFS,
    volume_name: str,
    data: np.ndarray,
    *,
    z_offset: int = 0,
    slices_per_file: int = 1,
) -> float:
    """Write an ``(Nz_local, Ny, Nx)`` slab as per-slice (or per-slab) objects.

    Returns the modelled write time.  ``slices_per_file`` is the
    stripe-tuning knob: 1 reproduces the paper's per-slice layout, larger
    values produce fewer, bigger files.
    """
    if data.ndim != 3:
        raise ValueError("volume data must be 3-D (Nz, Ny, Nx)")
    if slices_per_file <= 0:
        raise ValueError("slices_per_file must be positive")
    total = 0.0
    nz = data.shape[0]
    for start in range(0, nz, slices_per_file):
        stop = min(start + slices_per_file, nz)
        name = slice_object_name(volume_name, z_offset + start, z_offset + stop)
        total += pfs.write_array(name, data[start:stop])
    return total


def read_volume(
    pfs: SimulatedPFS,
    volume_name: str,
    *,
    voxel_pitch: Tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Volume:
    """Reassemble a volume previously written with :func:`write_volume_slices`."""
    prefix = f"volumes/{volume_name}/"
    names = [n for n in pfs.list_objects() if n.startswith(prefix) or
             n.startswith(prefix.replace("/", "__"))]
    if not names:
        raise KeyError(f"no stored volume named {volume_name!r}")

    def z_start_of(name: str) -> int:
        tail = name.rsplit("z", 1)[-1]
        return int(tail.split("-")[0])

    names.sort(key=z_start_of)
    slabs: List[np.ndarray] = [pfs.read_array(n.replace("__", "/")) for n in names]
    data = np.concatenate(slabs, axis=0)
    return Volume(data=data, voxel_pitch=voxel_pitch)
