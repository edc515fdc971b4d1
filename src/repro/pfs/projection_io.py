"""Projection input on the simulated PFS.

In iFDK "ranks in each column of the 2D-grid load a subset of projections
from the PFS independently" (Section 4.1.1).  This module provides the
dataset layout those loads operate on: one object per projection, named by
its index, plus helpers to write a whole acquisition and to read the subset
assigned to one rank.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.types import DEFAULT_DTYPE, ProjectionStack
from .storage import SimulatedPFS

__all__ = [
    "write_projection_dataset",
    "read_projection_subset",
    "dataset_angles",
]

_ANGLES_OBJECT = "projections/angles"


def projection_object_name(index: int) -> str:
    """PFS object name of projection ``index``."""
    if index < 0:
        raise ValueError("projection index must be non-negative")
    return f"projections/{index:06d}"


def write_projection_dataset(pfs: SimulatedPFS, stack: ProjectionStack) -> float:
    """Write a full acquisition to the PFS; returns the modelled write time."""
    total = pfs.write_array(_ANGLES_OBJECT, stack.angles)
    for index in range(stack.np_):
        total += pfs.write_array(projection_object_name(index), stack.data[index])
    return total


def dataset_angles(pfs: SimulatedPFS) -> np.ndarray:
    """Gantry angles of the stored acquisition."""
    return pfs.read_array(_ANGLES_OBJECT)


def read_projection_subset(
    pfs: SimulatedPFS, indices: Sequence[int]
) -> ProjectionStack:
    """Read the projections with the given global indices (in that order)."""
    indices = list(int(i) for i in indices)
    if not indices:
        raise ValueError("at least one projection index is required")
    angles = dataset_angles(pfs)
    for index in indices:
        if not 0 <= index < len(angles):
            raise IndexError(
                f"projection index {index} outside dataset of {len(angles)} projections"
            )
    # The first object sets the chunk's shape and is copied in from a view;
    # the rest are read straight into their slices of the one float32 chunk
    # (cast only if stored wider), and one of another shape is refused.
    first = pfs.read_view(projection_object_name(indices[0]))
    data = np.empty((len(indices),) + first.shape, dtype=DEFAULT_DTYPE)
    data[0] = first
    for slot, index in enumerate(indices[1:], start=1):
        pfs.read_into(projection_object_name(index), data[slot])
    return ProjectionStack(data=data, angles=np.asarray(angles[indices], dtype=np.float64))
