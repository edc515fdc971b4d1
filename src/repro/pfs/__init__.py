"""Simulated parallel-file-system substrate (GPFS stand-in) for iFDK."""

from .projection_io import (
    dataset_angles,
    read_projection_subset,
    write_projection_dataset,
)
from .storage import PFSConfig, SimulatedPFS
from .volume_io import read_volume, write_volume_slices

__all__ = [
    "PFSConfig",
    "SimulatedPFS",
    "dataset_angles",
    "read_projection_subset",
    "read_volume",
    "write_projection_dataset",
    "write_volume_slices",
]
