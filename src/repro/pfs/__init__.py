"""Simulated parallel-file-system substrate (GPFS stand-in) for iFDK."""

from .projection_io import (
    dataset_angles,
    projection_object_name,
    read_projection_subset,
    write_projection_dataset,
)
from .storage import PFSConfig, PFSStatistics, SimulatedPFS
from .volume_io import read_volume, slice_object_name, write_volume_slices

__all__ = [
    "PFSConfig",
    "PFSStatistics",
    "SimulatedPFS",
    "dataset_angles",
    "projection_object_name",
    "read_projection_subset",
    "read_volume",
    "slice_object_name",
    "write_projection_dataset",
    "write_volume_slices",
]
