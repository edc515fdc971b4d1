"""Cone-beam forward projection.

The paper synthesizes its input data by forward-projecting the Shepp-Logan
phantom with RTK's forward-projection tool (Section 5.1).  This module plays
that role: :func:`forward_project_analytic` computes exact cone-beam line
integrals of an :class:`~repro.core.phantom.EllipsoidPhantom`.  Because the
integrals are closed-form, they are the gold standard for validating both
the geometry and the FDK reconstruction quality.

The projector derives the source position and per-pixel ray directions
directly from the 3x4 projection matrices (the camera model), so it is
consistent with the back-projection stage by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .geometry import CBCTGeometry
from .phantom import EllipsoidPhantom
from .types import DEFAULT_DTYPE, ProjectionStack

__all__ = ["forward_project_analytic"]


def detector_pixel_grid(geometry: CBCTGeometry):
    """Meshgrid of detector pixel coordinates ``(u, v)``, each ``(Nv, Nu)``."""
    u = np.arange(geometry.nu, dtype=np.float64)
    v = np.arange(geometry.nv, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    return uu, vv


def _physical_direction_norm(
    geometry: CBCTGeometry, directions_index: np.ndarray
) -> np.ndarray:
    """Norm (mm) of index-space direction vectors.

    A step of one unit in index space along axis i/j/k corresponds to a
    physical step of ``dx``/``dy``/``dz`` millimetres (the sign flips of M0
    do not change lengths).
    """
    scale = np.array([geometry.dx, geometry.dy, geometry.dz])
    return np.sqrt(np.einsum("...d,...d->...", directions_index * scale, directions_index * scale))


def _index_to_normalized(geometry: CBCTGeometry, points_index: np.ndarray) -> np.ndarray:
    """Map voxel-index coordinates to the phantom's normalized ``[-1, 1]^3`` frame."""
    centers = np.array(
        [
            (geometry.nx - 1) / 2.0,
            (geometry.ny - 1) / 2.0,
            (geometry.nz - 1) / 2.0,
        ]
    )
    half = np.array([geometry.nx / 2.0, geometry.ny / 2.0, geometry.nz / 2.0])
    return (points_index - centers) / half


def forward_project_analytic(
    phantom: EllipsoidPhantom,
    geometry: CBCTGeometry,
    angles: Optional[Sequence[float]] = None,
) -> ProjectionStack:
    """Exact cone-beam projections of an ellipsoid phantom.

    The phantom is assumed to fill the volume's normalized cube, i.e. its
    normalized coordinates map onto voxel indices exactly as
    :meth:`EllipsoidPhantom.rasterize` does.  The returned projection values
    are line integrals in millimetres of path length times phantom density.
    """
    if angles is None:
        angles = geometry.angles
    matrices = geometry.projection_matrices(angles)
    uu, vv = detector_pixel_grid(geometry)
    data = np.empty((len(matrices), geometry.nv, geometry.nu), dtype=DEFAULT_DTYPE)

    half = np.array([geometry.nx / 2.0, geometry.ny / 2.0, geometry.nz / 2.0])
    for idx, pm in enumerate(matrices):
        source_index = pm.camera_center
        directions_index = pm.ray_direction(uu, vv).reshape(-1, 3)
        origin_norm = _index_to_normalized(geometry, source_index)
        directions_norm = directions_index / half
        integrals_norm = phantom.line_integrals(
            np.broadcast_to(origin_norm, directions_norm.shape), directions_norm
        )
        # Convert chord length from the normalized frame to millimetres:
        # along a fixed ray the two frames are related by a constant ratio.
        norm_normalized = np.sqrt(
            np.einsum("...d,...d->...", directions_norm, directions_norm)
        )
        norm_physical = _physical_direction_norm(geometry, directions_index)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norm_normalized > 0, norm_physical / norm_normalized, 0.0)
        data[idx] = (integrals_norm * scale).reshape(geometry.nv, geometry.nu)

    return ProjectionStack(data=data, angles=np.asarray(list(angles), dtype=np.float64))
