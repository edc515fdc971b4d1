"""Digital phantoms for validating the reconstruction pipeline.

The paper (Section 5.1) generates its evaluation inputs by forward-projecting
the standard Shepp-Logan phantom with RTK's forward projector.  This module
provides the 3-D Shepp-Logan phantom (Kak & Slaney parameterization), a 2-D
variant, and a few simpler analytic phantoms (uniform sphere, point grid)
that make quantitative checks easier.

Every phantom is defined analytically as a union of ellipsoids, so it can be
rasterized at any resolution and — crucially for testing the forward
projector — its cone-beam line integrals can be computed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .types import DEFAULT_DTYPE, Volume

__all__ = [
    "Ellipsoid",  # repro-lint: disable=dead-export -- what EllipsoidPhantom is built from
    "EllipsoidPhantom",
    "shepp_logan_ellipsoids",
    "shepp_logan_3d",
    "uniform_sphere_phantom",
]


@dataclass(frozen=True)
class Ellipsoid:
    """One constituent ellipsoid of an analytic phantom.

    The ellipsoid is defined in a normalized coordinate system where the
    phantom occupies the cube ``[-1, 1]^3``; :class:`EllipsoidPhantom`
    scales it to physical/voxel coordinates when rasterizing.

    Parameters
    ----------
    value:
        Additive density contribution inside the ellipsoid.
    center:
        Centre ``(x0, y0, z0)`` in normalized coordinates.
    axes:
        Semi-axes ``(a, b, c)`` in normalized coordinates.
    phi_deg:
        Rotation about the Z axis, degrees (the only rotation used by the
        classic Shepp-Logan definition).
    """

    value: float
    center: Tuple[float, float, float]
    axes: Tuple[float, float, float]
    phi_deg: float = 0.0

    def rotation(self) -> np.ndarray:
        """World-from-ellipsoid 3x3 rotation matrix."""
        phi = np.deg2rad(self.phi_deg)
        c, s = np.cos(phi), np.sin(phi)
        return np.array(
            [
                [c, -s, 0.0],
                [s, c, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which normalized-space ``points`` (n, 3) lie inside."""
        points = np.asarray(points, dtype=np.float64)
        local = (points - np.asarray(self.center)) @ self.rotation()
        scaled = local / np.asarray(self.axes)
        return np.einsum("...d,...d->...", scaled, scaled) <= 1.0

    def line_integral(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> np.ndarray:
        """Exact chord lengths (times density) of rays through the ellipsoid.

        ``origins`` and ``directions`` are ``(n, 3)`` arrays in the
        *normalized* phantom frame; directions need not be unit length —
        the returned value is in units of the direction vector's norm so the
        caller can convert to physical lengths.
        """
        origins = np.asarray(origins, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        rot = self.rotation()
        o = (origins - np.asarray(self.center)) @ rot / np.asarray(self.axes)
        d = directions @ rot / np.asarray(self.axes)
        # Solve |o + t d|^2 = 1
        a = np.einsum("...d,...d->...", d, d)
        b = 2.0 * np.einsum("...d,...d->...", o, d)
        c = np.einsum("...d,...d->...", o, o) - 1.0
        disc = b * b - 4.0 * a * c
        inside = disc > 0
        chord = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
        sqrt_disc = np.sqrt(np.where(inside, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_len = np.where(inside, sqrt_disc / a, 0.0)
        norm = np.sqrt(np.einsum("...d,...d->...", directions, directions))
        return self.value * t_len * norm


class EllipsoidPhantom:
    """A phantom composed of additive ellipsoids in ``[-1, 1]^3``."""

    def __init__(self, ellipsoids: Sequence[Ellipsoid]):
        if not ellipsoids:
            raise ValueError("phantom must contain at least one ellipsoid")
        self.ellipsoids: List[Ellipsoid] = list(ellipsoids)

    # ------------------------------------------------------------------ #
    def rasterize(
        self, nx: int, ny: int, nz: int, *, supersample: int = 1
    ) -> Volume:
        """Rasterize to an ``(Nz, Ny, Nx)`` volume.

        ``supersample > 1`` evaluates each voxel on a sub-grid and averages,
        reducing the partial-volume error at ellipsoid boundaries (useful
        when comparing against filtered reconstructions).
        """
        if supersample < 1:
            raise ValueError("supersample must be >= 1")
        ss = int(supersample)

        def axis_coords(n: int) -> np.ndarray:
            # Normalized coordinates of voxel centres in [-1, 1].
            idx = np.arange(n, dtype=np.float64)
            return (idx - (n - 1) / 2.0) / (n / 2.0)

        xs = axis_coords(nx)
        ys = axis_coords(ny)
        zs = axis_coords(nz)
        if ss > 1:
            offsets = (np.arange(ss) - (ss - 1) / 2.0) / ss
            sub_x = (xs[:, None] + offsets[None, :] * (2.0 / nx)).ravel()
            sub_y = (ys[:, None] + offsets[None, :] * (2.0 / ny)).ravel()
            sub_z = (zs[:, None] + offsets[None, :] * (2.0 / nz)).ravel()
        else:
            sub_x, sub_y, sub_z = xs, ys, zs

        zz, yy, xx = np.meshgrid(sub_z, sub_y, sub_x, indexing="ij")
        points = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
        values = np.zeros(points.shape[0], dtype=np.float64)
        for ell in self.ellipsoids:
            mask = ell.contains(points)
            values[mask] += ell.value
        grid = values.reshape(len(sub_z), len(sub_y), len(sub_x))
        if ss > 1:
            grid = grid.reshape(nz, ss, ny, ss, nx, ss).mean(axis=(1, 3, 5))
        return Volume(data=grid.astype(DEFAULT_DTYPE))

    def line_integrals(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> np.ndarray:
        """Sum of exact chord integrals over all ellipsoids (normalized frame)."""
        total = None
        for ell in self.ellipsoids:
            contrib = ell.line_integral(origins, directions)
            total = contrib if total is None else total + contrib
        return total


def shepp_logan_ellipsoids(modified: bool = True) -> List[Ellipsoid]:
    """The ten ellipsoids of the (modified) 3-D Shepp-Logan phantom.

    The "modified" variant (Toft, 1996) increases the contrast of the small
    interior structures so they are visible without windowing; it is the
    variant shipped by RTK/TIGRE/scikit-image and the one used for visual
    verification in the paper.
    """
    # Columns: value, a, b, c, x0, y0, z0, phi (deg)
    classic = [
        (2.00, 0.6900, 0.9200, 0.810, 0.0, 0.0000, 0.000, 0.0),
        (-0.98, 0.6624, 0.8740, 0.780, 0.0, -0.0184, 0.000, 0.0),
        (-0.02, 0.1100, 0.3100, 0.220, 0.22, 0.0000, 0.000, -18.0),
        (-0.02, 0.1600, 0.4100, 0.280, -0.22, 0.0000, 0.000, 18.0),
        (0.01, 0.2100, 0.2500, 0.410, 0.0, 0.3500, -0.150, 0.0),
        (0.01, 0.0460, 0.0460, 0.050, 0.0, 0.1000, 0.250, 0.0),
        (0.01, 0.0460, 0.0460, 0.050, 0.0, -0.1000, 0.250, 0.0),
        (0.01, 0.0460, 0.0230, 0.050, -0.08, -0.6050, 0.000, 0.0),
        (0.01, 0.0230, 0.0230, 0.020, 0.0, -0.6060, 0.000, 0.0),
        (0.01, 0.0230, 0.0460, 0.020, 0.06, -0.6050, 0.000, 0.0),
    ]
    modified_values = [1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    ellipsoids = []
    for row, mod_value in zip(classic, modified_values):
        value, a, b, c, x0, y0, z0, phi = row
        ellipsoids.append(
            Ellipsoid(
                value=mod_value if modified else value,
                center=(x0, y0, z0),
                axes=(a, b, c),
                phi_deg=phi,
            )
        )
    return ellipsoids


def shepp_logan_3d(
    nx: int, ny: int = None, nz: int = None, *, modified: bool = True,
    supersample: int = 1,
) -> Volume:
    """Rasterize the 3-D Shepp-Logan phantom to an ``(Nz, Ny, Nx)`` volume."""
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    phantom = EllipsoidPhantom(shepp_logan_ellipsoids(modified=modified))
    return phantom.rasterize(nx, ny, nz, supersample=supersample)


def uniform_sphere_phantom(radius: float = 0.6, value: float = 1.0) -> EllipsoidPhantom:
    """A single uniform sphere — useful for quantitative accuracy tests."""
    if not 0 < radius <= 1:
        raise ValueError("radius must be in (0, 1]")
    return EllipsoidPhantom(
        [Ellipsoid(value=value, center=(0.0, 0.0, 0.0), axes=(radius, radius, radius))]
    )

