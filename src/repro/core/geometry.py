"""Cone-beam CT (CBCT) geometry and projection matrices.

This module implements Section 2.2.1 and Section 3.2.1 of the paper: the
circular-trajectory cone-beam geometry (Figure 1), the projection-matrix
factorization ``P = M1 @ Mrot @ M0`` (Equation 2), and the closed-form
expression for the perspective divisor ``z`` (Equation 3, Theorem 3).

Coordinate conventions
----------------------

* **Voxel index space** — integer indices ``(i, j, k)`` along the volume
  axes ``X, Y, Z`` (Figure 1b).  Algorithm 2 stores the volume i-major
  (``[k, j, i]``); the proposed Algorithm 4 stores it k-major.
* **World (gantry-at-rest) space** — millimetres, origin at the volume
  centre ``O``, produced by ``M0``.
* **Camera space** — the rotating frame with the X-ray source at the
  origin and the optical axis pointing towards the detector, produced by
  ``Mrot``.  Its third coordinate is the perspective divisor ``z``.
* **Detector space** — pixel coordinates ``(u, v)`` on the flat-panel
  detector (FPD), produced by ``M1`` followed by the perspective divide.

All matrices are ``float64`` to keep the geometry exact; the imaging data
remains ``float32``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CBCTGeometry",
    "ProjectionMatrix",
    "default_geometry_for_problem",
]


@dataclass(frozen=True)
class CBCTGeometry:
    """Full description of a circular-trajectory CBCT acquisition (Table 1).

    Parameters
    ----------
    nu, nv:
        Detector width and height in pixels.
    np_:
        Number of projections over the full ``2π`` rotation.
    du, dv:
        Detector pixel pitch (mm/pixel) along U and V.
    sad:
        Source-to-axis distance ``d`` (mm): X-ray source to rotation axis.
    sdd:
        Source-to-detector distance ``D`` (mm): X-ray source to FPD centre.
    nx, ny, nz:
        Volume extent in voxels.
    dx, dy, dz:
        Voxel pitch (mm/voxel).
    angle_offset:
        Rotation angle of the first projection (radians).
    angular_range:
        Total angular span of the trajectory (radians).  The default ``2π``
        is the paper's full circular scan; an acquisition scenario (e.g.
        short-scan) narrows it, which changes the step angle ``θ`` and the
        FDK normalization consistently.
    detector_offset_u:
        Lateral shift (mm) of the flat-panel detector along its U axis.
        ``0`` centres the detector on the principal ray (the paper's
        geometry); an offset-detector scenario shifts the panel to extend
        the field of view with a half-fan acquisition.
    """

    nu: int
    nv: int
    np_: int
    du: float
    dv: float
    sad: float
    sdd: float
    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    angle_offset: float = 0.0
    angular_range: float = 2.0 * np.pi
    detector_offset_u: float = 0.0

    def __post_init__(self) -> None:
        for name in ("nu", "nv", "np_", "nx", "ny", "nz"):
            if int(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("du", "dv", "sad", "sdd", "dx", "dy", "dz"):
            if float(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.sdd < self.sad:
            raise ValueError(
                "source-to-detector distance (sdd) must be >= source-to-axis "
                "distance (sad)"
            )
        if not (0.0 < float(self.angular_range) <= 2.0 * np.pi + 1e-9):
            raise ValueError("angular_range must be in (0, 2π]")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def theta(self) -> float:
        """Rotation step angle ``θ = angular_range / Np`` (Table 1).

        For the paper's full circular scan this is the familiar ``2π/Np``;
        scenario geometries (short-scan, sparse-view) carry a different span
        or projection count and ``θ`` — hence the FDK Riemann measure —
        follows automatically.
        """
        return self.angular_range / self.np_

    @property
    def magnification(self) -> float:
        """Geometric magnification ``D / d`` at the rotation axis."""
        return self.sdd / self.sad

    @property
    def angles(self) -> np.ndarray:
        """Gantry angles ``β_i = offset + i·θ`` for all projections."""
        return self.angle_offset + np.arange(self.np_) * self.theta

    @property
    def volume_shape(self) -> Tuple[int, int, int]:
        """Volume shape in the ``(Nz, Ny, Nx)`` storage order."""
        return (self.nz, self.ny, self.nx)

    @property
    def voxel_pitch(self) -> Tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)

    @property
    def fan_angle(self) -> float:
        """Half fan angle ``Δ`` (radians) subtended by the detector.

        The angle between the central ray and the ray through the farthest
        detector-column centre, measured at the source.  This is the ``Δ``
        of the minimal short-scan range ``π + 2Δ`` and the bound on the
        per-ray fan angle ``γ`` used by the Parker redundancy weights.
        """
        half_width = 0.5 * (self.nu - 1) * self.du
        far_edge = half_width + abs(self.detector_offset_u)
        return float(np.arctan2(far_edge, self.sdd))

    @property
    def short_scan_span(self) -> float:
        """Minimal short-scan angular range ``π + 2Δ`` (radians)."""
        return float(np.pi + 2.0 * self.fan_angle)

    def detector_u_mm(self) -> np.ndarray:
        """Physical U offsets (mm) of the detector columns from the principal ray.

        With a centred detector these are symmetric around zero; a lateral
        ``detector_offset_u`` shifts the whole axis.  The fan angle of the
        ray through column ``i`` is ``arctan(u_mm[i] / sdd)``.
        """
        return (
            np.arange(self.nu, dtype=np.float64) - (self.nu - 1) / 2.0
        ) * self.du + self.detector_offset_u

    def fov_radius(self) -> float:
        """Radius (mm) of the cylindrical field of view covered by the fan.

        A point at distance ``r`` from the rotation axis stays inside the
        projection of the detector for all angles when
        ``r <= d * sin(arctan(half_width / D))``.  An offset detector with a
        full rotation extends coverage to the far edge of the shifted panel
        (each point only needs to be seen over half the turn).
        """
        half_width = 0.5 * (self.nu - 1) * self.du + abs(self.detector_offset_u)
        return self.sad * np.sin(np.arctan2(half_width, self.sdd))

    def problem(self) -> "ReconstructionProblem":
        """The :class:`~repro.core.types.ReconstructionProblem` this
        acquisition and volume describe (``Nu x Nv x Np -> Nx x Ny x Nz``)."""
        from .types import ReconstructionProblem  # late: types is a leaf module

        return ReconstructionProblem(
            nu=self.nu, nv=self.nv, np_=self.np_,
            nx=self.nx, ny=self.ny, nz=self.nz,
        )

    # ------------------------------------------------------------------ #
    # Transformation matrices (Equation 2)
    # ------------------------------------------------------------------ #
    def matrix_m0(self) -> np.ndarray:
        """Voxel index -> world (mm) transform ``M0`` (4x4).

        ``M0`` centres the index grid on the volume centre and scales by the
        voxel pitch.  The J and K axes are mirrored exactly as in the paper
        so that the detector V axis points "down" in the usual radiographic
        convention.
        """
        scale = np.diag([self.dx, self.dy, self.dz, 1.0])
        center = np.array(
            [
                [1.0, 0.0, 0.0, -(self.nx - 1) / 2.0],
                [0.0, -1.0, 0.0, (self.ny - 1) / 2.0],
                [0.0, 0.0, -1.0, (self.nz - 1) / 2.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        return scale @ center

    def matrix_mrot(self, beta: float) -> np.ndarray:
        """World -> camera transform ``Mrot`` (4x4) at gantry angle ``beta``.

        First rotates the world by ``beta`` around the Z axis, then swaps
        axes so that the third camera coordinate points from the source
        towards the detector and translates by the source-to-axis distance
        ``d`` — making the source the origin of camera space.
        """
        c, s = np.cos(beta), np.sin(beta)
        rot_z = np.array(
            [
                [c, -s, 0.0, 0.0],
                [s, c, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        swap = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, self.sad],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        return swap @ rot_z

    def matrix_m1(self) -> np.ndarray:
        """Camera -> detector homogeneous transform ``M1`` (4x4).

        Applies the pinhole projection with focal length ``D`` and converts
        millimetres on the detector to pixel coordinates.  With a centred
        detector the principal ray lands on pixel ``((Nu-1)/2, (Nv-1)/2)``;
        a lateral ``detector_offset_u`` (mm) moves the principal point the
        other way in pixel coordinates.
        """
        to_pixels = np.diag([1.0 / self.du, 1.0 / self.dv, 1.0, 1.0])
        principal_u_mm = (self.nu - 1) * self.du / 2.0 - self.detector_offset_u
        pinhole = np.array(
            [
                [self.sdd, 0.0, principal_u_mm, 0.0],
                [0.0, self.sdd, (self.nv - 1) * self.dv / 2.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        return to_pixels @ pinhole

    def projection_matrix(self, beta: float) -> "ProjectionMatrix":
        """The 3x4 projection matrix ``P`` at gantry angle ``beta`` (Eq. 2).

        Each matrix is computed once per geometry and exact angle bits
        (``-0.0`` is not ``0.0``) and shared read-only, so a back-projector
        that asks for every view on every run rebuilds none of them."""
        beta = float(beta)
        matrix = _projection_matrix(self, struct.pack("<d", beta))
        return ProjectionMatrix(matrix=matrix, beta=beta, geometry=self)

    def projection_matrices(self, angles: Optional[Sequence[float]] = None):
        """Projection matrices for ``angles`` (defaults to :attr:`angles`)."""
        if angles is None:
            angles = self.angles
        return [self.projection_matrix(float(b)) for b in angles]

    # ------------------------------------------------------------------ #
    # Closed-form divisor (Equation 3 / Theorem 3)
    # ------------------------------------------------------------------ #
    def perspective_divisor(self, beta: float, i, j) -> np.ndarray:
        """The divisor ``z`` of Equation 3 for voxel column ``(i, j)``.

        Theorem 3: for a fixed gantry angle, ``z`` depends only on ``(i, j)``
        — it is constant along the Z axis of the volume.  This is the key
        property exploited by Algorithm 4 to hoist the reciprocal and the
        ``u`` coordinate out of the innermost loop.
        """
        i = np.asarray(i, dtype=np.float64)
        j = np.asarray(j, dtype=np.float64)
        return (
            self.sad
            + np.sin(beta) * (i - (self.nx - 1) / 2.0) * self.dx
            - np.cos(beta) * (j - (self.ny - 1) / 2.0) * self.dy
        )


@dataclass(frozen=True)
class ProjectionMatrix:
    """A 3x4 projection matrix ``P`` plus the geometry it was derived from.

    The matrix maps a homogeneous voxel index ``[i, j, k, 1]`` to
    homogeneous detector coordinates ``[x, y, z]`` with ``u = x / z`` and
    ``v = y / z`` (Equation 1).
    """

    matrix: np.ndarray
    beta: float
    geometry: CBCTGeometry

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    # ------------------------------------------------------------------ #
    def project(self, i, j, k) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project voxel indices to detector coordinates.

        Returns ``(u, v, z)`` where ``z`` is the perspective divisor.  All
        inputs broadcast against each other.
        """
        i = np.asarray(i, dtype=np.float64)
        j = np.asarray(j, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        p = self.matrix
        x = p[0, 0] * i + p[0, 1] * j + p[0, 2] * k + p[0, 3]
        y = p[1, 0] * i + p[1, 1] * j + p[1, 2] * k + p[1, 3]
        z = p[2, 0] * i + p[2, 1] * j + p[2, 2] * k + p[2, 3]
        return x / z, y / z, z

    # ------------------------------------------------------------------ #
    # Camera-model accessors (used by the forward projector)
    # ------------------------------------------------------------------ #
    @property
    def camera_center(self) -> np.ndarray:
        """Source position in voxel-index coordinates (null space of ``P``)."""
        m = self.matrix[:, :3]
        p4 = self.matrix[:, 3]
        return -np.linalg.solve(m, p4)

    def ray_direction(self, u, v) -> np.ndarray:
        """Back-projected ray directions (voxel-index space) for pixels.

        Returns an array of shape ``broadcast(u, v).shape + (3,)`` whose rows
        are (unnormalized) directions from the source through detector pixel
        ``(u, v)``.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        u, v = np.broadcast_arrays(u, v)
        m_inv = np.linalg.inv(self.matrix[:, :3])
        pix = np.stack([u, v, np.ones_like(u)], axis=-1)
        return pix @ m_inv.T


@lru_cache(maxsize=4096)  # ~0.4 KiB an entry: 16 scans of 256 views
def _projection_matrix(geometry: CBCTGeometry, angle_bits: bytes) -> np.ndarray:
    """``P = M1 @ Mrot @ M0`` without its homogeneous row, read-only: the
    memo behind :meth:`CBCTGeometry.projection_matrix`."""
    (beta,) = struct.unpack("<d", angle_bits)
    p_hat = geometry.matrix_m1() @ geometry.matrix_mrot(beta) @ geometry.matrix_m0()
    matrix = p_hat[:3, :].copy()
    matrix.flags.writeable = False
    return matrix


def default_geometry_for_problem(
    nu: int,
    nv: int,
    np_: int,
    nx: int,
    ny: int,
    nz: int,
    *,
    sad_factor: float = 3.0,
    magnification: float = 1.5,
) -> CBCTGeometry:
    """A sensible default geometry for an ``Nu x Nv x Np -> Nx x Ny x Nz`` problem.

    The detector pitch is chosen so the (magnified) volume projects inside
    the detector with a small margin, and the source-to-axis distance is
    ``sad_factor`` times the volume half-extent so the cone angle stays
    moderate — the regime in which FDK is quantitatively accurate.
    """
    dx = dy = dz = 1.0
    half_extent = 0.5 * max(nx * dx, ny * dy, nz * dz)
    sad = sad_factor * max(half_extent, 1.0)
    sdd = magnification * sad
    # The farthest voxel corner is at radius sqrt(3) * half_extent; its
    # projection must fit on the detector with ~5% margin.
    radius = np.sqrt(2.0) * half_extent
    max_mag = sdd / max(sad - radius, 1e-6)
    du = 2.05 * half_extent * max_mag / nu
    dv = 2.05 * half_extent * max_mag / nv
    return CBCTGeometry(
        nu=nu, nv=nv, np_=np_,
        du=du, dv=dv,
        sad=sad, sdd=sdd,
        nx=nx, ny=ny, nz=nz,
        dx=dx, dy=dy, dz=dz,
    )
