"""The three geometric theorems behind the proposed back-projection.

Section 3.2.1 of the paper states three properties of the circular-orbit
cone-beam geometry that Algorithm 4 exploits:

* **Theorem 1** — two voxels mirrored about the volume's XY mid-plane project
  to detector points mirrored about the detector's horizontal centre line:
  ``u_A = u_B`` and ``v_A + v_B = Nv - 1``.
* **Theorem 2** — voxels on a line parallel to the volume Z axis project onto
  a detector line parallel to the V axis (constant ``u``).
* **Theorem 3** — along such a line the perspective divisor ``z`` is constant
  and equals ``d + y_ab`` (Equation 3), i.e. it depends only on ``(i, j)``.

These functions both *verify* the theorems for a concrete geometry (used by
the property-based tests) and *expose* the quantities Algorithm 4 hoists out
of its inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import CBCTGeometry, ProjectionMatrix

__all__ = [
    "verify_geometry_symmetry",  # repro-lint: disable=dead-export -- Theorems 1-3 as one check: the property tests' reference
]


def check_theorem1(pm: ProjectionMatrix, i, j, k) -> Tuple[np.ndarray, np.ndarray]:
    """Residuals of Theorem 1 for voxels ``(i, j, k)`` and their mirrors.

    Returns ``(du, dv)`` where ``du = u_A - u_B`` and
    ``dv = (v_A + v_B) - (Nv - 1)``; both should be ~0.
    """
    nz = pm.geometry.nz
    nv = pm.geometry.nv
    k = np.asarray(k)
    k_mirror = (nz - 1) - k
    u_a, v_a, _ = pm.project(i, j, k)
    u_b, v_b, _ = pm.project(i, j, k_mirror)
    du = u_a - u_b
    dv = (v_a + v_b) - (nv - 1)
    return du, dv


def check_theorem2(pm: ProjectionMatrix, i, j) -> np.ndarray:
    """Spread of ``u`` along the voxel column ``(i, j)`` (should be ~0)."""
    ks = np.arange(pm.geometry.nz)
    i = np.asarray(i, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    u, _, _ = pm.project(
        i[..., None], j[..., None], ks[(None,) * np.ndim(i) + (slice(None),)]
    )
    return np.max(u, axis=-1) - np.min(u, axis=-1)


def check_theorem3(pm: ProjectionMatrix, i, j) -> np.ndarray:
    """Residual between the projected ``z`` and Equation 3 (should be ~0)."""
    ks = np.arange(pm.geometry.nz)
    i_arr = np.asarray(i, dtype=np.float64)
    j_arr = np.asarray(j, dtype=np.float64)
    _, _, z = pm.project(
        i_arr[..., None], j_arr[..., None], ks[(None,) * np.ndim(i_arr) + (slice(None),)]
    )
    z_closed_form = pm.geometry.perspective_divisor(pm.beta, i_arr, j_arr)
    return np.max(np.abs(z - z_closed_form[..., None]), axis=-1)


@dataclass(frozen=True)
class SymmetryReport:
    """Maximum residuals of the three theorems over a sampled voxel grid."""

    theorem1_u: float
    theorem1_v: float
    theorem2_u_spread: float
    theorem3_z_residual: float

    def holds(self, atol: float = 1e-6) -> bool:
        """True if all residuals are below ``atol`` (relative to geometry scale)."""
        return (
            self.theorem1_u <= atol
            and self.theorem1_v <= atol
            and self.theorem2_u_spread <= atol
            and self.theorem3_z_residual <= atol
        )


def verify_geometry_symmetry(
    geometry: CBCTGeometry, *, beta: float = None, samples: int = 8
) -> SymmetryReport:
    """Evaluate all three theorems on a coarse voxel grid for one angle.

    The residuals are absolute (pixels for u/v, millimetres for z) and are
    expected to be at floating-point round-off level for any geometry built
    by :class:`CBCTGeometry` — the theorems are exact properties of the
    matrix factorization of Equation 2.
    """
    if beta is None:
        beta = geometry.theta * 0.37  # an arbitrary non-axis-aligned angle
    pm = geometry.projection_matrix(beta)
    ii = np.linspace(0, geometry.nx - 1, min(samples, geometry.nx)).round().astype(int)
    jj = np.linspace(0, geometry.ny - 1, min(samples, geometry.ny)).round().astype(int)
    kk = np.linspace(0, geometry.nz - 1, min(samples, geometry.nz)).round().astype(int)
    i_grid, j_grid = np.meshgrid(ii, jj, indexing="ij")

    du, dv = check_theorem1(
        pm,
        i_grid[..., None],
        j_grid[..., None],
        kk[None, None, :],
    )
    u_spread = check_theorem2(pm, i_grid.ravel(), j_grid.ravel())
    z_residual = check_theorem3(pm, i_grid.ravel(), j_grid.ravel())

    return SymmetryReport(
        theorem1_u=float(np.max(np.abs(du))),
        theorem1_v=float(np.max(np.abs(dv))),
        theorem2_u_spread=float(np.max(u_spread)),
        theorem3_z_residual=float(np.max(z_residual)),
    )
