"""Back-projection: the standard algorithm and the paper's proposed algorithm.

This module implements both back-projection schemes evaluated in the paper,
one filtered projection at a time:

* :func:`accumulate_standard` — Algorithm 2, the voxel-driven scheme used by
  RTK, RabbitCT and OSCaR: three inner products per voxel per projection to
  obtain ``(x, y, z)``, a reciprocal, the distance weight ``Wdis = 1/z²`` and
  a bilinear fetch.  The volume is stored i-major (``[k, j, i]``).
* :func:`accumulate_proposed` — Algorithm 4, the paper's contribution.  It
  exploits Theorems 2 and 3 to hoist ``u``, ``1/z`` and ``Wdis`` out of the
  innermost (Z) loop, and Theorem 1 to obtain the detector row of the
  mirrored voxel by reflection (``ṽ = Nv - 1 - v``) instead of a third inner
  product.  The volume is stored k-major (``[i, j, k]``) and takes each
  projection transposed (Algorithm 4 line 3) so the detector fetches are
  contiguous.

Both are fully vectorized over voxels with NumPy.  A whole stack goes
through the ``reference`` backend
(``get_backend("reference").backproject(stack, geometry, algorithm=...)``),
which folds it projection by projection into these accumulators and
reshapes the k-major volume at the end (Algorithm 4 line 22); the GPU kernel
variants of Table 3/4 in :mod:`repro.gpusim.kernels` name which of the two
algorithms ``reference`` runs for them.

Distributed operation
---------------------

The iFDK framework decomposes the output volume along Z into ``R``
sub-volumes (Section 4.1.1).  Both accumulation entry points therefore
accept a ``z_range`` so a rank can back-project only its own slab; the
proposed algorithm pairs mirrored slices whenever both ends of a pair fall
inside the slab and falls back to direct evaluation otherwise (identical
arithmetic, by Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import ProjectionMatrix
from .interpolation import bilinear_interpolate
from .types import DEFAULT_DTYPE, ReconstructionProblem

__all__ = [
    "accumulate_standard",
    "accumulate_proposed",
    "operation_counts",
    "projection_compute_reduction",
]

#: Z slices whose coordinates are computed in one vectorized batch (bounds
#: the size of the coordinate temporaries).
_Z_BATCH = 32


# --------------------------------------------------------------------------- #
# Algorithm 2 — standard (RTK-style) back-projection
# --------------------------------------------------------------------------- #
def accumulate_standard(
    volume: np.ndarray,
    projection: np.ndarray,
    pm: ProjectionMatrix,
    *,
    z_range: Optional[Tuple[int, int]] = None,
) -> None:
    """Accumulate one filtered projection into an i-major volume (Algorithm 2).

    Parameters
    ----------
    volume:
        The ``(Nz_local, Ny, Nx)`` accumulator, indexed ``[k, j, i]``.  When
        ``z_range`` is given the first axis covers ``[z_start, z_stop)`` of
        the global volume; otherwise it must cover the full ``Nz``.
    projection:
        The filtered projection ``Q_s`` of shape ``(Nv, Nu)``.
    pm:
        Projection matrix for this projection's gantry angle.
    z_range:
        Global Z index range ``(z_start, z_stop)`` held by ``volume``.
    """
    geometry = pm.geometry
    nz_local, ny, nx = volume.shape
    if (ny, nx) != (geometry.ny, geometry.nx):
        raise ValueError(
            f"volume XY extent {(ny, nx)} does not match geometry "
            f"{(geometry.ny, geometry.nx)}"
        )
    z_start, z_stop = z_range if z_range is not None else (0, geometry.nz)
    if z_stop - z_start != nz_local:
        raise ValueError("volume Z extent does not match z_range")
    if projection.shape != (geometry.nv, geometry.nu):
        raise ValueError(
            f"projection shape {projection.shape} does not match detector "
            f"({geometry.nv}, {geometry.nu})"
        )

    p = pm.matrix
    ii = np.arange(nx, dtype=np.float64)
    jj = np.arange(ny, dtype=np.float64)
    j_grid, i_grid = np.meshgrid(jj, ii, indexing="ij")  # (Ny, Nx)

    # Components that do not depend on k.
    x_base = p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]
    y_base = p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]
    z_base = p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]

    for k0 in range(0, nz_local, _Z_BATCH):
        k1 = min(k0 + _Z_BATCH, nz_local)
        ks = np.arange(z_start + k0, z_start + k1, dtype=np.float64)
        # Broadcast to (kc, Ny, Nx): Algorithm 2 computes the full 3-vector
        # (x, y, z) for every voxel — three inner products per voxel.
        x = x_base[None, :, :] + p[0, 2] * ks[:, None, None]
        y = y_base[None, :, :] + p[1, 2] * ks[:, None, None]
        z = z_base[None, :, :] + p[2, 2] * ks[:, None, None]
        f = 1.0 / z
        w = (f * f).astype(DEFAULT_DTYPE)
        u = x * f
        v = y * f
        samples = bilinear_interpolate(projection, u, v)
        volume[k0:k1] += w * samples


# --------------------------------------------------------------------------- #
# Algorithm 4 — proposed back-projection (symmetric, k-major)
# --------------------------------------------------------------------------- #
def _column_quantities(pm: ProjectionMatrix, ny: int, nx: int):
    """Per-(i, j) quantities hoisted out of the Z loop by Algorithm 4.

    Returns ``(u, f, w, y_base)`` each of shape ``(Ny, Nx)`` where
    ``u`` is the (constant along Z, Theorem 2) detector column, ``f = 1/z``
    (constant along Z, Theorem 3), ``w = f²`` the distance weight and
    ``y_base`` the k-independent part of the remaining inner product.
    """
    p = pm.matrix
    ii = np.arange(nx, dtype=np.float64)
    jj = np.arange(ny, dtype=np.float64)
    j_grid, i_grid = np.meshgrid(jj, ii, indexing="ij")
    # Algorithm 4 line 7: only two inner products, evaluated at k = 0.  The
    # i/j components of row 0 and row 2 carry no k dependence (Theorems 2, 3).
    x = p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]
    z = p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]
    f = 1.0 / z
    u = x * f
    w = f * f
    y_base = p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]
    return u, f, w, y_base


def accumulate_proposed(
    kmajor: np.ndarray,
    projection_t: np.ndarray,
    pm: ProjectionMatrix,
    *,
    z_range: Optional[Tuple[int, int]] = None,
    use_symmetry: bool = True,
) -> None:
    """Accumulate one transposed projection into a k-major volume (Algorithm 4).

    Parameters
    ----------
    kmajor:
        Accumulator of shape ``(Nx, Ny, Nz_local)`` indexed ``[i, j, k]``
        (the paper's ``I~``).
    projection_t:
        The transposed filtered projection ``Q~_s`` of shape ``(Nu, Nv)``
        (Algorithm 4 line 3).
    pm:
        Projection matrix for this projection's gantry angle.
    z_range:
        Global Z range held by ``kmajor`` (defaults to the full volume).
    use_symmetry:
        When True, mirrored slice pairs inside the slab are produced from a
        single inner product via Theorem 1 (``ṽ = Nv - 1 - v``); when False
        every slice is evaluated directly (used by ablation benchmarks).
    """
    geometry = pm.geometry
    nx, ny, nz_local = kmajor.shape
    if (nx, ny) != (geometry.nx, geometry.ny):
        raise ValueError(
            f"volume XY extent {(nx, ny)} does not match geometry "
            f"{(geometry.nx, geometry.ny)}"
        )
    z_start, z_stop = z_range if z_range is not None else (0, geometry.nz)
    if z_stop - z_start != nz_local:
        raise ValueError("k-major volume Z extent does not match z_range")
    if projection_t.shape != (geometry.nu, geometry.nv):
        raise ValueError(
            f"transposed projection shape {projection_t.shape} does not match "
            f"({geometry.nu}, {geometry.nv})"
        )

    p = pm.matrix
    nz_global = geometry.nz
    nv = geometry.nv
    u, f, w, y_base = _column_quantities(pm, ny, nx)
    u_t = u.T  # (Nx, Ny) to match the k-major [i, j, k] layout
    f_t = f.T
    w_t = (w.T).astype(DEFAULT_DTYPE)
    y_base_t = y_base.T

    local_ks = np.arange(z_start, z_stop, dtype=np.intp)

    if use_symmetry:
        # Pair global slice k with its mirror Nz-1-k whenever both live in
        # the slab; the mirror's detector row comes from Theorem 1.
        mirror = (nz_global - 1) - local_ks
        in_slab = (mirror >= z_start) & (mirror < z_stop)
        paired_lower = local_ks[(local_ks * 2 < nz_global - 1) & in_slab]
        center = local_ks[(local_ks * 2 == nz_global - 1) & in_slab]
        direct = np.concatenate(
            [local_ks[~in_slab], center]
        )
    else:
        paired_lower = np.array([], dtype=np.intp)
        direct = local_ks

    def fetch(v_coords: np.ndarray) -> np.ndarray:
        # Q~ is indexed [u, v]; bilinear_interpolate(image, col, row) with
        # col = v and row = u samples Q~(u, v) = Q(v, u).
        return bilinear_interpolate(
            projection_t, v_coords, u_t[:, :, None]
        )

    # --- symmetric pairs: one inner product serves two slices ------------- #
    for c0 in range(0, len(paired_lower), _Z_BATCH):
        ks = paired_lower[c0 : c0 + _Z_BATCH].astype(np.float64)
        y = y_base_t[:, :, None] + p[1, 2] * ks[None, None, :]
        v = y * f_t[:, :, None]
        v_mirror = (nv - 1) - v  # Theorem 1
        samples = fetch(v)
        samples_mirror = fetch(v_mirror)
        idx = (paired_lower[c0 : c0 + _Z_BATCH] - z_start).astype(np.intp)
        idx_mirror = ((nz_global - 1) - paired_lower[c0 : c0 + _Z_BATCH] - z_start).astype(np.intp)
        kmajor[:, :, idx] += w_t[:, :, None] * samples
        kmajor[:, :, idx_mirror] += w_t[:, :, None] * samples_mirror

    # --- unpaired slices: direct evaluation -------------------------------- #
    for c0 in range(0, len(direct), _Z_BATCH):
        ks = direct[c0 : c0 + _Z_BATCH].astype(np.float64)
        y = y_base_t[:, :, None] + p[1, 2] * ks[None, None, :]
        v = y * f_t[:, :, None]
        samples = fetch(v)
        idx = (direct[c0 : c0 + _Z_BATCH] - z_start).astype(np.intp)
        kmajor[:, :, idx] += w_t[:, :, None] * samples


# --------------------------------------------------------------------------- #
# Operation counting (the "1/6" claim of Section 3.2.2)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OperationCounts:
    """Arithmetic cost of the projection-coordinate computation.

    ``inner_products`` counts 1x4·4x1 dot products; ``multiplies`` and
    ``divides`` count the per-voxel scalar operations of the coordinate
    computation (the bilinear fetch and the accumulate are identical in both
    algorithms and are therefore excluded, exactly as in the paper's
    accounting).
    """

    inner_products: int
    multiplies: int
    divides: int

    @property
    def weighted_total(self) -> float:
        """Total scalar operations, counting an inner product as 7 flops."""
        return 7.0 * self.inner_products + self.multiplies + self.divides


def operation_counts(
    problem: ReconstructionProblem, algorithm: str
) -> OperationCounts:
    """Projection-coordinate operation counts for one full back-projection.

    For Algorithm 2 every voxel-projection pair evaluates three inner
    products, one reciprocal, one squaring and two coordinate multiplies.
    For Algorithm 4 the ``u``/``z`` inner products, the reciprocal, the
    squaring and the ``u`` multiply are evaluated once per (i, j) column and
    a single inner product plus one multiply is needed per *pair* of voxels
    (Theorem 1 gives the mirrored row by a subtraction).
    """
    voxels = problem.output_voxels
    columns = problem.nx * problem.ny
    np_ = problem.np_
    if algorithm == "standard":
        return OperationCounts(
            inner_products=3 * voxels * np_,
            multiplies=3 * voxels * np_,  # Wdis = f*f plus u, v scaling
            divides=voxels * np_,
        )
    if algorithm == "proposed":
        per_column = 2 * columns * np_  # x and z inner products (line 7)
        per_pair = (voxels // 2) * np_  # y inner product (line 12)
        return OperationCounts(
            inner_products=per_column + per_pair,
            multiplies=2 * columns * np_ + (voxels // 2) * np_ * 1 + voxels * np_ // 2,
            divides=columns * np_,
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


def projection_compute_reduction(problem: ReconstructionProblem) -> float:
    """Ratio of Algorithm 4 to Algorithm 2 inner-product counts.

    Section 3.2.2 states this tends to 1/6: one inner product per *pair* of
    voxels instead of three per voxel.  The ratio approaches 1/6 from above
    as ``Nz`` grows (the per-column terms amortize away).
    """
    std = operation_counts(problem, "standard")
    new = operation_counts(problem, "proposed")
    return new.inner_products / std.inner_products
