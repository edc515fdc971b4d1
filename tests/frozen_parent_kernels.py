"""The block kernels as they stood before the memory-traffic rewrite (PR 13).

Frozen verbatim from ``src/repro/backends/vectorized.py`` at commit 7890a3a
and never edited: ``tests/test_block_kernels.py`` holds the live kernels to
``np.array_equal`` against these, which is what lets the goldens and every
recorded hash survive a kernel rewrite.  Each call handles one projection
and one whole ``(K, By, Nx)`` block with full-size temporaries — the memory
behaviour the rewrite removed, and the reason this lives under ``tests/``.

The second half keeps the filter stage's shared sequence as it stood before
the row-group fusion (PR 14), under the same rule.
"""

from typing import Callable, Optional

import numpy as np

from repro.core.filtering import (
    apply_ramp_filter,
    cosine_weight_table,
    ramp_filter_frequency_response,
)
from repro.core.geometry import CBCTGeometry
from repro.core.types import DEFAULT_DTYPE, ProjectionStack


def _gather_dtype(max_index: int):
    """Smallest integer dtype for gather indices (int32 halves index traffic)."""
    return np.int32 if max_index < 2**31 - 1 else np.intp


def _padded_index(coord_int: np.ndarray, bound: int, dtype) -> np.ndarray:
    """Map floor coordinates onto a double-zero-padded axis.

    ``coord_int`` holds float64 ``floor`` values; the returned integers index
    an axis laid out as ``[0, 0, data[0..bound-1], 0, 0]``.  Clipping to
    ``[-2, bound]`` parks every out-of-range neighbour (and the neighbour's
    ``+1`` successor) on a zero sample, which replaces the bounds masks of a
    classic bilinear gather with plain arithmetic.
    """
    return (np.clip(coord_int, -2.0, float(bound)) + 2.0).astype(dtype)


def accumulate_proposed_block(
    out_block: np.ndarray,
    projection: np.ndarray,
    p: np.ndarray,
    ks: np.ndarray,
    i_grid: np.ndarray,
    j_grid: np.ndarray,
) -> None:
    """Fused Algorithm 4 update of one ``(K, By, Nx)`` block.

    Parameters
    ----------
    out_block:
        Float32 accumulator view of shape ``(K, By, Nx)`` — Z slices ``ks``
        by a Y tile by the full X extent, in the i-major layout.
    projection:
        One filtered projection ``(Nv, Nu)``.
    p:
        The 3x4 projection matrix for this projection's angle.
    ks:
        Global Z indices of the block's slices, float64 ``(K,)``.
    i_grid, j_grid:
        Float64 index meshes of shape ``(By, Nx)`` for the Y tile.
    """
    nv, nu = projection.shape
    n_k = len(ks)
    n_y, n_x = i_grid.shape
    n_cols = n_y * n_x
    # Theorems 2 and 3: u, 1/z and Wdis depend only on (i, j).  This block is
    # K-independent, so it stays in float64 — it is amortized over all Z.
    x = p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]
    z = p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]
    f = 1.0 / z
    u = x * f
    w = f * f
    y_base = p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]

    # Fold the u interpolation and the distance weight into per-column
    # detector tables: cols[v, jy, ix] = Wdis * ((1-du)·Q[v,u0] + du·Q[v,u0+1]),
    # stored inside two zero rows top and bottom so the Z-loop gathers below
    # need no bounds masks.
    u0 = np.floor(u).astype(np.intp)
    du = u - u0
    left_ok = (u0 >= 0) & (u0 < nu)
    right_ok = (u0 + 1 >= 0) & (u0 + 1 < nu)
    u0c = np.clip(u0, 0, nu - 1).ravel()
    u1c = np.clip(u0 + 1, 0, nu - 1).ravel()
    cw_left = (np.where(left_ok, 1.0 - du, 0.0) * w).astype(np.float32).ravel()
    cw_right = (np.where(right_ok, du, 0.0) * w).astype(np.float32).ravel()
    padded = np.zeros((nv + 4, n_cols), dtype=np.float32)
    np.add(
        projection[:, u0c] * cw_left,
        projection[:, u1c] * cw_right,
        out=padded[2 : nv + 2],
    )
    flat_cols = padded.ravel()

    # Theorem 3 again: v is affine in k with slope p[1,2]·f per column.  The
    # coordinate is computed in float64 (sub-pixel accuracy), the blend in
    # float32 — a single rounding per sample, like the reference path.
    v = (y_base * f).ravel()[None, :] + (p[1, 2] * f).ravel()[None, :] * ks[:, None]
    v0 = np.floor(v)
    dv = (v - v0).astype(np.float32)
    dtype = _gather_dtype((nv + 4) * n_cols)
    index = _padded_index(v0, nv, dtype)
    index *= n_cols
    index += np.arange(n_cols, dtype=dtype)[None, :]
    sample_low = flat_cols.take(index)
    index += n_cols
    sample_high = flat_cols.take(index)
    sample_low *= 1.0 - dv
    sample_high *= dv
    sample_low += sample_high
    out_block += sample_low.reshape(n_k, n_y, n_x)


def accumulate_standard_block(
    out_block: np.ndarray,
    projection: np.ndarray,
    p: np.ndarray,
    ks: np.ndarray,
    i_grid: np.ndarray,
    j_grid: np.ndarray,
) -> None:
    """Fused Algorithm 2 update of one ``(K, By, Nx)`` block.

    Three inner products per voxel (no hoisting — this is the standard
    scheme), with the bilinear fetch done as four masked flat gathers fused
    with the ``Wdis`` weighting.
    """
    nv, nu = projection.shape
    n_k = len(ks)
    n_y, n_x = i_grid.shape
    x_base = p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]
    y_base = p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]
    z_base = p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]
    kcol = ks[:, None, None]
    # Coordinates in float64 (sub-pixel accuracy); weights and samples in
    # float32, matching the single rounding per sample of the reference.
    x = x_base[None, :, :] + p[0, 2] * kcol
    y = y_base[None, :, :] + p[1, 2] * kcol
    z = z_base[None, :, :] + p[2, 2] * kcol
    f = 1.0 / z
    u = x * f
    v = y * f
    w = (f * f).astype(np.float32)

    # The projection is embedded in a plane with two zero rows/columns on
    # every side, so all four bilinear neighbours resolve by arithmetic
    # alone — out-of-detector fetches land on stored zeros, no masks.
    width = nu + 4
    plane = np.zeros((nv + 4, width), dtype=np.float32)
    plane[2 : nv + 2, 2 : nu + 2] = projection
    flat_plane = plane.ravel()

    u0 = np.floor(u)
    v0 = np.floor(v)
    du = (u - u0).astype(np.float32)
    dv = (v - v0).astype(np.float32)
    dtype = _gather_dtype((nv + 4) * width)
    index = _padded_index(v0, nv, dtype)
    index *= width
    index += _padded_index(u0, nu, dtype)
    p00 = flat_plane.take(index)
    index += 1
    p10 = flat_plane.take(index)
    index += width
    p11 = flat_plane.take(index)
    index -= 1
    p01 = flat_plane.take(index)

    t1 = p00 * (1.0 - du) + p10 * du
    t2 = p01 * (1.0 - du) + p11 * du
    out_block += w * (t1 * (1.0 - dv) + t2 * dv)


# --------------------------------------------------------------------------- #
# The filter stage as it stood before the row-group fusion (PR 14)
# --------------------------------------------------------------------------- #
# Frozen verbatim from ``src/repro/core/filtering.py`` (``filter_projections``)
# at commit d6a5f35 and never edited: ``tests/test_filter_fusion.py`` holds the
# ``reference`` backend's filter to its complex-FFT path (``convolve=None``)
# bit for bit.  Whole-stack ``stack * fcos``, spectrum, product and inverse
# temporaries and all — the memory behaviour the fusion removed.  The tables
# it reads are unchanged library functions.  (The real-FFT ``rfft_ramp_filter``
# frozen beside it retired when the tiled filter went single precision: that
# path is held to ``reference`` by a bound and to itself by ``==`` now.)
def filter_projections(
    stack: ProjectionStack,
    geometry: CBCTGeometry,
    window: str = "ram-lak",
    *,
    extra_scale: float = 1.0,
    redundancy: Optional[np.ndarray] = None,
    convolve: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None,
) -> ProjectionStack:
    """Algorithm 1: cosine weighting followed by row-wise ramp filtering.

    This is the one place the cosine → redundancy → ramp → scale sequence
    is written; every backend's ``filter_stack`` runs it with its own
    convolution.  ``extra_scale`` is an optional constant folded into the
    output (used by ``filter_stack`` to absorb the FDK
    normalization).  ``redundancy`` is an optional ``(Np, Nu)`` float
    table — one weight per (projection, detector column), constant along
    V — multiplied in with the cosine weights, *before* the ramp filter:
    the hook acquisition scenarios use for Parker/short-scan and
    offset-detector ray-redundancy handling.
    ``convolve(rows, response, tau)`` is the row convolution
    (:meth:`ComputeBackend.apply_filter <repro.backends.base.ComputeBackend.apply_filter>`);
    the default is the reference complex-FFT :func:`apply_ramp_filter`.
    """
    if stack.nu != geometry.nu or stack.nv != geometry.nv:
        raise ValueError(
            f"projection stack ({stack.nv}x{stack.nu}) does not match detector "
            f"({geometry.nv}x{geometry.nu})"
        )
    fcos = cosine_weight_table(geometry)
    # Virtual-detector pitch: detector pitch scaled back to the rotation axis.
    tau = geometry.du * geometry.sad / geometry.sdd
    response = ramp_filter_frequency_response(geometry.nu, tau, window)
    weighted = stack.data * fcos[None, :, :]
    if redundancy is not None:
        redundancy = np.asarray(redundancy, dtype=np.float64)
        if redundancy.shape != (stack.np_, stack.nu):
            raise ValueError(
                f"redundancy table shape {redundancy.shape} does not match "
                f"(Np, Nu) = ({stack.np_}, {stack.nu})"
            )
        weighted = (weighted * redundancy[:, None, :]).astype(
            DEFAULT_DTYPE, copy=False
        )
    if convolve is None:
        filtered = apply_ramp_filter(weighted, tau, response=response)
    else:
        filtered = convolve(weighted, response, tau)
    if extra_scale != 1.0:
        filtered = filtered * DEFAULT_DTYPE(extra_scale)
    return ProjectionStack(
        data=filtered.astype(DEFAULT_DTYPE, copy=False),
        angles=stack.angles.copy(),
        filtered=True,
    )
