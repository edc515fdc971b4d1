"""Sub-pixel interpolation primitives (Algorithm 3 of the paper).

The back-projection stage fetches detector values at non-integer ``(u, v)``
coordinates; the paper uses bilinear interpolation (Algorithm 3), which on
the GPU is serviced either by the texture unit or by explicit loads through
the L1 cache.  This module provides:

* :func:`interp2` — a literal, scalar transcription of Algorithm 3 (used by
  tests as the ground truth and by the warp-level GPU simulation).
* :func:`bilinear_interpolate` — the vectorized form on SciPy's compiled
  ``map_coordinates``, with the same zero-padding boundary behaviour, used
  by the ``reference`` back-projection.
* :func:`trilinear_interpolate` — the 3-D analogue, used by the ray-marching
  forward projector and the iterative solvers;
  :func:`trilinear_interpolate_numpy` is its pure-NumPy oracle off the grid.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "interp2",
    "bilinear_interpolate",
    "trilinear_interpolate",
    "trilinear_interpolate_numpy",
]


@cache
def _ndimage():
    """``scipy.ndimage``, for its compiled ``map_coordinates``."""
    # Deferred to the first interpolation: only ``reference`` and forward projection use it.
    from scipy import ndimage

    return ndimage


def interp2(image: np.ndarray, u: float, v: float) -> float:
    """Bilinear interpolation at a single sub-pixel coordinate (Algorithm 3).

    ``image`` is indexed ``image[v, u]`` (row = v, column = u), matching the
    detector storage convention ``(Nv, Nu)``.  Samples outside the image are
    treated as zero, which is what the CUDA kernels get from the texture
    unit in clamp-to-border mode and what RTK's CPU path does.
    """
    nv, nu = image.shape
    nu_i = int(np.floor(u))
    nv_i = int(np.floor(v))
    du = u - nu_i
    dv = v - nv_i

    def pixel(uu: int, vv: int) -> float:
        if 0 <= uu < nu and 0 <= vv < nv:
            return float(image[vv, uu])
        return 0.0

    t1 = pixel(nu_i, nv_i) * (1.0 - du) + pixel(nu_i + 1, nv_i) * du
    t2 = pixel(nu_i, nv_i + 1) * (1.0 - du) + pixel(nu_i + 1, nv_i + 1) * du
    return t1 * (1.0 - dv) + t2 * dv


def bilinear_interpolate(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized bilinear interpolation with zero padding outside the image.

    Uses :func:`scipy.ndimage.map_coordinates` (compiled, order-1 spline with
    constant boundary — exactly bilinear with zero padding), which matches
    :func:`interp2` to floating-point round-off.

    Parameters
    ----------
    image:
        2-D array indexed ``image[v, u]``.
    u, v:
        Arrays of sub-pixel coordinates (broadcast against each other).

    Returns
    -------
    np.ndarray
        Interpolated values with the broadcast shape of ``u`` and ``v`` and
        the dtype of ``image`` (promoted to at least float32).
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {image.shape}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = np.broadcast_arrays(u, v)
    out_dtype = np.result_type(image.dtype, np.float32)
    coords = np.stack([v.ravel(), u.ravel()], axis=0)
    sampled = _ndimage().map_coordinates(
        image.astype(out_dtype, copy=False),
        coords,
        order=1,
        mode="grid-constant",
        cval=0.0,
        prefilter=False,
    )
    return sampled.reshape(u.shape).astype(out_dtype, copy=False)


def trilinear_interpolate(
    volume: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Vectorized trilinear interpolation in a ``(Nz, Ny, Nx)`` volume.

    Coordinates are voxel indices: ``x`` along the last (contiguous) axis,
    ``y`` along the middle axis and ``z`` along the first axis.  Samples
    outside the volume contribute zero.  Uses SciPy's compiled
    ``map_coordinates``.
    """
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got shape {volume.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    x, y, z = np.broadcast_arrays(x, y, z)
    out_dtype = np.result_type(volume.dtype, np.float32)
    coords = np.stack([z.ravel(), y.ravel(), x.ravel()], axis=0)
    sampled = _ndimage().map_coordinates(
        volume.astype(out_dtype, copy=False),
        coords,
        order=1,
        mode="grid-constant",
        cval=0.0,
        prefilter=False,
    )
    return sampled.reshape(x.shape).astype(out_dtype, copy=False)


def trilinear_interpolate_numpy(
    volume: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Pure-NumPy trilinear interpolation: the oracle that holds
    :func:`trilinear_interpolate` to the textbook formula off the grid."""
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got shape {volume.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    x, y, z = np.broadcast_arrays(x, y, z)

    nz, ny, nx = volume.shape
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    z0 = np.floor(z).astype(np.intp)
    fx = x - x0
    fy = y - y0
    fz = z - z0

    out_dtype = np.result_type(volume.dtype, np.float32)

    def gather(xi: np.ndarray, yi: np.ndarray, zi: np.ndarray) -> np.ndarray:
        valid = (
            (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny) & (zi >= 0) & (zi < nz)
        )
        xi_c = np.clip(xi, 0, nx - 1)
        yi_c = np.clip(yi, 0, ny - 1)
        zi_c = np.clip(zi, 0, nz - 1)
        values = volume[zi_c, yi_c, xi_c].astype(out_dtype, copy=False)
        return np.where(valid, values, out_dtype.type(0))

    c000 = gather(x0, y0, z0)
    c100 = gather(x0 + 1, y0, z0)
    c010 = gather(x0, y0 + 1, z0)
    c110 = gather(x0 + 1, y0 + 1, z0)
    c001 = gather(x0, y0, z0 + 1)
    c101 = gather(x0 + 1, y0, z0 + 1)
    c011 = gather(x0, y0 + 1, z0 + 1)
    c111 = gather(x0 + 1, y0 + 1, z0 + 1)

    c00 = c000 * (1.0 - fx) + c100 * fx
    c10 = c010 * (1.0 - fx) + c110 * fx
    c01 = c001 * (1.0 - fx) + c101 * fx
    c11 = c011 * (1.0 - fx) + c111 * fx

    c0 = c00 * (1.0 - fy) + c10 * fy
    c1 = c01 * (1.0 - fy) + c11 * fy
    return (c0 * (1.0 - fz) + c1 * fz).astype(out_dtype, copy=False)
