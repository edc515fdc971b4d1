"""Sub-pixel interpolation primitives (Algorithm 3 of the paper).

The back-projection stage fetches detector values at non-integer ``(u, v)``
coordinates; the paper uses bilinear interpolation (Algorithm 3), which on
the GPU is serviced either by the texture unit or by explicit loads through
the L1 cache.  This module provides:

* :func:`interp2` — a literal, scalar transcription of Algorithm 3 (used by
  tests as the ground truth).
* :func:`bilinear_interpolate` — the vectorized form on SciPy's compiled
  ``map_coordinates``, with the same zero-padding boundary behaviour, used
  by the ``reference`` back-projection.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "interp2",  # repro-lint: disable=dead-export -- Algorithm 3 verbatim: the ground truth tests hold the sampler to
    "bilinear_interpolate",
]


@cache
def _ndimage():
    """``scipy.ndimage``, for its compiled ``map_coordinates``."""
    # Deferred to the first interpolation: only the ``reference`` backend uses it.
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
