"""Performance and image-quality metrics used throughout the evaluation.

* **GUPS** (giga-updates per second) — the paper's throughput metric
  (Section 2.3): ``Nx·Ny·Nz·Np / (T · 2^30)``.
* **RMSE** — used in Section 5.1 to compare the framework's output against
  the RTK CPU reference ("the RMSE is less than 10e-5").
* **PSNR / normalized cross-correlation** — standard reconstruction-quality
  measures used by the test-suite to validate FDK against the analytic
  phantom.
"""

from __future__ import annotations

import numpy as np

from .types import ReconstructionProblem

__all__ = [
    "gups",
    "rmse",
    "psnr",
    "normalized_cross_correlation",
    "interior_mask",
]


def gups(problem: ReconstructionProblem, seconds: float) -> float:
    """Giga-updates per second for solving ``problem`` in ``seconds``."""
    return problem.gups(seconds)


def _as_pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def rmse(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root-mean-square error between two arrays (optionally masked)."""
    a, b = _as_pair(a, b)
    diff = a - b
    if mask is not None:
        diff = diff[np.asarray(mask, dtype=bool)]
    if diff.size == 0:
        raise ValueError("mask selects no elements")
    return float(np.sqrt(np.mean(diff * diff)))


def psnr(a: np.ndarray, reference: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Peak signal-to-noise ratio (dB) of ``a`` against ``reference``."""
    a, reference = _as_pair(a, reference)
    peak = float(np.max(np.abs(reference)))
    if peak == 0:
        raise ValueError("reference has zero dynamic range")
    err = rmse(a, reference, mask)
    if err == 0:
        return float("inf")
    return float(20.0 * np.log10(peak / err))


def normalized_cross_correlation(
    a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Pearson correlation between two arrays (optionally masked)."""
    a, b = _as_pair(a, b)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        a = a[mask]
        b = b[mask]
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0:
        return 0.0
    return float(np.sum(a * b) / denom)


def interior_mask(shape, fraction: float = 0.8) -> np.ndarray:
    """Boolean mask of the central ellipsoid covering ``fraction`` of each axis.

    Cone-beam FDK is only quantitatively exact near the central plane and
    inside the scanned field of view; quality metrics are therefore evaluated
    on an interior region, which is standard practice (and what the paper's
    profile-based inspection does implicitly).
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    grids = []
    for n in shape:
        coords = (np.arange(n) - (n - 1) / 2.0) / (max(n, 2) / 2.0)
        grids.append(coords / fraction)
    zz, yy, xx = np.meshgrid(*grids, indexing="ij")
    return (xx * xx + yy * yy + zz * zz) <= 1.0
