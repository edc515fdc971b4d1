"""Ray-redundancy weighting tables for non-ideal acquisition scenarios.

The full-scan FDK of the paper integrates over ``2π`` with measure
``dβ/2`` — every parallel ray is measured exactly twice, and the factor
``1/2`` shares the weight evenly between the two measurements.  Real
acquisitions break that symmetry:

* a **short scan** covers only ``π + 2Δ`` (``Δ`` = half fan angle), where
  some rays are measured twice and some once;
* an **offset detector** rotates the full ``2π`` but sees the conjugate of
  a ray only on the overlap side of the shifted panel.

Both are handled by a *redundancy weight* ``w(β, γ)`` per (projection,
detector column): the raw weights of each conjugate-ray pair sum to **1**
(every parallel ray contributes unit total weight, exactly like the
``1/2 + 1/2`` of the ideal scan), and smooth ``sin²`` transitions keep the
weights continuous in ``β`` and ``γ`` so the ramp filter does not ring at
region boundaries (Parker 1982; Wang 2002 for the offset detector).

Because the repo's FDK normalization keeps the full-scan measure
``d²·Δβ/2``, the *applied* table is ``2·w`` — the ideal scan's raw weight
is the constant ``1/2``, giving an applied table of ones, i.e. the seed's
original arithmetic is the identity member of the same family.

Conjugate-ray geometry (fan beam): the ray at gantry angle ``β`` and fan
angle ``γ`` coincides with the ray at ``(β + π + 2γ, −γ)``.  This is the
"mirror ray" whose weight must complement ``w(β, γ)`` — the invariant the
property tests pin down alongside the paper's Theorems 1–3.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "parker_weights",
    "offset_detector_weights",
]

#: Numerical floor for transition-region denominators (radians / mm).
_EPS = 1e-12


def parker_weights(
    betas: np.ndarray, gammas: np.ndarray, delta: float
) -> np.ndarray:
    """Raw Parker short-scan weights ``w(β, γ)`` of shape ``(Np, Nu)``.

    Parameters
    ----------
    betas:
        Gantry angles measured from the scan start (radians), shape ``(Np,)``.
        The scan covers ``[0, π + 2δ]``.
    gammas:
        Per-detector-column fan angles (radians), shape ``(Nu,)``; must
        satisfy ``|γ| <= δ``.
    delta:
        Half fan angle ``δ`` of the scan's nominal range ``π + 2δ``.  When
        the discrete trajectory over-scans the minimal ``π + 2Δ`` (the step
        angle rarely divides it exactly), pass the *effective*
        ``δ = (range − π)/2 >= Δ`` — the standard over-scan generalization.

    Returns
    -------
    The piecewise-``sin²`` Parker weights:

    * ``w = sin²((π/4)·β/(δ−γ))``              for ``β < 2(δ−γ)``,
    * ``w = 1``                                 in the fully-covered middle,
    * ``w = sin²((π/4)·(π+2δ−β)/(δ+γ))``       for ``β > π−2γ``,
    * ``w = 0``                                 outside ``[0, π+2δ]``.

    For every conjugate pair inside the range, ``w(β,γ) + w(β+π+2γ,−γ) = 1``
    (the transition arguments sum to ``π/2``); rays measured only once get
    weight 1.  The *applied* filtering table is ``2·w`` (module docstring).
    """
    betas = np.asarray(betas, dtype=np.float64).reshape(-1, 1)
    gammas = np.asarray(gammas, dtype=np.float64).reshape(1, -1)
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if np.any(np.abs(gammas) > delta + 1e-9):
        raise ValueError(
            "fan angles exceed delta; the short-scan range pi + 2*delta "
            "does not cover the detector"
        )
    end = np.pi + 2.0 * delta
    ramp_in = np.sin(
        (np.pi / 4.0) * betas / np.maximum(delta - gammas, _EPS)
    ) ** 2
    ramp_out = np.sin(
        (np.pi / 4.0) * (end - betas) / np.maximum(delta + gammas, _EPS)
    ) ** 2
    w = np.where(
        betas < 2.0 * (delta - gammas),
        ramp_in,
        np.where(betas > np.pi - 2.0 * gammas, ramp_out, 1.0),
    )
    in_range = (betas >= -1e-12) & (betas <= end + 1e-12)
    return np.where(in_range, w, 0.0)


def offset_detector_weights(
    u_mm: np.ndarray, overlap_half_mm: float
) -> np.ndarray:
    """Raw virtual-full-fan weights for an offset (half-fan) detector.

    A detector shifted towards ``+u`` still measures both conjugates of a
    ray only inside the overlap band ``|u| <= overlap_half_mm`` around the
    principal ray; beyond it each ray is seen once per rotation.  The
    weights (Wang 2002) blend the double-covered band smoothly:

    * ``w = 0``                                for ``u < −overlap``,
    * ``w = sin²((π/4)·(1 + u/overlap))``      for ``|u| <= overlap``,
    * ``w = 1``                                for ``u > overlap``,

    so that ``w(u) + w(−u) = 1`` — the conjugate column sits at ``−u``.
    For a detector shifted towards ``−u``, pass ``−u_mm``.  As with the
    Parker weights, the applied filtering table is ``2·w``.

    Parameters
    ----------
    u_mm:
        Physical column offsets from the principal ray (mm), shape ``(Nu,)``.
    overlap_half_mm:
        Half-width (mm) of the double-covered band — the distance from the
        principal ray to the *near* edge of the shifted panel.
    """
    overlap_half_mm = float(overlap_half_mm)
    if overlap_half_mm <= 0:
        raise ValueError(
            "overlap_half_mm must be positive: the offset detector must "
            "still cover the principal ray with margin on both sides"
        )
    u_mm = np.asarray(u_mm, dtype=np.float64)
    t = np.clip(u_mm / overlap_half_mm, -1.0, 1.0)
    return np.sin((np.pi / 4.0) * (1.0 + t)) ** 2
