"""Declarative noise models for acquisition scenarios.

A :class:`NoiseModel` is the frozen, hashable description of a measurement
noise process — the scenario layer stores it, cache keys serialize it, and
:meth:`NoiseModel.apply` runs the forward model itself (seeded Poisson
photon counting plus Gaussian electronic noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import DEFAULT_DTYPE, ProjectionStack

__all__ = ["NoiseModel"]


@dataclass(frozen=True)
class NoiseModel:
    """Seeded Poisson + Gaussian measurement noise description.

    Parameters
    ----------
    photons:
        Unattenuated photon count ``N₀`` per detector pixel (the dose knob:
        lower means noisier).
    electronic_sigma:
        Standard deviation of the additive electronic noise, in counts.
    attenuation_scale:
        Attenuation per unit line integral (converts the phantom's density
        units into Beer–Lambert exponent; pick it so the peak attenuation
        lands in a physical range, e.g. 2–5).
    seed:
        RNG seed.  The same (stack, model) pair always yields the same
        noisy stack — across runs, machines and compute backends.
    """

    photons: float = 1.0e5
    electronic_sigma: float = 5.0
    attenuation_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.photons <= 0:
            raise ValueError("photons must be positive")
        if self.electronic_sigma < 0:
            raise ValueError("electronic_sigma must be non-negative")
        if self.attenuation_scale <= 0:
            raise ValueError("attenuation_scale must be positive")

    @property
    def token(self) -> str:
        """Deterministic identity string (used in scenario cache tokens)."""
        return (
            f"poisson({self.photons:g},{self.electronic_sigma:g},"
            f"{self.attenuation_scale:g},seed={self.seed})"
        )

    def apply(self, stack: ProjectionStack) -> ProjectionStack:
        """Run the measurement model on an ideal line-integral stack.

        Physical CBCT projections are log-transformed photon counts, not
        clean line integrals.  For an ideal stack ``p`` (line integrals,
        mm·density) this computes:

        1. expected counts ``λ = N₀ · exp(−μ·p)`` with ``μ =
           attenuation_scale`` (Beer–Lambert; the scale converts the
           phantom's arbitrary density units into attenuation per mm),
        2. a Poisson draw per detector pixel (quantum noise),
        3. additive Gaussian electronic noise of ``electronic_sigma`` counts,
        4. the log transform back to line integrals,
           ``p̂ = −ln(max(counts, 1)/N₀)/μ`` — counts are floored at one
           photon, the usual guard against photon starvation.

        The draw is fully determined by ``seed`` (a fresh
        ``numpy.random.default_rng``).
        """
        rng = np.random.default_rng(self.seed)
        p = stack.data.astype(np.float64)
        # Clip the exponent so λ stays inside the Poisson sampler's int64
        # range (negative integrals can occur on synthetic/noise-only stacks).
        attenuation = np.clip(self.attenuation_scale * p, -20.0, 50.0)
        lam = self.photons * np.exp(-attenuation)
        counts = rng.poisson(lam).astype(np.float64)
        if self.electronic_sigma > 0:
            counts += rng.normal(0.0, self.electronic_sigma, counts.shape)
        counts = np.maximum(counts, 1.0)
        noisy = -np.log(counts / self.photons) / self.attenuation_scale
        return ProjectionStack(
            data=noisy.astype(DEFAULT_DTYPE),
            angles=stack.angles.copy(),
            filtered=stack.filtered,
        )
