"""Iterative reconstruction methods built on the same projection operators.

Section 1 and Section 6.2 of the paper argue that the proposed
back-projection algorithm "is also general and thus can be adopted by
iterative reconstruction methods, in which the back-projection is required
to be repeated dozens of times, e.g. ART, SART, MLEM, and MBIR".  This module
demonstrates that claim: every solver below is expressed purely in terms of

* the forward operator ``A``  — :func:`repro.core.forward.forward_project_volume`
* the back-projection operator ``Aᵀ`` — Algorithm 2 or Algorithm 4
  (selectable per solver), run through the ``reference`` backend's
  ``backproject``, the one whole-stack entry point to the literal
  transcriptions in :mod:`repro.core.backprojection`,

so switching the back-projection algorithm changes the runtime but not the
result (validated by the test-suite).

The solvers implement the classical update rules:

* **SIRT** — simultaneous update with row/column sum normalization.
* **SART** — per-projection (ordered-subsets of size 1) relaxed update.
* **MLEM / OSEM** — multiplicative expectation-maximization update for
  emission-style data (non-negative volumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .forward import forward_project_volume
from .geometry import CBCTGeometry
from .types import DEFAULT_DTYPE, ProjectionStack, Volume

__all__ = [
    "IterativeResult",
    "sirt",
    "sart",
    "mlem",
    "osem",
]

_EPS = np.float32(1e-8)


@dataclass
class IterativeResult:
    """Output of an iterative solver."""

    volume: Volume
    residual_history: List[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")


def _backproject(
    stack: ProjectionStack, geometry: CBCTGeometry, algorithm: str
) -> Volume:
    from ..backends import get_backend  # late import: backends import core

    return get_backend("reference").backproject(stack, geometry, algorithm=algorithm)


def _residual_norm(residual: np.ndarray) -> float:
    return float(np.sqrt(np.mean(residual.astype(np.float64) ** 2)))


def _ones_stack(stack: ProjectionStack) -> ProjectionStack:
    return ProjectionStack(
        data=np.ones_like(stack.data), angles=stack.angles.copy(), filtered=True
    )


def sirt(
    measured: ProjectionStack,
    geometry: CBCTGeometry,
    *,
    iterations: int = 10,
    relaxation: float = 1.0,
    algorithm: str = "proposed",
    initial: Optional[Volume] = None,
    step_mm: Optional[float] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> IterativeResult:
    """Simultaneous Iterative Reconstruction Technique.

    Update rule: ``x ← x + λ · C · Aᵀ R (b − A x)`` where ``R`` and ``C`` are
    the reciprocal row and column sums of the system matrix (estimated by
    projecting/back-projecting a field of ones).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = (initial.copy() if initial is not None else Volume.zeros(
        geometry.nx, geometry.ny, geometry.nz, geometry.voxel_pitch
    ))

    row_sums = forward_project_volume(
        Volume(np.ones(geometry.volume_shape, dtype=DEFAULT_DTYPE),
               voxel_pitch=geometry.voxel_pitch),
        geometry, measured.angles, step_mm=step_mm,
    ).data
    col_sums = _backproject(_ones_stack(measured), geometry, algorithm).data

    inv_rows = 1.0 / np.maximum(row_sums, _EPS)
    inv_cols = 1.0 / np.maximum(col_sums, _EPS)

    history: List[float] = []
    for it in range(iterations):
        simulated = forward_project_volume(x, geometry, measured.angles, step_mm=step_mm)
        residual = measured.data - simulated.data
        history.append(_residual_norm(residual))
        correction = _backproject(
            ProjectionStack(residual * inv_rows, measured.angles, filtered=True),
            geometry,
            algorithm,
        ).data
        x.data += DEFAULT_DTYPE(relaxation) * inv_cols * correction
        if callback is not None:
            callback(it, history[-1])
    return IterativeResult(volume=x, residual_history=history, iterations=iterations)


def sart(
    measured: ProjectionStack,
    geometry: CBCTGeometry,
    *,
    iterations: int = 3,
    relaxation: float = 0.5,
    algorithm: str = "proposed",
    initial: Optional[Volume] = None,
    step_mm: Optional[float] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> IterativeResult:
    """Simultaneous Algebraic Reconstruction Technique (per-projection updates).

    Each iteration sweeps the projections one at a time (Andersen & Kak 1984),
    normalizing by the per-projection row sums and the column sums of that
    single view.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = (initial.copy() if initial is not None else Volume.zeros(
        geometry.nx, geometry.ny, geometry.nz, geometry.voxel_pitch
    ))
    ones_volume = Volume(
        np.ones(geometry.volume_shape, dtype=DEFAULT_DTYPE),
        voxel_pitch=geometry.voxel_pitch,
    )

    history: List[float] = []
    for it in range(iterations):
        sq_sum = 0.0
        count = 0
        for view in range(measured.np_):
            angle = np.asarray([measured.angles[view]])
            single = measured.subset([view])
            simulated = forward_project_volume(x, geometry, angle, step_mm=step_mm)
            residual = single.data - simulated.data
            sq_sum += float(np.sum(residual.astype(np.float64) ** 2))
            count += residual.size
            row_sums = forward_project_volume(
                ones_volume, geometry, angle, step_mm=step_mm
            ).data
            weighted = residual / np.maximum(row_sums, _EPS)
            correction = _backproject(
                ProjectionStack(weighted, angle, filtered=True), geometry, algorithm
            ).data
            col_sums = _backproject(
                ProjectionStack(np.ones_like(single.data), angle, filtered=True),
                geometry,
                algorithm,
            ).data
            x.data += DEFAULT_DTYPE(relaxation) * correction / np.maximum(col_sums, _EPS)
        history.append(float(np.sqrt(sq_sum / max(count, 1))))
        if callback is not None:
            callback(it, history[-1])
    return IterativeResult(volume=x, residual_history=history, iterations=iterations)


def mlem(
    measured: ProjectionStack,
    geometry: CBCTGeometry,
    *,
    iterations: int = 10,
    algorithm: str = "proposed",
    initial: Optional[Volume] = None,
    step_mm: Optional[float] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> IterativeResult:
    """Maximum-Likelihood Expectation-Maximization (Shepp & Vardi 1982).

    Multiplicative update ``x ← x / (Aᵀ 1) · Aᵀ (b / A x)``; requires
    non-negative data and produces non-negative volumes.
    """
    return osem(
        measured,
        geometry,
        subsets=1,
        iterations=iterations,
        algorithm=algorithm,
        initial=initial,
        step_mm=step_mm,
        callback=callback,
    )


def osem(
    measured: ProjectionStack,
    geometry: CBCTGeometry,
    *,
    subsets: int = 4,
    iterations: int = 5,
    algorithm: str = "proposed",
    initial: Optional[Volume] = None,
    step_mm: Optional[float] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> IterativeResult:
    """Ordered-Subsets Expectation-Maximization (OSEM).

    ``subsets=1`` reduces to MLEM.  Projections are partitioned round-robin
    into ``subsets`` groups; each sub-iteration applies the MLEM update using
    only one group, which converges much faster per unit work.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 1 <= subsets <= measured.np_:
        raise ValueError("subsets must be between 1 and the number of projections")
    if np.any(measured.data < 0):
        raise ValueError("MLEM/OSEM require non-negative projection data")

    if initial is not None:
        x = initial.copy()
        if np.any(x.data <= 0):
            raise ValueError("MLEM/OSEM require a strictly positive initial volume")
    else:
        x = Volume(
            np.ones(geometry.volume_shape, dtype=DEFAULT_DTYPE),
            voxel_pitch=geometry.voxel_pitch,
        )

    subset_indices = [
        np.arange(s, measured.np_, subsets, dtype=np.intp) for s in range(subsets)
    ]

    history: List[float] = []
    for it in range(iterations):
        sq_sum = 0.0
        count = 0
        for indices in subset_indices:
            sub = measured.subset(indices)
            angles = sub.angles
            simulated = forward_project_volume(x, geometry, angles, step_mm=step_mm)
            sq_sum += float(np.sum((sub.data - simulated.data).astype(np.float64) ** 2))
            count += sub.data.size
            ratio = sub.data / np.maximum(simulated.data, _EPS)
            numerator = _backproject(
                ProjectionStack(ratio, angles, filtered=True), geometry, algorithm
            ).data
            sensitivity = _backproject(
                ProjectionStack(np.ones_like(sub.data), angles, filtered=True),
                geometry,
                algorithm,
            ).data
            x.data *= numerator / np.maximum(sensitivity, _EPS)
        history.append(float(np.sqrt(sq_sum / max(count, 1))))
        if callback is not None:
            callback(it, history[-1])
    return IterativeResult(volume=x, residual_history=history, iterations=iterations)
