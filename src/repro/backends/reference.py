"""The ``reference`` backend: the paper-literal NumPy hot paths.

This backend is the ground truth of the conformance contract.  It routes
straight to the literal Algorithm 1/2/4 transcriptions in
:mod:`repro.core.filtering` and :mod:`repro.core.backprojection` — the code
every paper-facing test was written against — so its outputs are *defined*
to be correct, and every other backend is measured against it.

Its ``filter_stack`` and ``backproject(algorithm=...)`` are the one
whole-stack entry point to those transcriptions: the tests' fixtures and
the Table 3 kernel variants of :mod:`repro.gpusim.kernels` run them through
here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.backprojection import accumulate_proposed, accumulate_standard
from ..core.filtering import apply_ramp_filter_into
from ..core.geometry import CBCTGeometry
from ..core.types import DEFAULT_DTYPE, Volume
from .base import ComputeBackend, VolumeAccumulator

__all__ = ["ReferenceBackend"]


class _ReferenceAccumulator(VolumeAccumulator):
    """Per-projection accumulation with the paper's literal arithmetic.

    The proposed algorithm accumulates into the k-major layout (the paper's
    ``I~``) and reshapes on :meth:`volume` (Algorithm 4 line 22, through
    :meth:`Volume.from_kmajor <repro.core.types.Volume.from_kmajor>`); the
    standard algorithm accumulates i-major directly and hands that buffer
    over.  The transpose cannot run in place when ``Nx != Nz_local``, so the
    proposed hand-over holds two volumes for the length of that one call.
    Both run with the paper defaults of
    :func:`~repro.core.backprojection.accumulate_proposed` (Theorem-1
    symmetry on, 32-slice coordinate batches).
    """

    backend = "reference"

    def __init__(self, geometry: CBCTGeometry, **kwargs):
        super().__init__(geometry, **kwargs)
        shape = (self.nz_local, geometry.ny, geometry.nx)
        if self.algorithm == "proposed":
            shape = shape[::-1]  # k-major (Nx, Ny, Nz_local)
        self._data = np.zeros(shape, dtype=DEFAULT_DTYPE)

    def _fold(self, projection: np.ndarray, angle: float) -> None:
        pm = self.geometry.projection_matrix(float(angle))
        if self.algorithm == "proposed":
            accumulate_proposed(
                self._data,
                np.ascontiguousarray(projection.T),  # Algorithm 4 line 3
                pm,
                z_range=self.z_range,
            )
        else:
            accumulate_standard(self._data, projection, pm, z_range=self.z_range)

    def _hand_over(self) -> Volume:
        pitch = self.geometry.voxel_pitch
        if self.algorithm == "proposed":
            volume = Volume.from_kmajor(self._data, voxel_pitch=pitch)
        else:
            volume = Volume(data=self._data, voxel_pitch=pitch)
        del self._data
        return volume


class ReferenceBackend(ComputeBackend):
    """The original, paper-literal NumPy implementation of the hot paths."""

    name = "reference"

    apply_filter = staticmethod(apply_ramp_filter_into)

    def accumulator(
        self,
        geometry: CBCTGeometry,
        *,
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
    ) -> VolumeAccumulator:
        return _ReferenceAccumulator(
            geometry, algorithm=algorithm, z_range=z_range
        )
