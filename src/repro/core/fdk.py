"""Single-node FDK driver: filtering followed by back-projection.

This is the complete Feldkamp–Davis–Kress reconstruction (Section 2.2.2) as
one convenient entry point — the one-chunk case of the chunk driver
(:class:`repro.streaming.StreamingReconstructor`), which owns the
filter→back-project loop.  It is the building block used by:

* the quickstart example (reconstruct a phantom on one "node"),
* the distributed iFDK framework (each rank runs the same two stages on its
  share of projections and its slab of the volume), and
* the test-suite (single-node output is the reference the distributed output
  must match exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .geometry import CBCTGeometry
from .types import ProjectionStack, ReconstructionProblem, Volume

__all__ = ["FDKReconstructor", "FDKResult", "reconstruct_fdk"]


@dataclass
class FDKResult:
    """Output of a single-node FDK reconstruction with stage timings."""

    volume: Volume
    filter_seconds: float
    backprojection_seconds: float
    problem: ReconstructionProblem

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.backprojection_seconds

    @property
    def gups(self) -> float:
        """Back-projection throughput in giga-updates per second."""
        return self.problem.gups(max(self.backprojection_seconds, 1e-12))


@dataclass
class FDKReconstructor:
    """Configured FDK reconstruction pipeline.

    Parameters
    ----------
    geometry:
        Acquisition geometry (detector, trajectory and volume description).
    ramp_filter:
        One of :data:`repro.core.filtering.RAMP_FILTERS`.
    algorithm:
        Back-projection algorithm: ``"proposed"`` (Algorithm 4, default) or
        ``"standard"`` (Algorithm 2).
    z_range:
        Optional Z slab to reconstruct (used by the distributed framework).
    backend:
        Name of the :mod:`repro.backends` compute backend executing both hot
        paths (``reference``, ``vectorized``, ``blocked`` or ``parallel``);
        all backends are interchangeable per the conformance contract.
    workers:
        Optional worker-thread count for the ``parallel`` backend.  When
        given, the reconstructor owns a dedicated worker pool sized to this
        count (close it with :meth:`close` or a ``with`` block); requesting
        workers on any other backend raises :class:`ValueError`.  ``None``
        uses the shared registry backend as-is.
    scenario:
        Optional acquisition scenario (an
        :class:`~repro.scenarios.AcquisitionScenario` or preset name).
        ``geometry`` must already be the scenario-shaped geometry (see
        :meth:`AcquisitionScenario.apply_geometry`); the reconstructor adds
        the scenario's per-projection redundancy-weight table to the
        filtering stage.  ``None`` / ``"full_scan"`` is the seed's ideal
        full scan.
    """

    geometry: CBCTGeometry
    ramp_filter: str = "ram-lak"
    algorithm: str = "proposed"
    z_range: Optional[Tuple[int, int]] = None
    backend: str = "reference"
    scenario: Optional[object] = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        # Late import (here and in from_plan): streaming imports core.
        from ..streaming.reconstructor import StreamingReconstructor

        self._driver = StreamingReconstructor(
            self.geometry,
            ramp_filter=self.ramp_filter,
            algorithm=self.algorithm,
            z_range=self.z_range,
            backend=self.backend,
            scenario=self.scenario,
            workers=self.workers,
        )
        self.scenario = self._driver.scenario

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(cls, plan) -> "FDKReconstructor":
        """Build the reconstructor described by a declarative plan.

        The keyword constructor remains the convenient in-process surface;
        a :class:`~repro.api.ReconstructionPlan` is the canonical,
        serializable description it is now a shim over.  The plan's
        scenario is resolved and its geometry derived
        (:meth:`~repro.api.ReconstructionPlan.scenario_geometry`), so the
        reconstructor is ready for the scenario-shaped stack.
        """
        from ..streaming.reconstructor import plan_fields

        return cls(**plan_fields(plan))

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Join the worker pool of a dedicated ``parallel`` backend.

        Idempotent; a no-op for shared registry backends.  After closing, no
        thread started on this reconstructor's behalf remains alive (the
        ``run_spmd`` thread-accounting discipline).
        """
        self._driver.close()

    def __enter__(self) -> "FDKReconstructor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def filter(self, stack: ProjectionStack) -> ProjectionStack:
        """Run the filtering stage (Algorithm 1 with FDK normalization).

        When a scenario is configured, its redundancy-weight table rides
        along into the backend's shared filtering driver.
        """
        driver = self._driver
        return driver.backend.filter_stack(
            stack, self.geometry, self.ramp_filter, redundancy=driver.redundancy
        )

    def backproject(self, filtered: ProjectionStack) -> Volume:
        """Run the back-projection stage on already-filtered projections."""
        return self._driver.backend.backproject(
            filtered, self.geometry, algorithm=self.algorithm, z_range=self.z_range
        )

    def reconstruct(self, stack: ProjectionStack) -> FDKResult:
        """Full FDK reconstruction of a projection stack."""
        streamed = self._driver.reconstruct_stack(stack)
        return FDKResult(
            volume=streamed.volume,
            filter_seconds=streamed.filter_seconds,
            backprojection_seconds=streamed.backprojection_seconds,
            problem=replace(
                self.geometry.problem(),
                np_=stack.np_, nz=streamed.volume.data.shape[0],
            ),
        )


def reconstruct_fdk(
    stack: ProjectionStack,
    geometry: CBCTGeometry,
    *,
    ramp_filter: str = "ram-lak",
    algorithm: str = "proposed",
    backend: str = "reference",
    workers: Optional[int] = None,
) -> Volume:
    """One-call FDK reconstruction (filter + back-project)."""
    with FDKReconstructor(
        geometry=geometry, ramp_filter=ramp_filter, algorithm=algorithm,
        backend=backend, workers=workers,
    ) as reconstructor:
        return reconstructor.reconstruct(stack).volume
