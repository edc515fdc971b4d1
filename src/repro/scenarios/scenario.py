"""Declarative acquisition scenarios: short-scan, offset-detector, sparse, noisy.

The seed repository reconstructs exactly one workload: an ideal, noiseless,
full-``2π`` circular scan.  Real CBCT deployments (the paper's Table 1
clinical geometries) routinely run *short-scan* (faster gantry sweep,
``π + 2Δ``), *offset-detector* (laterally shifted FPD for an extended
field of view) and dose-limited *sparse/noisy* acquisitions.  An
:class:`AcquisitionScenario` is the declarative description of one such
protocol; applying it to a base :class:`~repro.core.geometry.CBCTGeometry`
plus an ideal projection stack yields the scenario's geometry and
measurement data, and :meth:`AcquisitionScenario.redundancy_weights`
yields the per-projection filtering weight table every compute backend
consumes (see :mod:`repro.scenarios.weights`).

The contract mirrors the backend contract of PR 2: a scenario is *correct*
when the scenario × backend conformance matrix in
``tests/test_backend_conformance.py`` passes — every backend reconstructs
the scenario within 1e-5 relative RMSE of ``reference``, and the
vectorized family stays bit-identical under the scenario's weights.

How each scenario maps onto the existing stack
----------------------------------------------

========== ============================ =====================================
scenario    geometry change              data / filtering change
========== ============================ =====================================
short_scan  ``angular_range = π + 2Δ``   Parker table ``2·w(β,γ)`` in the
            (rounded up to whole steps)  filtering stage
offset FPD  detector cropped to one      virtual-full-fan table ``2·w(u)``
            side, ``detector_offset_u``
sparse      every m-th projection,       nothing — ``θ = range/Np`` already
            ``θ`` grows by ``m``         rescales the FDK Riemann measure
noisy       none                         seeded Poisson+Gaussian forward
                                         model on the raw stack
========== ============================ =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..core.geometry import CBCTGeometry
from ..core.types import ProjectionStack
from .noise import NoiseModel
from .weights import offset_detector_weights, parker_weights

__all__ = [
    "AcquisitionScenario",
    "SCENARIO_PRESETS",
    "available_scenarios",
    "cache_token_for",
    "get_scenario",
    "register_scenario",
]


@dataclass(frozen=True)
class AcquisitionScenario:
    """One acquisition protocol, described declaratively.

    Parameters
    ----------
    name:
        Registry / CLI / cache identity of the scenario.
    short_scan:
        Restrict the trajectory to the minimal short scan ``π + 2Δ``
        (rounded up to a whole number of step angles) and apply Parker
        redundancy weights in the filtering stage.
    detector_crop_fraction:
        Fraction of detector columns cropped from the low-``u`` edge,
        producing a laterally shifted (offset) FPD whose data is a column
        window of the base acquisition.  Must leave the principal ray
        covered with margin (``< 0.5``); applied with virtual-full-fan
        redundancy weights.
    sparse_factor:
        Keep every ``m``-th projection.  The step angle grows by ``m`` and
        the FDK normalization ``d²·θ/2`` rescales automatically — the
        "normalization-corrected" sparse-view weights.
    noise:
        Optional :class:`~repro.scenarios.noise.NoiseModel` run on the raw
        stack (after angular/detector selection, before filtering).
    description:
        One line for ``repro scenarios`` and the README preset table.
    """

    name: str
    short_scan: bool = False
    detector_crop_fraction: float = 0.0
    sparse_factor: int = 1
    noise: Optional[NoiseModel] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario must have a non-empty name")
        if not (0.0 <= float(self.detector_crop_fraction) < 0.5):
            raise ValueError(
                "detector_crop_fraction must be in [0, 0.5): the offset "
                "panel must keep the principal ray covered with margin"
            )
        if int(self.sparse_factor) < 1:
            raise ValueError("sparse_factor must be a positive integer")
        if self.short_scan and self.detector_crop_fraction > 0:
            raise ValueError(
                "short_scan and detector_crop_fraction cannot be combined: "
                "Parker and offset-detector redundancy weights do not "
                "compose multiplicatively"
            )

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def is_ideal(self) -> bool:
        """True when the scenario is the seed's ideal full scan."""
        return (
            not self.short_scan
            and self.detector_crop_fraction == 0.0
            and self.sparse_factor == 1
            and self.noise is None
        )

    @property
    def cache_token(self) -> str:
        """Deterministic identity string for cache keys and job records.

        Two scenarios with the same token select the same projections, the
        same detector window, the same redundancy weights and the same
        noise draw — so their filtered projections are interchangeable.
        The token deliberately ignores :attr:`name` and
        :attr:`description`: a renamed preset must still hit the cache.
        """
        if self.is_ideal:
            return "full"
        parts = []
        if self.short_scan:
            parts.append("short")
        if self.detector_crop_fraction > 0:
            parts.append(f"crop={self.detector_crop_fraction:g}")
        if self.sparse_factor > 1:
            parts.append(f"sparse={self.sparse_factor}")
        if self.noise is not None:
            parts.append(self.noise.token)
        return "|".join(parts)

    # ------------------------------------------------------------------ #
    # Geometry transformation
    # ------------------------------------------------------------------ #
    def _detector_crop(self, base: CBCTGeometry) -> int:
        """Number of columns cropped from the low-``u`` edge."""
        crop = int(round(self.detector_crop_fraction * base.nu))
        if crop and base.nu - crop < 2:
            raise ValueError(f"detector too narrow to crop {crop} columns")
        return crop

    def projection_indices(self, base: CBCTGeometry) -> np.ndarray:
        """Indices of the base acquisition's projections this scenario keeps.

        Short-scan keeps the leading ``ceil((π + 2Δ)/θ)`` projections
        (rounded up to a whole number of sparse strides so the subsampled
        step stays uniform); sparse-view keeps every ``m``-th of those.
        """
        theta = base.theta
        m = int(self.sparse_factor)
        if self.short_scan:
            groups = int(np.ceil(base.short_scan_span / (m * theta) - 1e-12))
        else:
            groups = base.np_ // m
        keep = groups * m
        if keep > base.np_:
            raise ValueError(
                f"base scan of {base.np_} projections over "
                f"{base.angular_range:.3f} rad is too coarse for "
                f"scenario {self.name!r} (needs {keep})"
            )
        if groups < 2:
            raise ValueError(
                f"scenario {self.name!r} keeps fewer than 2 projections"
            )
        return np.arange(0, keep, m)

    def apply_geometry(self, base: CBCTGeometry) -> CBCTGeometry:
        """The scenario's acquisition geometry derived from ``base``.

        The returned geometry's ``angles`` are exactly the base angles at
        :meth:`projection_indices`, its ``theta`` is the (uniform) stride
        between them, and its detector is the cropped/shifted window — so
        every downstream consumer (projection matrices, FDK normalization,
        performance model) sees a self-consistent acquisition.
        """
        indices = self.projection_indices(base)
        keep = int(indices[-1]) + int(self.sparse_factor)
        angular_range = base.angular_range * keep / base.np_
        crop = self._detector_crop(base)
        return replace(
            base,
            nu=base.nu - crop,
            np_=len(indices),
            angular_range=angular_range,
            detector_offset_u=base.detector_offset_u + crop * base.du / 2.0,
        )

    # ------------------------------------------------------------------ #
    # Data transformation
    # ------------------------------------------------------------------ #
    def apply(
        self, base: CBCTGeometry, stack: ProjectionStack
    ) -> Tuple[CBCTGeometry, ProjectionStack]:
        """Transform an ideal full acquisition into this scenario's workload.

        ``stack`` must be the *raw* (unfiltered) stack simulated on
        ``base``.  Returns the scenario geometry plus the stack a scanner
        running this protocol would actually have produced: the angular
        subset, the detector column window, and the noise draw.
        """
        if stack.filtered:
            raise ValueError(
                "scenarios transform raw measurements; apply them before "
                "the filtering stage"
            )
        if (stack.np_, stack.nv, stack.nu) != (base.np_, base.nv, base.nu):
            raise ValueError(
                f"stack {(stack.np_, stack.nv, stack.nu)} does not match the "
                f"base acquisition {(base.np_, base.nv, base.nu)}"
            )
        geometry = self.apply_geometry(base)
        indices = self.projection_indices(base)
        crop = self._detector_crop(base)
        data = stack.data[indices, :, crop:]
        scenario_stack = ProjectionStack(
            data=data.copy(), angles=stack.angles[indices].copy()
        )
        if self.noise is not None:
            scenario_stack = self.noise.apply(scenario_stack)
        return geometry, scenario_stack

    # ------------------------------------------------------------------ #
    # Redundancy weighting (consumed by every compute backend)
    # ------------------------------------------------------------------ #
    def redundancy_weights(self, geometry: CBCTGeometry) -> Optional[np.ndarray]:
        """The applied ``(Np, Nu)`` filtering weight table, or ``None``.

        ``geometry`` must be the scenario geometry (from
        :meth:`apply_geometry`).  Raw conjugate-pair weights sum to 1 (see
        :mod:`repro.scenarios.weights`); the applied table is ``2·w`` so
        the ideal scan's table is all ones and is elided entirely.
        """
        if self.short_scan:
            delta = (geometry.angular_range - np.pi) / 2.0
            gammas = np.arctan2(geometry.detector_u_mm(), geometry.sdd)
            betas = geometry.angles - geometry.angle_offset
            return 2.0 * parker_weights(betas, gammas, delta)
        if self.detector_crop_fraction > 0:
            offset = geometry.detector_offset_u
            half_width = 0.5 * (geometry.nu - 1) * geometry.du
            overlap = half_width - abs(offset)
            u_mm = geometry.detector_u_mm() * (1.0 if offset >= 0 else -1.0)
            per_column = 2.0 * offset_detector_weights(u_mm, overlap)
            return np.broadcast_to(
                per_column, (geometry.np_, geometry.nu)
            ).copy()
        return None


# --------------------------------------------------------------------------- #
# Preset registry
# --------------------------------------------------------------------------- #
_registry: Dict[str, AcquisitionScenario] = {}

#: Resets run after every registration, by owner.  A memo of what scenario
#: names resolve to (:meth:`repro.service.CacheKey.for_job` keeps one) puts
#: its reset here: a registration may give a name another cache token.
_on_register: Dict[str, Callable[[], None]] = {}


def register_scenario(scenario: AcquisitionScenario) -> AcquisitionScenario:
    """Register a scenario under its name (later registrations override)."""
    if not isinstance(scenario, AcquisitionScenario):
        raise TypeError(f"{scenario!r} is not an AcquisitionScenario")
    _registry[scenario.name] = scenario
    for reset in _on_register.values():
        reset()
    return scenario


def available_scenarios() -> Tuple[str, ...]:
    """Names of all registered scenarios (sorted, ``full_scan`` first)."""
    names = sorted(_registry)
    if "full_scan" in names:
        names.remove("full_scan")
        names.insert(0, "full_scan")
    return tuple(names)


def get_scenario(
    name: Union[str, AcquisitionScenario]
) -> AcquisitionScenario:
    """Resolve a scenario by name (instances pass through unchanged)."""
    if isinstance(name, AcquisitionScenario):
        return name
    try:
        return _registry[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None


def cache_token_for(name: Union[str, AcquisitionScenario]) -> str:
    """The protocol-identity token of a scenario name, for cache keys.

    Registered names (and scenario instances) resolve to their
    :attr:`AcquisitionScenario.cache_token`, so two preset *names*
    describing the same protocol share filtered projections.  Unregistered
    names are used verbatim — callers with ad-hoc scenario strings still
    get correct, if conservative, isolation.  Both the service's
    :class:`~repro.service.cache.CacheKey` and the declarative
    :meth:`~repro.api.ReconstructionPlan.filter_key` resolve through this
    one function.
    """
    if isinstance(name, AcquisitionScenario):
        return name.cache_token
    try:
        return _registry[name].cache_token
    except KeyError:
        return name


register_scenario(AcquisitionScenario(
    name="full_scan",
    description="ideal noiseless full-2π circular scan (the seed workload)",
))
register_scenario(AcquisitionScenario(
    name="short_scan",
    short_scan=True,
    description="π + 2Δ short scan with Parker redundancy weighting",
))
register_scenario(AcquisitionScenario(
    name="offset_detector",
    detector_crop_fraction=0.3,
    description="laterally shifted FPD (30% crop), virtual-full-fan weights",
))
register_scenario(AcquisitionScenario(
    name="sparse_view",
    sparse_factor=4,
    description="every 4th projection, normalization-corrected FDK weights",
))
register_scenario(AcquisitionScenario(
    name="noisy",
    noise=NoiseModel(
        photons=5.0e4, electronic_sigma=5.0,
        attenuation_scale=0.02, seed=20260729,
    ),
    description="seeded Poisson photon-counting + Gaussian electronic noise",
))
register_scenario(AcquisitionScenario(
    name="low_dose",
    sparse_factor=2,
    noise=NoiseModel(
        photons=2.0e4, electronic_sigma=8.0,
        attenuation_scale=0.02, seed=20260730,
    ),
    description="dose-limited scan: 2x sparser views and a quarter of the photons",
))

#: The built-in presets, name -> scenario.
SCENARIO_PRESETS: Dict[str, AcquisitionScenario] = dict(_registry)
