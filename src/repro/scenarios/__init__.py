"""Acquisition-scenario engine: non-ideal CBCT protocols as data.

``repro.scenarios`` turns the seed's single workload — an ideal, noiseless
full-``2π`` circular scan — into a family: short-scan (Parker-weighted),
offset-detector (extended field of view), sparse-view (dose-limited
angular subsampling) and noisy (Poisson + Gaussian measurement model)
acquisitions, plus their combinations where the redundancy math composes.

Every preset is locked down by the scenario × backend conformance matrix
in ``tests/test_backend_conformance.py``: all compute backends must agree
with ``reference`` to ≤ 1e-5 relative RMSE under every scenario, and the
vectorized family must stay bit-identical under redundancy weighting.

See :mod:`repro.scenarios.scenario` for the declarative model and
:mod:`repro.scenarios.weights` for the redundancy-weight mathematics.
"""

from .noise import NoiseModel
from .scenario import (
    AcquisitionScenario,
    available_scenarios,
    cache_token_for,
    get_scenario,
    register_scenario,
)
from .weights import offset_detector_weights, parker_weights

__all__ = [
    "AcquisitionScenario",
    "NoiseModel",
    "available_scenarios",
    "cache_token_for",
    "get_scenario",
    "offset_detector_weights",
    "parker_weights",
    "register_scenario",
]
