"""Property and engine tests for the acquisition-scenario layer.

The redundancy-weight mathematics is pinned by the same style of
property-based tests as the paper's Theorems 1–3 (Hypothesis when
available, seeded sweeps otherwise):

* **Parker pair-sum** — the raw short-scan weights of every conjugate
  (mirror) ray pair sum to exactly 1 for every ``(u, β)``;
* **offset-detector pair-sum** — ``w(u) + w(−u) = 1`` inside the overlap
  band of the shifted panel;
* **angular normalization** — the per-projection angular weights of a
  sparse-view geometry integrate to ``2π`` (and a short-scan's Parker
  column weights integrate to ``π``);
* **noise determinism** — the seeded Poisson+Gaussian forward model is a
  pure function of (stack, model): identical bits on every run.

The engine tests cover the declarative transformations themselves:
geometry derivation, projection/column selection, cache-token identity and
the validation surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CBCTGeometry, default_geometry_for_problem
from repro.core.filtering import fdk_normalization
from repro.core.types import ProjectionStack
from repro.scenarios import (
    AcquisitionScenario,
    NoiseModel,
    available_scenarios,
    get_scenario,
    offset_detector_weights,
    parker_weights,
    register_scenario,
)
from repro.streaming import StreamingReconstructor

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.scenario


BASE = dict(nu=28, nv=20, np_=24, nx=18, ny=14, nz=10)


def base_geometry() -> CBCTGeometry:
    return default_geometry_for_problem(**BASE)


def base_stack(seed: int = 3) -> ProjectionStack:
    geometry = base_geometry()
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(
        (geometry.np_, geometry.nv, geometry.nu)
    ).astype(np.float32)
    return ProjectionStack(data=data, angles=geometry.angles)


# --------------------------------------------------------------------------- #
# Parker weights: conjugate-ray pair sum (the "mirror ray" invariant)
# --------------------------------------------------------------------------- #
def parker_weight_scalar(beta: float, gamma: float, delta: float) -> float:
    return float(parker_weights(np.array([beta]), np.array([gamma]), delta)[0, 0])


def check_parker_pair_sum(delta: float, gamma: float, beta: float) -> None:
    """w(β,γ) plus both possible mirror-ray weights must total exactly 1.

    The conjugate of ``(β, γ)`` lies at ``(β + π + 2γ, −γ)`` (or one full
    conjugate step back); at most one of the two falls inside the scan
    range, and out-of-range rays carry weight 0 — so the total is the unit
    weight of one parallel ray, exactly like the full scan's ``½ + ½``.
    """
    total = (
        parker_weight_scalar(beta, gamma, delta)
        + parker_weight_scalar(beta + np.pi + 2.0 * gamma, -gamma, delta)
        + parker_weight_scalar(beta - np.pi + 2.0 * gamma, -gamma, delta)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def check_offset_pair_sum(overlap: float, u: float) -> None:
    w_pos = float(offset_detector_weights(np.array([u]), overlap)[0])
    w_neg = float(offset_detector_weights(np.array([-u]), overlap)[0])
    assert 0.0 <= w_pos <= 1.0
    assert w_pos + w_neg == pytest.approx(1.0, abs=1e-9)


if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(
        delta=st.floats(0.05, np.pi / 2 - 0.05),
        gamma_frac=st.floats(-0.999, 0.999),
        beta_frac=st.floats(0.0, 1.0),
    )
    def test_parker_mirror_ray_weights_sum_to_one(delta, gamma_frac, beta_frac):
        gamma = gamma_frac * delta
        beta = beta_frac * (np.pi + 2.0 * delta)
        check_parker_pair_sum(delta, gamma, beta)

    @settings(max_examples=50, deadline=None)
    @given(overlap=st.floats(0.1, 50.0), u_frac=st.floats(-3.0, 3.0))
    def test_offset_weights_sum_to_one(overlap, u_frac):
        check_offset_pair_sum(overlap, u_frac * overlap)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(50))
    def test_parker_mirror_ray_weights_sum_to_one(seed):
        rng = np.random.default_rng(3000 + seed)
        delta = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        gamma = float(rng.uniform(-0.999, 0.999)) * delta
        beta = float(rng.uniform(0.0, 1.0)) * (np.pi + 2.0 * delta)
        check_parker_pair_sum(delta, gamma, beta)

    @pytest.mark.parametrize("seed", range(50))
    def test_offset_weights_sum_to_one(seed):
        rng = np.random.default_rng(4000 + seed)
        overlap = float(rng.uniform(0.1, 50.0))
        check_offset_pair_sum(overlap, float(rng.uniform(-3.0, 3.0)) * overlap)


def test_parker_table_pairs_sum_on_real_geometry():
    """The applied short-scan table is 2·w with per-(u, β) pair sums of 1."""
    scenario = get_scenario("short_scan")
    geometry = scenario.apply_geometry(base_geometry())
    table = scenario.redundancy_weights(geometry)
    assert table.shape == (geometry.np_, geometry.nu)
    raw = table / 2.0
    delta = (geometry.angular_range - np.pi) / 2.0
    gammas = np.arctan2(geometry.detector_u_mm(), geometry.sdd)
    betas = geometry.angles - geometry.angle_offset
    for s in range(0, geometry.np_, 5):
        for col in range(0, geometry.nu, 7):
            beta, gamma = betas[s], gammas[col]
            conj = (
                parker_weight_scalar(beta + np.pi + 2.0 * gamma, -gamma, delta)
                + parker_weight_scalar(beta - np.pi + 2 * gamma, -gamma, delta)
            )
            assert raw[s, col] + conj == pytest.approx(1.0, abs=1e-9)


def test_parker_column_weights_integrate_to_pi():
    """Σ_β w(β, γ)·θ ≈ π for every detector column (unit ray coverage)."""
    scenario = get_scenario("short_scan")
    geometry = scenario.apply_geometry(base_geometry())
    raw = scenario.redundancy_weights(geometry) / 2.0
    integral = raw.sum(axis=0) * geometry.theta
    np.testing.assert_allclose(integral, np.pi, rtol=0.02)


# --------------------------------------------------------------------------- #
# Angular normalization (sparse-view and short-scan Riemann measures)
# --------------------------------------------------------------------------- #
def test_sparse_view_angular_weights_integrate_to_two_pi():
    """Each sparse projection carries Δβ = 2π/Np' — the sum is still 2π."""
    base = base_geometry()
    for factor in (2, 3, 4):
        scenario = AcquisitionScenario(name=f"sparse{factor}", sparse_factor=factor)
        geometry = scenario.apply_geometry(base)
        assert geometry.np_ == base.np_ // factor
        assert geometry.theta * geometry.np_ == pytest.approx(2.0 * np.pi)
        # The FDK constant follows the coarser angular sampling exactly.
        assert fdk_normalization(geometry) == pytest.approx(
            fdk_normalization(base) * factor
        )


def test_short_scan_span_covers_minimal_parker_range():
    base = base_geometry()
    geometry = get_scenario("short_scan").apply_geometry(base)
    assert geometry.theta == pytest.approx(base.theta)
    assert base.short_scan_span <= geometry.angular_range < base.angular_range
    # Effective delta must dominate every fan angle on the detector.
    delta = (geometry.angular_range - np.pi) / 2.0
    gammas = np.arctan2(geometry.detector_u_mm(), geometry.sdd)
    assert delta >= np.abs(gammas).max() - 1e-12


# --------------------------------------------------------------------------- #
# Noise determinism
# --------------------------------------------------------------------------- #
def test_noise_is_deterministic_per_seed():
    stack = base_stack()
    model = NoiseModel(photons=2e4, electronic_sigma=3.0,
                       attenuation_scale=0.05, seed=42)
    first = model.apply(stack)
    second = model.apply(stack.copy())
    np.testing.assert_array_equal(first.data, second.data)
    different = NoiseModel(photons=2e4, electronic_sigma=3.0,
                           attenuation_scale=0.05, seed=43).apply(stack)
    assert not np.array_equal(first.data, different.data)


def test_noise_changes_data_but_not_shape_or_angles():
    stack = base_stack()
    noisy = NoiseModel(photons=1e4, attenuation_scale=0.05, seed=1).apply(stack)
    assert noisy.data.shape == stack.data.shape
    np.testing.assert_array_equal(noisy.angles, stack.angles)
    assert not np.array_equal(noisy.data, stack.data)
    assert np.isfinite(noisy.data).all()


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(photons=0.0), "photons"),
        (dict(photons=-1.0e4), "photons"),
        (dict(electronic_sigma=-0.5), "electronic_sigma"),
        (dict(attenuation_scale=0.0), "attenuation_scale"),
        (dict(attenuation_scale=-0.05), "attenuation_scale"),
    ],
    ids=["zero-photons", "negative-photons", "negative-sigma",
         "zero-attenuation", "negative-attenuation"],
)
def test_noise_model_rejects_out_of_range_parameters(options, message):
    """The model's own checks are the only range checks the forward model has."""
    with pytest.raises(ValueError, match=message):
        NoiseModel(**options)


def test_noise_keeps_dtype_and_filtered_flag():
    model = NoiseModel(photons=1e4, attenuation_scale=0.05, seed=1)
    for filtered in (False, True):
        stack = base_stack()
        stack = ProjectionStack(data=stack.data, angles=stack.angles, filtered=filtered)
        noisy = model.apply(stack)
        assert noisy.data.dtype == stack.data.dtype
        assert noisy.filtered is filtered


def test_noise_floors_starved_pixels_at_one_photon():
    """An integral too large for any photon to pass reads -ln(1/N0)/mu."""
    stack = base_stack()
    stack.data[...] = 1.0e3
    model = NoiseModel(photons=1e3, electronic_sigma=0.0, attenuation_scale=1.0)
    noisy = model.apply(stack)
    np.testing.assert_allclose(noisy.data, np.log(1e3), rtol=1e-6)


def test_noise_shrinks_as_the_dose_grows():
    """Quantum noise falls as 1/sqrt(N0): a 100x dose cuts it about 10x."""
    stack = base_stack()
    stack.data[...] = np.abs(stack.data)

    def noise_rms(photons):
        model = NoiseModel(photons=photons, electronic_sigma=0.0,
                           attenuation_scale=0.5, seed=5)
        return float(np.sqrt(np.mean((model.apply(stack).data - stack.data) ** 2)))

    low, high = noise_rms(1e3), noise_rms(1e5)
    assert 5.0 < low / high < 20.0


def test_noisy_scenario_reconstruction_is_deterministic():
    """Two independent runs of the noisy preset agree bit for bit."""
    scenario = get_scenario("noisy")
    volumes = []
    for _ in range(2):
        geometry, noisy = scenario.apply(base_geometry(), base_stack())
        volumes.append(StreamingReconstructor(
            geometry, backend="vectorized", scenario=scenario
        ).reconstruct_stack(noisy).volume.data)
    np.testing.assert_array_equal(volumes[0], volumes[1])


# --------------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------------- #
def test_full_scan_geometry_is_identity():
    base = base_geometry()
    assert get_scenario("full_scan").apply_geometry(base) == base


def test_offset_detector_geometry_crops_and_shifts():
    base = base_geometry()
    scenario = get_scenario("offset_detector")
    geometry = scenario.apply_geometry(base)
    crop = int(round(scenario.detector_crop_fraction * base.nu))
    assert geometry.nu == base.nu - crop
    assert geometry.detector_offset_u == pytest.approx(crop * base.du / 2.0)
    # The cropped window's physical column positions are the kept columns
    # of the base detector, unchanged.
    np.testing.assert_allclose(
        geometry.detector_u_mm(), base.detector_u_mm()[crop:], atol=1e-12
    )
    # The extended field of view reaches farther than the centred panel's.
    assert geometry.fov_radius() > 0.9 * base.fov_radius()


def test_apply_selects_matching_projections_and_columns():
    base = base_geometry()
    stack = base_stack()
    scenario = get_scenario("sparse_view")
    geometry, sub = scenario.apply(base, stack)
    indices = scenario.projection_indices(base)
    np.testing.assert_array_equal(sub.angles, stack.angles[indices])
    np.testing.assert_array_equal(sub.data, stack.data[indices])
    np.testing.assert_allclose(geometry.angles, sub.angles)


def test_short_scan_keeps_leading_angular_prefix():
    base = base_geometry()
    scenario = get_scenario("short_scan")
    geometry, sub = scenario.apply(base, base_stack())
    assert sub.np_ == geometry.np_ < base.np_
    np.testing.assert_allclose(geometry.angles, base.angles[: geometry.np_])


def test_apply_rejects_filtered_and_mismatched_stacks():
    base = base_geometry()
    stack = base_stack()
    filtered = ProjectionStack(
        data=stack.data.copy(), angles=stack.angles.copy(), filtered=True
    )
    with pytest.raises(ValueError, match="raw measurements"):
        get_scenario("short_scan").apply(base, filtered)
    with pytest.raises(ValueError, match="does not match"):
        get_scenario("short_scan").apply(base.with_detector(16, 16), stack)


def test_scenario_validation():
    with pytest.raises(ValueError, match="cannot be combined"):
        AcquisitionScenario(name="bad", short_scan=True,
                            detector_crop_fraction=0.2)
    with pytest.raises(ValueError, match="0.5"):
        AcquisitionScenario(name="bad", detector_crop_fraction=0.6)
    with pytest.raises(ValueError, match="positive integer"):
        AcquisitionScenario(name="bad", sparse_factor=0)
    with pytest.raises(ValueError, match="fewer than 2"):
        AcquisitionScenario(name="bad", sparse_factor=23).apply_geometry(
            base_geometry()
        )


def test_registry_lists_presets_and_rejects_unknown():
    names = available_scenarios()
    assert names[0] == "full_scan"
    assert len(names) >= 4
    for required in ("short_scan", "offset_detector", "sparse_view", "noisy"):
        assert required in names
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("helical")
    custom = register_scenario(
        AcquisitionScenario(name="test-custom", sparse_factor=2)
    )
    try:
        assert get_scenario("test-custom") is custom
    finally:
        from repro.scenarios import scenario as scenario_module

        scenario_module._registry.pop("test-custom")


def test_cache_tokens_are_distinct_and_stable():
    tokens = {
        name: get_scenario(name).cache_token for name in available_scenarios()
    }
    assert tokens["full_scan"] == "full"
    assert len(set(tokens.values())) == len(tokens)
    # Renaming a scenario must not change its cache identity.
    renamed = AcquisitionScenario(name="other-name", sparse_factor=4)
    assert renamed.cache_token == tokens["sparse_view"]


def test_scenario_reconstructor_rejects_prefiltered_stack():
    """Redundancy weights live in the filtering stage: a pre-filtered stack
    would silently skip them, so the reconstructor must refuse it."""
    scenario = get_scenario("short_scan")
    base = base_geometry()
    geometry, sub = scenario.apply(base, base_stack())
    reconstructor = StreamingReconstructor(geometry, scenario=scenario)
    filtered = reconstructor.backend.filter_stack(
        sub, geometry, reconstructor.ramp_filter,
        redundancy=reconstructor.redundancy,
    )
    with pytest.raises(ValueError, match="already filtered"):
        reconstructor.reconstruct_stack(filtered)


def test_reconstructor_resolves_scenario_by_name():
    scenario = get_scenario("short_scan")
    base = base_geometry()
    geometry, sub = scenario.apply(base, base_stack())
    by_name = StreamingReconstructor(
        geometry, backend="vectorized", scenario="short_scan"
    ).reconstruct_stack(sub.copy())
    by_instance = StreamingReconstructor(
        geometry, backend="vectorized", scenario=scenario
    ).reconstruct_stack(sub.copy())
    np.testing.assert_array_equal(
        by_name.volume.data, by_instance.volume.data
    )


# --------------------------------------------------------------------------- #
# Theorem invariants survive scenario geometries
# --------------------------------------------------------------------------- #
def test_theorems_hold_with_detector_offset():
    """Theorems 1–3 (the hoisting the fast backends rely on) are untouched
    by a lateral detector offset — v-mirroring and the u/z/Wdis constancy
    along Z depend only on M0/Mrot, not on where the panel sits."""
    from test_backend_conformance import (
        check_theorem_1_mirror_row,
        check_theorems_2_3_hoisting,
    )

    geometry = get_scenario("offset_detector").apply_geometry(base_geometry())
    assert geometry.detector_offset_u != 0.0
    for beta in (0.1, 2.0, 4.5):
        check_theorem_1_mirror_row(geometry, beta)
        check_theorems_2_3_hoisting(geometry, beta)
