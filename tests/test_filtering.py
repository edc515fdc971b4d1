"""Unit tests for repro.core.filtering (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.fft import next_fast_len

from repro.backends import get_backend
from repro.core.filtering import (
    GROUP_ROWS,
    RAMP_FILTERS,
    apply_ramp_filter,
    canonical_fft_length,
    cosine_weight_table,
    fdk_normalization,
    filter_projections,
    ramp_filter_frequency_response,
    ramp_kernel_spatial,
    shortest_ramp_filter_response,
    _wrap_offsets,
)
from repro.core.types import ProjectionStack


@pytest.mark.parametrize("n", [2, 3, 96, 127, 128, 767, 768, 4096])
@pytest.mark.parametrize("tau", [0.125, 0.37, 1.0])
def test_wrap_offsets_scale_to_numpy_fftfreq_bit_for_bit(n, tau):
    assert _wrap_offsets(n).tolist() == np.round(np.fft.fftfreq(n, d=1.0 / n)).tolist()
    freqs = _wrap_offsets(n) * (1.0 / (n * tau))
    assert freqs.dtype == np.float64
    assert freqs.tobytes() == np.fft.fftfreq(n, d=tau).tobytes()


class TestCosineWeight:
    def test_center_weight_is_one(self, small_geometry):
        table = cosine_weight_table(small_geometry)
        assert table.shape == (small_geometry.nv, small_geometry.nu)
        cv, cu = (small_geometry.nv - 1) // 2, (small_geometry.nu - 1) // 2
        assert float(table[cv, cu]) == pytest.approx(1.0, abs=0.01)

    def test_weights_decrease_towards_corners(self, small_geometry):
        table = cosine_weight_table(small_geometry)
        assert table[0, 0] < table[small_geometry.nv // 2, small_geometry.nu // 2]
        assert np.all(table > 0) and np.all(table <= 1.0)

    def test_symmetry(self, small_geometry):
        table = cosine_weight_table(small_geometry)
        np.testing.assert_allclose(table, table[::-1, :], atol=1e-6)
        np.testing.assert_allclose(table, table[:, ::-1], atol=1e-6)


class TestRampKernel:
    def test_kak_slaney_taps(self):
        tau = 2.0
        kernel = ramp_kernel_spatial(8, tau)
        assert kernel[0] == pytest.approx(1.0 / (4 * tau * tau))
        assert kernel[1] == pytest.approx(-1.0 / (np.pi * 1 * tau) ** 2)
        assert kernel[2] == 0.0
        assert kernel[3] == pytest.approx(-1.0 / (np.pi * 3 * tau) ** 2)

    def test_rejects_invalid_args(self):
        with pytest.raises(ValueError):
            ramp_kernel_spatial(1, 1.0)
        with pytest.raises(ValueError):
            ramp_kernel_spatial(8, 0.0)

    def test_response_is_real_and_nonnegative(self):
        resp = ramp_filter_frequency_response(64, 1.0)
        assert resp.shape[0] >= 128
        assert np.all(resp >= -1e-9)
        # The band-limited (Kak & Slaney) kernel has a small positive DC gain
        # that shrinks with the FFT length; it must be far below the Nyquist gain.
        assert resp[0] < 0.01 * resp[len(resp) // 2]

    @pytest.mark.parametrize("window", RAMP_FILTERS)
    def test_all_windows_supported(self, window):
        resp = ramp_filter_frequency_response(32, 1.0, window)
        assert np.all(np.isfinite(resp))

    def test_windowed_responses_attenuate_high_frequencies(self):
        ram_lak = ramp_filter_frequency_response(64, 1.0, "ram-lak")
        hann = ramp_filter_frequency_response(64, 1.0, "hann")
        nyquist_bin = len(ram_lak) // 2
        assert hann[nyquist_bin] < ram_lak[nyquist_bin]

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            ramp_filter_frequency_response(32, 1.0, "boxcar")


SHORTEST_NU = (1, 2, 3, 7, 45, 96, 100, 129, 384, 500, 512)


class TestShortestRampResponse:
    """The tiled backends' table: the canonical kernel's reachable taps,
    transformed at ``L = next_fast_len(2 Nu - 1, real=True)``."""

    @pytest.mark.parametrize("window", RAMP_FILTERS)
    @pytest.mark.parametrize("nu", SHORTEST_NU)
    def test_length_and_float64_convolution_match_the_canonical_table(
        self, rng, nu, window
    ):
        tau = 0.7
        canonical = ramp_filter_frequency_response(nu, tau, window)
        short = shortest_ramp_filter_response(nu, tau, window)
        assert canonical.shape == (canonical_fft_length(nu),)
        assert short.shape == (next_fast_len(2 * nu - 1, real=True),)
        assert short.shape[0] <= canonical.shape[0]
        if short.shape == canonical.shape:
            assert short is canonical  # nu a power of two: not one bit moves
        rows = rng.standard_normal((5, nu))
        through_short = apply_ramp_filter(rows, tau, response=short)
        through_canonical = apply_ramp_filter(rows, tau, response=canonical)
        assert through_short.dtype == np.float64
        scale = np.abs(through_canonical).max()
        assert np.abs(through_short - through_canonical).max() <= 1e-12 * scale

    @pytest.mark.parametrize("nu", [45, 384, 512])
    def test_cached_and_read_only(self, nu):
        short = shortest_ramp_filter_response(nu, 0.5, "hann")
        assert short is shortest_ramp_filter_response(nu, 0.5, "hann")
        assert short is not shortest_ramp_filter_response(nu, 0.5, "ram-lak")
        with pytest.raises(ValueError, match="read-only"):
            short[...] = 0

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError, match="unknown ramp filter window"):
            shortest_ramp_filter_response(32, 1.0, "boxcar")

    def test_canonical_length_is_the_next_power_of_two_of_twice_nu(self):
        for nu in range(1, 2050):
            assert canonical_fft_length(nu) == 1 << int(np.ceil(np.log2(2 * nu)))

    def test_the_table_is_a_backend_seam(self):
        """``reference`` keeps the canonical length (the goldens' bits); the
        tiled names run the shortest one."""
        assert get_backend("reference").ramp_response(384, 0.5).shape == (1024,)
        for name in ("vectorized", "blocked", "parallel"):
            response = get_backend(name).ramp_response(384, 0.5)
            assert response is shortest_ramp_filter_response(384, 0.5)
            assert response.shape == (768,)


class TestApplyRampFilter:
    def test_constant_rows_filter_to_near_zero(self):
        rows = np.ones((4, 64), dtype=np.float32)
        out = apply_ramp_filter(rows, tau=1.0)
        # The ramp filter removes DC; a constant row maps to ~0 (edge effects aside).
        assert np.abs(out[:, 16:48]).max() < 0.05

    def test_impulse_response_shape(self):
        rows = np.zeros((1, 65), dtype=np.float32)
        rows[0, 32] = 1.0
        out = apply_ramp_filter(rows, tau=1.0)
        # Peak at the impulse, negative side lobes at odd offsets.
        assert out[0, 32] == pytest.approx(0.25, rel=1e-3)
        assert out[0, 31] < 0 and out[0, 33] < 0
        assert out[0, 30] == pytest.approx(0.0, abs=1e-6)

    def test_linearity(self, rng):
        a = rng.random((3, 40), dtype=np.float32)
        b = rng.random((3, 40), dtype=np.float32)
        fa = apply_ramp_filter(a, 1.0)
        fb = apply_ramp_filter(b, 1.0)
        fab = apply_ramp_filter(a + b, 1.0)
        np.testing.assert_allclose(fab, fa + fb, atol=1e-4)


class TestFilterProjections:
    def test_output_shape_and_flag(self, small_geometry, small_projections):
        filtered = filter_projections(small_projections, small_geometry)
        assert filtered.data.shape == small_projections.data.shape
        assert filtered.filtered is True
        np.testing.assert_array_equal(filtered.angles, small_projections.angles)

    def test_detector_mismatch_raises(self, small_geometry, rng):
        bad = ProjectionStack(data=rng.random((4, 8, 8)), angles=np.zeros(4))
        with pytest.raises(ValueError):
            filter_projections(bad, small_geometry)

    def test_fdk_normalization_value(self, small_geometry):
        expected = small_geometry.sad**2 * small_geometry.theta / 2.0
        assert fdk_normalization(small_geometry) == pytest.approx(expected)

    def test_filter_stack_is_scaled_filtering(self, small_geometry, small_projections):
        plain = filter_projections(small_projections, small_geometry)
        scaled = get_backend("reference").filter_stack(small_projections, small_geometry)
        ratio = fdk_normalization(small_geometry)
        np.testing.assert_allclose(
            scaled.data, plain.data * np.float32(ratio), rtol=1e-4
        )


class TestFilterStackDriver:
    """``ComputeBackend.filter_stack``: the one filtering entry point."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_single_and_batch_agree(self, backend, small_geometry, small_projections):
        """Batch filtering equals per-projection filtering (the rank runtime)."""
        engine = get_backend(backend)
        head = ProjectionStack(
            data=small_projections.data[:4], angles=small_projections.angles[:4]
        )
        batch = engine.filter_stack(head, small_geometry).data
        singles = np.stack([
            engine.filter_stack(
                ProjectionStack(data=p[None], angles=[a]), small_geometry
            ).data[0]
            for a, p in head
        ])
        np.testing.assert_array_equal(batch, singles)

    def test_reference_is_filter_projections_with_the_fdk_scale(
        self, small_geometry, small_projections
    ):
        np.testing.assert_array_equal(
            get_backend("reference").filter_stack(small_projections, small_geometry).data,
            filter_projections(
                small_projections, small_geometry,
                extra_scale=fdk_normalization(small_geometry),
            ).data,
        )

    def test_convolve_hook_receives_weighted_rows(self, small_geometry, small_projections):
        """The hook sees one cosine-weighted, zero-padded float32 row group at a
        time and writes the finished float32 rows, scale included."""
        seen = {"rows": 0, "tails": 0.0}
        _, nv, nu = small_projections.data.shape

        def convolve(rows, response, tau, scale, out):
            seen.update(
                rows=seen["rows"] + rows.shape[0], row_shape=rows.shape[1:],
                row_dtype=rows.dtype, tails=seen["tails"] + np.abs(rows[:, nu:]).sum(),
                out=(out.shape, out.dtype), pad=response.shape[0], tau=tau, scale=scale,
            )
            out[...] = apply_ramp_filter(rows[:, :nu], tau, response=response)
            out *= np.float32(scale)

        hooked = filter_projections(
            small_projections, small_geometry, convolve=convolve, extra_scale=3.0
        )
        np.testing.assert_array_equal(
            hooked.data,
            filter_projections(small_projections, small_geometry, extra_scale=3.0).data,
        )
        assert seen["rows"] == small_projections.np_ * nv
        assert seen["row_shape"] == (seen["pad"],) and seen["row_dtype"] == np.float32
        assert seen["tails"] == 0.0
        assert seen["out"] == ((min(nv, GROUP_ROWS), nu), np.float32)
        assert hooked.data.dtype == np.float32
        assert seen["pad"] >= 2 * small_geometry.nu and seen["scale"] == 3.0

    def test_rejects_wrong_shape(self, small_geometry, rng):
        stack = ProjectionStack(data=rng.random((2, 3, 3)), angles=[0.0, 1.0])
        with pytest.raises(ValueError, match="does not match detector"):
            get_backend("reference").filter_stack(stack, small_geometry)

    def test_rejects_unknown_window(self, small_geometry, small_projections):
        with pytest.raises(ValueError):
            get_backend("reference").filter_stack(
                small_projections, small_geometry, "unknown"
            )

    def test_output_is_marked_filtered(self, small_geometry, small_projections):
        out = get_backend("vectorized").filter_stack(small_projections, small_geometry)
        assert out.filtered and out.np_ == small_projections.np_
        np.testing.assert_array_equal(out.angles, small_projections.angles)


class TestTableCaches:
    def test_tables_are_cached_per_geometry_and_window(self, small_geometry):
        import dataclasses

        twin = dataclasses.replace(small_geometry)  # equal, not identical
        assert cosine_weight_table(small_geometry) is cosine_weight_table(twin)
        tau = small_geometry.du * small_geometry.sad / small_geometry.sdd
        ram_lak = ramp_filter_frequency_response(small_geometry.nu, tau, "ram-lak")
        assert ram_lak is ramp_filter_frequency_response(small_geometry.nu, tau, "ram-lak")
        assert ram_lak is not ramp_filter_frequency_response(small_geometry.nu, tau, "hann")

    def test_cached_tables_are_read_only(self, small_geometry):
        table = cosine_weight_table(small_geometry)
        response = ramp_filter_frequency_response(small_geometry.nu, 0.5)
        for array in (table, response):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
