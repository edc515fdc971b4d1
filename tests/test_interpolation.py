"""Unit and property tests for repro.core.interpolation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpolation import (
    bilinear_interpolate,
    interp2,
    trilinear_interpolate,
    trilinear_interpolate_numpy,
)


class TestInterp2Scalar:
    def test_exact_on_grid_points(self, rng):
        img = rng.random((6, 7)).astype(np.float32)
        assert interp2(img, 3, 2) == pytest.approx(float(img[2, 3]))

    def test_midpoint_average(self):
        img = np.array([[0.0, 2.0], [4.0, 6.0]], dtype=np.float32)
        assert interp2(img, 0.5, 0.5) == pytest.approx(3.0)

    def test_outside_is_zero(self):
        img = np.ones((4, 4), dtype=np.float32)
        assert interp2(img, -2.0, 1.0) == 0.0
        assert interp2(img, 1.0, 10.0) == 0.0

    def test_border_blends_to_zero(self):
        img = np.ones((4, 4), dtype=np.float32)
        # Half a pixel beyond the last column blends with the zero padding.
        assert interp2(img, 3.5, 1.0) == pytest.approx(0.5)


class TestBilinearVectorized:
    def test_matches_scalar_reference(self, rng):
        img = rng.random((12, 17)).astype(np.float32)
        u = rng.uniform(-2, 19, 200)
        v = rng.uniform(-2, 14, 200)
        fast = bilinear_interpolate(img, u, v)
        ref = np.array([interp2(img, float(a), float(b)) for a, b in zip(u, v)])
        np.testing.assert_allclose(fast, ref, atol=1e-5)

    def test_broadcasting(self, rng):
        img = rng.random((8, 8)).astype(np.float32)
        u = np.linspace(0, 7, 5)[:, None]
        v = np.linspace(0, 7, 3)[None, :]
        out = bilinear_interpolate(img, u, v)
        assert out.shape == (5, 3)

    def test_rejects_non_2d_image(self):
        with pytest.raises(ValueError):
            bilinear_interpolate(np.zeros((2, 2, 2)), 0.0, 0.0)

    @given(
        u=st.floats(-5, 25, allow_nan=False),
        v=st.floats(-5, 20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scalar(self, u, v):
        rng = np.random.default_rng(7)
        img = rng.random((16, 20)).astype(np.float32)
        assert bilinear_interpolate(img, u, v) == pytest.approx(
            interp2(img, u, v), abs=1e-5
        )

    def test_result_bounded_by_image_range(self, rng):
        img = rng.random((10, 10)).astype(np.float32)
        u = rng.uniform(0, 9, 500)
        v = rng.uniform(0, 9, 500)
        out = bilinear_interpolate(img, u, v)
        assert np.all(out <= img.max() + 1e-6)
        assert np.all(out >= 0.0)


class TestTrilinear:
    def test_exact_on_grid_points(self, rng):
        vol = rng.random((5, 6, 7)).astype(np.float32)
        assert trilinear_interpolate(vol, 3, 2, 1) == pytest.approx(float(vol[1, 2, 3]))

    def test_scipy_and_numpy_paths_agree(self, rng):
        vol = rng.random((6, 7, 8)).astype(np.float32)
        x = rng.uniform(-1, 9, 200)
        y = rng.uniform(-1, 8, 200)
        z = rng.uniform(-1, 7, 200)
        np.testing.assert_allclose(
            trilinear_interpolate(vol, x, y, z),
            trilinear_interpolate_numpy(vol, x, y, z),
            atol=1e-5,
        )

    def test_outside_is_zero(self):
        vol = np.ones((4, 4, 4), dtype=np.float32)
        assert trilinear_interpolate(vol, -2.0, 1.0, 1.0) == 0.0

    def test_linear_function_reproduced_exactly(self):
        # Trilinear interpolation is exact for (tri)linear fields.
        z, y, x = np.meshgrid(np.arange(5), np.arange(6), np.arange(7), indexing="ij")
        vol = (2.0 * x + 3.0 * y - z).astype(np.float64)
        xs = np.array([1.25, 3.5])
        ys = np.array([2.75, 0.5])
        zs = np.array([1.5, 2.25])
        expected = 2.0 * xs + 3.0 * ys - zs
        np.testing.assert_allclose(trilinear_interpolate(vol, xs, ys, zs), expected, rtol=1e-6)

    def test_rejects_non_3d_volume(self):
        with pytest.raises(ValueError):
            trilinear_interpolate(np.zeros((2, 2)), 0, 0, 0)
