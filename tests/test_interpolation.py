"""Unit and property tests for repro.core.interpolation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpolation import bilinear_interpolate, interp2


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
