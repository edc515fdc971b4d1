"""Unit tests for repro.core.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    gups,
    interior_mask,
    normalized_cross_correlation,
    psnr,
    rmse,
)
from repro.core.types import ReconstructionProblem


class TestGups:
    def test_matches_definition(self):
        p = ReconstructionProblem(nu=8, nv=8, np_=16, nx=32, ny=32, nz=32)
        assert gups(p, 1.0) == pytest.approx(32**3 * 16 / 2**30)

    def test_paper_scale_sanity(self):
        # 2048^2x4096 -> 4096^3 solved in 30 s is ~8,738 GUPS; the Figure 6
        # end point (22,599 GUPS at 2,048 GPUs) corresponds to ~11.6 s.
        p = ReconstructionProblem(nu=2048, nv=2048, np_=4096, nx=4096, ny=4096, nz=4096)
        assert gups(p, 30.0) == pytest.approx(8738, rel=0.01)
        assert p.gups(11.6) == pytest.approx(22599, rel=0.03)


class TestErrorMetrics:
    def test_rmse_zero_for_identical(self, rng):
        a = rng.random((5, 5, 5))
        assert rmse(a, a) == 0.0

    def test_rmse_known_value(self):
        a = np.zeros(4)
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert rmse(a, b) == pytest.approx(1.0)

    def test_rmse_masked(self):
        a = np.zeros(4)
        b = np.array([0.0, 0.0, 3.0, 3.0])
        mask = np.array([True, True, False, False])
        assert rmse(a, b, mask) == 0.0

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_rmse_empty_mask(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool))

    def test_psnr_increases_with_fidelity(self, rng):
        ref = rng.random((8, 8))
        noisy = ref + 0.1 * rng.standard_normal(ref.shape)
        cleaner = ref + 0.01 * rng.standard_normal(ref.shape)
        assert psnr(cleaner, ref) > psnr(noisy, ref)

    def test_psnr_infinite_for_identical(self, rng):
        a = rng.random((4, 4))
        assert psnr(a, a) == float("inf")

    def test_psnr_rejects_flat_reference(self):
        with pytest.raises(ValueError):
            psnr(np.ones(4), np.zeros(4))

    def test_ncc_perfect_and_inverted(self, rng):
        a = rng.random(100)
        assert normalized_cross_correlation(a, a) == pytest.approx(1.0)
        assert normalized_cross_correlation(a, -a) == pytest.approx(-1.0)

    def test_ncc_invariant_to_scale_and_offset(self, rng):
        a = rng.random(100)
        b = 3.0 * a + 7.0
        assert normalized_cross_correlation(a, b) == pytest.approx(1.0)

    def test_ncc_zero_for_constant(self, rng):
        assert normalized_cross_correlation(np.ones(10), rng.random(10)) == 0.0


class TestInteriorMask:
    def test_masks_center_not_corners(self):
        mask = interior_mask((16, 16, 16), fraction=0.8)
        assert mask[8, 8, 8]
        assert not mask[0, 0, 0]

    def test_fraction_controls_size(self):
        small = interior_mask((16, 16, 16), 0.4).sum()
        large = interior_mask((16, 16, 16), 0.9).sum()
        assert small < large

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            interior_mask((4, 4, 4), 0.0)
