"""Tests for the iterative solvers built on the FDK operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    default_geometry_for_problem,
    forward_project_analytic,
    uniform_sphere_phantom,
)
from repro.core.iterative import mlem, osem, sart, sirt
from repro.core.metrics import interior_mask, rmse
from repro.core.types import Volume


@pytest.fixture(scope="module")
def tiny_geometry():
    # Deliberately tiny: every iteration runs a full forward + back projection.
    return default_geometry_for_problem(nu=24, nv=24, np_=12, nx=16, ny=16, nz=16)


@pytest.fixture(scope="module")
def tiny_phantom():
    return uniform_sphere_phantom(radius=0.55, value=1.0)


@pytest.fixture(scope="module")
def tiny_projections(tiny_geometry, tiny_phantom):
    return forward_project_analytic(tiny_phantom, tiny_geometry)


@pytest.fixture(scope="module")
def tiny_reference(tiny_phantom):
    return tiny_phantom.rasterize(16, 16, 16)


class TestSIRT:
    def test_residual_decreases(self, tiny_geometry, tiny_projections):
        result = sirt(tiny_projections, tiny_geometry, iterations=4, relaxation=1.0)
        assert result.iterations == 4
        assert result.residual_history[-1] < result.residual_history[0]

    def test_volume_approaches_phantom(self, tiny_geometry, tiny_projections, tiny_reference):
        result = sirt(tiny_projections, tiny_geometry, iterations=8)
        mask = interior_mask(tiny_reference.shape, 0.6)
        assert rmse(result.volume.data, tiny_reference.data, mask) < 0.35

    def test_algorithm_choice_does_not_change_result(self, tiny_geometry, tiny_projections):
        a = sirt(tiny_projections, tiny_geometry, iterations=2, algorithm="proposed")
        b = sirt(tiny_projections, tiny_geometry, iterations=2, algorithm="standard")
        np.testing.assert_allclose(a.volume.data, b.volume.data, atol=1e-4)

    def test_callback_invoked(self, tiny_geometry, tiny_projections):
        seen = []
        sirt(tiny_projections, tiny_geometry, iterations=2, callback=lambda i, r: seen.append(i))
        assert seen == [0, 1]

    def test_invalid_iterations(self, tiny_geometry, tiny_projections):
        with pytest.raises(ValueError):
            sirt(tiny_projections, tiny_geometry, iterations=0)

    def test_unknown_algorithm_rejected_by_the_accumulator(
        self, tiny_geometry, tiny_projections
    ):
        with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
            sirt(tiny_projections, tiny_geometry, iterations=1, algorithm="magic")


class TestSARTAndART:
    def test_sart_residual_decreases(self, tiny_geometry, tiny_projections):
        result = sart(tiny_projections, tiny_geometry, iterations=2, relaxation=0.5)
        assert result.residual_history[-1] <= result.residual_history[0]

    def test_final_residual_property(self, tiny_geometry, tiny_projections):
        result = sart(tiny_projections, tiny_geometry, iterations=1)
        assert result.final_residual == result.residual_history[-1]


class TestMLEMAndOSEM:
    def test_mlem_preserves_nonnegativity(self, tiny_geometry, tiny_projections):
        result = mlem(tiny_projections, tiny_geometry, iterations=3)
        assert np.all(result.volume.data >= 0)
        assert result.residual_history[-1] < result.residual_history[0]

    def test_osem_with_subsets_converges_faster_per_iteration(
        self, tiny_geometry, tiny_projections
    ):
        one = mlem(tiny_projections, tiny_geometry, iterations=2)
        four = osem(tiny_projections, tiny_geometry, subsets=4, iterations=2)
        assert four.residual_history[-1] <= one.residual_history[-1] * 1.1

    def test_mlem_rejects_negative_data(self, tiny_geometry, tiny_projections):
        bad = tiny_projections.copy()
        bad.data[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            mlem(bad, tiny_geometry, iterations=1)

    def test_osem_rejects_bad_subsets(self, tiny_geometry, tiny_projections):
        with pytest.raises(ValueError):
            osem(tiny_projections, tiny_geometry, subsets=0, iterations=1)
        with pytest.raises(ValueError):
            osem(tiny_projections, tiny_geometry, subsets=1000, iterations=1)

    def test_osem_rejects_nonpositive_initial(self, tiny_geometry, tiny_projections):
        zero_init = Volume.zeros(16, 16, 16)
        with pytest.raises(ValueError):
            mlem(tiny_projections, tiny_geometry, iterations=1, initial=zero_init)
