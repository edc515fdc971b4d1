"""Tests for the analytic forward projector and the single-node FDK reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_3d,
    uniform_sphere_phantom,
)
from repro.core.metrics import interior_mask, normalized_cross_correlation, rmse
from repro.streaming import StreamingReconstructor


def fdk_volume(stack, geometry, **options):
    """Whole-stack FDK: the chunk driver's one-chunk case."""
    return StreamingReconstructor(geometry, **options).reconstruct_stack(stack).volume


class TestForwardProjectors:
    def test_analytic_projection_shape_and_positivity(self, small_geometry, small_projections):
        assert small_projections.data.shape == (
            small_geometry.np_, small_geometry.nv, small_geometry.nu,
        )
        assert np.all(small_projections.data >= -1e-5)
        assert small_projections.data.max() > 0

    def test_central_ray_integral_matches_sphere_diameter(self):
        geo = default_geometry_for_problem(nu=64, nv=64, np_=4, nx=32, ny=32, nz=32)
        sphere = uniform_sphere_phantom(radius=0.5, value=1.0)
        stack = forward_project_analytic(sphere, geo)
        # The central detector pixel sees a chord through the sphere centre:
        # diameter = 0.5 * 32 voxels * 1 mm = 16 mm.
        center = stack.data[0, (geo.nv - 1) // 2, (geo.nu - 1) // 2]
        assert center == pytest.approx(16.0, rel=0.05)

    def test_empty_volume_projects_to_zero(self, small_geometry):
        # A phantom of zero density: every ray's line integral is exactly 0.
        empty = uniform_sphere_phantom(radius=0.6, value=0.0)
        stack = forward_project_analytic(empty, small_geometry, angles=[0.0, 1.0])
        assert np.all(stack.data == 0)

    def test_projection_angles_respected(self, shepp_logan_phantom, small_geometry):
        stack = forward_project_analytic(shepp_logan_phantom, small_geometry, angles=[0.0, 1.0])
        assert stack.np_ == 2
        assert stack.angles.tolist() == [0.0, 1.0]


class TestFDKReconstruction:
    def test_reconstruction_quantitatively_close_to_phantom(
        self, small_geometry, small_projections, small_reference_volume
    ):
        volume = fdk_volume(small_projections, small_geometry)
        mask = interior_mask(small_reference_volume.shape, 0.7)
        err = rmse(volume.data, small_reference_volume.data, mask)
        ncc = normalized_cross_correlation(volume.data, small_reference_volume.data, mask)
        assert err < 0.12
        assert ncc > 0.6
        # Absolute scale is preserved (the FDK normalization is correct):
        center = volume.data[
            small_geometry.nz // 2, small_geometry.ny // 2, small_geometry.nx // 2
        ]
        assert center == pytest.approx(0.2, abs=0.08)

    def test_sphere_center_value_reconstructed(self):
        geo = default_geometry_for_problem(nu=64, nv=64, np_=60, nx=32, ny=32, nz=32)
        sphere = uniform_sphere_phantom(radius=0.6, value=1.0)
        stack = forward_project_analytic(sphere, geo)
        volume = fdk_volume(stack, geo)
        assert volume.data[16, 16, 16] == pytest.approx(1.0, abs=0.15)

    def test_both_algorithms_give_same_reconstruction(self, small_geometry, small_projections):
        a = fdk_volume(small_projections, small_geometry, algorithm="standard")
        b = fdk_volume(small_projections, small_geometry, algorithm="proposed")
        np.testing.assert_allclose(a.data, b.data, atol=1e-4)

    def test_reconstructor_reports_timings_and_gups(self, small_geometry, small_projections):
        result = StreamingReconstructor(small_geometry).reconstruct_stack(
            small_projections
        )
        assert result.filter_seconds >= 0
        assert result.backprojection_seconds > 0
        assert small_geometry.problem().gups(result.backprojection_seconds) > 0
        assert result.total_seconds >= result.backprojection_seconds

    def test_reconstructor_accepts_prefiltered_stack(self, small_geometry, small_filtered):
        recon = StreamingReconstructor(small_geometry)
        result = recon.reconstruct_stack(small_filtered)
        reference = recon.backend.backproject(small_filtered, small_geometry)
        np.testing.assert_allclose(result.volume.data, reference.data, atol=1e-6)

    def test_reconstructor_validates_configuration(self, small_geometry):
        with pytest.raises(ValueError):
            StreamingReconstructor(small_geometry, ramp_filter="nope")
        with pytest.raises(ValueError):
            StreamingReconstructor(small_geometry, algorithm="nope")

    def test_reconstructor_rejects_mismatched_stack(self, small_geometry, medium_projections):
        with pytest.raises(ValueError):
            StreamingReconstructor(small_geometry).reconstruct_stack(medium_projections)

    @pytest.mark.parametrize("window", ["ram-lak", "hann", "shepp-logan"])
    def test_apodized_filters_reduce_noise_amplification(
        self, small_geometry, small_projections, window
    ):
        volume = fdk_volume(small_projections, small_geometry, ramp_filter=window)
        assert np.all(np.isfinite(volume.data))

    def test_z_slab_reconstructor(self, small_geometry, small_projections):
        full = fdk_volume(small_projections, small_geometry)
        slab = fdk_volume(small_projections, small_geometry, z_range=(8, 24))
        np.testing.assert_allclose(slab.data, full.data[8:24], atol=1e-5)

    @pytest.mark.parametrize("backend", ["reference", "blocked"])
    def test_subset_stack_reconstructs_with_its_own_angles(
        self, small_geometry, small_projections, backend
    ):
        """Angles ride on the stack: every other view of the acquisition is a
        valid input (each iFDK rank runs the same stages on its own subset)."""
        from repro.api import ReconstructionPlan, run_plan
        from repro.backends import get_backend
        from repro.core.types import ProjectionStack

        subset = ProjectionStack(
            data=small_projections.data[::2], angles=small_projections.angles[::2]
        )
        engine = get_backend(backend)
        expected = engine.backproject(
            engine.filter_stack(subset, small_geometry), small_geometry
        )
        result = StreamingReconstructor(
            small_geometry, backend=backend
        ).reconstruct_stack(subset)
        np.testing.assert_array_equal(result.volume.data, expected.data)
        assert result.num_projections == result.chunk_size == subset.np_
        via_session = run_plan(
            ReconstructionPlan(geometry=small_geometry, backend=backend), subset
        )
        np.testing.assert_array_equal(via_session.volume.data, expected.data)

    def test_subset_stack_rejected_under_a_redundancy_scenario(
        self, small_geometry, small_projections
    ):
        """A scenario's (Np, Nu) weight table pins the projection count."""
        from repro.core.types import ProjectionStack
        from repro.scenarios import get_scenario

        geometry, stack = get_scenario("short_scan").apply(
            small_geometry, small_projections
        )
        subset = ProjectionStack(data=stack.data[:4], angles=stack.angles[:4])
        recon = StreamingReconstructor(geometry, scenario="short_scan")
        with pytest.raises(ValueError, match="weights .* projections"):
            recon.reconstruct_stack(subset)
