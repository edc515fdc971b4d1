"""Unit tests for repro.core.phantom."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phantom import (
    Ellipsoid,
    EllipsoidPhantom,
    shepp_logan_3d,
    shepp_logan_ellipsoids,
    uniform_sphere_phantom,
)


class TestEllipsoid:
    def test_contains_center_and_not_outside(self):
        e = Ellipsoid(value=1.0, center=(0.1, 0.0, 0.0), axes=(0.2, 0.3, 0.4))
        assert e.contains(np.array([[0.1, 0.0, 0.0]]))[0]
        assert not e.contains(np.array([[0.9, 0.9, 0.9]]))[0]

    def test_rotation_is_orthonormal(self):
        e = Ellipsoid(value=1.0, center=(0, 0, 0), axes=(1, 1, 1), phi_deg=33.0)
        rot = e.rotation()
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_line_integral_through_center_of_sphere(self):
        e = Ellipsoid(value=2.0, center=(0, 0, 0), axes=(0.5, 0.5, 0.5))
        origins = np.array([[-2.0, 0.0, 0.0]])
        directions = np.array([[1.0, 0.0, 0.0]])
        # Chord through the centre has length 1.0; density 2.0 -> integral 2.0.
        assert e.line_integral(origins, directions)[0] == pytest.approx(2.0)

    def test_line_integral_missing_ray_is_zero(self):
        e = Ellipsoid(value=1.0, center=(0, 0, 0), axes=(0.1, 0.1, 0.1))
        origins = np.array([[-2.0, 1.0, 0.0]])
        directions = np.array([[1.0, 0.0, 0.0]])
        assert e.line_integral(origins, directions)[0] == 0.0

    def test_line_integral_scales_with_direction_norm_consistently(self):
        e = Ellipsoid(value=1.0, center=(0, 0, 0), axes=(0.5, 0.5, 0.5))
        origins = np.array([[-2.0, 0.0, 0.0]])
        d1 = np.array([[1.0, 0.0, 0.0]])
        d2 = np.array([[4.0, 0.0, 0.0]])
        # The chord length is geometric, independent of the parameterization.
        assert e.line_integral(origins, d1)[0] == pytest.approx(
            e.line_integral(origins, d2)[0]
        )


class TestEllipsoidPhantom:
    def test_requires_at_least_one_ellipsoid(self):
        with pytest.raises(ValueError):
            EllipsoidPhantom([])

    def test_rasterize_shape_and_dtype(self):
        vol = uniform_sphere_phantom().rasterize(8, 10, 12)
        assert vol.shape == (12, 10, 8)
        assert vol.data.dtype == np.float32

    def test_rasterize_sphere_values(self):
        vol = uniform_sphere_phantom(radius=0.6, value=2.0).rasterize(32, 32, 32)
        center = vol.data[16, 16, 16]
        corner = vol.data[0, 0, 0]
        assert center == pytest.approx(2.0)
        assert corner == 0.0

    def test_supersampling_smooths_boundary(self):
        sharp = uniform_sphere_phantom().rasterize(16, 16, 16, supersample=1)
        smooth = uniform_sphere_phantom().rasterize(16, 16, 16, supersample=2)
        # Total mass is similar but the supersampled volume has intermediate values.
        assert smooth.data.sum() == pytest.approx(sharp.data.sum(), rel=0.1)
        assert np.any((smooth.data > 0.01) & (smooth.data < 0.99))

    def test_rejects_bad_supersample(self):
        with pytest.raises(ValueError):
            uniform_sphere_phantom().rasterize(8, 8, 8, supersample=0)

    def test_density_at_matches_rasterization_at_centers(self):
        phantom = uniform_sphere_phantom(radius=0.5, value=3.0)
        assert phantom.density_at(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(3.0)
        assert phantom.density_at(np.array([[0.9, 0.0, 0.0]]))[0] == 0.0

    def test_line_integrals_sum_over_ellipsoids(self):
        grid = (-0.5, 0.0, 0.5)
        phantom = EllipsoidPhantom([
            Ellipsoid(value=1.0, center=(x, y, z), axes=(0.05, 0.05, 0.05))
            for x in grid for y in grid for z in grid
        ])
        origins = np.array([[-2.0, 0.0, 0.0]])
        directions = np.array([[1.0, 0.0, 0.0]])
        # The central row of the grid contains 3 spheres of diameter 0.1.
        assert phantom.line_integrals(origins, directions)[0] == pytest.approx(0.3, rel=1e-6)


class TestSheppLogan:
    def test_ten_ellipsoids(self):
        assert len(shepp_logan_ellipsoids()) == 10
        assert len(shepp_logan_ellipsoids(modified=False)) == 10

    def test_modified_values_differ_from_classic(self):
        modified = shepp_logan_ellipsoids(modified=True)
        classic = shepp_logan_ellipsoids(modified=False)
        assert modified[0].value == pytest.approx(1.0)
        assert classic[0].value == pytest.approx(2.0)
        # Geometry is identical.
        assert modified[3].axes == classic[3].axes

    def test_3d_volume_value_range(self):
        vol = shepp_logan_3d(32)
        assert vol.shape == (32, 32, 32)
        assert vol.data.min() >= -1e-6
        assert vol.data.max() <= 1.0 + 1e-6
        # The interior (brain matter) sits near 0.2 for the modified phantom.
        assert vol.data[16, 16, 16] == pytest.approx(0.2, abs=0.05)

    def test_3d_anisotropic_shapes(self):
        vol = shepp_logan_3d(16, 24, 8)
        assert vol.shape == (8, 24, 16)
