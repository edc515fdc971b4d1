"""Unit tests for repro.core.geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import CBCTGeometry, default_geometry_for_problem


@pytest.fixture()
def geometry() -> CBCTGeometry:
    return CBCTGeometry(
        nu=64, nv=64, np_=36,
        du=2.0, dv=2.0,
        sad=100.0, sdd=150.0,
        nx=32, ny=32, nz=32,
        dx=1.0, dy=1.0, dz=1.0,
    )


class TestCBCTGeometry:
    def test_theta(self, geometry):
        assert geometry.theta == pytest.approx(2 * np.pi / 36)

    def test_magnification(self, geometry):
        assert geometry.magnification == pytest.approx(1.5)

    def test_angles_span_full_rotation(self, geometry):
        angles = geometry.angles
        assert len(angles) == 36
        assert angles[0] == 0.0
        assert angles[-1] == pytest.approx(2 * np.pi - geometry.theta)

    def test_rejects_sdd_smaller_than_sad(self):
        with pytest.raises(ValueError):
            CBCTGeometry(
                nu=8, nv=8, np_=4, du=1, dv=1, sad=100, sdd=50,
                nx=8, ny=8, nz=8, dx=1, dy=1, dz=1,
            )

    @pytest.mark.parametrize("field,value", [("nu", 0), ("du", -1.0), ("np_", 0)])
    def test_rejects_invalid_parameters(self, field, value):
        kwargs = dict(
            nu=8, nv=8, np_=4, du=1.0, dv=1.0, sad=100.0, sdd=150.0,
            nx=8, ny=8, nz=8, dx=1.0, dy=1.0, dz=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            CBCTGeometry(**kwargs)

    def test_with_volume_and_detector(self, geometry):
        g2 = geometry.with_volume(16, 16, 8).with_detector(32, 16)
        assert (g2.nx, g2.ny, g2.nz) == (16, 16, 8)
        assert (g2.nu, g2.nv) == (32, 16)
        assert g2.sad == geometry.sad

    def test_fov_radius_positive_and_bounded(self, geometry):
        r = geometry.fov_radius()
        assert 0 < r < geometry.sad


class TestProjectionMatrix:
    def test_center_voxel_projects_to_detector_center(self, geometry):
        pm = geometry.projection_matrix(0.7)
        cx, cy, cz = (geometry.nx - 1) / 2, (geometry.ny - 1) / 2, (geometry.nz - 1) / 2
        u, v, z = pm.project(cx, cy, cz)
        assert u == pytest.approx((geometry.nu - 1) / 2)
        assert v == pytest.approx((geometry.nv - 1) / 2)
        assert z == pytest.approx(geometry.sad)

    def test_equation3_closed_form_matches_matrix(self, geometry):
        beta = 1.234
        pm = geometry.projection_matrix(beta)
        i, j, k = 5.0, 20.0, 13.0
        _, _, z = pm.project(i, j, k)
        assert z == pytest.approx(geometry.perspective_divisor(beta, i, j))

    def test_divisor_independent_of_k(self, geometry):
        pm = geometry.projection_matrix(0.3)
        _, _, z0 = pm.project(3, 7, 0)
        _, _, z1 = pm.project(3, 7, geometry.nz - 1)
        assert z0 == pytest.approx(z1)

    def test_matrix_shape_enforced(self, geometry):
        from repro.core.geometry import ProjectionMatrix

        with pytest.raises(ValueError):
            ProjectionMatrix(matrix=np.eye(4), beta=0.0, geometry=geometry)

    def test_camera_center_projects_all_rays_through_it(self, geometry):
        pm = geometry.projection_matrix(0.9)
        center = pm.camera_center
        # The camera centre is the null space of P: P @ [C, 1] == 0.
        residual = pm.matrix @ np.append(center, 1.0)
        assert np.allclose(residual, 0.0, atol=1e-9)

    def test_ray_direction_consistent_with_projection(self, geometry):
        pm = geometry.projection_matrix(2.1)
        center = pm.camera_center
        direction = pm.ray_direction(10.0, 20.0)
        point = center + 0.7 * direction
        u, v, _ = pm.project(point[0], point[1], point[2])
        assert u == pytest.approx(10.0, abs=1e-8)
        assert v == pytest.approx(20.0, abs=1e-8)

    def test_project_homogeneous_matches_project(self, geometry):
        pm = geometry.projection_matrix(0.4)
        pts = np.array([[1.0, 2.0, 3.0, 1.0], [4.0, 5.0, 6.0, 1.0]])
        xyz = pm.project_homogeneous(pts)
        u, v, z = pm.project(pts[:, 0], pts[:, 1], pts[:, 2])
        np.testing.assert_allclose(xyz[:, 0] / xyz[:, 2], u)
        np.testing.assert_allclose(xyz[:, 2], z)

    def test_project_homogeneous_validates_shape(self, geometry):
        pm = geometry.projection_matrix(0.4)
        with pytest.raises(ValueError):
            pm.project_homogeneous(np.zeros((3, 3)))

    def test_distance_weight_is_d_over_z_squared(self, geometry):
        pm = geometry.projection_matrix(0.0)
        z = np.array([geometry.sad, 2 * geometry.sad])
        np.testing.assert_allclose(pm.distance_weight(z), [1.0, 0.25])


class TestDefaultGeometry:
    def test_matches_requested_sizes(self):
        g = default_geometry_for_problem(nu=96, nv=80, np_=50, nx=64, ny=64, nz=32)
        assert (g.nu, g.nv, g.np_) == (96, 80, 50)
        assert (g.nx, g.ny, g.nz) == (64, 64, 32)

    def test_volume_projects_inside_detector(self):
        g = default_geometry_for_problem(nu=64, nv=64, np_=16, nx=32, ny=32, nz=32)
        # All eight volume corners must project inside the detector at all angles.
        corners = [
            (i, j, k)
            for i in (0, g.nx - 1)
            for j in (0, g.ny - 1)
            for k in (0, g.nz - 1)
        ]
        for beta in g.angles:
            pm = g.projection_matrix(beta)
            for corner in corners:
                u, v, z = pm.project(*corner)
                assert -1.0 <= u <= g.nu
                assert -1.0 <= v <= g.nv
                assert z > 0
