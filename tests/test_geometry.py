"""Unit tests for repro.core.geometry."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReconstructionPlan, Session
from repro.backends import TiledBackend
from repro.core import geometry as geometry_module
from repro.core.geometry import CBCTGeometry, default_geometry_for_problem
from repro.core.types import ProjectionStack


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



@st.composite
def geometries(draw):
    pitch = st.floats(0.05, 5.0)
    size = st.integers(1, 96)
    sad = draw(st.floats(5.0, 1000.0))
    return CBCTGeometry(
        nu=draw(size), nv=draw(size), np_=draw(st.integers(1, 64)),
        du=draw(pitch), dv=draw(pitch), sad=sad, sdd=sad * draw(st.floats(1.0, 4.0)),
        nx=draw(size), ny=draw(size), nz=draw(size),
        dx=draw(pitch), dy=draw(pitch), dz=draw(pitch),
        detector_offset_u=draw(st.floats(-100.0, 100.0)),
    )


class TestProjectionMatrixMemo:
    """``projection_matrix`` computes each matrix once per geometry and exact
    angle bits and hands it out read-only; the memo sits inside the method,
    so a patched method is still what every caller reads."""

    @settings(max_examples=200, deadline=None)
    @given(
        geometry=geometries(),
        beta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0)),
    )
    def test_a_matrix_is_read_only_and_the_factorization_bit_for_bit(self, geometry, beta):
        pm = geometry.projection_matrix(beta)
        product = geometry.matrix_m1() @ geometry.matrix_mrot(beta) @ geometry.matrix_m0()
        assert not pm.matrix.flags.writeable
        with pytest.raises(ValueError):
            pm.matrix[0, 0] = 1.0
        np.testing.assert_array_equal(
            pm.matrix.view(np.uint64), np.ascontiguousarray(product[:3]).view(np.uint64)
        )
        assert np.signbit(pm.beta) == np.signbit(beta) and pm.beta == beta
        again = geometry.projection_matrix(beta)
        assert again.matrix is pm.matrix and again.geometry is geometry

    def test_minus_zero_is_its_own_angle(self, geometry):
        plus, minus = geometry.projection_matrix(0.0), geometry.projection_matrix(-0.0)
        assert plus.matrix is not minus.matrix
        assert np.signbit(minus.beta) and not np.signbit(plus.beta)
        assert geometry.projection_matrix(-0.0).matrix is minus.matrix

    def test_a_second_session_run_builds_no_matrix(self, small_geometry, small_projections):
        """Counted where a matrix is built, for the run's geometry only (the
        compiled kernel's first load proves itself on a geometry of its own)."""
        geometry_module._projection_matrix.cache_clear()
        built = []
        rotation = CBCTGeometry.matrix_mrot

        def counted(self, beta):
            if self == small_geometry:
                built.append(beta)
            return rotation(self, beta)

        plan = ReconstructionPlan(geometry=small_geometry, backend="vectorized")
        with mock.patch.object(CBCTGeometry, "matrix_mrot", counted), Session(plan) as session:
            first = session.run(small_projections)
            assert sorted(built) == sorted(small_geometry.angles)
            second = session.run(small_projections)
        assert len(built) == small_geometry.np_
        np.testing.assert_array_equal(first.volume.data, second.volume.data)

    def test_a_patched_method_is_what_the_accumulator_reads(self):
        """With the memo warm, every view patched to angle 0 folds what a
        stack whose angles are all 0 folds."""
        geometry = default_geometry_for_problem(nu=16, nv=16, np_=4, nx=8, ny=8, nz=8)
        data = np.random.default_rng(3).standard_normal((4, 16, 16)).astype(np.float32)
        stack = ProjectionStack(data=data, angles=geometry.angles, filtered=True)
        at_zero = ProjectionStack(data=data, angles=np.zeros(4), filtered=True)

        def fold(stack):
            with TiledBackend(workers=1) as backend:
                return backend.backproject(stack, geometry, algorithm="proposed").data

        real = CBCTGeometry.projection_matrix
        unpatched = fold(stack)
        with mock.patch.object(
            CBCTGeometry, "projection_matrix", lambda self, beta: real(self, 0.0)
        ):
            patched = fold(stack)
        assert not np.array_equal(patched, unpatched)
        np.testing.assert_array_equal(patched, fold(at_zero))

    def test_the_memo_is_bounded(self, geometry):
        memo = geometry_module._projection_matrix
        limit = memo.cache_info().maxsize
        assert 256 <= limit <= 4096  # a whole scan fits; a long run holds < 2 MiB
        for n in range(limit + 10):
            geometry.projection_matrix(n * 1e-3)
        assert memo.cache_info().currsize == limit


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
