"""Property-based tests of the three theorems (Section 3.2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import CBCTGeometry, default_geometry_for_problem
from repro.core.symmetry import (
    check_theorem1,
    check_theorem2,
    check_theorem3,
    verify_geometry_symmetry,
)
from repro.core.types import ProjectionStack
from repro.streaming import StreamingReconstructor


def _geometry(nu, nv, np_, nx, ny, nz, sad, mag, du, dv, dx):
    return CBCTGeometry(
        nu=nu, nv=nv, np_=np_,
        du=du, dv=dv,
        sad=sad, sdd=sad * mag,
        nx=nx, ny=ny, nz=nz,
        dx=dx, dy=dx, dz=dx,
    )


geometry_strategy = st.builds(
    _geometry,
    nu=st.integers(8, 64),
    nv=st.integers(8, 64),
    np_=st.integers(4, 32),
    nx=st.integers(4, 48),
    ny=st.integers(4, 48),
    nz=st.integers(4, 48),
    sad=st.floats(50.0, 500.0),
    mag=st.floats(1.1, 3.0),
    du=st.floats(0.1, 4.0),
    dv=st.floats(0.1, 4.0),
    dx=st.floats(0.1, 2.0),
)


class TestTheoremsOnFixedGeometry:
    def test_theorem1_exact(self, small_geometry):
        pm = small_geometry.projection_matrix(0.77)
        du, dv = check_theorem1(pm, 3, 7, np.arange(small_geometry.nz))
        assert np.max(np.abs(du)) < 1e-9
        assert np.max(np.abs(dv)) < 1e-9

    def test_theorem2_exact(self, small_geometry):
        pm = small_geometry.projection_matrix(1.9)
        spread = check_theorem2(pm, np.arange(0, small_geometry.nx, 5), 11)
        assert np.max(spread) < 1e-9

    def test_theorem3_exact(self, small_geometry):
        pm = small_geometry.projection_matrix(2.5)
        residual = check_theorem3(pm, np.arange(0, small_geometry.nx, 3), 4)
        assert np.max(residual) < 1e-8

    def test_report_holds(self, small_geometry):
        report = verify_geometry_symmetry(small_geometry)
        assert report.holds(atol=1e-6)


@given(geometry=geometry_strategy, beta=st.floats(0.0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_all_theorems_hold_for_random_geometries(geometry, beta):
    """Theorems 1-3 are exact for every circular-orbit geometry of Eq. 2."""
    report = verify_geometry_symmetry(geometry, beta=beta, samples=4)
    # Residuals are round-off relative to the geometry scale.
    scale = max(geometry.sad, geometry.nu, geometry.nv)
    assert report.theorem1_u <= 1e-9 * scale
    assert report.theorem1_v <= 1e-9 * scale
    assert report.theorem2_u_spread <= 1e-9 * scale
    assert report.theorem3_z_residual <= 1e-9 * scale


# Even and odd Nv and Nz, and Nx != Ny: (Nu, Nv, Np, Nx, Ny, Nz).
THEOREM1_PROBLEMS = [
    (24, 24, 48, 16, 16, 16),
    (40, 30, 36, 20, 20, 12),
    (40, 31, 36, 20, 18, 13),
]


def _reconstruct(geometry, data, backend, algorithm):
    stack = ProjectionStack(data=data, angles=geometry.angles)
    return StreamingReconstructor(
        geometry, backend=backend, algorithm=algorithm
    ).reconstruct_stack(stack).volume.data


def _check_theorem1(problem, backend, algorithm="proposed"):
    nu, nv, np_, nx, ny, nz = problem
    geometry = default_geometry_for_problem(nu=nu, nv=nv, np_=np_, nx=nx, ny=ny, nz=nz)
    data = np.random.default_rng(7).standard_normal((np_, nv, nu)).astype(np.float32)
    volume = _reconstruct(geometry, data, backend, algorithm)
    mirrored = _reconstruct(
        geometry, np.ascontiguousarray(data[:, ::-1, :]), backend, algorithm
    )
    if backend == "reference":
        np.testing.assert_array_equal(mirrored, volume[::-1])
    else:
        np.testing.assert_allclose(
            mirrored, volume[::-1], rtol=0, atol=1e-6 * np.abs(volume).max()
        )


THEOREM1_IDS = ["{}x{}x{}->{}x{}x{}".format(*p) for p in THEOREM1_PROBLEMS]


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("problem", THEOREM1_PROBLEMS, ids=THEOREM1_IDS)
def test_theorem1_reversed_rows_flip_the_volume_in_z(problem, backend):
    """Theorem 1 on whole volumes: reversing every projection's rows
    (v -> Nv - 1 - v) reconstructs the volume mirrored in Z.

    A convention error that every backend shares (an off-centre detector
    row, a wrong mirror row) moves the two volumes apart, so this catches
    what a comparison with ``reference`` cannot.  A Z-symmetric error, such
    as the distance weight's exponent, keeps the relation.
    """
    _check_theorem1(problem, backend)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("problem", THEOREM1_PROBLEMS, ids=THEOREM1_IDS)
def test_theorem1_holds_for_the_standard_algorithm(problem, backend):
    """Algorithm 2 never uses the mirror row, so the relation checks the
    detector's v centre on its own."""
    _check_theorem1(problem, backend, algorithm="standard")


@pytest.mark.parametrize("backend", ["blocked", "parallel"])
@pytest.mark.parametrize("problem", THEOREM1_PROBLEMS, ids=THEOREM1_IDS)
def test_theorem1_holds_on_the_tiled_backends(problem, backend):
    _check_theorem1(problem, backend)


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("problem", THEOREM1_PROBLEMS, ids=THEOREM1_IDS)
def test_theorem1_holds_on_every_kernel_executor(problem):
    """The compiled kernel's vector and scalar loops and the NumPy block
    kernels each fold the mirror row themselves."""
    _check_theorem1(problem, "vectorized")
