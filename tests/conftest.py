"""Shared fixtures for the test-suite.

Reconstruction is expensive, so the projection stacks and reference volumes
used by many tests are built once per session at a deliberately small scale
(32-48 voxels per side).  Anything that needs a bigger problem builds it
locally and is marked ``slow``.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest

from repro.analysis import LockOrderSanitizer
from repro.backends import get_backend, native
from repro.core import (
    CBCTGeometry,
    EllipsoidPhantom,
    ProjectionStack,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_3d,
    shepp_logan_ellipsoids,
)

#: The session's lock-order sanitizer, installed only when
#: REPRO_LOCK_SANITIZER=1 (see repro.analysis.locksan).
_LOCK_SANITIZER: LockOrderSanitizer | None = None


#: The session's own compiled-kernel cache, unless the caller named one: a
#: run neither trusts nor litters the user's (and worker processes inherit it).
_NATIVE_CACHE: str | None = None


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: slower end-to-end tests")
    global _LOCK_SANITIZER, _NATIVE_CACHE
    if "XDG_CACHE_HOME" not in os.environ and _NATIVE_CACHE is None:
        _NATIVE_CACHE = tempfile.mkdtemp(prefix="repro-test-cache-")
        os.environ["XDG_CACHE_HOME"] = _NATIVE_CACHE
    if os.environ.get("REPRO_LOCK_SANITIZER") == "1" and _LOCK_SANITIZER is None:
        _LOCK_SANITIZER = LockOrderSanitizer()
        _LOCK_SANITIZER.install()


def pytest_sessionfinish(session, exitstatus):
    global _LOCK_SANITIZER, _NATIVE_CACHE
    if _NATIVE_CACHE is not None:
        shutil.rmtree(_NATIVE_CACHE, ignore_errors=True)
        del os.environ["XDG_CACHE_HOME"]
        _NATIVE_CACHE = None
    if _LOCK_SANITIZER is None:
        return
    sanitizer, _LOCK_SANITIZER = _LOCK_SANITIZER, None
    sanitizer.uninstall()
    print(f"\n{sanitizer.report()}", file=sys.stderr)
    if sanitizer.inversions:
        # Any observed A->B / B->A pair is a latent deadlock: fail the
        # whole session even if every test passed.
        session.exitstatus = 3


@pytest.fixture
def numpy_executor():
    """The fallback as a host without a compiler sees it: the loader patched
    out, every accumulator on the NumPy block kernels."""
    with mock.patch.object(native, "resolve", return_value=None):
        yield


@pytest.fixture
def native_executor():
    """The compiled Algorithm 4 kernel, or a skip on a host that has none."""
    if native.resolve() is None:
        pytest.skip("no compiled kernel on this host (see the fallback warning)")


@pytest.fixture(scope="session")
def scalar_fold():
    """The compiled kernel's scalar loop (``alg4_fold_scalar``), proven, or
    ``None`` on a host that has no compiled kernel."""
    if native.resolve() is None:
        return None
    return native.load("alg4_fold_scalar")


@pytest.fixture
def scalar_executor(scalar_fold):
    """The compiled kernel held to its scalar loop whatever this host's cpuid
    picks, so a host with AVX2 proves the loop a host without one runs."""
    if scalar_fold is None:
        pytest.skip("no compiled kernel on this host (see the fallback warning)")
    with mock.patch.object(native, "resolve", return_value=scalar_fold):
        yield


@pytest.fixture(params=["native", "scalar", "numpy"])
def executor(request):
    """Run the test once per kernel executor (``usefixtures("executor")``):
    the compiled Algorithm 4 kernel as dispatched here, its scalar loop, then
    NumPy with the loader patched out.  The value is the ``executor`` an
    accumulator reports: ``"native"`` for either compiled loop."""
    request.getfixturevalue(f"{request.param}_executor")
    return "numpy" if request.param == "numpy" else "native"


@pytest.fixture(scope="session")
def small_geometry() -> CBCTGeometry:
    """A 32³ volume / 48² detector / 24 projection geometry."""
    return default_geometry_for_problem(nu=48, nv=48, np_=24, nx=32, ny=32, nz=32)


@pytest.fixture(scope="session")
def medium_geometry() -> CBCTGeometry:
    """A 48³ volume / 64² detector / 48 projection geometry."""
    return default_geometry_for_problem(nu=64, nv=64, np_=48, nx=48, ny=48, nz=48)


@pytest.fixture(scope="session")
def shepp_logan_phantom() -> EllipsoidPhantom:
    return EllipsoidPhantom(shepp_logan_ellipsoids())


@pytest.fixture(scope="session")
def small_projections(small_geometry, shepp_logan_phantom) -> ProjectionStack:
    """Analytic Shepp-Logan projections for the small geometry."""
    return forward_project_analytic(shepp_logan_phantom, small_geometry)


@pytest.fixture(scope="session")
def small_filtered(small_geometry, small_projections) -> ProjectionStack:
    """Filtered (FDK-normalized) projections for the small geometry."""
    return get_backend("reference").filter_stack(small_projections, small_geometry)


@pytest.fixture(scope="session")
def medium_projections(medium_geometry, shepp_logan_phantom) -> ProjectionStack:
    return forward_project_analytic(shepp_logan_phantom, medium_geometry)


@pytest.fixture(scope="session")
def small_reference_volume(small_geometry):
    """Rasterized Shepp-Logan phantom matching the small geometry."""
    return shepp_logan_3d(small_geometry.nx, small_geometry.ny, small_geometry.nz)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
