"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The at-scale
numbers come from the calibrated performance model (the substrates that the
paper measures — 2,048 V100s, InfiniBand, GPFS — are simulated, see
:mod:`repro.gpusim`, :mod:`repro.mpi` and :mod:`repro.pfs`); the functional
measurements that feed pytest-benchmark run on scaled-down problems so the
harness completes in minutes.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
tables printed next to the paper's reference values.
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_ellipsoids,
)


@pytest.fixture(scope="session")
def bench_geometry():
    """Geometry used by the functional (measured) benchmark kernels."""
    return default_geometry_for_problem(nu=64, nv=64, np_=32, nx=48, ny=48, nz=48)


@pytest.fixture(scope="session")
def bench_projections(bench_geometry):
    phantom = EllipsoidPhantom(shepp_logan_ellipsoids())
    return forward_project_analytic(phantom, bench_geometry)


@pytest.fixture(scope="session")
def bench_filtered(bench_geometry, bench_projections):
    return get_backend("reference").filter_stack(bench_projections, bench_geometry)
