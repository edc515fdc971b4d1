"""The fused filter stage has the parent's bits.

:func:`repro.core.filtering.filter_projections` was rebuilt to run
Algorithm 1 one row group at a time through fixed per-thread buffers.
``tests/frozen_parent_kernels.py`` keeps the whole-stack implementation it
replaced, verbatim, and every test here holds the live stage to the *same
float32 bit patterns* — over random small geometries (odd and
non-power-of-two detector widths, one-row detectors, offset detectors), both
input dtypes, with and without a redundancy table, every ramp window, any
``(byte_budget, workers)``, any chunking of the stack and group sizes that
do not divide the detector.  The ``reference`` backend keeps the complex-FFT
convolution: it must equal the frozen complex path bit for bit and stay
within the conformance bound of the real-FFT one.
"""

from __future__ import annotations

import threading
from unittest import mock

import numpy as np
import pytest

import frozen_parent_kernels as parent
from repro.backends import TiledBackend, get_backend
from repro.core import CBCTGeometry, filtering
from repro.core.filtering import (
    GROUP_ROWS,
    RAMP_FILTERS,
    fdk_normalization,
    filter_projections,
    thread_scratch,
)
from repro.core.types import ProjectionStack
from repro.scenarios import get_scenario

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False

RMSE_TOL = 1e-5


def make_stack(geometry, dtype="float32", seed=11):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((geometry.np_, geometry.nv, geometry.nu)).astype(dtype)
    return ProjectionStack(data=data, angles=geometry.angles)


def parent_filter(stack, geometry, window, redundancy, convolve=parent.rfft_ramp_filter):
    """The oracle: the parent's whole-stack sequence (real-FFT convolution)."""
    return parent.filter_projections(
        stack, geometry, window,
        extra_scale=fdk_normalization(geometry),
        redundancy=redundancy, convolve=convolve,
    ).data


def assert_same_bits(result, expected):
    assert result.dtype == expected.dtype == np.float32
    assert result.shape == expected.shape
    np.testing.assert_array_equal(result.view(np.uint32), expected.view(np.uint32))


def check_matches_parent(
    geometry, *, window="ram-lak", dtype="float32", with_redundancy=False,
    byte_budget=1 << 25, workers=1, cuts=(), group_rows=GROUP_ROWS, inline=False,
):
    stack = make_stack(geometry, dtype)
    redundancy = None
    if with_redundancy:
        redundancy = np.random.default_rng(3).uniform(
            0.0, 2.0, size=(geometry.np_, geometry.nu)
        )
    expected = parent_filter(stack, geometry, window, redundancy)
    edges = [0, *sorted(set(cuts)), geometry.np_]
    with mock.patch.object(filtering, "GROUP_ROWS", group_rows):
        with TiledBackend(workers=workers, byte_budget=byte_budget) as backend:
            # ``inline``: the view an overlapped chunk driver filters on.
            filters = backend.on_workers(1) if inline else backend
            pieces = [
                filters.filter_stack(
                    ProjectionStack(
                        data=stack.data[lo:hi], angles=stack.angles[lo:hi]
                    ),
                    geometry, window,
                    redundancy=None if redundancy is None else redundancy[lo:hi],
                )
                for lo, hi in zip(edges, edges[1:]) if hi > lo
            ]
    assert all(piece.filtered for piece in pieces)
    assert_same_bits(np.concatenate([piece.data for piece in pieces]), expected)


def base_geometry(**overrides):
    fields = dict(
        nu=19, nv=13, np_=5, du=0.8, dv=1.1, sad=40.0, sdd=65.0,
        nx=8, ny=8, nz=8, dx=1.0, dy=1.0, dz=1.0,
    )
    fields.update(overrides)
    return CBCTGeometry(**fields)


# --------------------------------------------------------------------------- #
# Named cases
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("window", RAMP_FILTERS)
@pytest.mark.parametrize("with_redundancy", [False, True])
def test_every_window_has_the_parent_bits(window, with_redundancy):
    check_matches_parent(
        base_geometry(), window=window, with_redundancy=with_redundancy
    )


@pytest.mark.parametrize("group_rows", [1, 7, GROUP_ROWS])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("with_redundancy", [False, True])
def test_group_size_does_not_move_a_bit(group_rows, dtype, with_redundancy):
    """Groups of 1 and 7 rows do not divide the 13-row detector."""
    check_matches_parent(
        base_geometry(detector_offset_u=6.5), dtype=dtype,
        with_redundancy=with_redundancy, group_rows=group_rows, workers=3,
    )


@pytest.mark.parametrize("nu,nv", [(3, 1), (17, 1), (33, 2), (48, 5), (1, 4)])
def test_degenerate_detectors(nu, nv):
    """One-row detectors, odd and non-power-of-two (and one-pixel) widths."""
    check_matches_parent(base_geometry(nu=nu, nv=nv), with_redundancy=True, workers=2)


@pytest.mark.parametrize("scenario", ["short_scan", "offset_detector"])
def test_scenario_redundancy_tables_have_the_parent_bits(scenario):
    """The real tables (Parker, offset-detector), not just random weights."""
    preset = get_scenario(scenario)
    geometry = preset.apply_geometry(base_geometry(np_=12))
    redundancy = preset.redundancy_weights(geometry)
    stack = make_stack(geometry)
    assert_same_bits(
        get_backend("vectorized").filter_stack(
            stack, geometry, redundancy=redundancy
        ).data,
        parent_filter(stack, geometry, "ram-lak", redundancy),
    )


def test_unscaled_filtering_has_the_parent_bits():
    """``extra_scale == 1`` skips the scale, as the parent did."""
    geometry = base_geometry()
    stack = make_stack(geometry)
    assert_same_bits(
        filter_projections(stack, geometry).data,
        parent.filter_projections(stack, geometry).data,
    )


@pytest.mark.parametrize("with_redundancy", [False, True])
def test_reference_backend_keeps_the_complex_fft(with_redundancy):
    geometry = base_geometry(nu=21)
    stack = make_stack(geometry)
    redundancy = (
        np.random.default_rng(3).uniform(0.0, 2.0, size=(geometry.np_, geometry.nu))
        if with_redundancy else None
    )
    result = get_backend("reference").filter_stack(
        stack, geometry, "hann", redundancy=redundancy
    ).data
    # Bit for bit the parent's complex-FFT path ...
    assert_same_bits(result, parent_filter(stack, geometry, "hann", redundancy, None))
    # ... and within the conformance bound of the real-FFT one.
    real = parent_filter(stack, geometry, "hann", redundancy)
    error = np.sqrt(np.mean((result.astype(np.float64) - real) ** 2))
    assert error <= RMSE_TOL * np.abs(real).max()


def test_filtered_output_never_aliases_the_scratch():
    """Two results from one thread stay independent of its reused buffers."""
    geometry = base_geometry()
    backend = get_backend("vectorized")
    first = backend.filter_stack(make_stack(geometry, seed=1), geometry).data
    snapshot = first.copy()
    backend.filter_stack(make_stack(geometry, seed=2), geometry)
    np.testing.assert_array_equal(first, snapshot)


def test_thread_scratch_is_per_thread_grow_only_and_reused():
    a = thread_scratch("test-scratch", (4, 8), np.float64)
    assert thread_scratch("test-scratch", (2, 8), np.float64).base is a.base
    assert thread_scratch("test-scratch", (4, 8), np.float64).base is a.base
    bigger = thread_scratch("test-scratch", (8, 8), np.float64)
    assert bigger.base is not a.base and bigger.shape == (8, 8)
    assert thread_scratch("test-scratch", (8, 8), np.float32).dtype == np.float32
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(thread_scratch("test-scratch", (8, 8), np.float32))
    )
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert seen[0].base is not thread_scratch("test-scratch", (8, 8), np.float32).base


# --------------------------------------------------------------------------- #
# The property: any small geometry, dtype, table, window, tiling and chunking
# --------------------------------------------------------------------------- #
def random_case(rng_or_draw):
    """A small random filter case, from a Hypothesis draw or a numpy RNG."""
    if isinstance(rng_or_draw, np.random.Generator):
        rng = rng_or_draw
        pick = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
        real = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    else:
        draw = rng_or_draw
        pick = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
        real = lambda lo, hi: draw(  # noqa: E731
            st.floats(lo, hi, allow_nan=False, allow_infinity=False)
        )
    nu, nv, np_ = pick(1, 40), pick(1, 20), pick(1, 7)
    du = real(0.3, 2.5)
    sad = real(20.0, 400.0)
    geometry = CBCTGeometry(
        nu=nu, nv=nv, np_=np_, du=du, dv=real(0.3, 2.5),
        sad=sad, sdd=sad * real(1.0, 3.0),
        nx=4, ny=4, nz=4, dx=1.0, dy=1.0, dz=1.0,
        detector_offset_u=real(-2.0, 2.0) * nu * du,
    )
    return dict(
        geometry=geometry,
        window=RAMP_FILTERS[pick(0, len(RAMP_FILTERS) - 1)],
        dtype=("float32", "float64")[pick(0, 1)],
        with_redundancy=bool(pick(0, 1)),
        byte_budget=int(2.0 ** real(6.0, 26.0)),
        workers=pick(1, 4),
        cuts=tuple(pick(0, np_) for _ in range(pick(0, 3))),
        group_rows=(1, 7, GROUP_ROWS)[pick(0, 2)],
        inline=bool(pick(0, 1)),
    )


if HAVE_HYPOTHESIS:

    @pytest.mark.parallel
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_case_has_the_parent_filter_bits(data):
        case = random_case(data.draw)
        check_matches_parent(case.pop("geometry"), **case)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(150))
    def test_any_case_has_the_parent_filter_bits(seed):
        case = random_case(np.random.default_rng(7000 + seed))
        check_matches_parent(case.pop("geometry"), **case)
