"""The fused filter stage: single precision where tiled, the goldens' bits where not.

:func:`repro.core.filtering.filter_projections` runs Algorithm 1 one row group
at a time through per-thread buffers, with the backend's group kernel writing
the finished float32 rows.  Three things are held here, over random small
geometries (odd and non-power-of-two detector widths, one-row detectors,
offset detectors), both input dtypes, with and without a redundancy table and
every ramp window:

* **accuracy** — the tiled backends' single-precision real-FFT filter, at
  the shortest exact transform length, stays within ``RMSE_TOL`` relative
  RMSE of the live ``reference`` filter (complex FFT at the canonical length)
  and within ``SAMPLE_TOL`` of the RMS at any one sample (worst measured over
  300 random cases: 1.7e-7 / 1.4e-6);
* **live ``==``** — any group size, ``(byte_budget, workers)`` and chunking
  of the stack give the float32 bits of one group per projection on one
  worker: pocketfft batches rows through SIMD lanes, and this is the proof
  that the float32 inverse does not care which lane a row rode in;
* **``reference`` keeps the complex FFT** — bit for bit the whole-stack
  sequence frozen in ``tests/frozen_parent_kernels.py`` (what the goldens are
  pinned to).
"""

from __future__ import annotations

import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.fft import next_fast_len

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

#: Tiled filter against ``reference``: relative RMSE over the stack, and the
#: largest single-sample error as a fraction of the stack's RMS.
RMSE_TOL = 1e-6
SAMPLE_TOL = 5e-6


def make_stack(geometry, dtype="float32", seed=11):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((geometry.np_, geometry.nv, geometry.nu)).astype(dtype)
    return ProjectionStack(data=data, angles=geometry.angles)


def random_redundancy(geometry):
    return np.random.default_rng(3).uniform(0.0, 2.0, size=(geometry.np_, geometry.nu))


def assert_same_bits(result, expected):
    assert result.dtype == expected.dtype == np.float32
    assert result.shape == expected.shape
    np.testing.assert_array_equal(result.view(np.uint32), expected.view(np.uint32))


def assert_within_bound(result, reference):
    """The stated accuracy of the single-precision filter against ``reference``."""
    assert result.dtype == reference.dtype == np.float32
    reference = reference.astype(np.float64)
    error = result - reference
    rms = np.sqrt(np.mean(reference**2))
    assert np.sqrt(np.mean(error**2)) <= RMSE_TOL * rms
    assert np.abs(error).max() <= SAMPLE_TOL * rms


def tiled_filter(
    stack, geometry, window="ram-lak", redundancy=None, *,
    byte_budget=1 << 25, workers=1, cuts=(), group_rows=GROUP_ROWS,
):
    """The live tiled filter over the stack cut at ``cuts``, pieces rejoined."""
    edges = [0, *sorted(set(cuts)), geometry.np_]
    with mock.patch.object(filtering, "GROUP_ROWS", group_rows):
        with TiledBackend(workers=workers, byte_budget=byte_budget) as backend:
            pieces = [
                backend.filter_stack(
                    ProjectionStack(
                        data=stack.data[lo:hi], angles=stack.angles[lo:hi]
                    ),
                    geometry, window,
                    redundancy=None if redundancy is None else redundancy[lo:hi],
                )
                for lo, hi in zip(edges, edges[1:]) if hi > lo
            ]
    assert all(piece.filtered for piece in pieces)
    return np.concatenate([piece.data for piece in pieces])


def check_case(
    geometry, *, window="ram-lak", dtype="float32", with_redundancy=False, **how
):
    """However it is cut and dealt, the tiled filter has the bits of one group
    per projection on one worker — and those are within the bound of ``reference``."""
    stack = make_stack(geometry, dtype)
    redundancy = random_redundancy(geometry) if with_redundancy else None
    assert geometry.nv <= GROUP_ROWS
    plain = tiled_filter(stack, geometry, window, redundancy)
    assert_same_bits(tiled_filter(stack, geometry, window, redundancy, **how), plain)
    assert_within_bound(
        plain,
        get_backend("reference").filter_stack(
            stack, geometry, window, redundancy=redundancy
        ).data,
    )


def base_geometry(**overrides):
    fields = dict(
        nu=19, nv=13, np_=5, du=0.8, dv=1.1, sad=40.0, sdd=65.0,
        nx=8, ny=8, nz=8, dx=1.0, dy=1.0, dz=1.0,
    )
    fields.update(overrides)
    return CBCTGeometry(**fields)


def on_fresh_thread(function):
    """``function()`` on a thread of its own: no scratch from earlier calls."""
    result = []
    thread = threading.Thread(target=lambda: result.append(function()))
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive() and result
    return result[0]


# --------------------------------------------------------------------------- #
# Named cases
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("window", RAMP_FILTERS)
@pytest.mark.parametrize("with_redundancy", [False, True])
def test_every_window_is_within_the_bound(window, with_redundancy):
    check_case(
        base_geometry(), window=window, with_redundancy=with_redundancy, workers=2
    )


@pytest.mark.parametrize("group_rows", [1, 7, GROUP_ROWS])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("with_redundancy", [False, True])
def test_group_size_does_not_move_a_bit(group_rows, dtype, with_redundancy):
    """Groups of 1 and 7 rows do not divide the 13-row detector."""
    check_case(
        base_geometry(detector_offset_u=6.5), dtype=dtype,
        with_redundancy=with_redundancy, group_rows=group_rows, workers=3,
    )


@pytest.mark.parametrize("nu", [48, 129, 384, 512])
def test_a_row_has_the_same_bits_in_any_simd_lane(nu):
    """67 rows per call fill every lane of pocketfft's widest batch several
    times over and leave a scalar remainder; one row per call is all scalar.
    The transform lengths are 96, 270, 768 and 1024: factors 2, 3 and 5."""
    geometry = base_geometry(nu=nu, nv=67, np_=2)
    stack = make_stack(geometry)
    plain = tiled_filter(stack, geometry)
    for group_rows in (1, 2, 3, 5, 16, 66):
        assert_same_bits(tiled_filter(stack, geometry, group_rows=group_rows), plain)


@pytest.mark.parametrize("nu,nv", [(3, 1), (17, 1), (33, 2), (48, 5), (1, 4)])
def test_degenerate_detectors(nu, nv):
    """One-row detectors, odd and non-power-of-two (and one-pixel) widths."""
    check_case(base_geometry(nu=nu, nv=nv), with_redundancy=True, workers=2)


@pytest.mark.parametrize("scenario", ["short_scan", "offset_detector"])
def test_scenario_redundancy_tables_are_within_the_bound(scenario):
    """The real tables (Parker, offset-detector), not just random weights."""
    preset = get_scenario(scenario)
    geometry = preset.apply_geometry(base_geometry(np_=12))
    redundancy = preset.redundancy_weights(geometry)
    stack = make_stack(geometry)
    assert_within_bound(
        get_backend("vectorized").filter_stack(
            stack, geometry, redundancy=redundancy
        ).data,
        get_backend("reference").filter_stack(
            stack, geometry, redundancy=redundancy
        ).data,
    )


@pytest.mark.parametrize("order", [("wide", "narrow"), ("narrow", "wide")])
def test_a_thread_can_filter_two_geometries_back_to_back(order):
    """The padded row buffer outlives a call: a second geometry on the same
    thread must not read the first one's samples as its zero padding."""
    geometries = dict(wide=base_geometry(nu=40, nv=9), narrow=base_geometry(nu=11, nv=13))
    backend = get_backend("vectorized")

    def run(name):
        geometry = geometries[name]
        return backend.filter_stack(make_stack(geometry), geometry).data

    first, second = on_fresh_thread(lambda: [run(name) for name in order])
    assert_same_bits(first, on_fresh_thread(lambda: run(order[0])))
    assert_same_bits(second, on_fresh_thread(lambda: run(order[1])))


def test_tiled_filter_allocates_nothing_wider_than_float32():
    """For an ideal scan no float64 / complex128 array exists on the path,
    and the row buffer is ``(rows, L)`` at the shortest exact length ``L``
    (768 for 384 columns; the canonical pad is 1024)."""
    geometry = base_geometry(nu=384, nv=64, np_=3)
    stack = make_stack(geometry)
    backend = get_backend("vectorized")
    seen = []

    def traced():
        backend.filter_stack(stack, geometry)  # this thread's scratch, the tables
        tracemalloc.start()
        try:
            result = backend.filter_stack(stack, geometry).data
            seen.append((tracemalloc.get_traced_memory()[1], result.nbytes))
        finally:
            tracemalloc.stop()
        return {
            name: (held.dtype, held.shape)
            for name, (_, held) in filtering._scratch.__dict__.items()
            if isinstance(held, np.ndarray)
        }

    pad = next_fast_len(2 * geometry.nu - 1, real=True)
    assert pad == 768
    assert on_fresh_thread(traced) == {"padded": (np.float32, (geometry.nv, pad))}
    (peak, result_bytes), = seen
    # Beyond the result: the complex64 half-spectrum and the float32 inverse,
    # one padded float32 group each.  A float64 inverse alone is two.
    group = geometry.nv * pad * 4
    assert peak - result_bytes <= 2.25 * group


def test_unscaled_filtering_has_the_parent_bits():
    """``extra_scale == 1`` skips the scale, as the parent did."""
    geometry = base_geometry()
    stack = make_stack(geometry)
    assert_same_bits(
        filter_projections(stack, geometry).data,
        parent.filter_projections(stack, geometry).data,
    )


@pytest.mark.parametrize("window", RAMP_FILTERS)
@pytest.mark.parametrize("with_redundancy", [False, True])
def test_reference_backend_keeps_the_complex_fft(window, with_redundancy):
    """Bit for bit the frozen whole-stack complex-FFT sequence."""
    geometry = base_geometry(nu=21)
    stack = make_stack(geometry)
    redundancy = random_redundancy(geometry) if with_redundancy else None
    assert_same_bits(
        get_backend("reference").filter_stack(
            stack, geometry, window, redundancy=redundancy
        ).data,
        parent.filter_projections(
            stack, geometry, window,
            extra_scale=fdk_normalization(geometry), redundancy=redundancy,
        ).data,
    )


def test_filtered_output_never_aliases_the_scratch():
    """Two results from one thread stay independent of its reused buffers."""
    geometry = base_geometry()
    backend = get_backend("vectorized")
    first = backend.filter_stack(make_stack(geometry, seed=1), geometry).data
    snapshot = first.copy()
    backend.filter_stack(make_stack(geometry, seed=2), geometry)
    np.testing.assert_array_equal(first, snapshot)


def test_thread_scratch_is_per_thread_zeroed_and_kept_per_key():
    def scratch(key, shape=(4, 8)):
        return thread_scratch("test-scratch", key, shape, np.float32)

    a = scratch("a")
    assert scratch("a") is a and a.dtype == np.float32 and not a.any()
    a[...] = 1.0
    b = scratch("b", (2, 8))
    assert b is not a and not b.any()  # never a view of the old pages
    assert not scratch("a").any()  # made anew, not remembered
    assert on_fresh_thread(lambda: scratch("b", (2, 8))) is not b
    assert scratch("a") is scratch("a")


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
    )


if HAVE_HYPOTHESIS:

    @pytest.mark.parallel
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_case_is_within_the_bound_and_cut_independent(data):
        case = random_case(data.draw)
        check_case(case.pop("geometry"), **case)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(150))
    def test_any_case_is_within_the_bound_and_cut_independent(seed):
        case = random_case(np.random.default_rng(7000 + seed))
        check_case(case.pop("geometry"), **case)
