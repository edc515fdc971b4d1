"""The block kernels' two promises: the parent's bits, and a fixed working set.

**Bits.**  The kernels in :mod:`repro.backends.vectorized` were rebuilt
around memory traffic (transposed column tables, Z chunks over a fixed
workspace, detector-row bands).  ``tests/frozen_parent_kernels.py`` keeps
the kernels they replaced, verbatim, and every test here holds the live
ones to the *same float32 bit patterns* — over random small geometries
(Hypothesis when available, seeded sweeps otherwise) that push columns off
both sides of the detector, volumes past its top and bottom, Z slabs down
to one slice, chunk sizes that do not divide the slab, both input dtypes and
any ``(byte_budget, workers)``.

Every bit test runs on every executor of the proposed kernel — the compiled
``alg4.c`` as this host dispatches it (eight columns per step with AVX2),
its scalar loop alone, and, with the loader patched out, the NumPy one — so
the frozen parent is the oracle of all three.  A property test over garbage
matrices (NaN, infinities, huge values) holds both compiled loops to the
NumPy answer or the same ``IndexError``; named cases put every tail the
eight-lane loop leaves, lane groups that mix huge or NaN lanes with
ordinary ones, and a ``v`` of exactly ``-0.0``, in front of it.

**Memory.**  ``_block_bytes`` is the model ``byte_budget`` is enforced
against; ``tracemalloc`` checks that a real ``add_stack`` of the NumPy
executor stays under it and that the per-projection working set does not
grow with the slab's Z extent.  ``tracemalloc`` cannot see ``malloc``, so the
compiled executor's scratch is computed from the sizes its entry point is
handed.
"""

from __future__ import annotations

import contextlib
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import frozen_parent_kernels as parent
from repro.backends import TiledBackend, get_backend, native
from repro.backends.tiled import plan_tiles
from repro.backends import vectorized
from repro.backends.tiled import _block_bytes
from repro.core import CBCTGeometry, default_geometry_for_problem
from repro.core.types import ProjectionStack

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False

ALGORITHMS = ("proposed", "standard")
every_executor = pytest.mark.usefixtures("executor")
PARENT_KERNELS = {
    "proposed": parent.accumulate_proposed_block,
    "standard": parent.accumulate_standard_block,
}


# --------------------------------------------------------------------------- #
# The oracle: the parent kernels, one whole-slab call per projection
# --------------------------------------------------------------------------- #
def parent_backproject(stack, geometry, algorithm, z_range):
    z0, z1 = z_range
    out = np.zeros((z1 - z0, geometry.ny, geometry.nx), dtype=np.float32)
    ks = np.arange(z0, z1, dtype=np.float64)
    j_grid, i_grid = np.meshgrid(
        np.arange(geometry.ny, dtype=np.float64),
        np.arange(geometry.nx, dtype=np.float64),
        indexing="ij",
    )
    for angle, projection in stack:
        matrix = geometry.projection_matrix(float(angle)).matrix
        PARENT_KERNELS[algorithm](out, projection, matrix, ks, i_grid, j_grid)
    return out


def make_stack(geometry, dtype="float32", seed=5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((geometry.np_, geometry.nv, geometry.nu)).astype(dtype)
    return ProjectionStack(data=data, angles=geometry.angles, filtered=True)


def assert_same_bits(result, expected):
    assert result.dtype == expected.dtype == np.float32
    np.testing.assert_array_equal(result.view(np.uint32), expected.view(np.uint32))


def check_matches_parent(
    geometry, *, algorithm="proposed", z_range=None, dtype="float32",
    byte_budget=1 << 25, workers=1, chunk_elements=None,
):
    z_range = z_range or (0, geometry.nz)
    stack = make_stack(geometry, dtype)
    expected = parent_backproject(stack, geometry, algorithm, z_range)
    chunk_elements = chunk_elements or vectorized.CHUNK_ELEMENTS
    with mock.patch.object(vectorized, "CHUNK_ELEMENTS", chunk_elements):
        with TiledBackend(workers=workers, byte_budget=byte_budget) as backend:
            result = backend.backproject(
                stack, geometry, algorithm=algorithm, z_range=z_range
            ).data
    assert_same_bits(result, expected)


def detector_coordinates(geometry):
    """``(u, v)`` of every voxel at every angle (the regimes a case reaches)."""
    k, j, i = np.meshgrid(
        np.arange(geometry.nz, dtype=np.float64),
        np.arange(geometry.ny, dtype=np.float64),
        np.arange(geometry.nx, dtype=np.float64),
        indexing="ij",
    )
    uv = [geometry.projection_matrix(float(b)).project(i, j, k)[:2] for b in geometry.angles]
    return np.stack([u for u, _ in uv]), np.stack([v for _, v in uv])


# --------------------------------------------------------------------------- #
# Named regimes, each asserted to be the regime it claims
# --------------------------------------------------------------------------- #
def base_geometry(**overrides):
    fields = dict(
        nu=14, nv=12, np_=6, du=1.0, dv=1.0, sad=30.0, sdd=45.0,
        nx=9, ny=7, nz=11, dx=1.0, dy=1.0, dz=1.0,
    )
    fields.update(overrides)
    return CBCTGeometry(**fields)


@every_executor
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("offset", [-40.0, -9.0, 9.0, 40.0])
def test_columns_leaving_the_detector_on_either_side(algorithm, offset):
    """``detector_offset_u`` pushes columns past ``u0 < -1`` / ``u0 >= Nu``."""
    geometry = base_geometry(detector_offset_u=offset)
    u, _ = detector_coordinates(geometry)
    u0 = np.floor(u)
    assert (u0 < -1).any() if offset > 0 else (u0 >= geometry.nu).any()
    if abs(offset) < 20:  # a partial overlap: some columns still land inside
        assert ((u0 >= 0) & (u0 < geometry.nu - 1)).any()
    check_matches_parent(geometry, algorithm=algorithm)


@every_executor
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_columns_leaving_on_both_sides_at_once(algorithm):
    geometry = base_geometry(nu=6, nx=16, ny=16, sad=40.0, sdd=60.0)
    u0 = np.floor(detector_coordinates(geometry)[0])
    assert (u0 < -1).any() and (u0 >= geometry.nu).any()
    check_matches_parent(geometry, algorithm=algorithm)


@every_executor
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_volume_taller_than_the_detector_sees(algorithm):
    """``v`` is clipped at both ends: slices above and below every row."""
    geometry = base_geometry(nz=40, dz=2.0, nv=10)
    _, v = detector_coordinates(geometry)
    assert v.min() < -2 and v.max() > geometry.nv + 1
    check_matches_parent(geometry, algorithm=algorithm)
    check_matches_parent(geometry, algorithm=algorithm, z_range=(0, 3))
    check_matches_parent(geometry, algorithm=algorithm, z_range=(37, 40))


@every_executor
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_slice_slabs_stitch_to_the_parent_volume(algorithm):
    geometry = base_geometry()
    for k in range(geometry.nz):
        check_matches_parent(geometry, algorithm=algorithm, z_range=(k, k + 1))


#: The compiled loops alone: cases that hand ``alg4_fold`` its tiles directly.
compiled_executors = pytest.mark.parametrize(
    "executor", ["native", "scalar"], indirect=True
)


@compiled_executors
@pytest.mark.parametrize("nx", [5, 7])
def test_tiles_of_every_width_modulo_the_lanes(executor, nx):
    """Tiles of 1 to 8 rows of ``nx`` columns: every tail the eight-lane loop
    leaves, on slices that clip at the detector's top and bottom."""
    geometry = base_geometry(nx=nx, ny=36, nz=40, dz=2.0, nv=10)
    _, v = detector_coordinates(geometry)
    assert v.min() < -2 and v.max() > geometry.nv + 1
    rows = np.cumsum([0, *range(1, 9)])
    tiles = [(0, 40, y0, y1) for y0, y1 in zip(rows[:-1], rows[1:])]
    assert sorted((y1 - y0) * nx % 8 for _, _, y0, y1 in tiles) == list(range(8))
    stack = make_stack(geometry)
    matrices = np.stack([geometry.projection_matrix(float(a)).matrix for a in stack.angles])
    out = np.zeros((40, 36, nx), dtype=np.float32)
    native.resolve()(out, 0, tiles, stack.data, matrices)
    assert_same_bits(out, parent_backproject(stack, geometry, "proposed", (0, 40)))


@pytest.mark.usefixtures("numpy_executor")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("chunk_elements", [1, 62, 63, 64, 200, 10_000])
def test_chunks_that_do_not_divide_the_slab(algorithm, chunk_elements):
    """63 columns x 11 slices: chunks of 1, 3 and all slices, with remainders
    (the Z chunks are the NumPy executor's; the compiled one has none)."""
    geometry = base_geometry()
    assert geometry.nx * geometry.ny == 63
    check_matches_parent(geometry, algorithm=algorithm, chunk_elements=chunk_elements)


def test_a_thin_slab_builds_only_its_band_of_the_table():
    """Row bands: the rows a slab gathers are exactly the rows it can read."""
    nv = 64
    rng = np.random.default_rng(11)
    slope = rng.uniform(0.95, 1.05, size=200)  # v ~ k: one detector row per slice
    offset = rng.uniform(-1.0, 1.0, size=200)
    widths = {}
    for z0, z1 in [(0, 64), (0, 8), (28, 36), (63, 64)]:
        ks = np.arange(z0, z1, dtype=np.float64)
        lo, hi = vectorized._row_band(slope, offset, ks, nv)
        low_rows = np.clip(np.floor(slope * ks[:, None] + offset), -2, nv) + 2
        assert lo == low_rows.min() and hi == low_rows.max() + 2  # tight, and safe
        widths[z1 - z0] = hi - lo
    assert widths[1] < widths[8] < 20 < 60 < widths[64] <= nv + 4
    # ... and a slab far outside the detector still gets a valid (zero) band.
    lo, hi = vectorized._row_band(slope, offset + 1e6, np.arange(3.0), nv)
    assert (lo, hi) == (nv + 2, nv + 4)


# --------------------------------------------------------------------------- #
# The property: any small geometry, slab, dtype, tiling and chunking
# --------------------------------------------------------------------------- #
def random_case(rng_or_draw):
    """A small random kernel case, from a Hypothesis draw or a numpy RNG."""
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
    nu, nv = pick(2, 18), pick(2, 18)
    nx, ny, nz = pick(1, 9), pick(1, 9), pick(1, 30)
    du, dv = real(0.4, 2.5), real(0.4, 2.5)
    # Just outside the volume's circumscribed cylinder up to far away.
    sad = 0.5 * float(np.hypot(nx, ny)) * real(1.02, 6.0) + 1e-3
    geometry = CBCTGeometry(
        nu=nu, nv=nv, np_=pick(1, 4), du=du, dv=dv,
        sad=sad, sdd=sad * real(1.0, 3.0),
        nx=nx, ny=ny, nz=nz, dx=1.0, dy=1.0, dz=real(0.2, 5.0),
        angle_offset=real(0.0, 6.28),
        # Up to two detector widths either way: whole columns fall off.
        detector_offset_u=real(-2.0, 2.0) * nu * du,
    )
    z0 = pick(0, nz - 1)
    return dict(
        geometry=geometry,
        algorithm=ALGORITHMS[pick(0, 1)],
        z_range=(z0, pick(z0 + 1, nz)),
        dtype=("float32", "float64")[pick(0, 1)],
        byte_budget=int(2.0 ** real(6.0, 26.0)),
        workers=pick(1, 4),
        chunk_elements=(1, 7, 50, 300, vectorized.CHUNK_ELEMENTS)[pick(0, 4)],
    )


if HAVE_HYPOTHESIS:

    @every_executor
    @pytest.mark.parallel
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_any_case_has_the_parent_kernels_bits(data):
        case = random_case(data.draw)
        check_matches_parent(case.pop("geometry"), **case)

else:  # pragma: no cover - exercised only without hypothesis

    @every_executor
    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(120))
    def test_any_case_has_the_parent_kernels_bits(seed):
        case = random_case(np.random.default_rng(5000 + seed))
        check_matches_parent(case.pop("geometry"), **case)


@every_executor
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_streamed_add_has_the_parent_kernels_bits(algorithm):
    """The workspace is reused across ``add`` calls without carrying state."""
    geometry = base_geometry(detector_offset_u=5.0)
    stack = make_stack(geometry)
    acc = TiledBackend(workers=1).accumulator(geometry, algorithm=algorithm)
    for angle, projection in stack:
        acc.add(projection, angle)
    assert_same_bits(
        acc.volume().data,
        parent_backproject(stack, geometry, algorithm, (0, geometry.nz)),
    )


# --------------------------------------------------------------------------- #
# Matrices no geometry produces: the executors reject the same inputs
# --------------------------------------------------------------------------- #
def fold_under(matrices, *, numpy_only, workers=1):
    """``base_geometry``'s stack folded under arbitrary ``matrices``: the
    volume, or :class:`IndexError` if the executor raised it."""
    geometry = base_geometry(np_=len(matrices))
    feed = iter(matrices)
    with TiledBackend(workers=workers) as backend:
        with mock.patch.object(native, "resolve", return_value=None) if numpy_only \
                else contextlib.nullcontext():
            acc = backend.accumulator(geometry)
        assert acc.executor == ("numpy" if numpy_only else "native")
        with mock.patch.object(
            CBCTGeometry, "projection_matrix",
            lambda self, angle: mock.Mock(matrix=next(feed)),
        ), np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN -> intp casts
            try:
                acc.add_stack(make_stack(geometry))
            except IndexError:
                return IndexError
        return acc.volume().data


#: Values a caller should never send (and a few it might).
GARBAGE = (np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 0.0, -0.0, 1.0, -37.5)


def check_garbage_matrices(pick):
    geometry = base_geometry(np_=3)
    matrices = np.stack(
        [geometry.projection_matrix(float(a)).matrix for a in geometry.angles]
    )
    for _ in range(pick(1, 3)):
        matrices[pick(0, 2), pick(0, 2), pick(0, 3)] = GARBAGE[pick(0, len(GARBAGE) - 1)]
    expected = fold_under(matrices, numpy_only=True)
    result = fold_under(matrices, numpy_only=False)
    if expected is IndexError or result is IndexError:
        assert expected is result, "one executor accepted what the other rejected"
    else:
        assert_same_bits(result, expected)  # NaN and infinite voxels included


if HAVE_HYPOTHESIS:

    @pytest.mark.usefixtures("executor")
    @compiled_executors
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_garbage_matrices_get_the_same_answer_or_the_same_index_error(data):
        check_garbage_matrices(lambda lo, hi: data.draw(st.integers(lo, hi)))

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.usefixtures("executor")
    @compiled_executors
    @pytest.mark.parametrize("seed", range(150))
    def test_garbage_matrices_get_the_same_answer_or_the_same_index_error(seed):
        rng = np.random.default_rng(7000 + seed)
        check_garbage_matrices(lambda lo, hi: int(rng.integers(lo, hi + 1)))


@compiled_executors
@pytest.mark.parametrize("nu", [12, 13, 15, 28, 29])
@pytest.mark.parametrize("offset", [-5.0, 5.0])
def test_row_strides_at_and_just_past_a_power_of_two(executor, nu, offset):
    """The compiled plane's rows sit at the least power of two >= ``Nu+4``:
    exactly ``Nu+4`` at 16 and 32, nearly twice it at 17, 19 and 33 (a
    stride of 16 would still hold 17 and 18, whose last columns are the
    zero border the next row starts with, but not 19).  Columns
    leave the detector on both sides (a volume wider than it, shifted by
    ``detector_offset_u``) and slices pass its top and bottom, so every
    border sample of the padded rows is read; the answer is the NumPy
    kernel's."""
    geometry = base_geometry(
        nu=nu, nx=24, ny=24, nz=20, dz=2.0, nv=10, sad=40.0, sdd=60.0,
        detector_offset_u=offset,
    )
    u, v = detector_coordinates(geometry)
    assert np.floor(u).min() < -1 and np.floor(u).max() >= nu
    assert v.min() < -2 and v.max() > geometry.nv + 1
    stack = make_stack(geometry)
    volumes = []
    for numpy_only in (True, False):
        with mock.patch.object(native, "resolve", return_value=None) if numpy_only \
                else contextlib.nullcontext():
            acc = TiledBackend(workers=1).accumulator(geometry)
        assert acc.executor == ("numpy" if numpy_only else "native")
        acc.add_stack(stack)
        volumes.append(acc.volume().data)
    assert_same_bits(volumes[1], volumes[0])


@compiled_executors
def test_lane_groups_that_mix_huge_and_ordinary_lanes(executor):
    """``p[1, 0]`` scales ``v`` with ``i``: column ``i = 0`` of a row stays on
    the detector while the others pass 2^30 or 2^50 and up, by projection.
    So eight-column groups mix ordinary lanes with lanes just under 2^31
    (the lane loop clips them in int32), with lanes on both sides of 2^31
    (the group falls back to the scalar loop) and with lanes past 2^51 and
    2^52 (every branch of the scalar floor); the answer is the NumPy
    kernel's.  Then ``inf`` there makes lane ``i = 0`` NaN (``inf * 0``)
    beside infinite lanes: the same IndexError.  So does a lone NaN in the
    upper half of a group of ordinary lanes: ``z = 0`` at ``(i, j) = (5, 0)``."""
    geometry = base_geometry()
    matrices = np.stack([geometry.projection_matrix(float(a)).matrix for a in geometry.angles])
    scale = np.resize([0.75 * 2.0**51, -0.3 * 2.0**31, -0.75 * 2.0**51, 0.1 * 2.0**31],
                      len(matrices))
    matrices[:, 1, 0] = scale * matrices[:, 2, 3]
    k, j, i = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in (11, 7, 9)), indexing="ij")
    p = matrices[:, :, :, None, None, None]
    v = np.abs((p[:, 1, 0] * i + p[:, 1, 1] * j + p[:, 1, 2] * k + p[:, 1, 3])
               / (p[:, 2, 0] * i + p[:, 2, 1] * j + p[:, 2, 3]))
    groups = v.reshape(len(matrices), 11, 63)[:, :, :56].reshape(-1, 8)
    bands = [(2.0**30, 2.0**31), (2.0**31, 2.0**51), (2.0**51, 2.0**52), (2.0**52, np.inf)]
    under, over, near, past = (
        ((groups >= low) & (groups < high)).any(axis=1) for low, high in bands
    )
    ordinary = groups.min(axis=1) < geometry.nv
    assert (ordinary & under & (groups.max(axis=1) < 2.0**31)).any()
    assert (ordinary & under & over).any()
    assert (ordinary & near & past).any()
    expected = fold_under(matrices, numpy_only=True)
    assert expected is not IndexError
    assert_same_bits(fold_under(matrices, numpy_only=False), expected)
    matrices[1, 1, 0] = np.inf
    assert fold_under(matrices, numpy_only=True) is IndexError
    assert fold_under(matrices, numpy_only=False) is IndexError
    matrices = np.stack([geometry.projection_matrix(float(a)).matrix for a in geometry.angles])
    matrices[0, 2] = [-6.0, 0.5, 0.0, 30.0]  # z = 0 at (i, j) = (5, 0) only: lane 5
    assert matrices[0, 0, 0] * 5 + matrices[0, 0, 3] != 0  # so u = inf * x is not NaN
    assert fold_under(matrices, numpy_only=True) is IndexError
    assert fold_under(matrices, numpy_only=False) is IndexError


@compiled_executors
def test_a_voxel_whose_v_is_minus_zero_gets_the_numpy_bits(executor):
    """Row 1 of every matrix ``-0.25, -0.25, -0.25, -0.0`` makes ``v`` exactly
    ``-0.0`` at voxel ``(0, 0, 0)`` and ``-1 < v <= 0`` everywhere, so every
    lane group stays in the lane loop.  The lanes floor ``-0.0`` to ``-0.0``
    as ``np.floor`` does, the scalar loop to ``+0.0``; both give the NumPy
    kernel's bits."""
    geometry = base_geometry()
    matrices = np.stack([geometry.projection_matrix(float(a)).matrix for a in geometry.angles])
    matrices[:, 1] = [-0.25, -0.25, -0.25, -0.0]
    f = 1.0 / matrices[:, 2, 3]  # v = slope * k + offset at i = j = k = 0
    v = matrices[:, 1, 2] * f * 0.0 + (
        matrices[:, 1, 0] * 0.0 + matrices[:, 1, 1] * 0.0 + matrices[:, 1, 3]
    ) * f
    assert (v == 0.0).all() and np.signbit(v).all()
    k, j, i = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in (11, 7, 9)), indexing="ij")
    p = matrices[:, :, :, None, None, None]
    v = (p[:, 1, 0] * i + p[:, 1, 1] * j + p[:, 1, 2] * k + p[:, 1, 3]) / (
        p[:, 2, 0] * i + p[:, 2, 1] * j + p[:, 2, 3]
    )
    assert ((v > -1.0) & (v <= 0.0)).all()
    expected = fold_under(matrices, numpy_only=True)
    assert expected is not IndexError and expected[0, 0, 0] != 0.0
    assert_same_bits(fold_under(matrices, numpy_only=False), expected)


@every_executor
@pytest.mark.parametrize("entry", [(1, 2), (0, 0), (2, 3), (1, 3)])
def test_a_nan_matrix_is_an_index_error_on_either_executor(executor, entry):
    """Per column (``u``) and per voxel (``v``): the clip-then-index argument
    needs finite coordinates, and every executor checks instead of trusting."""
    matrices = np.stack([base_geometry().projection_matrix(0.3).matrix] * 2)
    matrices[(1,) + entry] = np.nan
    assert fold_under(matrices, numpy_only=executor == "numpy") is IndexError


# --------------------------------------------------------------------------- #
# Geometry the kernels' index-range argument cannot cover
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_source_inside_the_field_of_view_is_rejected(backend):
    """Was: a silently non-finite volume and a few ``RuntimeWarning``s."""
    geometry = CBCTGeometry(
        nu=16, nv=16, np_=8, du=1.0, dv=1.0, sad=7.5, sdd=20.0,
        nx=16, ny=16, nz=16, dx=1.0, dy=1.0, dz=1.0,
    )
    stack = ProjectionStack(
        data=np.ones((8, 16, 16), dtype=np.float32), angles=geometry.angles,
        filtered=True,
    )
    with pytest.raises(ValueError, match=r"sad=7\.5.*half-diagonal \(11\.3"):
        get_backend(backend).backproject(stack, geometry)
    # The same source just outside the volume's corners reconstructs finitely.
    outside = replace(geometry, sad=11.4)
    assert np.isfinite(get_backend(backend).backproject(stack, outside).data).all()


# --------------------------------------------------------------------------- #
# The memory model
# --------------------------------------------------------------------------- #
def traced_add_stack(geometry, algorithm, byte_budget, z_range=None):
    """Peak traced bytes of building an accumulator and folding a stack in."""
    stack = make_stack(geometry)
    backend = TiledBackend(workers=1, byte_budget=byte_budget)
    backend.backproject(stack, geometry, algorithm=algorithm, z_range=z_range)  # warm caches
    tracemalloc.start()
    try:
        acc = backend.accumulator(geometry, algorithm=algorithm, z_range=z_range)
        acc.add_stack(stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def outside_the_budget(geometry, nz_local):
    """What ``byte_budget`` does not bound: the output slab and the shard's
    two projection-sized arrays (padded copy, contiguous band of it)."""
    padded = 4 * (geometry.nu + 4) * (geometry.nv + 4)
    return 4 * nz_local * geometry.ny * geometry.nx + 2 * padded


@pytest.mark.usefixtures("numpy_executor")
@pytest.mark.parametrize("byte_budget", [1 << 25, 1 << 21])
@pytest.mark.parametrize("problem", [(40, 40, 3, 40), (72, 56, 2, 64)])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_add_stack_stays_under_block_bytes(algorithm, problem, byte_budget):
    nu, nv, np_, n = problem
    geometry = default_geometry_for_problem(nu=nu, nv=nv, np_=np_, nx=n, ny=n, nz=n)
    tiles = plan_tiles(n, n, n, nv, byte_budget)
    assert (len(tiles) == 1) == (byte_budget == 1 << 25)
    model = max(_block_bytes(z1 - z0, y1 - y0, n, nv) for z0, z1, y0, y1 in tiles)
    assert model <= byte_budget
    peak = traced_add_stack(geometry, algorithm, byte_budget)
    assert peak <= model + outside_the_budget(geometry, n)


@pytest.mark.usefixtures("numpy_executor")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_working_set_does_not_grow_with_the_slab(algorithm):
    """Four times the slices, the same workspace: only the output grows."""
    n = 48
    kc = vectorized.chunk_slices(1 << 30, n * n)  # slices per full chunk
    nz = 8 * kc
    geometry = default_geometry_for_problem(nu=n, nv=nz, np_=2, nx=n, ny=n, nz=nz)
    thin, thick = (3 * kc, 5 * kc), (0, nz)  # two full chunks, eight full chunks
    working = {
        z_range: traced_add_stack(geometry, algorithm, 1 << 25, z_range)
        - 4 * (z_range[1] - z_range[0]) * n * n
        for z_range in (thin, thick)
    }
    # The model does not see the Z extent once a chunk is full, and holds.
    model = _block_bytes(nz, n, n, geometry.nv)
    assert model == _block_bytes(2 * kc, n, n, geometry.nv)
    padded = 4 * (geometry.nu + 4) * (geometry.nv + 4)
    assert max(working.values()) <= model + 2 * padded
    # All that may differ: the band of the padded projection the slab reads,
    # how the last piece of the table build falls, the float64 slice indices.
    slack = padded + 4 * vectorized.CHUNK_ELEMENTS + 16 * nz
    assert working[thick] <= working[thin] + slack < 1.1 * working[thin]


@pytest.mark.usefixtures("native_executor")
def test_compiled_scratch_follows_the_widest_tile_not_the_slab_or_the_stack():
    """The compiled executor's per-call scratch, from the sizes its entry point
    is handed: 28 B per column of the shard's widest tile (rounded up to a
    multiple of the eight lanes) plus one padded projection, ``Nv+4`` rows at
    the least power of two >= ``Nu+4`` — whatever the slab's thickness and the
    stack's length."""
    n, nz = 48, 64
    geometry = default_geometry_for_problem(nu=n, nv=nz, np_=8, nx=n, ny=n, nz=nz)
    stack = make_stack(geometry)
    stride = 1 << (geometry.nu + 3).bit_length()
    assert stride == 64  # a row of 52 samples
    padded = 4 * (geometry.nv + 4) * stride
    scratch = {}
    for z_range, views, budget in [
        ((24, 32), 8, 1 << 25), ((0, nz), 8, 1 << 25), ((0, nz), 2, 1 << 25),
        ((0, nz), 8, 1 << 21),
    ]:
        acc = TiledBackend(workers=1, byte_budget=budget).accumulator(
            geometry, z_range=z_range
        )
        handed = []
        fold = acc._native

        def recording(out, z_start, tiles, projections, matrices, fold=fold):
            handed.append((np.array(tiles), np.shape(projections)))
            fold(out, z_start, tiles, projections, matrices)

        acc._native = recording
        acc.add_stack(stack.subset(range(views)))
        (tiles, shape), = handed  # one foreign call per (shard, stack)
        assert shape == (views, geometry.nv, geometry.nu)
        assert (len(tiles) == 1) == (budget == 1 << 25)
        widest = int(((tiles[:, 3] - tiles[:, 2]) * n).max())
        scratch[z_range, views, budget] = 28 * (-(-widest // 8) * 8) + padded
    whole_rows = 28 * n * n + padded
    assert [*scratch.values()][:3] == [whole_rows] * 3
    assert padded < scratch[(0, nz), 8, 1 << 21] < whole_rows  # narrower tiles
    model = _block_bytes(nz, n, n, geometry.nv)  # what NumPy may hold for one tile
    assert 20 * whole_rows < model
