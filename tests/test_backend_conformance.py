"""Cross-backend conformance and property tests for the FDK hot paths.

This is the contract that makes every future speed PR safe to land: any
compute backend registered in :mod:`repro.backends` must reproduce the
``reference`` backend on a matrix of

    backend x geometry preset x input dtype x Z-slab decomposition

for both back-projection algorithms and for the ramp-filtering stage — and,
since the acquisition-scenario engine landed, on a second matrix of

    scenario preset x backend x input dtype

so that every non-ideal workload (short-scan Parker weighting,
offset-detector redundancy, sparse-view renormalization, seeded noise) is
provably identical across backends too (``scenario`` marker).

Two tiers of agreement are asserted:

* **tolerance** — every backend agrees with ``reference`` to a relative
  RMSE of at most ``RMSE_TOL`` (1e-5, per the conformance contract; the
  NumPy backends actually land around 1e-7);
* **bit-exact** — the tiled backend (registered as ``vectorized``,
  ``blocked`` and ``parallel``) only reorders traversal, so every byte
  budget, worker count and slab decomposition of it must produce
  *identical* float32 volumes.

On top of the matrix, property-based tests (Hypothesis when available,
seeded random sweeps otherwise) check the paper's theorem invariants that
the fast backends' algebraic rearrangements rely on:

* **Theorem 1** — the detector row of the Z-mirrored voxel is the
  reflection ``v~ = Nv - 1 - v``;
* **Theorem 2** — the detector column ``u`` is constant along Z;
* **Theorem 3** — the perspective divisor ``z`` (hence ``1/z`` and the
  distance weight ``Wdis = 1/z²``) is constant along Z and matches the
  closed-form expression of Equation 3.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    TiledBackend,
    available_backends,
    get_backend,
    validate_backend,
)
from repro.backends.tiled import plan_tiles
from repro.backends.tiled import _block_bytes
from repro.core import CBCTGeometry, default_geometry_for_problem
from repro.core.types import DEFAULT_DTYPE, ProjectionStack
from repro.scenarios import available_scenarios, get_scenario
from repro.streaming import StreamingReconstructor

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False

#: The whole matrix runs once per executor of the proposed kernel: the
#: compiled ``alg4.c``, then the NumPy kernels with the loader patched out.
pytestmark = pytest.mark.usefixtures("executor")

#: Conformance bound: relative RMSE against the reference backend.
RMSE_TOL = 1e-5

#: Registry names of the one tiled backend — bit-identical to each other.
EXACT_FAMILY = ("vectorized", "blocked", "parallel")

#: Worker counts the tile planner must cover exactly.
WORKER_COUNTS = (1, 2, 4)

#: Geometry presets: a cube, an anisotropic volume/detector, and an odd-Nz
#: volume (exercises the unpaired centre slice of the symmetry path).
GEOMETRY_PRESETS = {
    "cube16": dict(nu=24, nv=24, np_=8, nx=16, ny=16, nz=16),
    "aniso": dict(nu=28, nv=20, np_=6, nx=18, ny=14, nz=10),
    "odd-z": dict(nu=24, nv=26, np_=5, nx=12, ny=12, nz=9),
}

DTYPES = ("float32", "float64")

#: Z-slab decompositions, as fractions of Nz: the full volume, two halves,
#: and three deliberately uneven slabs (what a heterogeneous grid produces).
SLAB_SPLITS = {
    "full": (1.0,),
    "halves": (0.5, 0.5),
    "uneven": (0.25, 0.375, 0.375),
}

ALGORITHMS = ("proposed", "standard")
NON_REFERENCE = tuple(n for n in BACKEND_NAMES if n != "reference")


def make_geometry(preset: str) -> CBCTGeometry:
    return default_geometry_for_problem(**GEOMETRY_PRESETS[preset])


def make_stack(geometry: CBCTGeometry, dtype: str, *, filtered: bool = True,
               seed: int = 7) -> ProjectionStack:
    """A seeded random stack whose raw data is generated in ``dtype``.

    The stack normalizes to float32 (the paper runs single precision
    everywhere); generating in both dtypes verifies the backends agree on
    how inputs are coerced, not just on pre-coerced data.
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(
        (geometry.np_, geometry.nv, geometry.nu)
    ).astype(dtype)
    return ProjectionStack(data=data, angles=geometry.angles, filtered=filtered)


def slab_ranges(nz: int, fractions) -> list:
    """Concrete ``(z0, z1)`` slabs covering ``[0, nz)`` for the given split."""
    edges = [0]
    for fraction in fractions[:-1]:
        edges.append(edges[-1] + max(1, int(round(nz * fraction))))
    edges.append(nz)
    return [(z0, z1) for z0, z1 in zip(edges, edges[1:]) if z1 > z0]


def backproject_by_slabs(backend_name: str, stack, geometry, algorithm, fractions):
    """Back-project slab by slab and stitch, as the distributed ranks do."""
    backend = get_backend(backend_name)
    pieces = [
        backend.backproject(stack, geometry, algorithm=algorithm, z_range=(z0, z1)).data
        for z0, z1 in slab_ranges(geometry.nz, fractions)
    ]
    return np.concatenate(pieces, axis=0)


def rel_rmse(result: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.abs(reference).max()) or 1.0
    return float(np.sqrt(np.mean((result.astype(np.float64) - reference) ** 2))) / scale


# --------------------------------------------------------------------------- #
# Shared reference results (one per algorithm x preset x dtype)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference_volumes():
    cache = {}

    def compute(algorithm: str, preset: str, dtype: str) -> np.ndarray:
        key = (algorithm, preset, dtype)
        if key not in cache:
            geometry = make_geometry(preset)
            stack = make_stack(geometry, dtype)
            cache[key] = get_backend("reference").backproject(
                stack, geometry, algorithm=algorithm
            ).data.astype(np.float64)
        return cache[key]

    return compute


# --------------------------------------------------------------------------- #
# The conformance matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("slab", sorted(SLAB_SPLITS))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("preset", sorted(GEOMETRY_PRESETS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_backproject_matches_reference(
    backend, algorithm, preset, dtype, slab, reference_volumes
):
    geometry = make_geometry(preset)
    stack = make_stack(geometry, dtype)
    result = backproject_by_slabs(
        backend, stack, geometry, algorithm, SLAB_SPLITS[slab]
    )
    reference = reference_volumes(algorithm, preset, dtype)
    assert result.shape == reference.shape
    assert rel_rmse(result, reference) <= RMSE_TOL


@pytest.mark.parametrize("slab", sorted(SLAB_SPLITS))
@pytest.mark.parametrize("preset", sorted(GEOMETRY_PRESETS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reference_slab_decomposition_conforms(
    algorithm, preset, slab, reference_volumes
):
    """Reference's own slab stitching stays within tolerance of its full run.

    (The proposed algorithm's symmetry pairing differs per slab, so this is
    a tolerance bound, not bit-exactness — exactly Theorem 1's claim.)
    """
    geometry = make_geometry(preset)
    stack = make_stack(geometry, "float32")
    result = backproject_by_slabs(
        "reference", stack, geometry, algorithm, SLAB_SPLITS[slab]
    )
    assert rel_rmse(result, reference_volumes(algorithm, preset, "float32")) <= RMSE_TOL


def test_registry_names_are_one_tiled_backend():
    """``vectorized`` / ``blocked`` / ``parallel`` name one class; plans keep
    their names (``tests/test_api.py`` pins ``golden_plan.json`` on top)."""
    instances = {name: get_backend(name) for name in EXACT_FAMILY}
    assert {type(backend) for backend in instances.values()} == {TiledBackend}
    for name, backend in instances.items():
        assert backend.name == name == validate_backend(name)
    assert instances["vectorized"].workers == instances["blocked"].workers == 1
    assert {type(get_backend(n)).__name__ for n in BACKEND_NAMES} == {
        "ReferenceBackend", "TiledBackend",
    }


@pytest.fixture(scope="module")
def single_tile_results():
    """One tile, one worker: the whole-slab execution every plan must equal."""
    geometry = make_geometry("aniso")
    filtered = make_stack(geometry, "float32")
    raw = make_stack(geometry, "float32", filtered=False)
    whole = TiledBackend(workers=1, byte_budget=1 << 40)
    assert len(plan_tiles(geometry.nz, geometry.ny, geometry.nx, geometry.nv, 1 << 40)) == 1
    volumes = {
        algorithm: whole.backproject(filtered, geometry, algorithm=algorithm).data
        for algorithm in ALGORITHMS
    }
    return geometry, filtered, raw, volumes, whole.filter_stack(raw, geometry).data


def check_tiled_plan_is_bit_exact(single_tile_results, byte_budget, workers, algorithm, z_range):
    geometry, filtered, raw, volumes, filtered_whole = single_tile_results
    with TiledBackend(workers=workers, byte_budget=byte_budget) as backend:
        slab = backend.backproject(
            filtered, geometry, algorithm=algorithm, z_range=z_range
        ).data
        rows = backend.filter_stack(raw, geometry).data
    z0, z1 = z_range
    np.testing.assert_array_equal(slab, volumes[algorithm][z0:z1])
    np.testing.assert_array_equal(rows, filtered_whole)


if HAVE_HYPOTHESIS:

    @pytest.mark.parallel
    @settings(max_examples=40, deadline=None)
    @given(
        log_budget=st.floats(10.0, 27.0),
        workers=st.integers(1, 5),
        algorithm=st.sampled_from(ALGORITHMS),
        z_edges=st.lists(st.integers(0, 10), min_size=2, max_size=2, unique=True),
    )
    def test_any_budget_and_worker_count_is_bit_exact_with_one_tile(
        single_tile_results, log_budget, workers, algorithm, z_edges
    ):
        check_tiled_plan_is_bit_exact(
            single_tile_results, int(2.0 ** log_budget), workers, algorithm,
            tuple(sorted(z_edges)),
        )

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(40))
    def test_any_budget_and_worker_count_is_bit_exact_with_one_tile(
        single_tile_results, seed
    ):
        rng = np.random.default_rng(3000 + seed)
        z0 = int(rng.integers(0, 10))
        check_tiled_plan_is_bit_exact(
            single_tile_results, int(2.0 ** rng.uniform(10.0, 27.0)),
            int(rng.integers(1, 6)), ALGORITHMS[seed % 2],
            (z0, int(rng.integers(z0 + 1, 11))),
        )


@pytest.mark.parametrize("slab", ["halves", "uneven"])
@pytest.mark.parametrize("backend", EXACT_FAMILY)
def test_exact_family_slab_decomposition_is_bit_exact(backend, slab):
    """Direct Z evaluation makes slab stitching lossless for the fast family."""
    geometry = make_geometry("odd-z")
    stack = make_stack(geometry, "float32")
    full = get_backend(backend).backproject(stack, geometry, algorithm="proposed").data
    stitched = backproject_by_slabs(
        backend, stack, geometry, "proposed", SLAB_SPLITS[slab]
    )
    np.testing.assert_array_equal(stitched, full)


# --------------------------------------------------------------------------- #
# The scenario x backend x dtype matrix
# --------------------------------------------------------------------------- #
#: Base acquisition for the scenario matrix: enough projections that the
#: short-scan subset and the 1/4 sparse subset are both non-trivial.
SCENARIO_BASE = dict(nu=28, nv=20, np_=24, nx=18, ny=14, nz=10)

SCENARIO_NAMES = tuple(sorted(available_scenarios()))


def scenario_base_geometry() -> CBCTGeometry:
    return default_geometry_for_problem(**SCENARIO_BASE)


def scenario_base_stack(dtype: str, seed: int = 11) -> ProjectionStack:
    geometry = scenario_base_geometry()
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(
        (geometry.np_, geometry.nv, geometry.nu)
    ).astype(dtype)
    return ProjectionStack(data=data, angles=geometry.angles, filtered=False)


def scenario_volume(name: str, stack: ProjectionStack, backend: str) -> np.ndarray:
    """Scenario ``name`` applied to the base acquisition, then FDK."""
    scenario = get_scenario(name)
    geometry, scenario_stack = scenario.apply(scenario_base_geometry(), stack)
    return StreamingReconstructor(
        geometry, backend=backend, scenario=scenario
    ).reconstruct_stack(scenario_stack).volume.data


@pytest.fixture(scope="module")
def scenario_reference_volumes():
    """Reference-backend volume per (scenario, dtype), computed once."""
    cache = {}

    def compute(scenario: str, dtype: str) -> np.ndarray:
        key = (scenario, dtype)
        if key not in cache:
            cache[key] = scenario_volume(
                scenario, scenario_base_stack(dtype), "reference"
            ).astype(np.float64)
        return cache[key]

    return compute


@pytest.mark.scenario
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_scenario_backend_matches_reference(
    backend, scenario, dtype, scenario_reference_volumes
):
    """Every scenario preset conforms on every backend and input dtype."""
    volume = scenario_volume(scenario, scenario_base_stack(dtype), backend)
    reference = scenario_reference_volumes(scenario, dtype)
    assert volume.shape == reference.shape
    assert rel_rmse(volume, reference) <= RMSE_TOL


@pytest.mark.scenario
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_scenario_exact_family_is_bit_identical(scenario):
    """Redundancy weighting must not break the family's bit-equality."""
    volumes = [
        scenario_volume(scenario, scenario_base_stack("float32"), backend)
        for backend in EXACT_FAMILY
    ]
    for other in volumes[1:]:
        np.testing.assert_array_equal(volumes[0], other)


@pytest.mark.scenario
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_scenario_slab_decomposition_conforms(backend):
    """Short-scan reconstruction distributes over Z slabs like the full scan."""
    scenario = get_scenario("short_scan")
    base = scenario_base_geometry()
    stack = scenario_base_stack("float32")
    geometry, scenario_stack = scenario.apply(base, stack)
    filtered = get_backend(backend).filter_stack(
        scenario_stack, geometry, redundancy=scenario.redundancy_weights(geometry)
    )
    full = get_backend(backend).backproject(filtered, geometry).data
    stitched = np.concatenate(
        [
            get_backend(backend).backproject(
                filtered, geometry, z_range=(z0, z1)
            ).data
            for z0, z1 in slab_ranges(geometry.nz, SLAB_SPLITS["uneven"])
        ],
        axis=0,
    )
    assert rel_rmse(stitched, full.astype(np.float64)) <= RMSE_TOL


@pytest.mark.scenario
def test_scenario_full_scan_is_the_seed_arithmetic():
    """The full_scan preset must be a strict no-op: identical bits."""
    base = scenario_base_geometry()
    stack = scenario_base_stack("float32")
    seed_volume = StreamingReconstructor(base, backend="vectorized").reconstruct_stack(
        stack.copy()
    ).volume.data
    full_scan_volume = scenario_volume("full_scan", stack, "vectorized")
    np.testing.assert_array_equal(full_scan_volume, seed_volume)


# --------------------------------------------------------------------------- #
# Filtering conformance
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("window", ["ram-lak", "hann"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("preset", sorted(GEOMETRY_PRESETS))
@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_filter_matches_reference(backend, preset, dtype, window):
    geometry = make_geometry(preset)
    raw = make_stack(geometry, dtype, filtered=False)
    reference = get_backend("reference").filter_stack(raw, geometry, window).data
    result = get_backend(backend).filter_stack(raw, geometry, window).data
    assert rel_rmse(result, reference.astype(np.float64)) <= RMSE_TOL


# --------------------------------------------------------------------------- #
# End-to-end through the chunk driver (the seam every layer uses)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_reconstructor_backend_conforms(backend, small_projections, small_geometry):
    reference = StreamingReconstructor(small_geometry).reconstruct_stack(
        small_projections.copy()
    )
    result = StreamingReconstructor(small_geometry, backend=backend).reconstruct_stack(
        small_projections.copy()
    )
    assert rel_rmse(
        result.volume.data, reference.volume.data.astype(np.float64)
    ) <= RMSE_TOL


@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_accumulator_streaming_seam_conforms(backend):
    """Per-projection ``add`` on a slab (the online/rank-runtime seam)."""
    geometry = make_geometry("aniso")
    stack = make_stack(geometry, "float32")
    z_range = (2, 8)
    results = {}
    for name in ("reference", backend):
        acc = get_backend(name).accumulator(
            geometry, algorithm="proposed", z_range=z_range
        )
        for angle, projection in stack:
            acc.add(projection, angle)
        results[name] = acc.volume().data
    assert rel_rmse(
        results[backend], results["reference"].astype(np.float64)
    ) <= RMSE_TOL
    whole = get_backend(backend).backproject(stack, geometry, z_range=z_range).data
    np.testing.assert_array_equal(results[backend], whole)


# --------------------------------------------------------------------------- #
# The hand-over: volume() returns the filled buffer and spends the accumulator
# --------------------------------------------------------------------------- #
#: ``parallel`` runs on a dedicated two-worker pool, so its tiles are sharded.
HAND_OVER_BACKENDS = ("reference", "vectorized", "parallel")


@contextlib.contextmanager
def hand_over_accumulator(name: str, geometry, algorithm: str):
    """A filled accumulator of ``name`` (``parallel`` on two workers)."""
    backend = TiledBackend(workers=2) if name == "parallel" else get_backend(name)
    try:
        acc = backend.accumulator(geometry, algorithm=algorithm, z_range=(2, 8))
        acc.add_stack(make_stack(geometry, "float32"))
        yield acc
    finally:
        if name == "parallel":
            backend.close()


def filled_buffer(acc) -> np.ndarray:
    """The buffer an accumulator folds into (``_out`` tiled, ``_data`` reference)."""
    return acc._out if hasattr(acc, "_out") else acc._data


def arrays_held_by(value):
    """Every array an accumulator's attributes hold, through containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_held_by(item)
    elif isinstance(value, dict):
        yield from arrays_held_by(list(value.values()))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", HAND_OVER_BACKENDS)
def test_volume_hands_over_the_filled_buffer(name, algorithm):
    geometry = make_geometry("aniso")
    with hand_over_accumulator(name, geometry, algorithm) as acc:
        buffer = filled_buffer(acc)
        filled = buffer.copy()
        volume = acc.volume()
        held = list(arrays_held_by(vars(acc)))
    if (name, algorithm) == ("reference", "proposed"):
        # The k-major buffer is transposed into a new one (Algorithm 4 line 22).
        np.testing.assert_array_equal(volume.data, filled.transpose(2, 1, 0))
    else:
        assert np.shares_memory(volume.data, buffer)
        np.testing.assert_array_equal(volume.data, filled)
    assert not any(np.shares_memory(array, buffer) for array in held)
    assert not any(np.shares_memory(array, volume.data) for array in held)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", HAND_OVER_BACKENDS)
def test_spent_accumulator_refuses_and_leaves_the_volume_alone(name, algorithm):
    geometry = make_geometry("aniso")
    stack = make_stack(geometry, "float32")
    with hand_over_accumulator(name, geometry, algorithm) as acc:
        volume = acc.volume()
        handed = volume.data.copy()
        spent = pytest.raises(RuntimeError, match="already handed over")
        with spent:
            acc.add(stack.data[0], float(stack.angles[0]))
        with spent:
            acc.add_stack(stack)
        with spent:
            acc.volume()
        # A fresh accumulator of the same backend folds into its own buffer.
        get_backend(name).backproject(stack, geometry, algorithm=algorithm)
    np.testing.assert_array_equal(volume.data, handed)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")
    assert "reference" in available_backends()


def check_tile_plan(nz, ny, nx, nv, byte_budget, min_tiles):
    tiles = plan_tiles(nz, ny, nx, nv, byte_budget, min_tiles)
    # Exact disjoint cover of the (z, y) slab.
    covered = np.zeros((nz, ny), dtype=int)
    for z0, z1, y0, y1 in tiles:
        assert z0 < z1 and y0 < y1
        covered[z0:z1, y0:y1] += 1
    np.testing.assert_array_equal(covered, 1)
    # Y is exhausted before Z splits: a plan with more than one Z part has
    # single-row tiles only.
    if len({(z0, z1) for z0, z1, _, _ in tiles}) > 1:
        assert all(y1 - y0 == 1 for _, _, y0, y1 in tiles)
    # Enough tiles to occupy every worker whenever the slab allows.
    assert len(tiles) >= min(min_tiles, nz * ny)
    # Planning is deterministic: same inputs, same plan.
    assert tiles == plan_tiles(nz, ny, nx, nv, byte_budget, min_tiles)
    return tiles


@pytest.mark.parallel
@pytest.mark.parametrize("workers", WORKER_COUNTS + (5,))
@pytest.mark.parametrize("budget", [1, 1 << 14, 1 << 18, 1 << 25])
def test_tile_plan_covers_slab_exactly(budget, workers):
    """Every (z, y) is planned exactly once; the accumulator's round-robin
    shards hand each planned tile to exactly one worker."""
    tiles = check_tile_plan(9, 14, 18, 26, budget, workers)
    geometry = default_geometry_for_problem(nu=20, nv=26, np_=2, nx=18, ny=14, nz=9)
    with TiledBackend(workers=workers, byte_budget=budget) as backend:
        shards = backend.accumulator(geometry)._shards
    assert len(shards) == min(workers, len(tiles))
    assert sum(len(shard) for shard in shards) == len(tiles)


def test_tile_plan_splits_y_before_z():
    """A budget one full-height row fits never splits Z, however small."""
    one_row = _block_bytes(9, 1, 18, 26)
    assert {(z0, z1) for z0, z1, _, _ in plan_tiles(9, 14, 18, 26, one_row)} == {(0, 9)}
    assert len(plan_tiles(9, 14, 18, 26, one_row)) == 14
    assert len(plan_tiles(9, 14, 18, 26, one_row - 1)) == 28  # now Z halves


def test_tile_plan_rejects_bad_arguments():
    with pytest.raises(ValueError, match="byte_budget"):
        plan_tiles(9, 14, 18, 26, 0)
    with pytest.raises(ValueError, match="min_tiles"):
        plan_tiles(9, 14, 18, 26, 1 << 20, 0)
    with pytest.raises(ValueError, match="byte_budget"):
        TiledBackend(byte_budget=0)


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        nz=st.integers(1, 24), ny=st.integers(1, 24),
        nx=st.integers(1, 24), nv=st.integers(1, 40),
        log_budget=st.floats(0.0, 24.0), min_tiles=st.integers(1, 9),
    )
    def test_tile_plan_properties(nz, ny, nx, nv, log_budget, min_tiles):
        check_tile_plan(nz, ny, nx, nv, max(1, int(2.0 ** log_budget)), min_tiles)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(60))
    def test_tile_plan_properties(seed):
        rng = np.random.default_rng(4000 + seed)
        nz, ny, nx = (int(v) for v in rng.integers(1, 25, size=3))
        check_tile_plan(
            nz, ny, nx, int(rng.integers(1, 41)),
            max(1, int(2.0 ** rng.uniform(0.0, 24.0))), int(rng.integers(1, 10)),
        )


# --------------------------------------------------------------------------- #
# Theorem invariants (property-based)
# --------------------------------------------------------------------------- #
def random_geometry(rng_or_draw) -> CBCTGeometry:
    """A small random geometry, from a Hypothesis draw or a numpy RNG."""
    if isinstance(rng_or_draw, np.random.Generator):
        rng = rng_or_draw
        pick = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    else:
        draw = rng_or_draw
        pick = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
    return default_geometry_for_problem(
        nu=pick(8, 40), nv=pick(8, 40), np_=pick(2, 12),
        nx=pick(4, 24), ny=pick(4, 24), nz=pick(2, 24),
    )


def check_theorem_1_mirror_row(geometry: CBCTGeometry, beta: float) -> None:
    pm = geometry.projection_matrix(beta)
    i = np.arange(geometry.nx, dtype=np.float64)[None, :]
    j = np.arange(geometry.ny, dtype=np.float64)[:, None]
    for k in range(geometry.nz // 2 + 1):
        _, v, z = pm.project(i, j, k)
        _, v_mirror, _ = pm.project(i, j, geometry.nz - 1 - k)
        np.testing.assert_allclose(
            v_mirror, (geometry.nv - 1) - v, rtol=0, atol=1e-8 * geometry.nv
        )


def check_theorems_2_3_hoisting(geometry: CBCTGeometry, beta: float) -> None:
    pm = geometry.projection_matrix(beta)
    i = np.arange(geometry.nx, dtype=np.float64)[None, :]
    j = np.arange(geometry.ny, dtype=np.float64)[:, None]
    u0, _, z0 = pm.project(i, j, 0)
    # Closed-form divisor of Equation 3 (what the hoisted kernels compute).
    closed_form = geometry.perspective_divisor(beta, i, j)
    np.testing.assert_allclose(z0, closed_form, rtol=1e-12, atol=1e-9)
    for k in (1, geometry.nz // 2, geometry.nz - 1):
        u, _, z = pm.project(i, j, k)
        np.testing.assert_allclose(u, u0, rtol=0, atol=1e-9 * geometry.nu)
        np.testing.assert_allclose(z, z0, rtol=1e-12, atol=1e-9)
        # Wdis = 1/z² is therefore constant along Z as well (Theorem 3).
        np.testing.assert_allclose(1.0 / (z * z), 1.0 / (z0 * z0), rtol=1e-9)


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), beta=st.floats(0.0, 2.0 * np.pi))
    def test_theorem_1_mirror_row_reflection(data, beta):
        check_theorem_1_mirror_row(random_geometry(data.draw), beta)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), beta=st.floats(0.0, 2.0 * np.pi))
    def test_theorems_2_3_u_z_wdis_constant_along_z(data, beta):
        check_theorems_2_3_hoisting(random_geometry(data.draw), beta)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(25))
    def test_theorem_1_mirror_row_reflection(seed):
        rng = np.random.default_rng(1000 + seed)
        check_theorem_1_mirror_row(
            random_geometry(rng), float(rng.uniform(0.0, 2.0 * np.pi))
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_theorems_2_3_u_z_wdis_constant_along_z(seed):
        rng = np.random.default_rng(2000 + seed)
        check_theorems_2_3_hoisting(
            random_geometry(rng), float(rng.uniform(0.0, 2.0 * np.pi))
        )
