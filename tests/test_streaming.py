"""The streaming-equivalence harness (``repro.streaming``).

The streaming pipeline's contract is stronger than "close enough": because
every filtering table is geometry-only, the per-row FFT is batch-invariant
and one accumulator consumes chunks in acquisition order, chunked execution
must be **bit-identical** to the whole-stack path — per backend, per
scenario, per input dtype, at every chunk size.  This module pins that
contract and the machinery around it:

* the equivalence matrix (backend × scenario × dtype × chunk size), plus
  golden 32³ hash agreement with the pinned reference volume;
* Hypothesis property tests for chunk planning (exact partition of
  ``range(Np)``; the working-set estimate never exceeds the budget; an
  infeasible budget is a loud :class:`ValueError`);
* online-source fault injection: out-of-order completion inside the
  reorder window reconstructs bit-identically, everything past the
  window — stalls, early close, duplicates, overflow — fails loudly
  (never a silent partial volume), with circular-buffer wraparound
  covered at ``capacity == chunk_size``;
* the memory-bound slow-tier test: a 256³ volume from a PFS-backed source
  under a budget the whole-stack path provably exceeds, with subprocess
  peak RSS within 1.5× of the budget;
* the CLI error paths (``--stream`` with bad knobs → exit 2) and the
  plan/Session/service/observability seams.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReconstructionPlan, Session, plan_for_problem, run_plan
from repro.backends import TiledBackend, available_backends, get_backend
from repro.backends.base import VolumeAccumulator
from repro.backends.tiled import WORKER_THREAD_PREFIX
from repro.cli import main
from repro.core import default_geometry_for_problem
from repro.core.filtering import GROUP_ROWS
from repro.core.types import ProjectionStack
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.pfs import SimulatedPFS
from repro.pfs.projection_io import write_projection_dataset
from repro.pipeline import CircularBuffer
from repro.scenarios import get_scenario
from repro.streaming import (
    OnlineChunkSource,
    PFSChunkSource,
    ProjectionChunk,
    ProjectionChunkSource,
    StackChunkSource,
    StreamingError,
    StreamingReconstructor,
    chunk_working_set_bytes,
    parse_byte_size,
    plan_chunks,
    resolve_chunk_size,
    stream_stack,
    whole_stack_working_set_bytes,
)
from repro.streaming.chunks import DEFAULT_CHUNK_SIZE, per_projection_working_set_bytes

pytestmark = pytest.mark.streaming


def reconstruct_streaming(source, geometry, **options):
    """Stream ``source`` (a bare stack is wrapped) through one reconstructor."""
    if isinstance(source, ProjectionStack):
        source = StackChunkSource(source)
    with StreamingReconstructor(geometry, **options) as reconstructor:
        return reconstructor.reconstruct(source)


def random_stack(geometry, seed):
    """A float32 standard-normal stack of ``geometry``'s acquisition."""
    return ProjectionStack(
        data=np.random.default_rng(seed).standard_normal(
            (geometry.np_, geometry.nv, geometry.nu), dtype=np.float32
        ),
        angles=geometry.angles,
    )

#: Conformance bound of every backend against the reference volume.
RMSE_TOL = 1e-5

#: The equivalence-matrix geometry: small, anisotropic, even+odd divisors.
BASE = default_geometry_for_problem(nu=32, nv=24, np_=24, nx=16, ny=16, nz=12)

SCENARIOS = ("full_scan", "short_scan", "sparse_view")
DTYPES = ("float32", "float64")
#: chunk_size=None resolves to DEFAULT_CHUNK_SIZE projections per backend
#: worker, capped at the stack: one 24-projection chunk of the 24-view BASE
#: on every backend.
CHUNK_SIZES = (1, 7, None)


def scenario_case(scenario: str, dtype: str):
    """(geometry, stack, redundancy) of one scenario × dtype matrix cell."""
    preset = get_scenario(scenario)
    geometry = BASE if preset.is_ideal else preset.apply_geometry(BASE)
    rng = np.random.default_rng(20260808)
    data = rng.standard_normal(
        (geometry.np_, geometry.nv, geometry.nu)
    ).astype(dtype)
    stack = ProjectionStack(data=data, angles=geometry.angles, filtered=False)
    redundancy = None if preset.is_ideal else preset.redundancy_weights(geometry)
    return geometry, stack, redundancy


@pytest.fixture(scope="module")
def whole_stack_volumes():
    """One-chunk reference results, computed once per matrix cell.

    The backend's own stage drivers filter the whole stack, then
    back-project it: the oracle never runs through the chunk driver under
    test, which chunks a whole stack too.
    """
    cache = {}

    def compute(backend: str, scenario: str, dtype: str) -> np.ndarray:
        key = (backend, scenario, dtype)
        if key not in cache:
            geometry, stack, redundancy = scenario_case(scenario, dtype)
            engine = get_backend(backend)
            cache[key] = engine.backproject(
                engine.filter_stack(stack, geometry, redundancy=redundancy),
                geometry, algorithm="proposed",
            ).data
        return cache[key]

    return compute


def rel_rmse(result: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.abs(reference).max()) or 1.0
    return float(
        np.sqrt(np.mean((result.astype(np.float64) - reference) ** 2))
    ) / scale


# --------------------------------------------------------------------------- #
# The equivalence matrix (the tentpole's proof obligation)
# --------------------------------------------------------------------------- #
class TestStreamingEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("backend", available_backends())
    def test_streaming_is_bit_identical_to_whole_stack(
        self, backend, scenario, dtype, chunk_size, whole_stack_volumes
    ):
        geometry, stack, _ = scenario_case(scenario, dtype)
        result = reconstruct_streaming(
            stack, geometry,
            backend=get_backend(backend),
            scenario=None if scenario == "full_scan" else scenario,
            chunk_size=chunk_size,
        )
        whole = whole_stack_volumes(backend, scenario, dtype)
        # Bit-identity holds for every backend (reference included): the
        # chunk decomposition changes no arithmetic and no order.
        np.testing.assert_array_equal(result.volume.data, whole)
        # And every backend's streaming output stays inside the cross-
        # backend conformance bound against the reference volume.
        reference = whole_stack_volumes("reference", scenario, dtype)
        assert rel_rmse(result.volume.data, reference) <= RMSE_TOL
        expected_chunk = resolve_chunk_size(
            geometry, geometry.np_, chunk_size=chunk_size,
            workers=get_backend(backend).workers,
        )
        assert result.chunk_size == expected_chunk
        assert result.chunk_count == len(plan_chunks(geometry.np_, expected_chunk))
        assert result.num_projections == geometry.np_

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_slab_stack_is_one_chunk_of_the_driver(self, backend):
        """A ``z_range`` slab's one-chunk run ≡ its multi-chunk runs, from a
        source and from ``reconstruct_stack``, ≡ that slab of a full run."""
        geometry, stack, _ = scenario_case("short_scan", "float32")
        slab = (3, 8)
        one_chunk = reconstruct_streaming(
            stack, geometry, backend=backend, scenario="short_scan",
            z_range=slab, chunk_size=geometry.np_,
        )
        with StreamingReconstructor(
            geometry, backend=backend, scenario="short_scan", z_range=slab,
            chunk_size=5,
        ) as driver:
            whole = driver.reconstruct_stack(stack)
            chunked = driver.reconstruct(StackChunkSource(stack))
        assert one_chunk.volume.data.shape[0] == slab[1] - slab[0]
        assert one_chunk.chunk_count == 1
        assert whole.chunk_count == chunked.chunk_count > 1
        np.testing.assert_array_equal(one_chunk.volume.data, chunked.volume.data)
        np.testing.assert_array_equal(one_chunk.volume.data, whole.volume.data)
        if backend != "reference":  # the reference pairs mirror slices per slab
            full = reconstruct_streaming(
                stack, geometry, backend=backend, scenario="short_scan", chunk_size=5
            )
            np.testing.assert_array_equal(
                chunked.volume.data, full.volume.data[slab[0]:slab[1]]
            )

    def test_pfs_source_matches_in_memory_source(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, stack)
        via_pfs = reconstruct_streaming(
            PFSChunkSource(pfs), geometry, backend="vectorized", chunk_size=7
        )
        in_memory = reconstruct_streaming(
            stack, geometry, backend="vectorized", chunk_size=7
        )
        np.testing.assert_array_equal(
            via_pfs.volume.data, in_memory.volume.data
        )

    def test_prefiltered_stack_skips_filtering(self, small_geometry, small_filtered):
        streamed = reconstruct_streaming(
            small_filtered, small_geometry, backend="vectorized", chunk_size=5
        )
        whole = get_backend("vectorized").backproject(
            small_filtered, small_geometry, algorithm="proposed"
        )
        np.testing.assert_array_equal(streamed.volume.data, whole.data)
        assert streamed.filter_seconds == 0.0 or streamed.filter_seconds < 1e-3

    def test_prefiltered_stack_with_redundancy_scenario_rejected(
        self, small_geometry, small_filtered
    ):
        scenario = get_scenario("short_scan")
        geometry = scenario.apply_geometry(small_geometry)
        filtered = ProjectionStack(
            data=small_filtered.data[: geometry.np_],
            angles=geometry.angles,
            filtered=True,
        )
        with pytest.raises(ValueError, match="pre-filtered"):
            reconstruct_streaming(
                filtered, geometry, scenario="short_scan", chunk_size=5
            )

    def test_source_projection_count_must_match_geometry(self, small_geometry):
        short = ProjectionStack(
            data=np.zeros(
                (4, small_geometry.nv, small_geometry.nu), dtype=np.float32
            ),
            angles=small_geometry.angles[:4],
        )
        with pytest.raises(ValueError, match="promises 4"):
            reconstruct_streaming(short, small_geometry)

    def test_golden_volume_agreement(self):
        """Streaming the golden acquisition reproduces the pinned 32³ hash."""
        import test_golden_fdk as golden_mod

        stem = golden_mod.FAMILIES["full"]
        golden = np.load(golden_mod.DATA_DIR / f"{stem}.npz")["volume"]
        meta = json.loads(
            (golden_mod.DATA_DIR / f"{stem}.json").read_text()
        )
        result = reconstruct_streaming(
            golden_mod.golden_stack(), golden_mod.golden_geometry(),
            backend="reference", chunk_size=5,
        )
        if golden_mod._environment_matches(meta):
            digest = hashlib.sha256(result.volume.data.tobytes()).hexdigest()
            assert digest == meta["sha256"]
        else:
            assert rel_rmse(result.volume.data, golden) <= golden_mod.DRIFT_RMSE_TOL


# --------------------------------------------------------------------------- #
# Chunk planning: Hypothesis properties
# --------------------------------------------------------------------------- #
PLAN_GEOMETRY = default_geometry_for_problem(
    nu=48, nv=48, np_=24, nx=32, ny=32, nz=32
)
PER_PROJECTION = per_projection_working_set_bytes(PLAN_GEOMETRY)


class TestChunkPlanning:
    @settings(max_examples=200, deadline=None)
    @given(
        num_projections=st.integers(min_value=1, max_value=500),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    def test_chunks_partition_the_acquisition_exactly(
        self, num_projections, chunk_size
    ):
        bounds = plan_chunks(num_projections, chunk_size)
        # Full coverage, no overlap, order preserved: concatenating the
        # windows reproduces range(Np) exactly.
        flattened = [
            i for start, stop in bounds for i in range(start, stop)
        ]
        assert flattened == list(range(num_projections))
        assert all(stop - start <= chunk_size for start, stop in bounds)
        assert all(stop > start for start, stop in bounds)

    @settings(max_examples=200, deadline=None)
    @given(
        num_projections=st.integers(min_value=1, max_value=500),
        budget_projections=st.floats(min_value=1.0, max_value=64.0),
    )
    def test_resolved_working_set_never_exceeds_budget(
        self, num_projections, budget_projections
    ):
        budget = int(budget_projections * PER_PROJECTION)
        chunk = resolve_chunk_size(
            PLAN_GEOMETRY, num_projections, memory_budget_bytes=budget
        )
        assert 1 <= chunk <= num_projections
        assert chunk_working_set_bytes(PLAN_GEOMETRY, chunk) <= budget

    @settings(max_examples=100, deadline=None)
    @given(budget=st.integers(min_value=1))
    def test_too_small_budget_raises_not_thrashes(self, budget):
        budget = budget % PER_PROJECTION  # always below one projection
        if budget == 0:
            budget = 1
        with pytest.raises(ValueError, match="raise the budget to at least"):
            resolve_chunk_size(
                PLAN_GEOMETRY, 24, memory_budget_bytes=budget
            )

    @settings(max_examples=100, deadline=None)
    @given(
        chunk_size=st.integers(min_value=2, max_value=64),
        headroom=st.floats(min_value=1.0, max_value=1.999),
    )
    def test_explicit_chunk_over_budget_is_rejected_not_shrunk(
        self, chunk_size, headroom
    ):
        budget = int(headroom * PER_PROJECTION)  # fits 1, never chunk_size
        with pytest.raises(ValueError, match="largest chunk that fits"):
            resolve_chunk_size(
                PLAN_GEOMETRY, 500,
                chunk_size=chunk_size, memory_budget_bytes=budget,
            )

    def test_defaults_and_caps(self):
        assert resolve_chunk_size(PLAN_GEOMETRY, 100) == DEFAULT_CHUNK_SIZE
        assert resolve_chunk_size(PLAN_GEOMETRY, 5) == 5
        assert resolve_chunk_size(PLAN_GEOMETRY, 100, chunk_size=7) == 7
        budget = 3 * PER_PROJECTION
        assert resolve_chunk_size(
            PLAN_GEOMETRY, 100, memory_budget_bytes=budget
        ) == 3
        assert resolve_chunk_size(
            PLAN_GEOMETRY, 2, memory_budget_bytes=budget
        ) == 2

    @pytest.mark.parametrize("name, value", [
        ("chunk_size", 2.5),
        ("chunk_size", True),
        ("memory_budget_bytes", 1.5e6),
        ("memory_budget_bytes", True),
    ])
    def test_keyword_knobs_are_refused_like_plan_fields(self, name, value):
        """A bool or non-integer knob is an error on the keyword surface, in
        the plan's words — never truncated to a smaller chunk or budget."""
        message = f"{name} must be a positive integer"
        with pytest.raises(ValueError, match=message):
            StreamingReconstructor(PLAN_GEOMETRY, **{name: value})
        with pytest.raises(ValueError, match=message):
            resolve_chunk_size(PLAN_GEOMETRY, 24, **{name: value})
        with pytest.raises(ValueError, match=message):
            ReconstructionPlan(
                geometry=PLAN_GEOMETRY, streaming=True, **{name: value}
            ).validate()

    def test_whole_stack_estimate_scales_with_projections(self):
        assert whole_stack_working_set_bytes(PLAN_GEOMETRY, 24) == (
            24 * PER_PROJECTION
        )
        assert whole_stack_working_set_bytes(PLAN_GEOMETRY) == (
            PLAN_GEOMETRY.np_ * PER_PROJECTION
        )

    @pytest.mark.parametrize("text, expected", [
        ("268435456", 268435456),
        ("64MiB", 64 << 20),
        ("64mb", 64 << 20),
        ("1.5G", 3 << 29),
        ("2k", 2048),
        ("512B", 512),
    ])
    def test_parse_byte_size(self, text, expected):
        assert parse_byte_size(text) == expected

    @pytest.mark.parametrize("text", ["0", "0.0MiB", "12QB", "lots", ""])
    def test_parse_byte_size_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_byte_size(text)


# --------------------------------------------------------------------------- #
# Online source: overlap with acquisition, loud fault semantics
# --------------------------------------------------------------------------- #
def online_reconstruct(stack, geometry, buffer, *, order=None, chunk_size=7,
                       timeout=10.0, reorder_window=None):
    """Reconstruct from a producer thread feeding the buffer."""
    producer = threading.Thread(
        target=stream_stack, args=(stack, buffer), kwargs={"order": order}
    )
    producer.start()
    try:
        source = OnlineChunkSource(
            buffer, geometry.np_, timeout=timeout,
            reorder_window=reorder_window,
        )
        return reconstruct_streaming(
            source, geometry, backend="vectorized", chunk_size=chunk_size
        )
    finally:
        buffer.close()
        producer.join(timeout=10.0)
        assert not producer.is_alive()


class TestOnlineSource:
    def test_wraparound_at_capacity_equals_chunk_size(self, whole_stack_volumes):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        buffer = CircularBuffer(capacity=7)
        result = online_reconstruct(stack, geometry, buffer, chunk_size=7)
        np.testing.assert_array_equal(
            result.volume.data,
            whole_stack_volumes("vectorized", "full_scan", "float32"),
        )
        # The producer really pushed the whole acquisition through a
        # buffer of one chunk: it wrapped (Np/capacity times) and never
        # held more than its capacity.
        assert buffer.total_put == geometry.np_
        assert buffer.high_watermark <= 7

    def test_out_of_order_within_window_reconstructs_exactly(
        self, whole_stack_volumes
    ):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        order = list(range(geometry.np_))
        for i in range(0, geometry.np_ - 1, 2):  # swap adjacent pairs
            order[i], order[i + 1] = order[i + 1], order[i]
        result = online_reconstruct(
            stack, geometry, CircularBuffer(capacity=7), order=order
        )
        np.testing.assert_array_equal(
            result.volume.data,
            whole_stack_volumes("vectorized", "full_scan", "float32"),
        )

    def test_reordering_beyond_window_fails_loudly(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        with pytest.raises(StreamingError, match="reorder window"):
            online_reconstruct(
                stack, geometry, CircularBuffer(capacity=8),
                order=list(reversed(range(geometry.np_))),
                reorder_window=2,
            )

    def test_early_close_is_an_error_not_a_partial_volume(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        partial = ProjectionStack(
            data=stack.data[:10], angles=stack.angles[:10]
        )
        with pytest.raises(StreamingError, match="refusing"):
            online_reconstruct(partial, geometry, CircularBuffer(capacity=7))

    def test_stalled_producer_times_out(self):
        geometry, _, _ = scenario_case("full_scan", "float32")
        source = OnlineChunkSource(
            CircularBuffer(capacity=4), geometry.np_, timeout=0.05
        )
        with pytest.raises(TimeoutError):
            reconstruct_streaming(source, geometry, chunk_size=4)

    def test_duplicate_projection_index_fails_loudly(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        order = [0, 1, 2, 0] + list(range(3, geometry.np_))
        with pytest.raises(StreamingError, match="arrived twice"):
            online_reconstruct(
                stack, geometry, CircularBuffer(capacity=7), order=order
            )

    def test_out_of_range_index_fails_loudly(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        buffer = CircularBuffer(capacity=4)
        buffer.put((geometry.np_ + 3, 0.0, stack.data[0]))
        source = OnlineChunkSource(buffer, geometry.np_, timeout=1.0)
        with pytest.raises(StreamingError, match="outside the promised"):
            reconstruct_streaming(source, geometry, chunk_size=4)

    def test_malformed_stream_item_fails_loudly(self):
        geometry, _, _ = scenario_case("full_scan", "float32")
        buffer = CircularBuffer(capacity=4)
        buffer.put("not a triple")
        source = OnlineChunkSource(buffer, geometry.np_, timeout=1.0)
        with pytest.raises(StreamingError, match="malformed"):
            reconstruct_streaming(source, geometry, chunk_size=4)


# --------------------------------------------------------------------------- #
# The chunk driver on a pool: same bits, same faults, no thread left behind
# --------------------------------------------------------------------------- #
class ScriptedSource(ProjectionChunkSource):
    """A stack's chunks with one scripted misbehaviour at chunk ``at``.

    ``fault`` is an exception to raise instead of delivering that chunk,
    ``"stop"`` to end the stream there, or ``"shift"`` to deliver a window
    the plan did not ask for.
    """

    def __init__(self, stack, fault=None, at=2):
        self.stack, self.fault, self.at = stack, fault, at
        self.closed = False

    @property
    def num_projections(self):
        return self.stack.np_

    def chunks(self, bounds):
        try:
            for index, (start, stop) in enumerate(bounds):
                if index == self.at and self.fault is not None:
                    if self.fault == "stop":
                        return
                    if self.fault == "shift":
                        start, stop = start + 1, stop + 1
                    else:
                        raise self.fault
                yield ProjectionChunk(start, stop, ProjectionStack(
                    data=self.stack.data[start:stop],
                    angles=self.stack.angles[start:stop],
                ))
        finally:
            self.closed = True


@contextmanager
def thread_starts():
    """The names of the threads started inside the block."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    with mock.patch.object(threading.Thread, "start", start):
        yield started


@pytest.fixture(params=[2, 3])
def pooled(request):
    """A 2- or 3-worker backend; the run starts only pool threads."""
    with thread_starts() as started, TiledBackend(workers=request.param) as backend:
        yield backend
    assert not [n for n in started if n.startswith(WORKER_THREAD_PREFIX + "-filter")]


def assert_same_bits(result, expected):
    assert result.dtype == expected.dtype == np.float32
    np.testing.assert_array_equal(result.view(np.uint32), expected.view(np.uint32))


@pytest.mark.usefixtures("executor")
class TestChunkedDriver:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_chunked_on_a_pool_equals_whole_stack(
        self, pooled, scenario, dtype, chunk_size, whole_stack_volumes
    ):
        geometry, stack, _ = scenario_case(scenario, dtype)
        result = reconstruct_streaming(
            stack, geometry, backend=pooled,
            scenario=None if scenario == "full_scan" else scenario,
            chunk_size=chunk_size,
        )
        assert_same_bits(
            result.volume.data, whole_stack_volumes("vectorized", scenario, dtype)
        )

    def test_whole_stack_chunks_per_worker(self, pooled):
        """A whole stack runs in chunks of DEFAULT_CHUNK_SIZE projections per
        worker — 160 views are 64 + 64 + 32 on two workers, 96 + 64 on
        three — with the bits of one chunk on one worker."""
        geometry = default_geometry_for_problem(
            nu=32, nv=24, np_=160, nx=16, ny=16, nz=12
        )
        stack = random_stack(geometry, 4)
        one_chunk = reconstruct_streaming(
            stack, geometry, backend="vectorized", chunk_size=geometry.np_
        )
        whole = StreamingReconstructor(geometry, backend=pooled).reconstruct_stack(stack)
        chunk = min(DEFAULT_CHUNK_SIZE * pooled.workers, geometry.np_)
        assert (whole.chunk_count, whole.chunk_size) == (
            len(plan_chunks(geometry.np_, chunk)), chunk
        )
        assert_same_bits(whole.volume.data, one_chunk.volume.data)

    def test_one_worker_starts_no_thread(self):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        before = set(threading.enumerate())
        with thread_starts() as started:
            for backend in ("reference", "vectorized", TiledBackend(workers=1)):
                reconstruct_streaming(stack, geometry, backend=backend, chunk_size=5)
        assert started == [] and set(threading.enumerate()) == before

    @pytest.mark.parametrize("fault,expected", [
        (StreamingError("scripted source failure"), StreamingError),
        (TimeoutError("scripted stall"), TimeoutError),
        ("stop", StreamingError),
        ("shift", StreamingError),
    ])
    def test_source_faults_surface_unchanged(self, pooled, fault, expected):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        source = ScriptedSource(stack, fault)
        with pytest.raises(expected) as raised:
            reconstruct_streaming(source, geometry, backend=pooled, chunk_size=5)
        if isinstance(fault, Exception):
            assert raised.value is fault  # the original, not a wrapper
        elif fault == "stop":
            assert "refusing to return a partial volume" in str(raised.value)
        else:
            assert "where the plan expected" in str(raised.value)
        assert source.closed, "the source generator was not closed"

    @pytest.mark.parametrize("error", [
        FloatingPointError("scripted accumulator failure"), KeyboardInterrupt(),
    ])
    @pytest.mark.parametrize("at", [1, 3])
    def test_consumer_faults_surface_unchanged(self, pooled, monkeypatch, error, at):
        """The accumulator raising on chunk ``at`` surfaces as itself and
        closes the source."""
        geometry, stack, _ = scenario_case("full_scan", "float32")
        calls = itertools.count(1)
        real = VolumeAccumulator.add_stack

        def add_stack(self, filtered):
            if next(calls) == at:
                raise error
            return real(self, filtered)

        monkeypatch.setattr(VolumeAccumulator, "add_stack", add_stack)
        source = ScriptedSource(stack)
        with pytest.raises(type(error)) as raised:
            reconstruct_streaming(source, geometry, backend=pooled, chunk_size=3)
        assert raised.value is error
        assert source.closed

    def test_filter_failure_surfaces(self, pooled, monkeypatch):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        error = FloatingPointError("scripted filter failure")
        calls = itertools.count(1)
        real = TiledBackend.apply_filter

        def apply_filter(self, *args):
            if next(calls) == 9:
                raise error
            return real(*args)

        monkeypatch.setattr(TiledBackend, "apply_filter", apply_filter)
        with pytest.raises(FloatingPointError) as raised:
            reconstruct_streaming(stack, geometry, backend=pooled, chunk_size=4)
        assert raised.value is error

    def test_online_source_faults(self, pooled):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        # The acquisition dies after ten projections and closes its buffer ...
        buffer = CircularBuffer(capacity=7)
        partial = ProjectionStack(data=stack.data[:10], angles=stack.angles[:10])
        acquisition = threading.Thread(target=stream_stack, args=(partial, buffer))
        acquisition.start()
        with pytest.raises(StreamingError, match="refusing"):
            reconstruct_streaming(
                OnlineChunkSource(buffer, geometry.np_, timeout=10.0),
                geometry, backend=pooled, chunk_size=4,
            )
        acquisition.join(timeout=10.0)
        assert not acquisition.is_alive()
        # ... or dies without a word: the stall is the buffer's TimeoutError.
        with pytest.raises(TimeoutError):
            reconstruct_streaming(
                OnlineChunkSource(CircularBuffer(4), geometry.np_, timeout=0.05),
                geometry, backend=pooled, chunk_size=4,
            )

    def test_online_acquisition_reconstructs_exactly(
        self, pooled, whole_stack_volumes
    ):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        buffer = CircularBuffer(capacity=7)
        acquisition = threading.Thread(target=stream_stack, args=(stack, buffer))
        acquisition.start()
        result = reconstruct_streaming(
            OnlineChunkSource(buffer, geometry.np_, timeout=10.0),
            geometry, backend=pooled, chunk_size=7,
        )
        acquisition.join(timeout=10.0)
        assert not acquisition.is_alive()
        assert_same_bits(
            result.volume.data,
            whole_stack_volumes("vectorized", "full_scan", "float32"),
        )

    def test_stage_times_add_up_inside_the_wall_time(self, pooled):
        geometry, stack, _ = scenario_case("full_scan", "float32")
        start = time.perf_counter()
        result = reconstruct_streaming(stack, geometry, backend=pooled, chunk_size=4)
        wall = time.perf_counter() - start
        assert result.filter_seconds > 0 and result.backprojection_seconds > 0
        assert result.total_seconds == (
            result.filter_seconds + result.backprojection_seconds
        ) <= wall


@pytest.mark.parametrize("problem,workers,z_range", [
    ("96x96x8->64x64x64", 2, None),           # fdk_bp_64's geometry
    ("384x384x8->48x48x48", 2, None),         # stream_pfs_par's
    ("384x384x8->48x48x48", 3, None),
    ("384x384x8->64x64x64", 2, (8, 16)),
])
def test_every_run_filters_and_back_projects_on_all_workers(
    problem, workers, z_range, executor
):
    """Chunked or whole-stack, filter-bound or not, on any executor: each
    stage is dealt to every worker from the calling thread."""
    geometry = plan_for_problem(problem).geometry
    stack = random_stack(geometry, 6)
    shards, dealt = [], []
    real_dispatch = TiledBackend.dispatch_filter

    def dispatch_filter(self, filter_groups, groups):
        dealt.append((self.workers, threading.current_thread().name))
        real_dispatch(self, filter_groups, groups)

    real_accumulator = TiledBackend.accumulator

    def accumulator(self, *args, **kwargs):
        acc = real_accumulator(self, *args, **kwargs)
        shards.append(len(acc._shards))
        return acc

    with mock.patch.object(TiledBackend, "dispatch_filter", dispatch_filter), \
            mock.patch.object(TiledBackend, "accumulator", accumulator):
        with StreamingReconstructor(
            geometry, backend="parallel", workers=workers, z_range=z_range,
            chunk_size=4,
        ) as driver:
            result = driver.reconstruct(StackChunkSource(stack))
            whole = driver.reconstruct_stack(stack)
    assert result.chunk_count == whole.chunk_count == 2
    assert shards == [workers, workers]
    assert dealt == [(workers, threading.current_thread().name)] * 4
    # The oracle: one chunk of the whole stack.
    one_chunk = reconstruct_streaming(
        stack, geometry, backend="parallel", workers=workers, z_range=z_range,
        chunk_size=geometry.np_,
    )
    assert one_chunk.chunk_count == 1
    assert_same_bits(result.volume.data, one_chunk.volume.data)
    assert_same_bits(whole.volume.data, one_chunk.volume.data)


# --------------------------------------------------------------------------- #
# The memory model, measured
# --------------------------------------------------------------------------- #
def traced_chunked_run(np_, chunk):
    """Peak traced bytes of a chunked out-of-core run on two workers, minus
    the volume and the shards' padded projections."""
    n = 16
    geometry = default_geometry_for_problem(nu=96, nv=80, np_=np_, nx=n, ny=n, nz=n)
    pfs = SimulatedPFS()
    write_projection_dataset(pfs, random_stack(geometry, 2))
    with StreamingReconstructor(
        geometry, backend="parallel", workers=2, chunk_size=chunk
    ) as driver:
        driver.reconstruct(PFSChunkSource(pfs))  # warm tables and FFT plans
        tracemalloc.start()
        try:
            result = driver.reconstruct(PFSChunkSource(pfs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.chunk_count == -(-np_ // chunk) > 1
    volume = result.volume.data.nbytes  # the accumulator's, handed over
    padded = 2 * 4 * (geometry.nu + 4) * (geometry.nv + 4)
    return geometry, peak - volume - padded


def working_set_model(geometry, chunk, *, raw_chunks, threads, reference=False):
    """Bytes a run may hold at once beside its volume, per the memory model.

    ``raw_chunks`` chunks of raw rows held by the source, one chunk of
    filtered rows, each filtering thread's row group of buffers and
    transform outputs, and small change.  The tiled kernel's per row:
    float32 + float64 rows, complex128 product, SciPy's complex64 spectrum
    and float64 inverse; the ``reference`` kernel's: the same rows and its
    complex128 spectrum, product and inverse.  The stages run in turn, so
    the back-projection's workspace, which the budget leaves out, is never
    live beside the filter's and stays inside the same bound.
    """
    nv, nu = geometry.nv, geometry.nu
    pad = 1 << int(np.ceil(np.log2(2 * nu)))
    rows = min(GROUP_ROWS, nv)
    transforms = 48 * pad if reference else 24 * (pad // 2 + 1) + 8 * pad
    return (
        (raw_chunks + 1) * chunk * 4 * nv * nu
        + threads * rows * (12 * nu + transforms)
        + (64 << 10)
    )


@pytest.mark.usefixtures("numpy_executor")
def test_chunked_run_stays_under_the_working_set_estimate():
    chunk = 6
    geometry, working = traced_chunked_run(24, chunk)
    # One chunk's raw rows and the source assembling the next from its
    # per-projection reads, on two workers.
    model = working_set_model(geometry, chunk, raw_chunks=2, threads=2)
    assert 0 < working <= model
    # ... which the budget's estimate over-counts by a wide margin,
    assert model <= 0.6 * chunk_working_set_bytes(geometry, chunk)
    # and which does not grow with the acquisition: four times the
    # projections fit the same model.
    assert traced_chunked_run(96, chunk)[1] <= model


def traced_whole_stack_run(geometry, backend, workers, **options):
    """A warm ``reconstruct_stack`` of a random stack under ``tracemalloc``:
    the run, its traced peak, the shards' padded planes, the memory model's
    bytes beside the volume and the default chunk the model holds."""
    stack = random_stack(geometry, 3)
    with StreamingReconstructor(
        geometry, backend=backend, workers=workers, **options
    ) as driver:
        driver.reconstruct_stack(stack)  # warm tables and FFT plans
        tracemalloc.start()
        try:
            result = driver.reconstruct_stack(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        threads = driver.backend.workers
        reference = driver.backend.name == "reference"  # no shards, no padded planes
    chunk = DEFAULT_CHUNK_SIZE * threads
    padded = 0 if reference else threads * 4 * (geometry.nu + 4) * (geometry.nv + 4)
    model = working_set_model(
        geometry, chunk, raw_chunks=0, threads=threads, reference=reference
    )
    return stack, result, peak, padded, model, chunk


@pytest.mark.parametrize("executor,backend,workers,scenario", [
    *[(executor, "vectorized", None, None) for executor in ("native", "numpy")],
    *[(executor, "parallel", 2, None) for executor in ("native", "numpy")],
    ("numpy", "reference", None, None),  # no compiled kernel to choose
    *[(executor, "vectorized", None, "short_scan") for executor in ("native", "numpy")],
], indirect=["executor"])
def test_whole_stack_run_holds_one_chunk_of_filtered_rows(
    executor, backend, workers, scenario
):
    """``reconstruct_stack`` holds one default chunk of filtered rows, never
    a second ``(Np, Nv, Nu)`` stack: its peak fits the chunked model with
    no raw chunk (the rows are views of the caller's stack), which is less
    than the whole stack."""
    n = 16
    geometry = default_geometry_for_problem(nu=96, nv=80, np_=256, nx=n, ny=n, nz=n)
    if scenario is not None:
        geometry = get_scenario(scenario).apply_geometry(geometry)
    stack, result, peak, padded, model, chunk = traced_whole_stack_run(
        geometry, backend, workers, scenario=scenario
    )
    volume = result.volume.data.nbytes  # the accumulator's, handed over
    assert 0 < peak - volume - padded <= model < stack.data.nbytes
    assert result.chunk_size == chunk
    assert result.chunk_count == len(plan_chunks(geometry.np_, chunk)) > 1


#: Each tiled worker's back-projection workspace stays under this budget
#: (``_block_bytes``); the default budget's kernel chunks alone are ~4 MiB.
ONE_VOLUME_BUDGET = 2 << 20


@pytest.mark.parametrize("executor,backend,workers,algorithm,nz", [
    *[(executor, "vectorized", 1, "proposed", 8192) for executor in ("native", "numpy")],
    *[(executor, "parallel", 2, "proposed", 8192) for executor in ("native", "numpy")],
    # No compiled kernel to choose, and no budgeted workspace to outgrow: a
    # quarter of the column keeps the slow oracle's run short.
    ("numpy", "reference", None, "standard", 2048),
], indirect=["executor"])
def test_whole_stack_run_holds_its_volume_once(
    executor, backend, workers, algorithm, nz
):
    """The accumulator hands its buffer over: beside the padded planes and
    what the model gives the stages (one default chunk of filtered rows;
    on the tiled backend, each worker's budgeted workspace), a whole-stack
    run's peak holds one volume, not the buffer and a copy.  A tall 16 x 16
    column makes the volume larger than all of those, so a copy would set
    the peak."""
    geometry = default_geometry_for_problem(nu=64, nv=64, np_=2, nx=16, ny=16, nz=nz)
    if backend != "reference":
        backend = TiledBackend(workers, byte_budget=ONE_VOLUME_BUDGET, name=backend)
    with get_backend(backend) as backend:
        _, result, peak, padded, model, chunk = traced_whole_stack_run(
            geometry, backend, None, algorithm=algorithm
        )
    if backend.name != "reference":  # the stages run in turn
        model = max(model, backend.workers * ONE_VOLUME_BUDGET)
    volume = result.volume.data.nbytes
    assert volume > 4 * geometry.nv * geometry.nu * chunk
    assert volume > 1.5 * model
    assert peak - padded - model <= volume + (16 << 10)


def test_reference_proposed_hand_over_keeps_no_k_major_buffer():
    """Algorithm 4's transpose needs a second buffer for its one call; once
    :meth:`volume` returns, the live accumulator's k-major buffer is gone and
    the traced memory is the handed-over volume alone."""
    geometry = default_geometry_for_problem(nu=32, nv=32, np_=4, nx=32, ny=32, nz=48)
    stack = random_stack(geometry, 4)
    stack.filtered = True
    tracemalloc.start()
    try:
        acc = get_backend("reference").accumulator(geometry, algorithm="proposed")
        acc.add_stack(stack)
        volume = acc.volume()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= volume.data.nbytes + (16 << 10)
    with pytest.raises(RuntimeError, match="already handed over"):
        acc.volume()


# --------------------------------------------------------------------------- #
# Memory-bound out-of-core reconstruction (slow tier)
# --------------------------------------------------------------------------- #
#: A child process reconstructs 256³ from an on-disk PFS dataset under the
#: budget, reporting its own process-lifetime peak RSS.  Subprocess
#: isolation is what makes the RSS measurement meaningful: ru_maxrss is a
#: lifetime high-water mark, so the parent pytest process (which holds
#: whole test fixtures) could never certify a bound.
_MEMORY_BOUND_CHILD = """
import json, sys
import numpy as np
from repro.core import default_geometry_for_problem
from repro.pfs import SimulatedPFS
from repro.pfs.projection_io import projection_object_name
from repro.streaming import PFSChunkSource, StreamingReconstructor

root, budget, chunk = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
geometry = default_geometry_for_problem(
    nu=320, nv=320, np_=64, nx=256, ny=256, nz=256
)
pfs = SimulatedPFS(root_dir=root)
pfs.write_array("projections/angles", geometry.angles)
rng = np.random.default_rng(11)
for index in range(geometry.np_):
    pfs.write_array(
        projection_object_name(index),
        rng.standard_normal((geometry.nv, geometry.nu)).astype(np.float32),
    )
with StreamingReconstructor(
    geometry, backend="blocked", chunk_size=chunk, memory_budget_bytes=budget,
) as reconstructor:
    result = reconstructor.reconstruct(PFSChunkSource(pfs))
print(json.dumps({
    "peak_rss_bytes": result.peak_rss_bytes,
    "chunks": result.chunk_count,
    "working_set_bytes": result.working_set_bytes,
    "checksum": float(np.abs(result.volume.data).sum()),
}))
"""


@pytest.mark.slow
def test_256_cube_reconstruction_under_budget_whole_stack_cannot_meet(tmp_path):
    geometry = default_geometry_for_problem(
        nu=320, nv=320, np_=64, nx=256, ny=256, nz=256
    )
    budget = 224 << 20  # 224 MiB
    chunk = 8
    # The premise: the whole-stack filtering working set provably exceeds
    # the budget, while the streamed chunk fits with room to spare.
    assert whole_stack_working_set_bytes(geometry) > budget
    assert chunk_working_set_bytes(geometry, chunk) <= budget
    completed = subprocess.run(
        [sys.executable, "-c", _MEMORY_BOUND_CHILD,
         str(tmp_path / "pfs"), str(budget), str(chunk)],
        capture_output=True, text=True, timeout=600,
        cwd=str(Path(__file__).parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["chunks"] == 8
    assert report["checksum"] > 0  # a real volume came back
    # The acceptance bound: the streaming process peaks within 1.5x of
    # the budget, where the whole-stack path could not even hold its
    # filtering intermediates.
    assert report["peak_rss_bytes"] <= 1.5 * budget, (
        f"peak RSS {report['peak_rss_bytes']} exceeded "
        f"1.5 x budget ({budget})"
    )


# --------------------------------------------------------------------------- #
# Plan / Session / service / CLI seams
# --------------------------------------------------------------------------- #
class TestStreamingSeams:
    def test_session_routes_streaming_plans(
        self, small_geometry, small_projections
    ):
        whole = run_plan(
            ReconstructionPlan(geometry=small_geometry, backend="vectorized"),
            small_projections,
        )
        streamed = run_plan(
            ReconstructionPlan(
                geometry=small_geometry, backend="parallel", workers=2,
                streaming=True, chunk_size=7,
            ),
            small_projections,
        )
        np.testing.assert_array_equal(
            streamed.volume.data, whole.volume.data
        )
        assert streamed.filter_seconds + streamed.backprojection_seconds <= (
            streamed.wall_seconds
        )
        assert streamed.details["streaming"] is True
        assert streamed.details["chunk_size"] == 7
        assert streamed.details["chunks"] == 4  # 24 projections / 7
        assert streamed.details["peak_rss_bytes"] > 0

    def test_session_streaming_scenario_plan(
        self, small_geometry, small_projections
    ):
        whole = run_plan(
            ReconstructionPlan(
                geometry=small_geometry, scenario="short_scan",
                backend="blocked",
            ),
            small_projections,
        )
        streamed = run_plan(
            ReconstructionPlan(
                geometry=small_geometry, scenario="short_scan",
                backend="blocked", streaming=True, chunk_size=5,
            ),
            small_projections,
        )
        np.testing.assert_array_equal(
            streamed.volume.data, whole.volume.data
        )

    def test_streaming_session_emits_chunk_spans_and_metrics(
        self, small_geometry, small_projections
    ):
        plan = ReconstructionPlan(
            geometry=small_geometry, streaming=True, chunk_size=6
        )
        tracer = Tracer()
        with Session(plan, tracer=tracer) as session:
            result = session.run(small_projections)
        names = [span.name for span in tracer.spans()]
        chunks = result.details["chunks"]
        assert names.count("filter.chunk") == chunks
        assert names.count("backproject.chunk") == chunks
        obs = result.details["streaming_obs"]
        assert obs["streaming.chunks"] == chunks
        assert obs["streaming.peak_rss_bytes"] > 0
        # Chunk spans carry their global projection window.
        starts = sorted(
            span.attrs["start"] for span in tracer.spans()
            if span.name == "filter.chunk"
        )
        assert starts == [0, 6, 12, 18]

    def test_chunk_spans_follow_the_plan_not_the_chunk_count(self):
        """A streaming plan that resolves to one chunk still records its
        chunk spans; a whole-stack plan records only the stage spans, one
        ``filter`` and one ``backproject`` per default chunk (72 views on
        one worker: 32 + 32 + 8), each a child of ``run`` on its thread."""
        geometry = default_geometry_for_problem(
            nu=48, nv=48, np_=72, nx=16, ny=16, nz=16
        )
        stack = random_stack(geometry, 5)

        def span_names(**fields):
            tracer = Tracer()
            plan = ReconstructionPlan(geometry=geometry, backend="blocked", **fields)
            with Session(plan, tracer=tracer) as session:
                result = session.run(stack)
            return result, tracer.spans()

        result, spans = span_names(streaming=True, chunk_size=geometry.np_)
        names = [span.name for span in spans]
        assert result.details["chunks"] == 1
        assert names.count("filter.chunk") == names.count("backproject.chunk") == 1
        assert result.details["streaming_obs"]["streaming.chunks"] == 1

        result, spans = span_names()
        names = [span.name for span in spans]
        assert "streaming" not in result.details
        assert "filter.chunk" not in names and "backproject.chunk" not in names
        assert names.count("filter") == names.count("backproject") == 3
        (run,) = [span for span in spans if span.name == "run"]
        stages = [span for span in spans if span.name in ("filter", "backproject")]
        assert {span.parent_id for span in stages} == {run.span_id}
        assert {span.thread for span in stages} == {run.thread}
        assert [
            span.attrs["projections"] for span in stages if span.name == "filter"
        ] == [32, 32, 8]
        stage_attrs = {
            span.name: span.attrs for span in spans
            if span.name in ("filter", "backproject")
        }
        assert stage_attrs["filter"]["backend"] == "blocked"
        assert stage_attrs["backproject"]["backend"] == "blocked"

    def test_describe_names_the_chunk_a_run_executes(self):
        """A streaming plan with neither knob runs DEFAULT_CHUNK_SIZE per
        backend worker, and ``describe`` says so."""
        geometry = default_geometry_for_problem(
            nu=32, nv=24, np_=100, nx=16, ny=16, nz=12
        )
        stack = random_stack(geometry, 8)
        for fields, workers in (({"backend": "vectorized"}, 1),
                                ({"backend": "parallel", "workers": 2}, 2)):
            plan = ReconstructionPlan(geometry=geometry, streaming=True, **fields)
            result = run_plan(plan, stack)
            assert result.details["chunk_size"] == plan.describe()["chunk_size"] == (
                DEFAULT_CHUNK_SIZE * workers
            )

    def test_streaming_reconstructor_from_plan_matches_session(
        self, small_geometry, small_projections
    ):
        plan = ReconstructionPlan(
            geometry=small_geometry, backend="vectorized",
            streaming=True, memory_budget_bytes=64 << 20,
        )
        direct = StreamingReconstructor.from_plan(plan).reconstruct(
            StackChunkSource(small_projections)
        )
        via_session = run_plan(plan, small_projections)
        np.testing.assert_array_equal(
            direct.volume.data, via_session.volume.data
        )
        assert direct.memory_budget_bytes == 64 << 20
        assert direct.working_set_bytes <= 64 << 20

    def test_workers_rejected_on_backend_instances(self):
        with pytest.raises(ValueError, match="by name"):
            StreamingReconstructor(
                BASE, backend=get_backend("vectorized"), workers=2
            )


class TestStreamingCLI:
    PROBLEM = "48x48x24->32x32x32"

    def run_cli(self, *argv, capsys):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_stream_flag_matches_whole_stack_output(self, tmp_path, capsys):
        whole_path = tmp_path / "whole.npy"
        stream_path = tmp_path / "stream.npy"
        code, _, _ = self.run_cli(
            "reconstruct", "--problem", self.PROBLEM,
            "--backend", "vectorized", "--output", str(whole_path),
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = self.run_cli(
            "reconstruct", "--problem", self.PROBLEM,
            "--backend", "vectorized", "--stream", "--chunk-size", "7",
            "--output", str(stream_path),
            capsys=capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["streaming"] is True
        assert report["chunks"] == 4
        np.testing.assert_array_equal(
            np.load(stream_path), np.load(whole_path)
        )

    @pytest.mark.parametrize("argv, match", [
        (("--stream", "--chunk-size", "0"), "positive"),
        (("--stream", "--chunk-size", "-3"), "positive"),
        (("--stream", "--memory-budget=0"), "positive"),
        (("--stream", "--memory-budget", "12XB"), "suffix"),
        (("--stream", "--memory-budget", "junk"), "cannot parse"),
        (("--stream", "--memory-budget", "1k"), "raise the budget"),
        (("--chunk-size", "4"), "streaming"),
        (("--memory-budget", "64MiB"), "streaming"),
    ])
    def test_bad_streaming_flags_exit_2(self, argv, match, capsys):
        code, _, err = self.run_cli(
            "reconstruct", "--problem", self.PROBLEM, *argv, capsys=capsys
        )
        assert code == 2
        assert match in err

    def test_plan_emit_and_reconstruct_round_trip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code, _, _ = self.run_cli(
            "plan", "emit", "--problem", self.PROBLEM,
            "--stream", "--memory-budget", "64MiB",
            "-o", str(plan_path),
            capsys=capsys,
        )
        assert code == 0
        plan = ReconstructionPlan.from_json(plan_path.read_text())
        assert plan.streaming is True
        assert plan.memory_budget_bytes == 64 << 20
        code, out, _ = self.run_cli(
            "reconstruct", "--plan", str(plan_path), capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["streaming"] is True

    def test_plan_file_conflicts_with_stream_flags(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_for_problem(self.PROBLEM).to_json())
        code, _, err = self.run_cli(
            "reconstruct", "--plan", str(plan_path), "--stream",
            capsys=capsys,
        )
        assert code == 2
        assert "--stream" in err

    def test_plan_validate_rejects_streaming_service_plan(
        self, tmp_path, capsys
    ):
        plan = plan_for_problem(
            self.PROBLEM, target="service"
        ).with_updates(streaming=True, chunk_size=4)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        code, _, err = self.run_cli(
            "plan", "validate", str(plan_path), capsys=capsys
        )
        assert code == 2
        assert "only wired for the fdk target" in err

    def test_plan_describe_shows_streaming_fields(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            plan_for_problem(self.PROBLEM, streaming=True, chunk_size=6).to_json()
        )
        code, out, _ = self.run_cli(
            "plan", "describe", str(plan_path), capsys=capsys
        )
        assert code == 0
        assert "streaming" in out
        assert "chunk_size" in out


class TestChunkSources:
    def test_stack_chunks_are_views_not_copies(self, small_projections):
        source = StackChunkSource(small_projections)
        chunk = next(iter(source.chunks([(3, 9)])))
        assert chunk.stack.np_ == 6
        assert np.shares_memory(chunk.stack.data, small_projections.data)

    def test_chunk_bounds_validation(self, small_projections):
        with pytest.raises(ValueError, match="invalid chunk bounds"):
            from repro.streaming import ProjectionChunk

            ProjectionChunk(start=5, stop=5, stack=small_projections)

    def test_pfs_source_missing_projection_fails_loudly(self, small_projections):
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, small_projections)
        pfs.delete("projections/000005")
        source = PFSChunkSource(pfs)
        with pytest.raises(StreamingError, match="missing projections"):
            list(source.chunks(plan_chunks(source.num_projections, 7)))

    def test_empty_pfs_dataset_rejected(self):
        with pytest.raises((StreamingError, KeyError)):
            PFSChunkSource(SimulatedPFS())

    def test_metrics_registry_counts_chunks(self, small_geometry, small_projections):
        metrics = MetricsRegistry()
        reconstructor = StreamingReconstructor(
            small_geometry, backend="vectorized", chunk_size=6,
            metrics=metrics,
        )
        reconstructor.reconstruct(StackChunkSource(small_projections))
        snapshot = metrics.snapshot()
        assert snapshot["streaming.chunks"] == 4
        assert snapshot["streaming.peak_rss_bytes"] > 0
