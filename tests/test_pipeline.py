"""Tests for the iFDK pipeline: config, decomposition, the circular buffer,
the overlap factor, perf model."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.bench import PROBLEM_4K, PROBLEM_8K
from repro.core import default_geometry_for_problem
from repro.core.types import ReconstructionProblem, problem_from_string
from repro.gpusim import TESLA_V100
from repro.obs import Tracer
from repro.pipeline import (
    ABCI_MICROBENCHMARKS,
    BufferClosed,
    CircularBuffer,
    Decomposition,
    IFDKConfig,
    IFDKPerformanceModel,
    choose_grid,
)
from repro.pipeline.config import fits_device_memory, subvolume_bytes
from repro.pipeline.perfmodel import MicroBenchmarks
from repro.pipeline.perfmodel import ABCI_PROVENANCE
from repro.pipeline.rank_runtime import _overlap_delta


@pytest.fixture()
def config(small_geometry) -> IFDKConfig:
    return IFDKConfig(geometry=small_geometry, rows=4, columns=2)


class TestChooseGrid:
    def test_4k_problem_needs_r32(self):
        # Section 5.3: R=32 for the 4096^3 volume with 8 GB sub-volumes.
        rows, columns = choose_grid(PROBLEM_4K, 128)
        assert rows == 32
        assert columns == 4

    def test_8k_problem_needs_r256(self):
        rows, columns = choose_grid(PROBLEM_8K, 2048)
        assert rows == 256
        assert columns == 8

    def test_r_minimized_when_volume_small(self):
        problem = ReconstructionProblem(nu=512, nv=512, np_=256, nx=256, ny=256, nz=256)
        rows, columns = choose_grid(problem, 16)
        assert rows == 1 and columns == 16

    def test_infeasible_raises(self):
        huge = ReconstructionProblem(
            nu=2048, nv=2048, np_=4096, nx=16384, ny=16384, nz=16384
        )
        with pytest.raises(ValueError):
            choose_grid(huge, 2)  # 16 TB volume over 2 GPUs cannot fit

    def test_subvolume_bytes(self):
        assert subvolume_bytes(PROBLEM_4K, 32) == 4 * 4096**3 // 32

    def test_section_415_rule(self):
        # An 8 GiB sub-volume next to a 32 x 2k^2 batch fits in a V100's
        # 16 GiB; a 16 GiB one does not.
        problem = ReconstructionProblem(nu=2048, nv=2048, np_=4096, nx=2048, ny=2048, nz=2048)
        assert subvolume_bytes(problem, 4) == 8 * 2**30
        assert fits_device_memory(problem, 4, device=TESLA_V100, projection_batch=32)
        assert not fits_device_memory(problem, 2, device=TESLA_V100, projection_batch=32)
        assert choose_grid(problem, 8) == (4, 2)


class TestIFDKConfig:
    def test_derived_quantities(self, config):
        assert config.n_ranks == 8
        assert config.n_gpus == 8
        assert config.n_nodes == 2
        assert config.projections_per_rank == config.geometry.np_ // 8
        assert config.projections_per_column == config.geometry.np_ // 2
        assert config.slab_thickness == config.geometry.nz // 4
        assert config.problem.np_ == config.geometry.np_

    def test_rejects_indivisible_projections(self, small_geometry):
        with pytest.raises(ValueError):
            IFDKConfig(geometry=small_geometry, rows=5, columns=2)

    def test_rejects_indivisible_slabs(self):
        geo = default_geometry_for_problem(nu=32, nv=32, np_=12, nx=16, ny=16, nz=30)
        with pytest.raises(ValueError):
            IFDKConfig(geometry=geo, rows=4, columns=3)

    def test_device_memory_validation(self):
        big = default_geometry_for_problem(nu=64, nv=64, np_=8, nx=2048, ny=2048, nz=2048)
        config = IFDKConfig(geometry=big, rows=1, columns=8)
        with pytest.raises(ValueError):
            config.validate_device_memory()


class TestDecomposition:
    def test_complete_partition(self, config):
        Decomposition(config).verify_complete()

    def test_rank_assignment_matches_figure3(self, config):
        dec = Decomposition(config)
        a = dec.assignment(5)  # column-major: rank 5 = row 1, column 1
        assert (a.row, a.column) == (1, 1)
        assert a.z_range == (8, 16)
        per_column = config.projections_per_column
        assert a.column_projections[0] == per_column
        # Figure 3a itself: 32 ranks, R=8, C=4 -> rank 9 sits at row 1, column 1.
        geometry = default_geometry_for_problem(nu=8, nv=8, np_=32, nx=4, ny=4, nz=8)
        fig3a = Decomposition(IFDKConfig(geometry=geometry, rows=8, columns=4))
        a = fig3a.assignment(9)
        assert (a.row, a.column) == (1, 1)
        assert [fig3a.assignment(r).column for r in range(8, 16)] == [1] * 8

    def test_round_indices_cover_column_block(self, config):
        dec = Decomposition(config)
        start, stop = dec.column_block(1)
        seen = []
        for round_index in range(config.projections_per_rank):
            seen.extend(dec.allgather_round_indices(1, round_index))
        assert sorted(seen) == list(range(start, stop))

    def test_owned_projections_interleave_rows(self, config):
        dec = Decomposition(config)
        r0 = dec.projections_for_rank(0, 0)
        r1 = dec.projections_for_rank(1, 0)
        assert set(r0).isdisjoint(r1)
        assert r1[0] == r0[0] + 1

    def test_bounds_checked(self, config):
        dec = Decomposition(config)
        with pytest.raises(ValueError):
            dec.column_block(99)
        with pytest.raises(ValueError):
            dec.z_range_for_row(-1)
        with pytest.raises(ValueError):
            dec.allgather_round_indices(0, 10_000)


class TestCircularBuffer:
    def test_fifo_order(self):
        buf = CircularBuffer(capacity=4)
        for i in range(3):
            buf.put(i)
        assert [buf.get() for _ in range(3)] == [0, 1, 2]

    def test_close_drains_then_none(self):
        buf = CircularBuffer(capacity=4)
        buf.put("a")
        buf.close()
        assert buf.get() == "a"
        assert buf.get() is None

    def test_put_after_close_raises(self):
        buf = CircularBuffer(capacity=2)
        buf.close()
        with pytest.raises(BufferClosed):
            buf.put(1)

    def test_backpressure_blocks_until_consumed(self):
        buf = CircularBuffer(capacity=1)
        buf.put(0)
        release_times = []

        def consumer():
            time.sleep(0.05)
            buf.get()
            release_times.append(time.perf_counter())

        thread = threading.Thread(target=consumer)
        thread.start()
        start = time.perf_counter()
        buf.put(1)  # must wait for the consumer
        elapsed = time.perf_counter() - start
        thread.join()
        assert elapsed >= 0.04

    def test_iteration(self):
        buf = CircularBuffer(capacity=8)
        for i in range(5):
            buf.put(i)
        buf.close()
        assert list(buf) == [0, 1, 2, 3, 4]

    def test_statistics(self):
        buf = CircularBuffer(capacity=4)
        buf.put(1)
        buf.put(2)
        buf.get()
        assert buf.total_put == 2 and buf.total_got == 1
        assert buf.high_watermark == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CircularBuffer(capacity=0)


class TestOverlapDelta:
    def test_greater_than_one_for_parallel_stages(self):
        tracer = Tracer()
        # Two fully-overlapping synthetic spans.
        tracer.record("a", 100.0, 101.0)
        tracer.record("b", 100.0, 101.0)
        assert _overlap_delta(tracer.spans(), ("a", "b")) == pytest.approx(2.0)

    def test_one_for_serial_stages(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 1.0)
        tracer.record("b", 1.0, 2.0)
        assert _overlap_delta(tracer.spans(), ("a", "b")) == pytest.approx(1.0)

    def test_only_the_named_stages_count(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 1.0)
        tracer.record("tail", 1.0, 5.0)
        assert _overlap_delta(tracer.spans(), ("a",)) == pytest.approx(1.0)
        assert _overlap_delta(tracer.spans(), ("absent",)) == 0.0


class TestPerformanceModel:
    @pytest.fixture(scope="class")
    def model(self):
        return IFDKPerformanceModel(ABCI_MICROBENCHMARKS)

    def test_store_matches_paper_anchor(self, model):
        # 256 GB at 28.5 GB/s ~ 9.0 s (Section 5.3.3, Eq. 16).
        assert model.t_store(PROBLEM_4K) == pytest.approx(9.0, rel=0.08)
        volume_256gb = problem_from_string("2048x2048x4096->4000x4000x4000")
        assert volume_256gb.output_bytes() == 256 * 10**9
        assert model.t_store(volume_256gb) == pytest.approx(9.0, rel=0.02)

    def test_allgather_matches_paper_anchor(self, model):
        # Table 5: one ring AllGather of a 16 MB projection across a 32-rank
        # column ~0.25 s; Eq. 10 charges one per projection a rank handles.
        def per_operation(rows):
            return model.t_allgather(PROBLEM_4K, rows, 1) * rows / PROBLEM_4K.np_

        assert 0.15 < per_operation(32) < 0.4
        assert per_operation(256) > 7 * per_operation(32)
        assert model.t_allgather(PROBLEM_4K, rows=1, columns=8) == 0.0

    def test_d2h_matches_paper_anchor(self, model):
        # Paper: T_D2H ~ 2.6 s for the 4K volume with R = 32.
        assert model.t_d2h(PROBLEM_4K, rows=32) == pytest.approx(2.6, rel=0.1)

    def test_reduce_matches_paper_anchor(self, model):
        # Reduce of an 8 GB sub-volume ~ 2.7 s.
        assert model.t_reduce(PROBLEM_4K, rows=32, columns=4) == pytest.approx(2.7, rel=0.15)

    def test_reduce_zero_when_single_column(self, model):
        assert model.t_reduce(PROBLEM_4K, rows=32, columns=1) == 0.0

    def test_compute_term_shrinks_with_more_gpus(self, model):
        t_small = model.breakdown(PROBLEM_4K, rows=32, columns=1).t_compute
        t_large = model.breakdown(PROBLEM_4K, rows=32, columns=64).t_compute
        assert t_large < t_small / 10

    def test_post_term_independent_of_columns(self, model):
        a = model.breakdown(PROBLEM_4K, rows=32, columns=2)
        b = model.breakdown(PROBLEM_4K, rows=32, columns=32)
        assert a.t_d2h == pytest.approx(b.t_d2h)
        assert a.t_store == pytest.approx(b.t_store)

    def test_table5_compute_breakdown_shape(self, model):
        # 4K with 32 GPUs (R=32, C=1): T_bp dominates and T_flt is tiny (Table 5).
        b = model.breakdown(PROBLEM_4K, rows=32, columns=1)
        assert b.t_flt < 3.0
        assert b.t_bp > b.t_allgather
        assert b.t_compute >= b.t_bp
        assert b.delta >= 1.0

    def test_4k_runtime_order_of_magnitude(self, model):
        # Paper: the 4K problem completes within ~30 s on 2048 GPUs (including I/O).
        runtime = model.runtime(PROBLEM_4K, rows=32, columns=64)
        assert 15.0 < runtime < 45.0

    def test_8k_runtime_order_of_magnitude(self, model):
        # Paper: the 8K problem completes within ~2 minutes on 2048 GPUs.
        runtime = model.runtime(PROBLEM_8K, rows=256, columns=8)
        assert 80.0 < runtime < 160.0

    def test_gups_increase_with_gpus(self, model):
        # Figure 6 shape: throughput grows with GPU count and eventually
        # saturates once T_post (D2H + reduce + store) dominates.
        series = [
            model.gups(PROBLEM_4K, rows=32, columns=c) for c in (1, 2, 4, 8, 16, 32, 64)
        ]
        assert all(b >= a * 0.999 for a, b in zip(series, series[1:]))
        assert series[-1] > 3 * series[0]

    def test_invalid_grid_rejected(self, model):
        with pytest.raises(ValueError):
            model.breakdown(PROBLEM_4K, rows=0, columns=1)

    def test_cache_hit_drops_filtering_from_eq17(self, model):
        for rows, columns in ((32, 1), (32, 64), (4, 4)):
            full = model.breakdown(PROBLEM_4K, rows, columns)
            hit = full.without_filtering()
            assert hit.t_flt == 0.0
            assert hit.t_compute == max(full.t_load, full.t_allgather, full.t_bp)
            assert hit.t_runtime == hit.t_compute + full.t_post

    @pytest.mark.parametrize("field, value", [
        ("th_bp", -1.0),
        ("th_bp", float("nan")),
        ("bw_store", float("inf")),
        ("th_flt", float("-inf")),
        ("bw_load", 0.0),
        ("n_pcie", 0),
        ("gpus_per_node", True),
    ])
    def test_microbenchmark_validation(self, field, value):
        # A NaN T_bp used to vanish inside Eq. 17's max (PROBLEM_4K on 32x4
        # predicted 22.9 s instead of 31.6 s); an infinite BW_store gave
        # T_store = 0.
        with pytest.raises(ValueError, match=f"^{field} must be a finite positive number"):
            ABCI_MICROBENCHMARKS.scaled(**{field: value})

    def test_every_profile_field_has_provenance(self):
        assert set(ABCI_PROVENANCE) == {f.name for f in dataclasses.fields(MicroBenchmarks)}
        for name, (unit, source) in ABCI_PROVENANCE.items():
            assert unit and source, name
        assert ABCI_MICROBENCHMARKS.bw_store == pytest.approx(28.5e9)
