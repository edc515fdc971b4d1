"""Tests for the benchmark workload definitions and reporting helpers."""

from __future__ import annotations

from repro.bench import (
    PROBLEM_4K,
    PROBLEM_8K,
    TABLE4_PROBLEMS,
    figure6_workloads,
    format_scaling_figure,
    format_table,
    paper_reference_table4,
    scaled_for_functional_run,
    strong_scaling_4k,
    strong_scaling_8k,
    weak_scaling_4k,
    weak_scaling_8k,
)


class TestWorkloads:
    def test_table4_has_fifteen_problems(self):
        assert len(TABLE4_PROBLEMS) == 15
        assert all(str(p) in paper_reference_table4 for p in TABLE4_PROBLEMS)

    def test_4k_and_8k_definitions(self):
        assert (PROBLEM_4K.nx, PROBLEM_4K.nz) == (4096, 4096)
        assert PROBLEM_8K.output_bytes() == 4 * 8192**3
        assert PROBLEM_4K.input_pixels == 2048 * 2048 * 4096

    def test_strong_scaling_grids(self):
        points = strong_scaling_4k()
        assert [p.n_gpus for p in points] == [32, 64, 128, 256, 512, 1024, 2048]
        assert all(p.rows == 32 for p in points)
        points8k = strong_scaling_8k()
        assert all(p.rows == 256 for p in points8k)
        assert points8k[0].columns == 1

    def test_weak_scaling_projection_counts(self):
        points = weak_scaling_4k()
        assert points[0].problem.np_ == 16 * 32
        assert points[-1].problem.np_ == 16 * 2048
        points8k = weak_scaling_8k()
        assert points8k[-1].problem.np_ == 4 * 2048

    def test_figure6_series_skip_infeasible_gpu_counts(self):
        series = figure6_workloads()
        assert {w.n_gpus for w in series["2048^3"]} >= {4, 8, 2048}
        # 8192^3 needs at least R=256 GPUs.
        assert min(w.n_gpus for w in series["8192^3"]) == 256

    def test_scaled_for_functional_run_respects_limits(self):
        workload = strong_scaling_4k()[3]  # 256 GPUs
        problem, rows, columns = scaled_for_functional_run(workload, max_ranks=8)
        assert rows * columns <= 8
        assert problem.nx <= 64 and problem.np_ % (rows * columns) == 0


class TestReporting:
    def test_format_table_renders_all_columns(self):
        rows = [{"a": 1.234, "b": "x"}, {"a": float("nan"), "b": "y"}]
        text = format_table(rows, ["a", "b"], title="T")
        assert "T" in text and "N/A" in text and "1.2" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], ["a"], title="T")

    def test_format_scaling_figure(self):
        series = {"4096^3": [{"gpus": 32, "gups": 5851.0}, {"gpus": 64, "gups": 9134.0}]}
        text = format_scaling_figure(series, x_key="gpus", y_key="gups", title="Fig6")
        assert "32:5851.0" in text and "Fig6" in text

    def test_reference_table_contains_na_entries(self):
        assert paper_reference_table4["512x512x1024->1024x1024x2048"]["RTK-32"] is None
