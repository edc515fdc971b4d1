"""Workload definitions and reporting helpers shared by the benchmark
harness that regenerates the paper's tables and figures.  The calibration
constants live with the model, in :mod:`repro.pipeline.perfmodel`."""

from .reporting import format_scaling_figure, format_table, paper_reference_table4
from .trajectory import (
    HISTORY_LIMIT,
    git_sha,
    trajectory_entry,
)
from .workloads import (
    PROBLEM_2K,
    PROBLEM_4K,
    PROBLEM_8K,
    TABLE4_PROBLEMS,
    figure6_workloads,
    scaled_for_functional_run,
    strong_scaling_4k,
    strong_scaling_8k,
    weak_scaling_4k,
    weak_scaling_8k,
)

__all__ = [
    "HISTORY_LIMIT",
    "PROBLEM_2K",
    "PROBLEM_4K",
    "PROBLEM_8K",
    "TABLE4_PROBLEMS",
    "figure6_workloads",
    "format_scaling_figure",
    "format_table",
    "git_sha",
    "paper_reference_table4",
    "scaled_for_functional_run",
    "strong_scaling_4k",
    "strong_scaling_8k",
    "trajectory_entry",
    "weak_scaling_4k",
    "weak_scaling_8k",
]
