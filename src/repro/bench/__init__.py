"""Workload definitions and reporting helpers shared by the benchmark
harness that regenerates the paper's tables and figures.  The calibration
constants live with the model, in :mod:`repro.pipeline.perfmodel`."""

from .reporting import format_scaling_figure, format_table, paper_reference_table4
from .trajectory import (
    HISTORY_LIMIT,
    REGRESSION_THRESHOLD,
    check_regression,
    format_trajectory,
    git_sha,
    load_record,
    trajectory_entry,
)
from .workloads import (
    FIGURE6_GPU_COUNTS,
    PROBLEM_2K,
    PROBLEM_4K,
    PROBLEM_8K,
    STRONG_SCALING_4K_GPUS,
    STRONG_SCALING_8K_GPUS,
    TABLE4_PROBLEMS,
    DistributedWorkload,
    figure6_workloads,
    scaled_for_functional_run,
    strong_scaling_4k,
    strong_scaling_8k,
    weak_scaling_4k,
    weak_scaling_8k,
)

__all__ = [
    "DistributedWorkload",
    "FIGURE6_GPU_COUNTS",
    "HISTORY_LIMIT",
    "PROBLEM_2K",
    "PROBLEM_4K",
    "PROBLEM_8K",
    "REGRESSION_THRESHOLD",
    "STRONG_SCALING_4K_GPUS",
    "STRONG_SCALING_8K_GPUS",
    "TABLE4_PROBLEMS",
    "check_regression",
    "figure6_workloads",
    "format_scaling_figure",
    "format_table",
    "format_trajectory",
    "git_sha",
    "load_record",
    "paper_reference_table4",
    "scaled_for_functional_run",
    "strong_scaling_4k",
    "strong_scaling_8k",
    "trajectory_entry",
    "weak_scaling_4k",
    "weak_scaling_8k",
]
