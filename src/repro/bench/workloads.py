"""Workload definitions shared by the benchmark harness.

Two families of workloads appear in the paper's evaluation:

* **Table 4 problems** — fifteen single-GPU back-projection problems formed
  by three input sizes (512²×1k, 1k³, 2k²×1k) and five output sizes
  (128³ … 1k²×2k).
* **Distributed problems** — the 4K (2048²×4096 → 4096³) and 8K
  (2048²×4096 → 8192³) reconstructions of Figures 5/6 and Table 5, plus the
  2048³ output used in Figure 6 and the Figure 7 example.

The at-scale problems are evaluated through the performance model; the
functional (NumPy) runs use :func:`scaled_for_functional_run` to shrink a
problem to something a laptop/CI machine can execute while preserving the
grid shape and aspect ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.types import ReconstructionProblem, problem_from_string

__all__ = [
    "TABLE4_PROBLEMS",
    "PROBLEM_4K",
    "PROBLEM_8K",
    "PROBLEM_2K",
    "scaled_for_functional_run",
]

#: The fifteen Table 4 problems, in the paper's row order.
TABLE4_PROBLEMS: List[ReconstructionProblem] = [
    problem_from_string(spec)
    for spec in (
        "512x512x1024->128x128x128",
        "512x512x1024->256x256x256",
        "512x512x1024->512x512x512",
        "512x512x1024->1024x1024x1024",
        "512x512x1024->1024x1024x2048",
        "1024x1024x1024->128x128x128",
        "1024x1024x1024->256x256x256",
        "1024x1024x1024->512x512x512",
        "1024x1024x1024->1024x1024x1024",
        "1024x1024x1024->1024x1024x2048",
        "2048x2048x1024->128x128x128",
        "2048x2048x1024->256x256x256",
        "2048x2048x1024->512x512x512",
        "2048x2048x1024->1024x1024x1024",
        "2048x2048x1024->1024x1024x2048",
    )
]

#: The 4K image-reconstruction problem (Figures 5a/5c, Table 5 upper half).
PROBLEM_4K = problem_from_string("2048x2048x4096->4096x4096x4096")
#: The 8K image-reconstruction problem (Figures 5b/5d, Table 5 lower half).
PROBLEM_8K = problem_from_string("2048x2048x4096->8192x8192x8192")
#: The 2K output evaluated in Figure 6 and reconstructed in Figure 7.
PROBLEM_2K = problem_from_string("2048x2048x4096->2048x2048x2048")


@dataclass(frozen=True)
class DistributedWorkload:
    """One point of a scaling experiment: problem + rank-grid shape."""

    problem: ReconstructionProblem
    rows: int
    columns: int
    label: str = ""

    @property
    def n_gpus(self) -> int:
        return self.rows * self.columns


def _strong_scaling(problem: ReconstructionProblem, rows: int, gpu_counts) -> List[DistributedWorkload]:
    points = []
    for gpus in gpu_counts:
        if gpus % rows != 0:
            raise ValueError(f"{gpus} GPUs not divisible by R={rows}")
        points.append(
            DistributedWorkload(
                problem=problem, rows=rows, columns=gpus // rows, label=f"{gpus} GPUs"
            )
        )
    return points


#: GPU counts evaluated for the 4K strong-scaling experiment (Figure 5a).
STRONG_SCALING_4K_GPUS = (32, 64, 128, 256, 512, 1024, 2048)
#: GPU counts evaluated for the 8K strong-scaling experiment (Figure 5b).
STRONG_SCALING_8K_GPUS = (256, 512, 1024, 2048)


def strong_scaling_4k() -> List[DistributedWorkload]:
    """Figure 5a: 2048²×4096 → 4096³ with R=32, C = N_gpus/32."""
    return _strong_scaling(PROBLEM_4K, rows=32, gpu_counts=STRONG_SCALING_4K_GPUS)


def strong_scaling_8k() -> List[DistributedWorkload]:
    """Figure 5b: 2048²×4096 → 8192³ with R=256, C = N_gpus/256."""
    return _strong_scaling(PROBLEM_8K, rows=256, gpu_counts=STRONG_SCALING_8K_GPUS)


def _weak_scaling(
    base: ReconstructionProblem, rows: int, proj_per_gpu: int, gpu_counts
) -> List[DistributedWorkload]:
    points = []
    for gpus in gpu_counts:
        problem = ReconstructionProblem(
            nu=base.nu,
            nv=base.nv,
            np_=proj_per_gpu * gpus,
            nx=base.nx,
            ny=base.ny,
            nz=base.nz,
        )
        points.append(
            DistributedWorkload(
                problem=problem, rows=rows, columns=gpus // rows, label=f"{gpus} GPUs"
            )
        )
    return points


#: Figure 5c: Np = 16 · N_gpus projections, R = 32.
WEAK_SCALING_4K = dict(rows=32, proj_per_gpu=16, gpu_counts=STRONG_SCALING_4K_GPUS)
#: Figure 5d: Np = 4 · N_gpus projections, R = 256.
WEAK_SCALING_8K = dict(rows=256, proj_per_gpu=4, gpu_counts=STRONG_SCALING_8K_GPUS)


def weak_scaling_4k() -> List[DistributedWorkload]:
    """Figure 5c workloads."""
    return _weak_scaling(PROBLEM_4K, **WEAK_SCALING_4K)


def weak_scaling_8k() -> List[DistributedWorkload]:
    """Figure 5d workloads."""
    return _weak_scaling(PROBLEM_8K, **WEAK_SCALING_8K)


#: GPU counts of Figure 6 (three output sizes share the x axis).
FIGURE6_GPU_COUNTS = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def figure6_workloads() -> Dict[str, List[DistributedWorkload]]:
    """Figure 6: end-to-end GUPS for 2048³ / 4096³ / 8192³ outputs.

    ``R`` for each output size follows Equation 7 with an 8 GB sub-volume
    (2048³ → R=4, 4096³ → R=32, 8192³ → R=256); GPU counts below R are
    skipped exactly as in the paper's figure.
    """
    series: Dict[str, List[DistributedWorkload]] = {"2048^3": [], "4096^3": [], "8192^3": []}
    for gpus in FIGURE6_GPU_COUNTS:
        for label, problem, rows in (
            ("2048^3", PROBLEM_2K, 4),
            ("4096^3", PROBLEM_4K, 32),
            ("8192^3", PROBLEM_8K, 256),
        ):
            if gpus % rows == 0 and gpus >= rows:
                series[label].append(
                    DistributedWorkload(
                        problem=problem, rows=rows, columns=gpus // rows,
                        label=f"{gpus} GPUs",
                    )
                )
    return series


def scaled_for_functional_run(
    workload: DistributedWorkload,
    *,
    max_volume: int = 64,
    max_detector: int = 96,
    max_projections: int = 64,
    max_ranks: int = 16,
) -> Tuple[ReconstructionProblem, int, int]:
    """Shrink an at-scale workload so it can actually run in this environment.

    Returns ``(problem, rows, columns)`` with the same grid aspect ratio but
    at most ``max_ranks`` ranks, a volume of at most ``max_volume`` voxels per
    side and ``max_projections`` projections (kept divisible by R·C).
    """
    rows, columns = workload.rows, workload.columns
    while rows * columns > max_ranks:
        if columns > 1:
            columns = max(1, columns // 2)
        else:
            rows = max(1, rows // 2)
    p = workload.problem
    nx = min(p.nx, max_volume)
    ny = min(p.ny, max_volume)
    nz = min(p.nz, max_volume)
    nz = (nz // rows) * rows or rows
    nu = min(p.nu, max_detector)
    nv = min(p.nv, max_detector)
    np_ = min(p.np_, max_projections)
    granularity = rows * columns
    np_ = max(granularity, (np_ // granularity) * granularity)
    return (
        ReconstructionProblem(nu=nu, nv=nv, np_=np_, nx=nx, ny=ny, nz=nz),
        rows,
        columns,
    )
