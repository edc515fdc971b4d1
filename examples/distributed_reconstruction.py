#!/usr/bin/env python
"""Distributed iFDK reconstruction on a simulated cluster.

This example mirrors Figure 7 of the paper: a 2-D grid of MPI ranks (here
R=4 rows x C=4 columns = 16 simulated GPUs) reconstructs a volume from
projections staged on a simulated parallel file system.  Columns share
filtered projections with AllGather, rows combine partial sub-volumes with
Reduce, and the row roots write Z slabs back to the PFS.

The run is functionally complete (every byte of the volume is computed and
checked against a single-node reconstruction); the at-scale timing for the
same configuration on the paper's ABCI testbed is reported from the
calibrated performance model.

Run:  python examples/distributed_reconstruction.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_ellipsoids,
)
from repro.bench import PROBLEM_4K
from repro.pfs import SimulatedPFS
from repro.pipeline import IFDKConfig, IFDKFramework, IFDKPerformanceModel, choose_grid
from repro.streaming import StreamingReconstructor


def main() -> None:
    # ---------------------------------------------------------------- #
    # Functional run at laptop scale: 16 ranks in a 4x4 grid.
    # ---------------------------------------------------------------- #
    geometry = default_geometry_for_problem(nu=64, nv=64, np_=32, nx=48, ny=48, nz=48)
    phantom = EllipsoidPhantom(shepp_logan_ellipsoids())
    projections = forward_project_analytic(phantom, geometry)

    config = IFDKConfig(geometry=geometry, rows=4, columns=4, kernel="L1-Tran")
    print(f"grid: R={config.rows} x C={config.columns} = {config.n_ranks} ranks "
          f"({config.n_nodes} nodes with {config.gpus_per_node} GPUs each)")
    print(f"each rank loads {config.projections_per_rank} projections and owns a "
          f"{config.slab_thickness}-slice Z slab")

    framework = IFDKFramework(config, pfs=SimulatedPFS())
    result = framework.reconstruct(projections)

    reference = StreamingReconstructor(geometry).reconstruct_stack(projections).volume
    max_diff = float(np.abs(result.volume.data - reference.data).max())
    print(f"\nfunctional run finished in {result.wall_seconds:.1f} s wall clock")
    print(f"distributed vs single-node max |difference| = {max_diff:.2e} "
          f"(volume dynamic range {np.abs(reference.data).max():.2f})")
    print(f"mean pipeline overlap factor delta = {result.mean_overlap_delta():.2f}")
    print("per-stage busy seconds summed over ranks:")
    for stage, seconds in sorted(result.stage_totals().items()):
        print(f"    {stage:<15s} {seconds:8.2f} s")

    # ---------------------------------------------------------------- #
    # The same framework at paper scale, through the performance model.
    # ---------------------------------------------------------------- #
    print("\nProjected ABCI-scale performance for the paper's 4K problem "
          f"({PROBLEM_4K}):")
    model = IFDKPerformanceModel()
    for gpus in (128, 512, 2048):
        rows, columns = choose_grid(PROBLEM_4K, gpus)
        breakdown = model.breakdown(PROBLEM_4K, rows, columns)
        print(f"    {gpus:5d} GPUs (R={rows}, C={columns}): "
              f"T_compute={breakdown.t_compute:6.1f} s, T_post={breakdown.t_post:5.1f} s, "
              f"end-to-end {breakdown.t_runtime:6.1f} s "
              f"({PROBLEM_4K.gups(breakdown.t_runtime):8.0f} GUPS)")


if __name__ == "__main__":
    main()
