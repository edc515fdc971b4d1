"""Figure 7: the MPI-Reduce volume composition example (R=4, C=4, 16 GPUs).

The paper's Figure 7 shows the sub-volumes produced by a 16-rank (4x4) run
being reduced across each row into the final 2048^3 volume.  The functional
equivalent here runs the same 4x4 grid at laptop scale and verifies that the
reduced volume equals the single-node reconstruction, which is exactly what
the figure demonstrates visually.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_ellipsoids,
)
from repro.pipeline import IFDKConfig, IFDKFramework
from repro.streaming import StreamingReconstructor

pytestmark = pytest.mark.slow  # paper-scale replay: excluded from tier-1 by default


def test_fig7_volume_reduction_4x4_grid(benchmark):
    geometry = default_geometry_for_problem(nu=48, nv=48, np_=16, nx=32, ny=32, nz=32)
    stack = forward_project_analytic(EllipsoidPhantom(shepp_logan_ellipsoids()), geometry)
    reference = StreamingReconstructor(geometry).reconstruct_stack(stack).volume
    config = IFDKConfig(geometry=geometry, rows=4, columns=4)

    def run():
        return IFDKFramework(config).reconstruct(stack)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    # The reduction produced the same volume as a single-node reconstruction.
    np.testing.assert_allclose(result.volume.data, reference.data, atol=1e-4)
    # Each row root stored one of the four Z slabs.
    slabs = sorted(r.stored_slab for r in result.rank_results if r.stored_slab)
    assert slabs == [(0, 8), (8, 16), (16, 24), (24, 32)]
    # Every rank reduced its partial sub-volume exactly once per row (C - 1
    # partners), which is the communication pattern drawn in Figure 7.
    assert len(result.rank_results) == 16
    print(f"\n4x4 grid functional run: wall {result.wall_seconds:.2f} s, "
          f"GUPS {result.gups:.4f}, modelled at ABCI scale {result.modelled.t_runtime:.1f} s")
