#!/usr/bin/env python
"""Iterative reconstruction (SIRT / OSEM) on top of the same operators.

Section 6.2 of the paper argues that the proposed back-projection algorithm
carries over to iterative solvers (ART, SART, MLEM, MBIR), which repeat the
back-projection dozens of times.  This example reconstructs a low-view
acquisition — where FDK shows streak artefacts — with SIRT and OSEM and
reports how the iterative solutions improve on the analytic FDK baseline.

Run:  python examples/iterative_reconstruction.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    default_geometry_for_problem,
    forward_project_analytic,
    uniform_sphere_phantom,
)
from repro.core.iterative import osem, sirt
from repro.core.metrics import interior_mask, rmse
from repro.streaming import StreamingReconstructor


def main() -> None:
    # Few views (16) make the reconstruction genuinely ill-posed.
    geometry = default_geometry_for_problem(nu=32, nv=32, np_=16, nx=24, ny=24, nz=24)
    phantom = uniform_sphere_phantom(radius=0.55, value=1.0)
    projections = forward_project_analytic(phantom, geometry)
    reference = phantom.rasterize(24, 24, 24)
    mask = interior_mask(reference.shape, 0.7)

    print("reconstructing a 16-view acquisition (24^3 volume)\n")

    fdk = StreamingReconstructor(geometry).reconstruct_stack(projections).volume
    print(f"FDK baseline          interior RMSE = {rmse(fdk.data, reference.data, mask):.4f}")

    result = sirt(projections, geometry, iterations=8, relaxation=1.0)
    print(f"SIRT (8 iterations)   interior RMSE = "
          f"{rmse(result.volume.data, reference.data, mask):.4f}   "
          f"residual history: {[round(r, 4) for r in result.residual_history]}")

    result = osem(projections, geometry, subsets=4, iterations=4)
    print(f"OSEM (4x4 subsets)    interior RMSE = "
          f"{rmse(result.volume.data, reference.data, mask):.4f}   "
          f"residual history: {[round(r, 4) for r in result.residual_history]}")

    # The solvers accept either back-projection algorithm; the result is the
    # same (the paper's point: the optimization is free for iterative methods).
    a = sirt(projections, geometry, iterations=2, algorithm="proposed").volume.data
    b = sirt(projections, geometry, iterations=2, algorithm="standard").volume.data
    print(f"\nSIRT with Algorithm 4 vs Algorithm 2: max |difference| = "
          f"{float(np.abs(a - b).max()):.2e}")


if __name__ == "__main__":
    main()
