#!/usr/bin/env python
"""Quickstart: reconstruct a Shepp-Logan phantom with FDK on one node.

This is the smallest end-to-end use of the library:

1. define a cone-beam acquisition geometry,
2. synthesize projections of the 3-D Shepp-Logan phantom (exact line
   integrals — the role RTK's forward projector plays in the paper),
3. run the FDK pipeline (Algorithm 1 filtering + Algorithm 4 back-projection),
4. compare the result against the analytic phantom.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_3d,
    shepp_logan_ellipsoids,
)
from repro.core.metrics import interior_mask, normalized_cross_correlation, psnr, rmse
from repro.streaming import StreamingReconstructor


def main() -> None:
    # A 64^3 volume reconstructed from 96^2 projections at 120 angles keeps
    # the runtime at a few seconds on a laptop while showing real structure.
    n = 64
    geometry = default_geometry_for_problem(nu=96, nv=96, np_=120, nx=n, ny=n, nz=n)
    print(f"geometry: {geometry.nu}x{geometry.nv} detector, {geometry.np_} views, "
          f"{geometry.nx}^3 volume, SAD {geometry.sad:.0f} mm, SDD {geometry.sdd:.0f} mm")

    phantom = EllipsoidPhantom(shepp_logan_ellipsoids())
    print("forward projecting the Shepp-Logan phantom ...")
    projections = forward_project_analytic(phantom, geometry)

    print("reconstructing with FDK (proposed Algorithm 4 back-projection) ...")
    reconstructor = StreamingReconstructor(geometry, algorithm="proposed")
    result = reconstructor.reconstruct_stack(projections)

    reference = shepp_logan_3d(n)
    mask = interior_mask(reference.shape, 0.7)
    gups = geometry.problem().gups(result.backprojection_seconds)
    print(f"filtering took       {result.filter_seconds:6.2f} s")
    print(f"back-projection took {result.backprojection_seconds:6.2f} s "
          f"({gups:.3f} GUPS on this CPU)")
    print(f"interior RMSE vs analytic phantom : {rmse(result.volume.data, reference.data, mask):.4f}")
    print(f"interior correlation              : "
          f"{normalized_cross_correlation(result.volume.data, reference.data, mask):.3f}")
    print(f"interior PSNR                     : {psnr(result.volume.data, reference.data, mask):.1f} dB")

    mid = result.volume.data[n // 2]
    print("\ncentral slice (coarse ASCII rendering):")
    chars = " .:-=+*#%@"
    lo, hi = np.percentile(mid, [5, 99.5])
    for row in mid[:: max(1, n // 24)]:
        line = ""
        for value in row[:: max(1, n // 48)]:
            level = int(np.clip((value - lo) / max(hi - lo, 1e-6), 0, 0.999) * len(chars))
            line += chars[level]
        print("   " + line)


if __name__ == "__main__":
    main()
