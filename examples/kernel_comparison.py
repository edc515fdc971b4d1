#!/usr/bin/env python
"""Compare the five back-projection kernel variants of Table 3/4.

Two comparisons are made:

* **Numerical** — every kernel's algorithm is run on the ``reference``
  backend (NumPy) on the same filtered projections; the four
  proposed-algorithm variants only differ in memory layout / read path, so
  they share Algorithm 4's bits, and RTK-32 (Algorithm 2) must agree to
  float32 round-off.
* **Performance** — the calibrated V100 cost model regenerates Table 4 and
  reports the speedup of the proposed L1-Tran kernel over RTK-32 for every
  problem in the table.

Run:  python examples/kernel_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.bench import TABLE4_PROBLEMS, format_table, paper_reference_table4
from repro.core import (
    default_geometry_for_problem,
    forward_project_analytic,
    uniform_sphere_phantom,
)
from repro.gpusim import KERNEL_VARIANTS, L1_TRAN, BackprojectionCostModel, TESLA_V100


def numerical_comparison() -> None:
    geometry = default_geometry_for_problem(nu=48, nv=48, np_=16, nx=32, ny=32, nz=32)
    stack = forward_project_analytic(uniform_sphere_phantom(), geometry)
    backend = get_backend("reference")
    filtered = backend.filter_stack(stack, geometry)
    volumes = {
        algorithm: backend.backproject(filtered, geometry, algorithm=algorithm).data
        for algorithm in {k.algorithm for k in KERNEL_VARIANTS}
    }

    print("numerical agreement of the kernel variants (32^3 sphere):")
    reference = volumes[L1_TRAN.algorithm]
    for kernel in KERNEL_VARIANTS:
        volume = volumes[kernel.algorithm]
        diff = float(np.abs(volume - reference).max())
        print(f"    {kernel.name:<9s} ({kernel.algorithm:>8s} algorithm)  "
              f"max |diff vs L1-Tran| = {diff:.2e}")


def performance_comparison() -> None:
    model = BackprojectionCostModel(TESLA_V100)
    rows = []
    for problem in TABLE4_PROBLEMS:
        predicted = {k.name: model.gups(k, problem) for k in KERNEL_VARIANTS}
        paper = paper_reference_table4[str(problem)]
        rows.append(
            {
                "problem": str(problem),
                "alpha": problem.alpha,
                "RTK-32": predicted["RTK-32"],
                "L1-Tran": predicted["L1-Tran"],
                "speedup": predicted["L1-Tran"] / predicted["RTK-32"]
                if predicted["RTK-32"] == predicted["RTK-32"] else float("nan"),
                "paper speedup": (paper["L1-Tran"] / paper["RTK-32"])
                if paper["RTK-32"] else float("nan"),
            }
        )
    print()
    print(format_table(
        rows,
        ["problem", "alpha", "RTK-32", "L1-Tran", "speedup", "paper speedup"],
        title="Modelled V100 GUPS: proposed kernel vs RTK-32 (Table 4)",
        float_format="{:.2f}",
    ))


def main() -> None:
    numerical_comparison()
    performance_comparison()


if __name__ == "__main__":
    main()
