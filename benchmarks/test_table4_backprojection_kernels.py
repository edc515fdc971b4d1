"""Table 4: back-projection kernel throughput (GUPS) on a Tesla V100.

The at-scale GUPS values come from the calibrated GPU cost model (no GPU is
available here); the functional part of the benchmark measures the actual
NumPy execution of the two algorithms on a scaled-down problem so that
pytest-benchmark records a real timing for the proposed-vs-standard
comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.bench import TABLE4_PROBLEMS, format_table, paper_reference_table4
from repro.gpusim import KERNEL_VARIANTS, predict_table4

pytestmark = pytest.mark.slow  # paper-scale replay: excluded from tier-1 by default


def test_table4_model_reproduces_paper_shape(benchmark):
    """Regenerate Table 4 from the cost model and check its qualitative shape."""
    rows = benchmark(predict_table4, TABLE4_PROBLEMS)

    printable = []
    agreements = []
    for row in rows:
        problem = row["problem"]
        reference = paper_reference_table4[problem]
        out = {"problem": problem, "alpha": row["alpha"]}
        for kernel in KERNEL_VARIANTS:
            out[kernel.name] = row[kernel.name]
            out[f"{kernel.name} (paper)"] = (
                float("nan") if reference[kernel.name] is None else reference[kernel.name]
            )
            if reference[kernel.name] is not None and row[kernel.name] == row[kernel.name]:
                agreements.append(row[kernel.name] / reference[kernel.name])
        printable.append(out)

    columns = ["problem", "alpha"]
    for kernel in KERNEL_VARIANTS:
        columns += [kernel.name, f"{kernel.name} (paper)"]
    print()
    print(format_table(printable, columns, title="Table 4 — back-projection GUPS (model vs paper)"))
    print(f"model/paper ratio: median {np.median(agreements):.2f}, "
          f"range [{min(agreements):.2f}, {max(agreements):.2f}]")

    by_problem = {r["problem"]: r for r in rows}
    # Headline claim: the proposed kernel beats RTK for the typical (alpha<=1) problems.
    for spec in ("512x512x1024->1024x1024x1024", "1024x1024x1024->1024x1024x1024"):
        assert by_problem[spec]["L1-Tran"] > 1.4 * by_problem[spec]["RTK-32"]
    # Crossover: RTK-32 wins for tiny outputs with huge projections.
    assert (
        by_problem["2048x2048x1024->128x128x128"]["RTK-32"]
        > by_problem["2048x2048x1024->128x128x128"]["L1-Tran"]
    )
    # RTK cannot generate outputs larger than 8 GB (paper's N/A entries).
    assert np.isnan(by_problem["512x512x1024->1024x1024x2048"]["RTK-32"])


@pytest.mark.parametrize("algorithm,label", [
    ("standard", "Algorithm 2 / RTK"),
    ("proposed", "Algorithm 4"),
])
def test_backprojection_measured_throughput(benchmark, bench_geometry, bench_filtered, algorithm, label):
    """Measured GUPS of the two algorithms on this machine (scaled-down problem),
    both on the ``reference`` backend's NumPy transcriptions."""
    subset = bench_filtered.subset(range(8))
    volume = benchmark(
        get_backend("reference").backproject, subset, bench_geometry, algorithm=algorithm
    )
    assert np.all(np.isfinite(volume.data))
    updates = bench_geometry.nx * bench_geometry.ny * bench_geometry.nz * subset.np_
    if benchmark.stats is not None:  # absent when run with --benchmark-disable
        gups = updates / (benchmark.stats["mean"] * 2**30)
        print(f"\n{algorithm} ({label}): {gups:.3f} GUPS (CPU/NumPy, {updates} updates)")
