"""Ablation benchmarks for iFDK's individual design choices.

These go beyond the paper's tables: each ablation isolates one design
decision of iFDK and quantifies its effect through the same models used for
the main results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import PROBLEM_4K, TABLE4_PROBLEMS, format_table
from repro.core.backprojection import accumulate_proposed
from repro.gpusim import BP_L1, L1_TRAN, BackprojectionCostModel, TESLA_V100
from repro.pfs import PFSConfig
from repro.pipeline import ABCI_MICROBENCHMARKS, IFDKPerformanceModel

pytestmark = pytest.mark.slow  # paper-scale replay: excluded from tier-1 by default


def test_ablation_projection_transpose_for_l1_path(benchmark):
    """Bp-L1 vs L1-Tran: the transpose is what makes the L1 path viable."""
    model = BackprojectionCostModel(TESLA_V100)

    def build():
        return [
            {
                "problem": str(p),
                "Bp-L1": model.gups(BP_L1, p),
                "L1-Tran": model.gups(L1_TRAN, p),
                "speedup": model.gups(L1_TRAN, p) / model.gups(BP_L1, p),
            }
            for p in TABLE4_PROBLEMS
        ]

    rows = benchmark(build)
    print()
    print(format_table(rows, ["problem", "Bp-L1", "L1-Tran", "speedup"],
                       title="Ablation — transposed projection on the L1 read path"))
    assert all(r["speedup"] > 1.0 for r in rows)


def test_ablation_symmetry_halving(benchmark, bench_geometry, bench_filtered):
    """Theorem-1 symmetry: identical results, roughly half the inner products."""
    subset = bench_filtered.subset(range(6))
    matrices = bench_geometry.projection_matrices(subset.angles)

    def fold(use_symmetry):
        kmajor = np.zeros(bench_geometry.volume_shape[::-1], dtype=np.float32)
        for pm, projection in zip(matrices, subset.data):
            accumulate_proposed(
                kmajor, np.ascontiguousarray(projection.T), pm, use_symmetry=use_symmetry
            )
        return kmajor

    with_symmetry = benchmark(fold, True)
    without = fold(False)
    np.testing.assert_allclose(with_symmetry, without, atol=1e-5)


def test_ablation_overlap_vs_serial_pipeline(benchmark):
    """Pipelining (Eq. 17 max) vs a serial pipeline (sum of the same terms)."""
    model = IFDKPerformanceModel(ABCI_MICROBENCHMARKS)

    def build():
        rows = []
        for gpus in (32, 64, 128, 256, 512, 1024, 2048):
            b = model.breakdown(PROBLEM_4K, rows=32, columns=gpus // 32)
            serial = b.t_load + b.t_flt + b.t_allgather + b.t_bp
            rows.append(
                {
                    "N_gpus": gpus,
                    "overlapped T_compute": b.t_compute,
                    "serial T_compute": serial,
                    "saving": serial / b.t_compute,
                }
            )
        return rows

    rows = benchmark(build)
    print()
    print(format_table(rows, ["N_gpus", "overlapped T_compute", "serial T_compute", "saving"],
                       title="Ablation — three-thread overlap vs serial stages"))
    # Overlapping always helps, and by a factor comparable to the paper's delta (1.2-1.6).
    assert all(1.0 < r["saving"] < 3.5 for r in rows)


def test_ablation_r_selection(benchmark):
    """Section 4.1.5: minimizing R (maximizing C) minimizes the runtime."""
    model = IFDKPerformanceModel(ABCI_MICROBENCHMARKS)

    def build():
        rows = []
        for r in (32, 64, 128, 256):
            c = 256 // r
            b = model.breakdown(PROBLEM_4K, rows=r, columns=c)
            rows.append({"R": r, "C": c, "T_compute": b.t_compute, "T_runtime": b.t_runtime})
        return rows

    rows = benchmark(build)
    print()
    print(format_table(rows, ["R", "C", "T_compute", "T_runtime"],
                       title="Ablation — choice of R for the 4K problem on 256 GPUs"))
    # Section 4.1.5: minimizing R (maximizing C) minimizes the overlapped
    # compute phase, because each column's sub-task shrinks with C.
    computes = [r["T_compute"] for r in rows]
    assert computes[0] == min(computes)
    assert computes == sorted(computes)


def test_ablation_store_stripe_tuning(benchmark):
    """Slice-size / striping knob of the volume store (Section 4.1.3)."""

    def build():
        config = PFSConfig()
        slice_bytes = 4096 * 4096 * 4  # one Z slice of the 4K volume
        rows = []
        for slices_per_file in (1, 4, 16, 64):
            nbytes = slice_bytes * slices_per_file
            files = 4096 // slices_per_file
            rows.append(
                {
                    "slices/file": slices_per_file,
                    "file size (MiB)": nbytes / 2**20,
                    "modelled store (s)": files * config.write_seconds(nbytes),
                }
            )
        return rows

    rows = benchmark(build)
    print()
    print(format_table(rows, ["slices/file", "file size (MiB)", "modelled store (s)"],
                       title="Ablation — output slice size vs PFS striping"))
    times = [r["modelled store (s)"] for r in rows]
    # Larger files engage more stripes: the paper's per-slice layout leaves
    # throughput on the table, which is exactly its "room for improvement" note.
    assert times[-1] <= times[0]
