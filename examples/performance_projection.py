#!/usr/bin/env python
"""Explore the iFDK performance model: scaling sweeps and what-if studies.

Regenerates the scaling behaviour of Figures 5 and 6 from the calibrated
performance model and then answers two of the paper's discussion questions
(Section 6.2): what would the 4K problem cost on a 16-GPU DGX-2-class box,
and how does the runtime respond to faster storage?

Run:  python examples/performance_projection.py
"""

from __future__ import annotations

from repro.bench import PROBLEM_2K, PROBLEM_4K, PROBLEM_8K, format_table
from repro.pipeline import ABCI_MICROBENCHMARKS, IFDKPerformanceModel, choose_grid


def scaling_sweep(model: IFDKPerformanceModel) -> None:
    rows = []
    for label, problem in (("2048^3", PROBLEM_2K), ("4096^3", PROBLEM_4K), ("8192^3", PROBLEM_8K)):
        for gpus in (32, 128, 512, 2048):
            try:
                r, c = choose_grid(problem, gpus)
            except ValueError:
                continue
            b = model.breakdown(problem, r, c)
            rows.append(
                {
                    "output": label,
                    "GPUs": gpus,
                    "R": r,
                    "C": c,
                    "T_compute": b.t_compute,
                    "T_post": b.t_post,
                    "runtime": b.t_runtime,
                    "GUPS": problem.gups(b.t_runtime),
                }
            )
    print(format_table(
        rows, ["output", "GPUs", "R", "C", "T_compute", "T_post", "runtime", "GUPS"],
        title="Strong-scaling sweep (performance model, ABCI constants)",
    ))


def dgx2_projection(model: IFDKPerformanceModel) -> None:
    """Section 6.2.2: a 16-GPU DGX-2 with NVSwitch and local NVMe."""
    from repro.gpusim import TESLA_V100

    dgx2 = ABCI_MICROBENCHMARKS.scaled(
        bw_pcie=60.0e9,      # NVSwitch-class device<->host paths
        th_reduce=50.0e9,    # on-box reduction instead of InfiniBand
        allgather_bandwidth=50.0e9,  # on-box AllGather instead of InfiniBand
        allgather_latency=5e-6,
        bw_store=10.0e9,     # local NVMe array
        bw_load=20.0e9,
        gpus_per_node=16,
    )
    dgx_model = IFDKPerformanceModel(dgx2)
    # The DGX-2 ships 32 GB V100s, which is what makes 16 GPUs enough for 4K.
    dgx2_gpu = TESLA_V100.with_memory(32 * 1024**3)
    r, c = choose_grid(PROBLEM_4K, 16, device=dgx2_gpu)
    b = dgx_model.breakdown(PROBLEM_4K, r, c)
    print(f"\nDGX-2 class box (16 GPUs, R={r}, C={c}): projected 4K reconstruction in "
          f"{b.t_runtime / 60:.1f} minutes (T_compute {b.t_compute:.0f} s, "
          f"T_post {b.t_post:.0f} s)")
    print("    (the paper projects 'tackle 4K problems within a minute' for a DGX-2 "
          "from its Figure 5a results; the model is deliberately conservative about "
          "the single box's aggregate back-projection rate)")


def storage_sensitivity(model: IFDKPerformanceModel) -> None:
    rows = []
    for factor in (0.5, 1.0, 2.0, 4.0):
        micro = ABCI_MICROBENCHMARKS.scaled(bw_store=28.5e9 * factor)
        m = IFDKPerformanceModel(micro)
        r, c = choose_grid(PROBLEM_8K, 2048)
        b = m.breakdown(PROBLEM_8K, r, c)
        rows.append(
            {
                "store bandwidth (GB/s)": 28.5 * factor,
                "T_store": b.t_store,
                "8K end-to-end": b.t_runtime,
            }
        )
    print()
    print(format_table(
        rows, ["store bandwidth (GB/s)", "T_store", "8K end-to-end"],
        title="Sensitivity of the 8K runtime to PFS write bandwidth (2,048 GPUs)",
    ))


def main() -> None:
    model = IFDKPerformanceModel()
    scaling_sweep(model)
    dgx2_projection(model)
    storage_sensitivity(model)


if __name__ == "__main__":
    main()
