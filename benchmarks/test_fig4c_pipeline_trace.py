"""Figure 4c: pipeline orchestration and overlap inside one rank.

The paper's Figure 4c shows a real 4K run on 128 GPUs where loading +
filtering (19 s), AllGather and back-projection overlap inside each rank,
followed by the serial D2H / Reduce / store tail.  Here the same structure
is produced twice:

* at scale, from the performance model (the numbers printed next to the
  paper's annotations), where the overlap is Eq. 17's ``T_compute`` and
  Table 5's δ, and
* functionally, by tracing a scaled-down run.  Its ranks run the stages in
  order on one thread each (every stage would share the same CPU cores, so
  threads would only contend), so the check is on the step structure: per
  step one load, filter, AllGather, H2D and back-projection, back to back.
  A rank's δ is therefore ≤ 1 by construction.
"""

from __future__ import annotations

from collections import Counter

from repro.bench import PROBLEM_4K, format_table
from repro.core import default_geometry_for_problem, forward_project_analytic, uniform_sphere_phantom
from repro.pipeline import (
    ABCI_MICROBENCHMARKS,
    IFDKConfig,
    IFDKFramework,
    IFDKPerformanceModel,
)

#: Annotations of Figure 4c (128 GPUs, R=32, C=4).
PAPER_FIG4C = {
    "load+filter": 19.0,
    "allgather": 15.0,
    "backprojection": 14.0,   # 1024 projections per rank at ~190 GUPS
    "d2h": 4.7,
    "reduce": 4.2,
    "store": 11.0,
}

#: The stages a rank runs once per step, in order (Figure 4a).
STEP_STAGES = ("load", "filter", "allgather", "h2d", "backprojection")


def test_fig4c_pipeline_breakdown(benchmark):
    model = IFDKPerformanceModel(ABCI_MICROBENCHMARKS)

    def build():
        b = model.breakdown(PROBLEM_4K, rows=32, columns=4)
        return {
            "allgather": b.t_allgather,
            "backprojection": b.t_bp,
            "d2h": b.t_d2h,
            "reduce": b.t_reduce,
            "store": b.t_store,
            "compute": b.t_compute,
            "runtime": b.t_runtime,
            "delta": b.delta,
        }

    modelled = benchmark(build)
    rows = [
        {"stage": stage, "model (s)": modelled.get(stage, float("nan")),
         "paper (s)": seconds}
        for stage, seconds in PAPER_FIG4C.items()
    ]
    print()
    print(format_table(rows, ["stage", "model (s)", "paper (s)"],
                       title="Figure 4c — pipeline stages, 4K on 128 GPUs (R=32, C=4)"))
    print(f"modelled T_compute = {modelled['compute']:.1f} s "
          f"(paper 18.9 s), delta = {modelled['delta']:.2f} (paper 1.6)")
    # The structural claims of Figure 4c / Table 5 at this configuration:
    assert modelled["backprojection"] > modelled["allgather"] * 0.5
    assert modelled["compute"] < modelled["allgather"] + modelled["backprojection"]
    assert 1.0 <= modelled["delta"] <= 2.5
    assert modelled["compute"] == benchmark.extra_info.get("compute", modelled["compute"])


def test_fig4c_functional_trace(benchmark):
    """Trace a real scaled-down run and verify each rank's in-order steps."""
    # 8 AllGather rounds per rank, 4 to a step (a 16-projection batch over
    # R = 4): two steps, so the trace shows the step structure, not one call.
    geometry = default_geometry_for_problem(nu=48, nv=48, np_=128, nx=32, ny=32, nz=32)
    stack = forward_project_analytic(uniform_sphere_phantom(), geometry)
    config = IFDKConfig(geometry=geometry, rows=4, columns=4, projection_batch=16)

    def run():
        return IFDKFramework(config).reconstruct(stack)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rank0 = result.rank_results[0]
    counts = Counter(span.name for span in rank0.spans)
    # Every pipeline stage of Figure 4 appears in the trace.
    for stage in ("load", "filter", "allgather", "backprojection", "d2h", "reduce"):
        assert counts[stage] > 0, f"missing stage {stage}"
    # The rank gathered its 8 rounds in one AllGather per step, and each step
    # was one load, one filter and one back-projection.
    assert config.projections_per_rank == 8
    for stage in ("load", "filter", "allgather", "backprojection"):
        assert counts[stage] == 2, stage
    for rank in result.rank_results:
        spans = sorted(
            (span for span in rank.spans if span.name in STEP_STAGES),
            key=lambda span: span.start,
        )
        # In order: the five stages, step after step, none overlapping the next.
        assert [span.name for span in spans] == list(STEP_STAGES) * 2, rank.rank
        for before, after in zip(spans, spans[1:]):
            assert before.stop <= after.start, (rank.rank, before.name, after.name)
        assert rank.overlap_delta <= 1.0 + 1e-9
    print(f"\nrank-0 stage seconds: "
          f"{ {k: round(v, 3) for k, v in rank0.stage_seconds.items()} }, "
          f"overlap delta = {rank0.overlap_delta:.2f}")
