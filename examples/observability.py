#!/usr/bin/env python
"""Tracing a reconstruction end to end with ``repro.obs``.

One ambient span tracer instruments every execution path — the shared
filter driver, each backend's back-projection loop (including the
parallel pool's per-worker spans), the session and the service.  This
example reconstructs a *short-scan* acquisition with tracing on, prints
the run's own numbers once and then the span summary tree, and exports
the trace as a Chrome trace-event document you can drop into
``chrome://tracing`` or https://ui.perfetto.dev.

Run:  python examples/observability.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Session, plan_for_problem
from repro.obs import Tracer, peak_rss_bytes, summary_tree, write_trace
from repro.core.types import ProjectionStack

TRACE_FILE = "shortscan_trace.json"


def main() -> None:
    # A short-scan plan on the parallel backend: the scenario trims the
    # angular range and applies Parker weights in the filter stage, and
    # the pool fans the tile plan out over two workers — both of which
    # are visible in the recorded span tree.
    plan = plan_for_problem(
        "96x64x48->48x48x24",
        scenario="short_scan",
        backend="parallel",
        workers=2,
    )
    rng = np.random.default_rng(0)
    geometry = plan.geometry
    stack = ProjectionStack(
        data=rng.standard_normal(
            (geometry.np_, geometry.nv, geometry.nu)
        ).astype(np.float32),
        angles=geometry.angles,
    )

    tracer = Tracer()
    result = Session(plan, tracer=tracer).run(stack)

    # The run's record: its measured stage split and throughput.
    print(
        f"run {result.plan_key}: wall {result.wall_seconds:.4f}s, "
        f"filter {result.filter_seconds:.4f}s, "
        f"backprojection {result.backprojection_seconds:.4f}s "
        f"({result.gups:.4f} GUPS), peak RSS {peak_rss_bytes() / 2**20:.1f} MiB"
    )
    print()

    # The span tree: run -> filter -> filter.worker, run -> backproject
    # -> backproject.worker, with per-stage payload bytes and the kernel
    # executor.  Per-name totals are `tracer.stage_totals()`.
    print(summary_tree(tracer))

    # Chrome trace-event export (`repro reconstruct --trace-out` and
    # `repro report` drive the same writers).
    path = write_trace(tracer, TRACE_FILE)
    print(f"\n{len(tracer)} spans written to {path}")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")


if __name__ == "__main__":
    main()
