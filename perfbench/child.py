"""One round of one workload, in a fresh interpreter.

Reads a JSON spec on standard input, prints one JSON result line.  The
orchestrator (``run.py``) starts one of these per round so that every
round pays interpreter start, imports and warm-up again — that is what
``setup_s`` measures — and so that no round inherits another's heap.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import BENCH_DIR, SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    LAYERS,
    WORKLOADS,
    RoundContext,
    peak_rss_mb,
)


def main() -> int:
    spec = json.loads(sys.stdin.read())
    rec = SpanRecorder(enabled=bool(spec["trace"]))
    ctx = RoundContext(spec["seconds"], rec, spec["spawn_wall"])
    result = WORKLOADS[spec["workload"]].round(spec["inputs"], ctx)
    result["setup_s"] = ctx.setup_s
    result.setdefault("peak_rss_mb", peak_rss_mb())
    if rec.enabled:
        own = rec.self_seconds()
        total = sum(own.values()) or 1.0
        result["layer_pct"] = {
            layer: 100.0 * own.get(layer, 0.0) / total for layer in LAYERS
        }
        result["layer_pct"]["other"] = 100.0 * own.get("op", 0.0) / total
        rec.write_jsonl(BENCH_DIR / "results" / f"trace_{spec['workload']}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
