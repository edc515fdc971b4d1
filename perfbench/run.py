#!/usr/bin/env python3
"""The repo benchmark's one command.

``python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1``
    One run of one workload (what the acceptance driver calls).  The last
    line of standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric of
    ``BENCHMARK.json`` untraced, every per-layer metric traced.

``python3 perfbench/run.py [--seed N] [--trace]``
    A run set: every workload once, a table of every metric with unit,
    quartiles and sample count; untraced, ``results/latest.json`` is
    rewritten and one line appended to ``results/history.jsonl``.

``python3 perfbench/run.py --compare A.json B.json``
    Two run sets against the bounds in ``BENCHMARK.json``.

Exits non-zero when an output check fails, an op fails, or a comparison
breaches a bound.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SRC,
    THREAD_ENV,
    HostGauge,
    Metric,
    host_profile,
    percentile,
    run_child,
    summarize,
)

ROUNDS = 3
RESULTS = BENCH_DIR / "results"

# Per-layer metrics read off the traced workload's own ops: where the op's
# wall time went (self time per layer span, as a share) and the exact
# counts taken at the same boundaries.  A layer the workload bypasses
# reads 0.
OP_METRICS = {
    "op.filter_pct": Metric("%", "lower", "op_p50_ms @ fdk_filter_wide"),
    "op.backproject_pct": Metric("%", "lower", "op_p50_ms @ fdk_bp_64"),
    "op.io_read_pct": Metric("%", "lower", "op_p50_ms @ stream_pfs_par"),
    "op.io_write_pct": Metric("%", "lower", "op_p50_ms @ stream_pfs_par"),
    "op.comm_pct": Metric("%", "lower", "op_p50_ms @ ifdk_grid_2x2"),
    "op.other_pct": Metric("%", "lower", "op_p50_ms @ fdk_bp_64"),
    "op.p90_ms": Metric("ms", "lower", "op_p50_ms @ http_submit"),
    "op.count": Metric("count", "higher", "work_per_s @ every workload"),
    "op.failed": Metric("count", "lower", "correct @ every workload"),
    "op.bp_mupdates": Metric("Mupd", "lower", "work_per_s @ fdk_bp_64"),
    "op.rel_rmse": Metric("fraction", "lower", "correct @ fdk_bp_64"),
    "op.chunks": Metric("count", "lower", "op_p50_ms @ stream_pfs_par"),
    "op.chunk_size": Metric("count", "higher", "peak_rss_mb @ stream_pfs_par"),
    "op.pfs_mb_read": Metric("MB", "lower", "op_p50_ms @ stream_pfs_par"),
    "op.pfs_files_read": Metric("count", "lower", "op_p50_ms @ stream_pfs_par"),
    "op.jobs_completed": Metric("count", "higher", "work_per_s @ svc_replay_plain_3k"),
    "op.jobs_rejected": Metric("count", "lower", "work_per_s @ svc_replay_plain_3k"),
    "op.sim_slo_attainment": Metric("fraction", "higher", "work_per_s @ svc_replay_plain_3k"),
    "op.sim_latency_p99": Metric("sim_s", "lower", "work_per_s @ svc_replay_plain_3k"),
    "op.gen_late_p99_pct": Metric("%", "lower", "op_p50_ms @ http_submit"),
    "bench.host_calib_s": Metric("s", "lower", "none: the fixed NumPy kernel, as timed"),
    "bench.host_speed_x": Metric("ratio", "lower", "none: what every timing was divided by"),
    "bench.op_p50_raw_ms": Metric("ms", "lower", "none: op_p50_ms before that division"),
    "bench.trace_overhead_pct": Metric("%", "lower", "op_p50_ms @ every workload"),
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# Counts taken at the layer boundaries that repeat exactly for a seed.  A
# run set records them and ``--compare`` fails on any difference: the two
# ``sim_*`` values keep a faster scheduler from buying its speed with a
# worse schedule.
EXACT_COUNTS = (
    "bp_mupdates", "chunks", "chunk_size", "pfs_mb_read", "pfs_files_read",
    "jobs_completed", "jobs_rejected", "sim_slo_attainment", "sim_latency_p99",
)
# A run set also holds the 90th percentile of the op time wherever a run
# has the hundred samples that put ten beyond it (the HTTP open loop), and
# --compare judges it; the acceptance driver never sees it.  The issue
# hoped for a bound of 0.15; ten runs spread by 0.05 on a quiet host and
# 0.19 on a busy one, so it gets the cap like the other timings.
P90_MIN_SAMPLES = 100
OP_P90 = {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}


# --------------------------------------------------------------------- #
# One run of one workload
# --------------------------------------------------------------------- #
def at_reference_speed(round_result: dict) -> List[float]:
    """A round's op timings divided by the host-speed reading over them."""
    return [sample / round_result["op_speed"] for sample in round_result["op_ms"]]


def pool(rounds: List[dict], timed: Optional[List[dict]] = None) -> dict:
    """Pool the rounds of one run into its end-to-end numbers and checks.

    The checks cover every round; the timings come from ``timed`` (default:
    every round), so that a traced round never enters an end-to-end number.
    Every timing arrives with the host-speed reading taken over it
    (``harness.HostGauge``) and is put at reference host speed first; the
    raw median and the reading stay in the result.
    """
    timed = rounds if timed is None else timed
    op_ms = [sample for r in timed for sample in at_reference_speed(r)]
    raw_ms = [sample for r in timed for sample in r["op_ms"]]
    errors = [e for r in rounds for e in r["errors"]]
    digests = {d for r in rounds for d in r["digests"]}
    if len(digests) > 1:
        errors.append(f"ops of one run disagree: {len(digests)} distinct outputs")
    exact = [{k: r["counts"][k] for k in EXACT_COUNTS if k in r["counts"]} for r in rounds]
    if any(counts != exact[0] for counts in exact):
        errors.append(f"exact counts differ between rounds: {exact}")
    if not op_ms:
        errors.append("no op completed")
    closed = [(r["closed"], r["op_speed"]) for r in timed if "closed" in r]
    if closed:
        # A closed loop that was counted: requests over (corrected) seconds.
        work_per_s = sum(c["work"] for c, _ in closed) / sum(
            c["seconds"] / speed for c, speed in closed)
    elif op_ms:
        # One client, op after op: work per second at the median op time,
        # so that one op that hit a page-fault stall does not set the rate.
        # Derived from op_p50_ms, hence not judged a second time by --compare.
        work_per_s = timed[0]["work_per_op"] / (percentile(op_ms, 50) / 1e3)
    else:
        work_per_s = 0.0
    return {
        "op_ms": op_ms,
        "op_p50_raw_ms": percentile(raw_ms, 50) if raw_ms else 0.0,
        "setup_s": [r["setup_s"] / r["setup_speed"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "work_per_s": work_per_s,
        "work_derived": not closed,
        "host_speed": statistics.median(r["op_speed"] for r in timed),
        "host_calib_s": statistics.median(r["host_calib_s"] for r in timed),
        "exact": exact[0],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
    }


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool = False, probes: bool = True) -> dict:
    """Prepare inputs, run the rounds in child processes, check, aggregate."""
    from perfbench.workloads import WORKLOADS

    gauge = HostGauge()

    workdir = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS[name].prepare(name, seed, workdir, quick)
        inputs["workdir"] = str(workdir)
        spec = {"workload": name, "inputs": inputs, "trace": False}
        if trace:
            # One untraced and one traced round of the same op: the
            # difference between them is what tracing costs.
            spec["seconds"] = seconds / 2
            plain = run_child(spec, gauge)
            traced = run_child(dict(spec, trace=True), gauge)
            result = pool([plain, traced], timed=[plain])
            result["per_layer"] = layer_metrics(plain, traced)
            if probes:
                from perfbench.probes import run_probes

                result["per_layer"].update(run_probes(workdir, seed))
        else:
            rounds = 1 if quick else ROUNDS
            spec["seconds"] = seconds / rounds
            result = pool([run_child(spec, gauge) for _ in range(rounds)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=name, seed=seed,
                  correct=not result["errors"] and result["failed"] == 0)
    return result


def layer_metrics(plain: dict, traced: dict) -> Dict[str, float]:
    """The ``op.*`` and ``bench.*`` metrics of one traced run."""
    counts = traced["counts"]
    corrected = at_reference_speed(traced)
    values = {f"op.{layer}_pct": share for layer, share in traced["layer_pct"].items()}
    values.update({
        "op.p90_ms": percentile(corrected, 90) if corrected else 0.0,
        "op.count": len(corrected),
        "op.failed": traced["failed"],
        "bench.host_calib_s": traced["host_calib_s"],
        "bench.host_speed_x": traced["op_speed"],
        "bench.op_p50_raw_ms": percentile(traced["op_ms"], 50) if corrected else 0.0,
        "bench.trace_overhead_pct": 0.0,
    })
    for name in OP_METRICS:
        key = name.split(".", 1)[1]
        if name not in values:
            values[name] = float(counts.get(key, 0.0))
    if plain["op_ms"] and corrected:
        values["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(corrected) / statistics.median(at_reference_speed(plain)) - 1.0
        )
    return values


def end_to_end(result: dict) -> Dict[str, dict]:
    """The end-to-end metrics of one run: value plus quartiles and count.

    Beyond the four of ``BENCHMARK.json`` a run with enough samples also
    carries ``OP_P90``.
    """
    op_ms = result["op_ms"]
    ops = summarize(op_ms) if op_ms else {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    metrics = {
        "op_p50_ms": ops,
        "work_per_s": {"median": result["work_per_s"], "n": len(op_ms),
                       "derived": result["work_derived"]},
        "peak_rss_mb": summarize(result["peak_rss_mb"]),
        "setup_s": summarize(result["setup_s"]),
    }
    metrics = {name: dict(stats, value=stats["median"]) for name, stats in metrics.items()}
    # The fastest of the rounds, not their median: a round that starts
    # right after a large-memory child exited re-faults its pages from the
    # hypervisor (fdk_filter_wide: rounds 2 and 3 take 1.6-2.3 s, round 1
    # 0.9 s), which flips a median of three between two values.  Work
    # moved into set-up raises every round, so the minimum still shows it.
    metrics["setup_s"]["value"] = min(result["setup_s"])
    if len(op_ms) >= P90_MIN_SAMPLES:
        metrics[OP_P90["name"]] = {"value": percentile(op_ms, 90), "n": len(op_ms)}
    return metrics


def driver_line(result: dict, benchmark: dict, trace: bool) -> str:
    """The one JSON object the acceptance driver reads."""
    if trace:
        declared = benchmark["per_layer"]
        values = result["per_layer"]
    else:
        declared = benchmark["end_to_end"]
        values = {name: stats["value"] for name, stats in end_to_end(result).items()}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# --------------------------------------------------------------------- #
# A run set
# --------------------------------------------------------------------- #
def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(benchmark: dict, *, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"] + [OP_P90]}
    record = {
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed, "seconds": seconds, "host": host_profile(), "workloads": {},
    }
    for index, workload in enumerate(benchmark["workloads"]):
        name = workload["name"]
        started = time.perf_counter()
        # The probes do not depend on the workload; once per set is enough.
        result = run_workload(name, seed=seed, seconds=seconds, trace=trace,
                              quick=quick, probes=index == 0)
        entry = {"correct": result["correct"], "ops_attempted": result["attempted"],
                 "ops_failed": result["failed"], "errors": result["errors"],
                 "host_speed": result["host_speed"], "host_calib_s": result["host_calib_s"],
                 "op_p50_raw_ms": result["op_p50_raw_ms"], "exact": result["exact"],
                 "end_to_end": end_to_end(result)}
        print(f"\n{name}  ({time.perf_counter() - started:.1f} s)  "
              f"ops_attempted={entry['ops_attempted']} ops_failed={entry['ops_failed']} "
              f"correct={entry['correct']} host_speed={entry['host_speed']:.2f}x "
              f"(host_calib_s={entry['host_calib_s']:.5f}, raw op_p50_ms="
              f"{entry['op_p50_raw_ms']:.4f})")
        for metric, stats in entry["end_to_end"].items():
            quartiles = (f"  q1={stats['q1']:.4g} q3={stats['q3']:.4g}" if "q1" in stats else "")
            print(f"  {metric:<14s} {stats['value']:>12.4f} {units[metric]:<5s}"
                  f"{quartiles}  n={stats['n']}")
        for count, value in entry["exact"].items():
            print(f"  {count:<22s} {value!r}  (exact)")
        if trace:
            entry["per_layer"] = result["per_layer"]
            for metric in sorted(result["per_layer"]):
                print(f"  {metric:<40s} {result['per_layer'][metric]:>14.4f} {units[metric]}")
        for error in entry["errors"]:
            print(f"  CHECK FAILED: {error}")
        record["workloads"][name] = entry
    record["correct"] = all(w["correct"] for w in record["workloads"].values())
    return record


def save(record: dict) -> None:
    """Rewrite ``latest.json``; append the end-to-end medians to the history."""
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    line = {key: record[key] for key in ("sha", "date", "seed", "host")}
    for key in ("host_speed", "host_calib_s"):
        line[key] = {name: entry[key] for name, entry in record["workloads"].items()}
    line["end_to_end"] = {
        name: {metric: stats["value"] for metric, stats in entry["end_to_end"].items()}
        for name, entry in record["workloads"].items()
    }
    with (RESULTS / "history.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# --------------------------------------------------------------------- #
# Comparing two run sets
# --------------------------------------------------------------------- #
def compare(before: dict, after: dict, benchmark: dict) -> List[dict]:
    """Per workload x end-to-end metric: B against A and the metric's bound.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: "unchanged" cannot be claimed — the two quartile ranges
    together are wider than the bound, the host ran the two at speeds that
    differ by more than the bound (timings only: the verdict would rest on
    the host-speed correction alone), or a side has no completed op.
    ``differs``: an exact count of the same seed changed.  ``work_per_s``
    is skipped where it is derived from ``op_p50_ms``.
    """
    declared = {m["name"]: m for m in benchmark["end_to_end"] + [OP_P90]}
    same_seed = before.get("seed") == after.get("seed")
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        a_entry, b_entry = before["workloads"][workload], after["workloads"][workload]
        host_shift = b_entry["host_speed"] / a_entry["host_speed"] - 1.0
        for name, a in a_entry["end_to_end"].items():
            b = b_entry["end_to_end"].get(name)
            if b is None or name not in declared or (a.get("derived") and b.get("derived")):
                continue
            bound = declared[name]["bound"]
            sign = 1.0 if declared[name]["better"] == "lower" else -1.0
            row = {"workload": workload, "metric": name, "a": a["value"], "b": b["value"],
                   "bound": bound, "host_shift": host_shift}
            if a["value"] <= 0 or b["value"] <= 0:
                rows.append(dict(row, worse=float("nan"), verdict="unresolved"))
                continue
            worse = sign * (b["value"] - a["value"]) / a["value"]
            low = min(a.get("q1", a["value"]), b.get("q1", b["value"]))
            high = max(a.get("q3", a["value"]), b.get("q3", b["value"]))
            if name != "peak_rss_mb" and abs(host_shift) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif (high - low) / a["value"] > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(dict(row, worse=worse, verdict=verdict))
        if same_seed:
            for name in sorted(set(a_entry["exact"]) | set(b_entry["exact"])):
                a, b = a_entry["exact"].get(name), b_entry["exact"].get(name)
                rows.append({"workload": workload, "metric": name, "a": a, "b": b,
                             "verdict": "ok" if a == b else "differs"})
    return rows


def failed_share(record: dict) -> float:
    entries = record["workloads"].values()
    attempted = sum(e["ops_attempted"] for e in entries)
    return sum(e["ops_failed"] for e in entries) / attempted if attempted else 1.0


def compare_files(path_a: str, path_b: str, benchmark: dict) -> int:
    before, after = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rows = compare(before, after, benchmark)
    for row in rows:
        if "bound" in row:
            print(f"{row['workload']:<22s} {row['metric']:<12s} {row['a']:>12.4f} -> "
                  f"{row['b']:>12.4f}  {100 * row['worse']:+6.1f} % worse "
                  f"(bound {100 * row['bound']:.0f} %, host speed "
                  f"{100 * row['host_shift']:+.0f} %)  {row['verdict']}")
        else:
            print(f"{row['workload']:<22s} {row['metric']:<18s} {row['a']!r} -> {row['b']!r}  "
                  f"exact  {row['verdict']}")
    if before.get("seed") != after.get("seed"):
        print("seeds differ: exact counts not compared")
    more_failures = failed_share(after) > failed_share(before)
    if more_failures:
        print(f"failed-op share rose: {failed_share(before):.4f} -> {failed_share(after):.4f}")
    incorrect = [name for name, entry in after["workloads"].items() if not entry["correct"]]
    if incorrect:
        print(f"output checks failed in B: {incorrect}")
    tally = {v: sum(row["verdict"] == v for row in rows)
             for v in ("regressed", "differs", "unresolved", "ok")}
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["regressed"] or tally["differs"] or more_failures or incorrect else 0


# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, one round: the harness self-test's smoke pass")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found — the benchmark measures the "
              "program in this checkout and there is none", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # prepare steps and probes run in this process
    os.environ.update(THREAD_ENV)  # ... and NumPy is not imported yet
    benchmark = load_benchmark()
    if args.compare:
        return compare_files(*args.compare, benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    if args.quick and args.seconds is None:
        seconds = 0.3

    if args.workload is None:
        record = run_set(benchmark, seed=args.seed, seconds=seconds,
                         trace=bool(args.trace), quick=args.quick)
        # End-to-end numbers are always taken with tracing off, so only an
        # untraced, full-size set goes on record.
        if not args.quick and not args.trace:
            save(record)
        return 0 if record["correct"] else 1

    result = run_workload(args.workload, seed=args.seed, seconds=seconds,
                          trace=bool(args.trace), quick=args.quick)
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(driver_line(result, benchmark, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
