"""Self-tests of the benchmark harness (collected by the tier-1 suite).

They test the instrument, not the program: the statistics, the span
arithmetic, the open-loop clock, the comparison rule, that
``BENCHMARK.json`` and the code declare the same metrics, and one
``--quick`` pass of every workload at toy sizes.
"""

from __future__ import annotations

import json
import re
import sys
import time
import tracemalloc

import pytest

from perfbench import harness, probes, run
from perfbench.harness import ROOT, SRC

# The quick passes import ``repro`` in this process (prepare steps).
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def test_percentile_interpolates_and_summarize_reports_quartiles():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 50) == 3.0
    assert harness.percentile(values, 100) == 5.0
    assert harness.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    assert harness.summarize(values) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert harness.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
def test_self_time_is_duration_minus_the_union_of_children():
    spans = [
        {"id": 0, "name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": 1},
        {"id": 1, "name": "filter", "start": 1.0, "end": 4.0, "parent": 0, "op": 1},
        # overlaps filter by one second and overruns the parent by two
        {"id": 2, "name": "backproject", "start": 3.0, "end": 12.0, "parent": 0, "op": 1},
        {"id": 3, "name": "fft", "start": 1.5, "end": 2.0, "parent": 1, "op": 1},
        {"id": 4, "name": "open", "start": 5.0, "end": None, "parent": 0, "op": 1},
    ]
    own = harness.self_seconds(spans)
    assert own["op"] == pytest.approx(1.0)           # 10 - [1, 10]
    assert own["filter"] == pytest.approx(2.5)       # 3 - 0.5
    assert own["backproject"] == pytest.approx(9.0)  # leaf: its own duration
    assert "open" not in own                         # unfinished spans are skipped


def test_recorder_nests_records_children_and_disabled_is_free():
    ticks = iter(range(100))
    rec = harness.SpanRecorder(clock=lambda: float(next(ticks)))
    rec.op = 7
    with rec.span("op"):                 # start 0
        with rec.span("inner"):          # 1..2
            pass
        rec.record("laid", 2.0, 2.5)     # child of the open op span
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert all(s["op"] == 7 for s in rec.spans)
    assert rec.self_seconds() == {"op": pytest.approx(1.5), "inner": 1.0, "laid": 0.5}

    off = harness.SpanRecorder(enabled=False)
    with off.span("op"):
        off.record("laid", 0.0, 1.0)
    assert off.spans == []


# --------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------- #
def test_open_loop_latency_counts_from_due_time_not_send_time():
    due = harness.due_times(100.0, 4.0, 3)
    assert due == [100.0, 100.25, 100.5]
    now = {"t": 100.0}
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now["t"] += seconds

    # On time: sleeps to the due time, zero lateness.
    assert harness.wait_until(due[1], clock=lambda: now["t"], sleep=sleep) == 0.0
    assert slept == [0.25]
    # A stall of one second: the third request is already 0.75 s late when
    # the generator gets to it, and that wait belongs to its latency.
    now["t"] = 101.25
    assert harness.wait_until(due[2], clock=lambda: now["t"], sleep=sleep) == pytest.approx(0.75)
    assert slept == [0.25]
    with pytest.raises(ValueError):
        harness.due_times(0.0, 0.0, 1)


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
def test_benchmark_json_meets_the_schema(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["perfbench"] and doc["command"][-1] == "perfbench/run.py"
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_code_and_benchmark_json_declare_the_same_metrics(benchmark_json):
    from perfbench.workloads import WORKLOADS

    workloads = [w["name"] for w in benchmark_json["workloads"]]
    assert workloads == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in benchmark_json["per_layer"]}
    in_code = {**run.OP_METRICS, **probes.METRICS}
    assert declared == {name: (m.unit, m.better) for name, m in in_code.items()}
    # Every layer metric says which end-to-end metric it should move, where.
    end_to_end = {m["name"] for m in benchmark_json["end_to_end"]} | {"correct"}
    for target in (m.moves for m in in_code.values()):
        if target.startswith("none"):
            continue
        metric, _, where = target.partition(" @ ")
        assert metric in end_to_end, target
        assert where in workloads or where == "every workload", target


# --------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------- #
def _record(benchmark_json, seed=0, **overrides):
    """A run-set record; ``overrides`` maps ``workload/section/key[/field]`` to a value."""
    workloads = {}
    for workload in benchmark_json["workloads"]:
        name = workload["name"]
        entry = {
            "correct": True, "ops_attempted": 10, "ops_failed": 0, "host_speed": 1.0,
            "exact": {"sim_slo_attainment": 0.65, "jobs_completed": 1000},
            "end_to_end": {
                "op_p50_ms": {"value": 100.0, "q1": 99.0, "q3": 101.0},
                "work_per_s": {"value": 50.0, "derived": name != "http_submit"},
                "peak_rss_mb": {"value": 200.0, "q1": 200.0, "q3": 200.0},
                "setup_s": {"value": 1.0, "q1": 0.98, "q3": 1.02},
            },
        }
        if name == "http_submit":
            entry["end_to_end"]["op_p90_ms"] = {"value": 3.0}
        workloads[name] = entry
    for path, value in overrides.items():
        target = workloads
        *parents, last = path.split("/")
        for key in parents:
            target = target[key]
        target[last] = value
    return {"seed": seed, "workloads": workloads}


def _verdicts(before, after, benchmark_json):
    return {(r["workload"], r["metric"]): r["verdict"]
            for r in run.compare(before, after, benchmark_json)}


def test_compare_flags_regressions_and_refuses_to_call_noise_unchanged(benchmark_json):
    bound = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    base = _record(benchmark_json)
    assert set(_verdicts(base, base, benchmark_json).values()) == {"ok"}

    slower = _record(benchmark_json, **{
        "fdk_bp_64/end_to_end/op_p50_ms/value": 100.0 * (1 + bound["op_p50_ms"] + 0.02),
        "http_submit/end_to_end/work_per_s/value": 50.0 * (1 - bound["work_per_s"] - 0.02),
        "http_submit/end_to_end/op_p90_ms/value": 3.0 * (1 + run.OP_P90["bound"] + 0.02),
        "ifdk_grid_2x2/end_to_end/op_p50_ms/value": 70.0,  # faster is never a regression
        # derived from op_p50_ms on this workload, so not judged a second time
        "fdk_bp_64/end_to_end/work_per_s/value": 1.0,
    })
    verdicts = _verdicts(base, slower, benchmark_json)
    assert verdicts[("fdk_bp_64", "op_p50_ms")] == "regressed"
    assert verdicts[("http_submit", "work_per_s")] == "regressed"
    assert verdicts[("http_submit", "op_p90_ms")] == "regressed"
    assert verdicts[("ifdk_grid_2x2", "op_p50_ms")] == "ok"
    assert ("fdk_bp_64", "work_per_s") not in verdicts

    noisy = _record(benchmark_json, **{"fdk_bp_64/end_to_end/op_p50_ms/q3": 140.0})
    verdicts = _verdicts(base, noisy, benchmark_json)
    assert verdicts[("fdk_bp_64", "op_p50_ms")] == "unresolved"
    assert verdicts[("fdk_bp_64", "setup_s")] == "ok"


def test_compare_does_not_judge_timings_across_different_host_speeds(benchmark_json):
    base = _record(benchmark_json)
    # The host ran 40 % slower: whatever the corrected timing says rests on
    # the correction alone, so it is neither "regressed" nor "ok".
    slow_host = _record(benchmark_json, **{
        "fdk_bp_64/host_speed": 1.4,
        "fdk_bp_64/end_to_end/op_p50_ms/value": 140.0,
    })
    verdicts = _verdicts(base, slow_host, benchmark_json)
    assert verdicts[("fdk_bp_64", "op_p50_ms")] == "unresolved"
    assert verdicts[("fdk_bp_64", "setup_s")] == "unresolved"
    assert verdicts[("fdk_bp_64", "peak_rss_mb")] == "ok"  # memory does not depend on it
    assert verdicts[("fdk_filter_wide", "op_p50_ms")] == "ok"


def test_compare_fails_on_a_changed_exact_count_of_the_same_seed(benchmark_json):
    base = _record(benchmark_json)
    worse_schedule = _record(benchmark_json, **{
        "svc_replay_plain_3k/exact/sim_slo_attainment": 0.60,
        "svc_replay_plain_3k/end_to_end/op_p50_ms/value": 50.0,  # bought with the schedule
    })
    verdicts = _verdicts(base, worse_schedule, benchmark_json)
    assert verdicts[("svc_replay_plain_3k", "sim_slo_attainment")] == "differs"
    assert verdicts[("svc_replay_plain_3k", "jobs_completed")] == "ok"
    other_seed = _record(benchmark_json, seed=1,
                         **{"svc_replay_plain_3k/exact/sim_slo_attainment": 0.60})
    assert "differs" not in _verdicts(base, other_seed, benchmark_json).values()


def test_compare_survives_a_run_set_without_a_completed_op(benchmark_json):
    base = _record(benchmark_json)
    dead = _record(benchmark_json, **{"fdk_bp_64/end_to_end/op_p50_ms/value": 0.0})
    assert _verdicts(dead, base, benchmark_json)[("fdk_bp_64", "op_p50_ms")] == "unresolved"
    assert _verdicts(base, dead, benchmark_json)[("fdk_bp_64", "op_p50_ms")] == "unresolved"


def test_compare_files_exit_code(benchmark_json, tmp_path, capsys):
    records = {
        "base": _record(benchmark_json),
        "failing": _record(benchmark_json, **{"http_submit/ops_failed": 1}),
        "incorrect": _record(benchmark_json, **{"fdk_bp_64/correct": False}),
        "rescheduled": _record(benchmark_json, **{"svc_replay_fair_1k/exact/jobs_completed": 999}),
    }
    paths = {}
    for name, record in records.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    assert run.compare_files(paths["base"], paths["base"], benchmark_json) == 0
    assert run.compare_files(paths["base"], paths["failing"], benchmark_json) == 1
    assert "failed-op share rose" in capsys.readouterr().out
    assert run.compare_files(paths["base"], paths["incorrect"], benchmark_json) == 1
    assert run.compare_files(paths["base"], paths["rescheduled"], benchmark_json) == 1
    assert "1 differs" in capsys.readouterr().out


def test_pool_keeps_traced_rounds_out_of_the_timings_and_checks_every_round():
    def one_round(op_ms, digest="d", chunks=20, speed=1.0):
        return {"op_ms": op_ms, "errors": [], "digests": [digest], "counts": {"chunks": chunks},
                "work_per_op": 2.0, "setup_s": 1.0, "peak_rss_mb": 100.0, "attempted": 2,
                "failed": 0, "host_calib_s": 0.002, "op_speed": speed, "setup_speed": speed}

    plain, traced = one_round([10.0, 12.0]), one_round([50.0])
    pooled = run.pool([plain, traced], timed=[plain])
    assert pooled["op_ms"] == [10.0, 12.0] and pooled["attempted"] == 4
    assert pooled["work_per_s"] == pytest.approx(2.0 / 0.011) and pooled["work_derived"]
    assert pooled["exact"] == {"chunks": 20} and not pooled["errors"]
    assert run.pool([plain, one_round([11.0], digest="e")])["errors"]
    assert run.pool([plain, one_round([11.0], chunks=19)])["errors"]
    # A round on a host running 1.25x slow is put at reference speed; the
    # raw median and the reading stay visible.
    slow = run.pool([one_round([12.5, 15.0], speed=1.25)])
    assert slow["op_ms"] == [10.0, 12.0] and slow["setup_s"] == [0.8]
    assert slow["op_p50_raw_ms"] == 13.75 and slow["host_speed"] == 1.25


# --------------------------------------------------------------------- #
# Host gauge
# --------------------------------------------------------------------- #
def test_gauge_kernels_allocate_nothing_so_no_heap_state_can_move_a_reading():
    gauge = harness.HostGauge()
    gauge.read()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gauge._numpy()
        gauge._python()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # NumPy reports its buffers to tracemalloc: one temporary of the
    # kernel's 1 MiB operands would show here.
    assert peak - before < 4096


def test_gauge_watch_samples_on_a_thread_and_speed_is_read_by_interval():
    gauge = harness.HostGauge()
    gauge.PERIOD_S = 0.01
    with gauge.watch() as readings:
        time.sleep(0.08)
    assert len(readings) >= 3 and all(r["speed"] > 0 and r["numpy_s"] > 0 for r in readings)
    assert [r["t"] for r in readings] == sorted(r["t"] for r in readings)

    readings = [{"t": 10.0, "speed": 1.0}, {"t": 11.0, "speed": 2.0}, {"t": 12.0, "speed": 4.0}]
    assert harness.host_speed(readings, 10.5, 12.5) == 3.0   # mean of those inside
    assert harness.host_speed(readings, 10.9, 10.95) == 2.0  # none inside: the nearest
    assert harness.host_speed(readings, 0.0, 1.0) == 1.0


# --------------------------------------------------------------------- #
# The workloads themselves, at toy sizes
# --------------------------------------------------------------------- #
def _check_driver_line(result, benchmark_json):
    line = json.loads(run.driver_line(result, benchmark_json, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in benchmark_json["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_quick_pass_of_every_workload(benchmark_json):
    for workload in benchmark_json["workloads"]:
        if workload["name"] == "stream_pfs_par":
            continue  # the traced pass below runs it, untraced round included
        result = run.run_workload(workload["name"], seed=3, seconds=0.1, trace=False,
                                  quick=True)
        assert result["correct"], (workload["name"], result["errors"])
        assert result["failed"] == 0 and result["attempted"] >= 2
        _check_driver_line(result, benchmark_json)


def test_quick_traced_run_reports_every_layer_metric(benchmark_json):
    result = run.run_workload("stream_pfs_par", seed=3, seconds=0.1, trace=True,
                              quick=True, probes=False)
    assert result["correct"], result["errors"]
    _check_driver_line(result, benchmark_json)
    layers = result["per_layer"]
    assert set(layers) == set(run.OP_METRICS)
    shares = [layers[f"op.{name}_pct"] for name in
              ("filter", "backproject", "io_read", "io_write", "comm", "other")]
    assert sum(shares) == pytest.approx(100.0) and layers["op.comm_pct"] == 0.0
    assert layers["op.filter_pct"] > 0 and layers["op.io_read_pct"] > 0
    assert layers["op.chunks"] >= 1 and layers["op.pfs_files_read"] > 12  # 12 views + angles
    assert result["exact"]["chunks"] == layers["op.chunks"]
    assert layers["bench.host_calib_s"] > 0
    assert (harness.BENCH_DIR / "results" / "trace_stream_pfs_par.jsonl").exists()
