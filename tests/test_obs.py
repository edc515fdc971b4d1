"""The observability layer: tracer, metrics, exporters, run results.

Four contracts are locked down here:

* the **no-op path is free**: the null tracer's span sites cost so little
  that instrumented hot loops are indistinguishable from uninstrumented
  ones (micro-bound in tier-1; the strict 2%-of-wall assertion runs with
  the wall-clock suite under ``-m slow``);
* spans **nest correctly across threads**: the parallel backend's worker
  spans parent under the dispatching stage span at 1 and 4 workers, and a
  tracer shared by many threads never loses or aliases a span;
* the **exporters round-trip**: the Chrome trace document validates
  against the trace-event schema and both exporters reload to the same
  spans;
* the **run result and the trace agree**: ``RunResult`` stage seconds
  match the span totals in the exported Chrome trace within ±10% for
  every backend, and stage seconds never exceed the wall time.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.api import Session, plan_for_problem
from repro.backends import BACKEND_NAMES, native
from repro.core.types import ProjectionStack
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace,
    get_tracer,
    jsonl_lines,
    load_trace,
    peak_rss_bytes,
    summary_tree,
    use_tracer,
    write_trace,
)
from repro.obs.tracer import NullTracer

pytestmark = pytest.mark.obs

PROBLEM = "48x32x24->24x24x12"


def _stack_for(plan):
    rng = np.random.default_rng(7)
    geometry = plan.geometry
    return ProjectionStack(
        data=rng.standard_normal(
            (geometry.np_, geometry.nv, geometry.nu)
        ).astype(np.float32),
        angles=geometry.angles,
    )


def _traced_run(backend, *, workers=None, problem=PROBLEM):
    plan = plan_for_problem(problem, backend=backend, workers=workers)
    tracer = Tracer()
    result = Session(plan, tracer=tracer).run(_stack_for(plan))
    return plan, tracer, result


# --------------------------------------------------------------------- #
# Tracer core: nesting, records, ambient installation.
# --------------------------------------------------------------------- #

def test_spans_nest_within_a_thread():
    tracer = Tracer()
    with tracer.span("outer", payload_bytes=10, kind="test") as outer:
        with tracer.span("inner") as inner:
            pass
    spans = {span.name: span for span in tracer.spans()}
    assert spans["outer"].parent_id is None
    assert spans["inner"].parent_id == outer.span_id
    assert spans["outer"].payload_bytes == 10
    assert spans["outer"].attrs["kind"] == "test"
    assert spans["inner"].start >= spans["outer"].start
    assert spans["inner"].stop <= spans["outer"].stop
    assert inner.span_id != outer.span_id


def test_span_record_roundtrip_and_malformed_record():
    tracer = Tracer()
    with tracer.span("stage", payload_bytes=3, backend="ref"):
        pass
    span = tracer.spans()[0]
    assert Span.from_record(span.as_record()) == span
    with pytest.raises(ValueError):
        Span.from_record({"name": "no-times"})


def test_ambient_tracer_defaults_to_null_and_restores():
    assert get_tracer() is NULL_TRACER
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        with use_tracer(None):
            assert get_tracer() is NULL_TRACER
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_a_new_thread_sees_the_null_tracer_whatever_the_main_thread_installed():
    seen = []

    def look():
        seen.append(get_tracer())

    def look_in_a_new_thread():
        thread = threading.Thread(target=look)
        thread.start()
        thread.join()

    tracer = Tracer()
    with use_tracer(tracer):
        look_in_a_new_thread()
        assert get_tracer() is tracer
    look_in_a_new_thread()
    assert [found is NULL_TRACER for found in seen] == [True, True]
    assert get_tracer() is NULL_TRACER


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    assert not tracer.enabled
    with tracer.span("anything", payload_bytes=99, attr=1):
        pass
    tracer.record("anything", 0.0, 1.0)
    assert len(tracer) == 0
    assert tracer.current_span_id() is None


def test_noop_span_sites_are_cheap():
    """Tier-1 micro-bound: a null span site must cost well under 25 µs.

    The strict "disabled tracing adds < 2% of reconstruction wall time"
    assertion lives in ``test_disabled_tracing_overhead_within_2pct``
    (slow tier) — this bound keeps the no-op path honest without a
    wall-clock flake in the blocking suite.
    """
    tracer = NULL_TRACER
    n = 20_000
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("site"):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < n * 25e-6, (
        f"{n} null span sites took {elapsed:.3f}s ({elapsed / n * 1e6:.1f} "
        "µs each); the no-op path must stay negligible"
    )


def test_tracer_is_thread_safe():
    tracer = Tracer()
    n_threads, n_spans = 8, 200

    def emit(index):
        with use_tracer(tracer):
            for i in range(n_spans):
                with tracer.span("work", worker=index, i=i):
                    pass

    threads = [
        threading.Thread(target=emit, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = tracer.spans()
    assert len(spans) == n_threads * n_spans
    assert len({span.span_id for span in spans}) == len(spans)
    # Per-thread stacks: spans emitted by different threads never parent
    # under each other implicitly.
    assert all(span.parent_id is None for span in spans)


# --------------------------------------------------------------------- #
# Parallel backend: worker spans nest under their stage at 1 and 4 workers.
# --------------------------------------------------------------------- #

@pytest.mark.parallel
@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_worker_spans_nest_under_stages(workers):
    _, tracer, result = _traced_run("parallel", workers=workers)
    by_name = {}
    for span in tracer.spans():
        by_name.setdefault(span.name, []).append(span)
    assert set(by_name) >= {
        "run", "filter", "filter.worker", "backproject", "backproject.worker",
    }
    (filter_span,) = by_name["filter"]
    (backproject_span,) = by_name["backproject"]
    assert all(
        span.parent_id == filter_span.span_id
        for span in by_name["filter.worker"]
    )
    assert all(
        span.parent_id == backproject_span.span_id
        for span in by_name["backproject.worker"]
    )
    workers_seen = {
        span.attrs["worker"] for span in by_name["backproject.worker"]
    }
    assert len(workers_seen) == workers


# --------------------------------------------------------------------- #
# The chunk driver: each chunk filtered, then back-projected, under the run.
# --------------------------------------------------------------------- #

def _chunked_trace(workers=2, problem="384x192x48->40x40x40", **fields):
    # Filter-heavy, with milliseconds per chunk and stage, so thread
    # hand-offs do not dominate.
    plan = plan_for_problem(problem, backend="parallel", workers=workers, **fields)
    tracer = Tracer()
    with Session(plan, tracer=tracer) as session:
        result = session.run(_stack_for(plan))
    by_name = {}
    for span in tracer.spans():
        by_name.setdefault(span.name, []).append(span)
    return tracer, result, by_name


@pytest.mark.parallel
@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("workers", [2, 3])
def test_chunk_spans_run_in_turn_under_the_run_span(workers, tmp_path, capsys):
    tracer, result, by_name = _chunked_trace(workers, streaming=True, chunk_size=8)
    (run,) = by_name["run"]
    filters = sorted(by_name["filter.chunk"], key=lambda s: s.attrs["chunk"])
    backprojects = sorted(
        by_name["backproject.chunk"], key=lambda s: s.attrs["chunk"]
    )
    assert len(filters) == len(backprojects) == result.details["chunks"] == 6
    # Both chunk stages are children of the run, on its thread.
    assert {s.parent_id for s in filters + backprojects} == {run.span_id}
    assert {s.thread for s in filters + backprojects} == {run.thread}
    # Stage spans still nest under their chunk.
    for stage, chunks in (("filter", filters), ("backproject", backprojects)):
        assert sorted(s.parent_id for s in by_name[stage]) == sorted(
            s.span_id for s in chunks
        )
    # In turn: chunk n is filtered, then back-projected, before chunk n + 1.
    stages = sorted(filters + backprojects, key=lambda s: s.start)
    assert [(s.name, s.attrs["chunk"]) for s in stages] == [
        (name, n) for n in range(6) for name in ("filter.chunk", "backproject.chunk")
    ]
    assert all(a.stop <= b.start for a, b in zip(stages, stages[1:]))
    assert result.filter_seconds + result.backprojection_seconds <= result.wall_seconds
    assert tracer.stage_totals()["filter.chunk"] == pytest.approx(
        result.filter_seconds, rel=0.10, abs=5e-3
    )
    # ``repro report`` renders both stages under the run.
    from repro.cli import main

    path = write_trace(tracer, tmp_path / "chunked.jsonl")
    assert main(["report", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    indent = {line.strip("│├└─ ").split()[0]: len(line) - len(line.lstrip("│├└─ "))
              for line in lines[1:]}
    assert indent["filter.chunk"] == indent["backproject.chunk"] > indent["run"]
    assert indent["filter"] > indent["filter.chunk"]


@pytest.mark.parallel
def test_whole_stack_trace_keeps_its_shape_whatever_the_projection_count():
    """``reconstruct_stack`` runs in default chunks without chunk spans: one
    ``filter`` then one ``backproject`` span per chunk, each a child of
    ``run`` on its thread, with the worker spans under it and every worker a
    shard — 96 projections on two workers are a 64- and a 32-projection
    chunk."""
    _, result, by_name = _chunked_trace(problem="384x192x96->40x40x40")
    assert "filter.chunk" not in by_name and "backproject.chunk" not in by_name
    (run,) = by_name["run"]
    filters, backprojects = by_name["filter"], by_name["backproject"]
    assert [s.attrs["projections"] for s in filters] == [64, 32]
    assert [s.attrs["projections"] for s in backprojects] == [64, 32]
    stages = sorted(filters + backprojects, key=lambda s: s.start)
    assert [s.name for s in stages] == ["filter", "backproject"] * 2
    assert all(a.stop <= b.start for a, b in zip(stages, stages[1:]))
    assert {s.parent_id for s in stages} == {run.span_id}
    assert {s.thread for s in stages} == {run.thread}
    for filter_span in filters:
        assert sum(
            s.parent_id == filter_span.span_id for s in by_name["filter.worker"]
        ) == 2
    for backproject_span in backprojects:
        assert {
            s.attrs["worker"] for s in by_name["backproject.worker"]
            if s.parent_id == backproject_span.span_id
        } == {0, 1}
    assert {s.parent_id for s in by_name["filter.worker"]} == {
        s.span_id for s in filters
    }
    assert {s.parent_id for s in by_name["backproject.worker"]} == {
        s.span_id for s in backprojects
    }


@pytest.mark.parallel
def test_a_traced_run_names_the_kernel_executor(executor, tmp_path, capsys):
    """``native`` where the compiled kernel loads, ``numpy`` with the loader
    patched out — on the span, on every worker span, in the summary tree the
    CLI prints and in ``repro report``'s tree.  Worker spans of the compiled
    kernel also name its loop (``isa``)."""
    tracer, result, by_name = _chunked_trace()
    (backproject,) = by_name["backproject"]
    assert backproject.attrs["executor"] == executor
    assert {s.attrs["executor"] for s in by_name["backproject.worker"]} == {executor}
    assert {s.attrs.get("isa") for s in by_name["backproject.worker"]} == {native.isa()}
    (line,) = [
        line for line in summary_tree(tracer).splitlines() if "backproject " in line
    ]
    assert line.endswith(f"executor={executor}")
    from repro.cli import main

    path = write_trace(tracer, tmp_path / "run.jsonl")
    assert main(["report", str(path)]) == 0
    tree = capsys.readouterr().out
    (line,) = [line for line in tree.splitlines() if "backproject " in line]
    assert line.endswith(f"executor={executor}")
    # Algorithm 2 has no compiled kernel: the standard scheme says so.
    standard = Tracer()
    plan = plan_for_problem("48x48x6->16x16x16", backend="vectorized", algorithm="standard")
    with Session(plan, tracer=standard) as session:
        session.run(_stack_for(plan))
    assert {
        s.attrs["executor"] for s in standard.spans() if s.name == "backproject"
    } == {"numpy"}


# --------------------------------------------------------------------- #
# Exporters: Chrome trace schema + round-trips.
# --------------------------------------------------------------------- #

def test_chrome_trace_schema():
    _, tracer, _ = _traced_run("vectorized")
    document = chrome_trace(tracer)
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    complete = [event for event in events if event["ph"] == "X"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert len(complete) == len(tracer)
    assert metadata, "thread_name metadata events must be present"
    for event in complete:
        assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["args"]["span_id"], int)
    for event in metadata:
        assert event["name"] == "thread_name"
    # The document is pure JSON.
    json.dumps(document)


def test_exporters_roundtrip_and_summary(tmp_path):
    _, tracer, _ = _traced_run("blocked")
    chrome_path = write_trace(tracer, tmp_path / "t.json")
    jsonl_path = write_trace(tracer, tmp_path / "t.jsonl")
    for path in (chrome_path, jsonl_path):
        spans = load_trace(path)
        assert len(spans) == len(tracer)
        assert {span.name for span in spans} == {
            span.name for span in tracer.spans()
        }
    assert jsonl_lines(tracer)[0] == json.dumps(
        {"format": "repro-trace", "version": 1}
    )
    tree = summary_tree(tracer)
    assert "run" in tree and "backproject" in tree


# --------------------------------------------------------------------- #
# Run results: stage split vs wall time, and result-vs-trace agreement.
# --------------------------------------------------------------------- #

def test_result_stage_seconds_consistent_with_wall():
    _, tracer, result = _traced_run("vectorized")
    assert result.gups > 0
    assert peak_rss_bytes() > 0
    # The measured split can never exceed the wall time, and the two
    # stages must account for the bulk of a reconstruction this small.
    stage_sum = result.filter_seconds + result.backprojection_seconds
    assert 0 < stage_sum <= result.wall_seconds
    assert stage_sum >= 0.5 * result.wall_seconds
    # The run root span is the wall time.
    assert tracer.stage_totals()["run"] == pytest.approx(
        result.wall_seconds, rel=0.10, abs=5e-3
    )


@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
def test_result_agrees_with_exported_trace_per_backend(backend, tmp_path):
    """Acceptance pin: result stage seconds vs Chrome-trace span sums, ±10%."""
    workers = 2 if backend == "parallel" else None
    _, tracer, result = _traced_run(backend, workers=workers)
    path = write_trace(tracer, tmp_path / "trace.json", format="chrome")
    spans = load_trace(path)
    by_stage = {}
    for span in spans:
        by_stage[span.name] = by_stage.get(span.name, 0.0) + span.duration
    for stage, measured in (
        ("filter", result.filter_seconds),
        ("backproject", result.backprojection_seconds),
    ):
        assert by_stage[stage] == pytest.approx(measured, rel=0.10, abs=5e-3), (
            f"{backend}: span sum for {stage!r} diverges from the result"
        )


def test_untraced_run_is_structurally_clean():
    plan = plan_for_problem(PROBLEM, backend="vectorized")
    stack = _stack_for(plan)
    session = Session(plan)
    untraced = session.run(stack)
    traced = Session(plan, tracer=Tracer()).run(stack)
    assert session.tracer is NULL_TRACER
    assert len(NULL_TRACER) == 0 and NULL_TRACER.stage_totals() == {}
    # Instrumentation must not perturb the numerics.
    np.testing.assert_array_equal(untraced.volume.data, traced.volume.data)


# --------------------------------------------------------------------- #
# Metrics registry.
# --------------------------------------------------------------------- #

def test_metrics_registry_snapshot():
    registry = MetricsRegistry()
    registry.counter("jobs").inc()
    registry.counter("jobs").inc(2)
    registry.gauge("depth").set(5)
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("latency").observe(value)
    snapshot = registry.snapshot()
    assert snapshot["jobs"] == 3
    assert snapshot["depth"] == 5
    assert snapshot["latency_count"] == 4
    assert snapshot["latency_p50"] == pytest.approx(2.0, abs=1.0)
    assert snapshot["latency_max"] == 4.0
    with pytest.raises(ValueError):
        registry.gauge("jobs")  # kind mismatch


def test_null_metrics_registry_is_inert():
    registry = MetricsRegistry(enabled=False)
    registry.counter("jobs").inc()
    registry.histogram("latency").observe(1.0)
    assert registry.snapshot() == {}


def test_histogram_percentiles_are_numpys_to_the_last_bit():
    # One percentile in the package (obs.metrics.percentile): the hand-
    # rolled a*(1-t)+b*t this replaced differed from np.percentile in the
    # last bit on 54 of these 600 series, and from the service KPIs with it.
    from repro.obs.metrics import percentile
    from repro.service import percentile as service_percentile

    assert service_percentile is percentile
    rng = np.random.default_rng(21)
    for _ in range(600):
        series = rng.lognormal(2.0, 1.5, size=int(rng.integers(1, 200)))
        histogram = MetricsRegistry().histogram("h")
        for value in series:
            histogram.observe(value)
        assert histogram.p50 == np.percentile(series, 50.0)
        assert histogram.p99 == np.percentile(series, 99.0)
        assert histogram.percentile(100.0) == series.max()
    assert np.isnan(MetricsRegistry().histogram("empty").p50)
    with pytest.raises(ValueError):
        histogram.percentile(101.0)


# --------------------------------------------------------------------- #
# The strict wall-clock bound (slow tier: wall-clock assertions flake
# under load in the blocking suite; the benchmarks CI job runs them).
# --------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.bench
def test_disabled_tracing_overhead_within_2pct():
    """With tracing disabled, reconstruction wall time stays within 2% of
    the untraced baseline.

    The shipped disabled path *is* the baseline code plus null span sites,
    so the honest measurable quantity is the cost of those sites relative
    to the reconstruction they instrument: count the sites an enabled run
    records, price a site on the null path, and require the total to stay
    under 2% of the measured untraced wall time.
    """
    plan = plan_for_problem("96x64x48->48x48x24", backend="vectorized")
    stack = _stack_for(plan)

    session = Session(plan)
    session.run(stack)  # warm-up: grid caches, FFT plans
    untraced_wall = min(
        Session(plan).run(stack).wall_seconds for _ in range(3)
    )

    tracer = Tracer()
    Session(plan, tracer=tracer).run(stack)
    n_sites = len(tracer)

    reps = 2_000
    start = time.perf_counter()
    for _ in range(reps):
        with NULL_TRACER.span("site"):
            pass
    per_site = (time.perf_counter() - start) / reps

    overhead = n_sites * per_site
    assert overhead < 0.02 * untraced_wall, (
        f"{n_sites} null span sites cost {overhead * 1e3:.3f} ms, more than "
        f"2% of the {untraced_wall * 1e3:.1f} ms untraced reconstruction"
    )
