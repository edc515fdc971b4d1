"""Unified observability: spans, metrics and trace exporters.

Every timing claim the paper makes — stage breakdowns, the overlap factor
δ, GUPS, tail latency — is measured somewhere in this repo; ``repro.obs``
is the one substrate those measurements flow through:

* :class:`Tracer` — thread-safe nested spans with ids, attributes and
  payload bytes, installed ambiently via :func:`use_tracer` so the hot
  paths (backend filter/back-projection drivers, the parallel worker
  pool, the service dispatcher) are instrumented once, unconditionally,
  against the process-wide no-op :data:`NULL_TRACER`.
* :class:`MetricsRegistry` — counters, gauges and p50/p99 histograms for
  the lifetime view (queue waits, cache hits, scheduler decisions),
  feeding :class:`~repro.service.metrics.ServiceMetrics` rather than
  duplicating its per-job KPI reductions.
* Exporters — Chrome trace-event JSON (``chrome://tracing`` / Perfetto),
  JSON-lines and a human-readable summary tree, surfaced on the CLI as
  ``--trace-out`` and ``repro report``.

A run has one record, :class:`RunResult <repro.api.RunResult>` (stage
seconds, GUPS, target details), and its spans live in the tracer the
caller handed the session: :meth:`Tracer.stage_totals` sums them per
name, and :func:`summary_tree` prints them with the kernel executor.

The iFDK rank runtime times its stages as plain :class:`Span` records
tagged ``rank=`` / ``stage=``, so Figure-4c / Table-5 stage breakdowns
come out of the same span stream as everything else.
"""

from .export import (
    EXPORT_FORMATS,
    chrome_trace,
    jsonl_lines,
    load_trace,
    summary_tree,
    trace_format_for,
    write_jsonl,
    write_trace,
)
from .metrics import NULL_METRICS, Counter, MetricsRegistry, peak_rss_bytes
from .tracer import NULL_TRACER, Span, Tracer, get_tracer, use_tracer

__all__ = [
    "EXPORT_FORMATS",
    "NULL_METRICS",
    "NULL_TRACER",
    "Counter",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "jsonl_lines",
    "load_trace",
    "peak_rss_bytes",
    "summary_tree",
    "trace_format_for",
    "use_tracer",
    "write_jsonl",
    "write_trace",
]
