"""Trace exporters: Chrome trace-event JSON, JSON-lines, summary tree.

Three renderings of one span list:

``chrome_trace`` / :func:`write_chrome_trace`
    The Chrome trace-event format (``"X"`` complete events in microseconds
    plus ``"M"`` thread-name metadata), loadable in ``chrome://tracing``
    and `Perfetto <https://ui.perfetto.dev>`__.  Span attributes land in
    each event's ``args``, so the UI shows backend/scenario/worker on
    click.
``jsonl_lines`` / :func:`write_jsonl`
    One JSON object per line — a header record first, then one record per
    span (:meth:`Span.as_record`).  This is the canonical on-disk form the
    CLI's ``--trace-out`` writes and ``repro report`` reads back.
``summary_tree``
    A human-readable tree: spans grouped by name under their parent, with
    call counts, summed seconds and payload volume.

:func:`load_trace` is the inverse of both machine formats: it sniffs
JSON-lines vs Chrome JSON and returns plain :class:`Span` records, raising
``ValueError`` (never a raw decode error) on malformed input so the CLI's
exit-2 convention holds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .metrics import plain_sum
from .tracer import Span, Tracer

__all__ = [
    "EXPORT_FORMATS",
    "chrome_trace",
    "jsonl_lines",
    "load_trace",
    "summary_tree",
    "trace_format_for",
    "write_jsonl",
    "write_trace",
]

#: Formats `repro report --format` (and write_trace) accept.
EXPORT_FORMATS = ("summary", "chrome", "jsonl")

JSONL_HEADER = {"format": "repro-trace", "version": 1}


def _spans_of(source) -> List[Span]:
    """Accept a Tracer or an iterable of spans."""
    if isinstance(source, Tracer):
        return source.spans()
    return list(source)


# ---------------------------------------------------------------------- #
# Chrome trace-event JSON
# ---------------------------------------------------------------------- #
def chrome_trace(source) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event document (dict, JSON-ready)."""
    spans = _spans_of(source)
    threads = sorted({span.thread for span in spans})
    tid_of = {name: tid for tid, name in enumerate(threads)}
    events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": name or f"thread-{tid}"},
        }
        for name, tid in sorted(tid_of.items(), key=lambda item: item[1])
    ]
    for span in spans:
        args: Dict[str, Any] = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.payload_bytes:
            args["payload_bytes"] = span.payload_bytes
        events.append(
            {
                "name": span.name,
                "cat": str(span.attrs.get("stage", span.name)),
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": tid_of[span.thread],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(source, path) -> Path:
    """Write the Chrome trace-event JSON document to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(source), indent=2) + "\n")
    return path


def _spans_from_chrome(payload: Dict[str, Any]) -> List[Span]:
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("Chrome trace must carry a 'traceEvents' array")
    tid_names: Dict[Any, str] = {}
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "M" \
                and event.get("name") == "thread_name":
            tid_names[event.get("tid")] = str(event.get("args", {}).get("name", ""))
    spans: List[Span] = []
    fallback_ids = iter(range(-1, -(len(events) + 2), -1))
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        try:
            args = event.get("args") or {}
            start = float(event["ts"]) / 1e6
            duration = float(event["dur"]) / 1e6
            span_id = args.get("span_id")
            attrs = {
                key: value for key, value in args.items()
                if key not in ("span_id", "parent_id", "payload_bytes")
            }
            spans.append(
                Span(
                    name=str(event["name"]),
                    start=start,
                    stop=start + duration,
                    span_id=(
                        int(span_id) if span_id is not None else next(fallback_ids)
                    ),
                    parent_id=(
                        None if args.get("parent_id") is None
                        else int(args["parent_id"])
                    ),
                    thread=tid_names.get(event.get("tid"), str(event.get("tid", ""))),
                    payload_bytes=int(args.get("payload_bytes", 0)),
                    attrs=attrs,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed Chrome trace event: {exc}") from exc
    return spans


# ---------------------------------------------------------------------- #
# JSON-lines
# ---------------------------------------------------------------------- #
def jsonl_lines(source) -> List[str]:
    """Render spans as JSON-lines (header line first)."""
    lines = [json.dumps(JSONL_HEADER)]
    lines.extend(json.dumps(span.as_record()) for span in _spans_of(source))
    return lines


def write_jsonl(source, path) -> Path:
    """Write the JSON-lines trace to ``path``."""
    path = Path(path)
    path.write_text("\n".join(jsonl_lines(source)) + "\n")
    return path


def _spans_from_jsonl(text: str) -> List[Span]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("trace file is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace is not valid JSON-lines: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise ValueError(
            "JSON-lines trace must start with the "
            '{"format": "repro-trace", ...} header'
        )
    if header.get("version") != JSONL_HEADER["version"]:
        raise ValueError(f"unsupported trace version {header.get('version')!r}")
    spans = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {number} is not valid JSON: {exc}") from exc
        spans.append(Span.from_record(record))
    return spans


# ---------------------------------------------------------------------- #
# Loading (both machine formats)
# ---------------------------------------------------------------------- #
def load_trace(path) -> List[Span]:
    """Load spans back from a ``--trace-out`` file (either format).

    Raises ``ValueError`` with a one-line reason for anything malformed —
    missing file, bad JSON, wrong schema — so CLI callers map it to exit 2.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"trace file {path} does not exist")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read trace file {path}: {exc}") from exc
    # Sniff: a file that parses as ONE JSON document is a Chrome trace (or
    # a header-only JSON-lines file); multi-line JSON-lines fails the
    # single-document parse with "extra data" and takes the line path.
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            return _spans_from_chrome(payload)
        if payload.get("format") == JSONL_HEADER["format"]:
            return _spans_from_jsonl(text)
        raise ValueError(
            "unrecognized trace file: expected a Chrome 'traceEvents' "
            "document or a repro-trace JSON-lines file"
        )
    if payload is not None:
        raise ValueError(
            f"trace file must be a JSON object, not {type(payload).__name__}"
        )
    return _spans_from_jsonl(text)


# ---------------------------------------------------------------------- #
# Summary tree
# ---------------------------------------------------------------------- #
def _format_bytes(nbytes: int) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(nbytes)} B"  # pragma: no cover - unreachable


def summary_tree(source, *, title: str = "trace summary") -> str:
    """Human-readable tree of spans grouped by (parent, name)."""
    spans = _spans_of(source)
    if not spans:
        return f"{title}: (no spans recorded)"
    ids = {span.span_id for span in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)

    wall = max(s.stop for s in spans) - min(s.start for s in spans)
    lines = [f"{title}  (wall {wall:.4f}s, {len(spans)} spans)"]

    def render(parent: Optional[int], prefix: str) -> None:
        groups: Dict[str, List[Span]] = {}
        for span in children.get(parent, []):
            groups.setdefault(span.name, []).append(span)
        ordered = sorted(
            groups.items(), key=lambda item: min(s.start for s in item[1])
        )
        for index, (name, group) in enumerate(ordered):
            last = index == len(ordered) - 1
            branch, extend = ("└─ ", "   ") if last else ("├─ ", "│  ")
            total = plain_sum(s.duration for s in group)
            payload = sum(s.payload_bytes for s in group)
            detail = f"{total:.4f}s"
            if len(group) > 1:
                detail += f" ({len(group)}×)"
            if payload:
                detail += f", {_format_bytes(payload)}"
            executors = sorted({s.attrs["executor"] for s in group if "executor" in s.attrs})
            if executors:  # which kernel executor ran the voxel updates
                detail += f", executor={'+'.join(executors)}"
            lines.append(f"{prefix}{branch}{name:<28s} {detail}")
            for span in group:
                render(span.span_id, prefix + extend)

    render(None, "")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Dispatch by format name / file suffix
# ---------------------------------------------------------------------- #
def trace_format_for(path) -> str:
    """The export format a file suffix implies (``ValueError`` if none).

    Exposed so CLI callers can reject a bad ``--trace-out`` *before* the
    reconstruction runs, not after.
    """
    path = Path(path)
    by_suffix = {".json": "chrome", ".jsonl": "jsonl", ".txt": "summary"}
    format = by_suffix.get(path.suffix.lower())
    if format is None:
        raise ValueError(
            f"cannot infer trace export format from {path.name!r}; use a "
            ".json (Chrome), .jsonl (JSON-lines) or .txt (summary) suffix"
        )
    return format


def write_trace(source, path, *, format: Optional[str] = None) -> Path:
    """Write spans to ``path`` in ``format`` (default: infer from suffix).

    ``.json`` means Chrome trace-event JSON, ``.jsonl`` means JSON-lines,
    ``.txt`` means the summary tree; anything else without an explicit
    format is an error (``ValueError`` -> CLI exit 2).
    """
    path = Path(path)
    if format is None:
        format = trace_format_for(path)
    if format == "chrome":
        return write_chrome_trace(source, path)
    if format == "jsonl":
        return write_jsonl(source, path)
    if format == "summary":
        path.write_text(summary_tree(source) + "\n")
        return path
    raise ValueError(
        f"unknown trace export format {format!r}; expected one of {EXPORT_FORMATS}"
    )
