"""The span tracer: nested, attributed, thread-safe timing records.

A :class:`Span` is one timed unit of work — a filter pass, a worker's tile
loop, a scheduling cycle — with a name, wall-clock bounds, an id/parent-id
pair (so spans nest into a tree), the recording thread and a free-form
attribute mapping (backend, scenario, worker index, payload bytes).  A
:class:`Tracer` collects spans from any number of threads; the exporters in
:mod:`repro.obs.export` turn the collected list into Chrome trace-event
JSON, JSON-lines or a human-readable summary tree.

Two disciplines keep tracing out of the hot path's way:

* **Ambient installation.**  Code that wants spans never takes a tracer
  parameter; it calls :func:`get_tracer` and gets whatever the caller
  installed with :func:`use_tracer` — by default the process-wide
  :data:`NULL_TRACER`.  The backend drivers, the worker pool and the
  service are all instrumented unconditionally against that seam.
* **A strict no-op mode.**  :class:`NullTracer` hands out one shared,
  stateless context manager and records nothing; its per-span cost is a
  dict construction and two no-op calls (bounded by
  ``tests/test_obs.py::test_null_tracer_overhead_is_negligible``).  With no
  tracer installed, reconstruction wall time is indistinguishable from the
  pre-instrumentation baseline.

Cross-thread nesting is explicit: a dispatcher captures
:meth:`Tracer.current_span_id` on the submitting thread and passes it as
``parent=`` when opening spans on worker threads, because thread-local
span stacks do not (and must not) leak across the pool boundary.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_TRACER",
    "Span",
    "Tracer",
    "get_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class Span:
    """One finished timed span, relative to its tracer's epoch."""

    name: str
    start: float
    stop: float
    span_id: int
    parent_id: Optional[int] = None
    thread: str = ""
    payload_bytes: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.stop - self.start

    def as_record(self) -> Dict[str, Any]:
        """Flat JSON-serializable form (the JSON-lines schema)."""
        return {
            "name": self.name,
            "start": self.start,
            "stop": self.stop,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "payload_bytes": self.payload_bytes,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`as_record`; raises ValueError when malformed."""
        if not isinstance(record, dict):
            raise ValueError(f"span record must be an object, got {type(record).__name__}")
        try:
            return cls(
                name=str(record["name"]),
                start=float(record["start"]),
                stop=float(record["stop"]),
                span_id=int(record["span_id"]),
                parent_id=(
                    None if record.get("parent_id") is None
                    else int(record["parent_id"])
                ),
                thread=str(record.get("thread", "")),
                payload_bytes=int(record.get("payload_bytes", 0)),
                attrs=dict(record.get("attrs", {})),
            )
        except KeyError as exc:
            raise ValueError(f"span record missing required field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"span record field has the wrong type: {exc}") from exc


class _ActiveSpan:
    """Context manager of one in-flight span (internal)."""

    __slots__ = ("_tracer", "name", "payload_bytes", "attrs", "span_id",
                 "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, payload_bytes: int,
                 parent_id: Optional[int], attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.payload_bytes = payload_bytes
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1]
        stack.append(self.span_id)
        self.start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        stop = tracer._clock()
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        tracer._append(
            Span(
                name=self.name,
                start=self.start - tracer.t0,
                stop=stop - tracer.t0,
                span_id=self.span_id,
                parent_id=self.parent_id,
                thread=threading.current_thread().name,
                payload_bytes=self.payload_bytes,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Thread-safe collector of nested :class:`Span` records.

    All span times are relative to the tracer's construction epoch ``t0``,
    so spans recorded on different threads share one timeline and the
    exported trace starts near zero.
    """

    #: Whether spans are actually recorded (the :class:`NullTracer` lies
    #: about nothing: instrumentation may branch on this to skip building
    #: expensive attributes).
    enabled: bool = True

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self.t0 = clock()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = iter(range(1, 2**63))
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        payload_bytes: int = 0,
        *,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> _ActiveSpan:
        """Context manager timing one unit of work.

        ``parent`` overrides the ambient (thread-local) parent — the
        cross-thread case; within one thread, nesting is automatic.
        """
        return _ActiveSpan(self, name, payload_bytes, parent, attrs)

    def record(
        self,
        name: str,
        start: float,
        stop: float,
        payload_bytes: int = 0,
        *,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-timed span (``start``/``stop`` on this
        tracer's clock, absolute — the epoch is subtracted here)."""
        span = Span(
            name=name,
            start=start - self.t0,
            stop=stop - self.t0,
            span_id=self._next_id(),
            parent_id=parent,
            thread=threading.current_thread().name,
            payload_bytes=payload_bytes,
            attrs=attrs,
        )
        self._append(span)
        return span

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on *this* thread (for explicit
        cross-thread parenting), or ``None`` outside any span."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def stage_totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


class _NullSpan:
    """The shared no-op context manager every disabled span call returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The strict no-op tracer: records nothing, allocates nothing per span.

    One process-wide instance (:data:`NULL_TRACER`) is the default ambient
    tracer, so every instrumentation point may call
    ``get_tracer().span(...)`` unconditionally.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name, payload_bytes=0, *, parent=None, **attrs):  # noqa: ARG002
        return _NULL_SPAN

    def record(self, name, start, stop, payload_bytes=0, *, parent=None, **attrs):  # noqa: ARG002
        return None

    def current_span_id(self) -> Optional[int]:
        return None

    def _append(self, span: Span) -> None:  # pragma: no cover - defensive
        pass


#: The process-wide disabled tracer (see :class:`NullTracer`).
NULL_TRACER = NullTracer()

_ambient = threading.local()


def get_tracer() -> Tracer:
    """The tracer installed on this thread (default: :data:`NULL_TRACER`).

    Reads the thread-local's ``__dict__``: ``getattr`` with a default
    raises and catches an ``AttributeError`` on every call from a thread
    with no tracer installed, and the service asks once per event.
    """
    return _ambient.__dict__.get("tracer", NULL_TRACER)


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Tracer]:
    """Install ``tracer`` as this thread's ambient tracer for the block.

    ``None`` installs :data:`NULL_TRACER` (explicitly disabling tracing in
    the block regardless of what the caller had installed).  Restores the
    previous ambient tracer on exit, so installations nest.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    previous = getattr(_ambient, "tracer", None)
    _ambient.tracer = tracer
    try:
        yield tracer
    finally:
        if previous is None:
            del _ambient.tracer
        else:
            _ambient.tracer = previous
