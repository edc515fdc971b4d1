"""The metrics registry: counters, gauges and percentile histograms.

Where spans answer *where did the time go inside one run*, metrics answer
*what is this process doing over its lifetime*: how many jobs were
submitted, how deep the queue got, the p99 of queue wait.  A
:class:`MetricsRegistry` hands out named instruments on demand —
get-or-create, thread-safe, no registration step — and reduces them all to
one flat :meth:`~MetricsRegistry.snapshot` dictionary for reports.

The registry deliberately does **not** re-implement the service-level KPI
reductions of :class:`~repro.service.metrics.ServiceMetrics` (latency
percentiles over completed jobs, SLO attainment, GUPS): those stay derived
from the per-job records that are their source of truth.  The registry
covers what per-job records cannot — event counts and distributions
observed *while* the service runs (scheduler decisions, cache hits, queue
waits) — and a disabled registry (:data:`NULL_METRICS`) makes every
instrument a shared no-op, mirroring the tracer's strict no-op mode.
The service's ``service.jobs_*`` counters are bumped from its one
lifecycle transition method, with events defined in
:data:`repro.service.job.LIFECYCLE` — a new lifecycle event is added
there, not here.

:func:`percentile` is the one percentile of the package: the histograms
here and the service KPIs both reduce through it, so they cannot disagree
in the last bit.  :func:`plain_sum` is its one float sum, for the same
reason across interpreters.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

__all__ = [
    "Counter",
    "MetricsRegistry",
    "NULL_METRICS",
    "peak_rss_bytes",
    "percentile",
    "plain_sum",
]


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize to
    bytes.  Platforms without the ``resource`` module report 0 rather than
    failing the run that asked for it.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - not the CI platform
        return int(maxrss)
    return int(maxrss) * 1024


def percentile(values: Sequence[float], q: float) -> float:
    """NumPy's linear-interpolated percentile; ``nan`` for an empty series."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def plain_sum(values: Iterable[float]) -> float:
    """Left to right, one rounding per addition, on every Python.

    The builtin ``sum()`` compensates float rounding from Python 3.12 on,
    which would move the recorded replay digests' last bits with the
    interpreter.  The service's float totals fold through here.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0  # guarded-by: _lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, float]:
        return {self.name: float(self.value)}


class Gauge:
    """A point-in-time value (queue depth, pool occupancy)."""

    __slots__ = ("name", "_lock", "_value", "_max")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._max = max(self._max, self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {self.name: self._value, f"{self.name}_max": self._max}


class Histogram:
    """A distribution with exact linear-interpolated percentiles.

    Observations are kept sorted (``insort``), so percentiles are exact —
    the workloads this registry serves observe thousands of values, not
    millions, and exactness keeps the p50/p99 numbers testable.
    """

    __slots__ = ("name", "_lock", "_sorted", "_sum")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._sorted: List[float] = []  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            insort(self._sorted, value)
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._sorted)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / len(self._sorted) if self._sorted else float("nan")

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` in [0, 100]; NaN if empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            return percentile(self._sorted, q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            if not self._sorted:
                return {f"{self.name}_count": 0.0}
        return {
            f"{self.name}_count": float(self.count),
            f"{self.name}_sum": self.sum,
            f"{self.name}_mean": self.mean,
            f"{self.name}_p50": self.p50,
            f"{self.name}_p99": self.p99,
            f"{self.name}_max": self.percentile(100.0),
        }


class _NullInstrument:
    """Shared stand-in for every instrument of a disabled registry."""

    __slots__ = ()
    name = "<null>"
    value = 0
    max = 0.0
    count = 0
    sum = 0.0
    mean = float("nan")
    p50 = float("nan")
    p99 = float("nan")

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002
        pass

    def set(self, value: float) -> None:  # noqa: ARG002
        pass

    def observe(self, value: float) -> None:  # noqa: ARG002
        pass

    def percentile(self, q: float) -> float:  # noqa: ARG002
        return float("nan")

    def snapshot(self) -> Dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    A name belongs to exactly one instrument kind; asking for the same name
    as a different kind is a programming error and raises.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}  # guarded-by: _lock

    def _get(self, name: str, cls):
        if not self.enabled:
            return _NULL_INSTRUMENT
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name)
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, float]:
        """Every instrument reduced to one flat ``{name: value}`` dict."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, float] = {}
        for instrument in sorted(instruments, key=lambda i: i.name):
            out.update(instrument.snapshot())
        return out


#: The process-wide disabled registry: every instrument is a shared no-op.
NULL_METRICS = MetricsRegistry(enabled=False)
