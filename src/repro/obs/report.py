"""Structured run reports: the per-execution observability record.

Every :meth:`Session.run <repro.api.Session.run>` produces a
:class:`RunReport` alongside the volume: the stage-second split the
reconstructor measured, the back-projection throughput in GUPS, the
process's peak RSS, and — when a real tracer was installed — the per-stage
totals derived from the recorded spans, so the report and the exported
trace are two views of the same numbers (the acceptance criterion pins
them within ±10% of each other).

The report is plain data: everything is JSON-serializable via
:meth:`RunReport.as_dict`, and :meth:`RunReport.summary` renders the
operator-facing text block the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .tracer import Tracer

__all__ = ["RunReport", "peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize to
    bytes.  Platforms without the ``resource`` module report 0 rather than
    failing the run that asked for a report.
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


@dataclass
class RunReport:
    """Observability record of one plan execution."""

    plan_key: str
    target: str
    backend: str
    scenario: str
    problem: str
    wall_seconds: float
    filter_seconds: float
    backprojection_seconds: float
    gups: float
    peak_rss_bytes: int = 0
    traced: bool = False
    span_count: int = 0
    #: Summed seconds per span name (empty when tracing was disabled).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Target-specific extras (iFDK overlap delta, service job record, ...).
    details: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_tracer(
        cls,
        tracer: Optional[Tracer],
        *,
        plan_key: str,
        target: str,
        backend: str,
        scenario: str,
        problem: str,
        wall_seconds: float,
        filter_seconds: float,
        backprojection_seconds: float,
        gups: float,
        details: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Build the report, folding in span-derived stage totals when the
        tracer actually recorded (a null tracer yields an untraced report).
        """
        traced = tracer is not None and tracer.enabled
        details = dict(details or {})
        if traced:  # which kernel executor the back-projection spans name
            executors = {
                span.attrs.get("executor") for span in tracer.spans()
                if span.name == "backproject"
            } - {None}
            if executors:
                details["executor"] = "+".join(sorted(executors))
        return cls(
            plan_key=plan_key,
            target=target,
            backend=backend,
            scenario=scenario,
            problem=problem,
            wall_seconds=wall_seconds,
            filter_seconds=filter_seconds,
            backprojection_seconds=backprojection_seconds,
            gups=gups,
            peak_rss_bytes=peak_rss_bytes(),
            traced=traced,
            span_count=len(tracer) if traced else 0,
            stage_seconds=tracer.stage_totals() if traced else {},
            details=details,
        )

    # ------------------------------------------------------------------ #
    @property
    def stage_sum_seconds(self) -> float:
        """Measured stage split total (filter + back-projection)."""
        return self.filter_seconds + self.backprojection_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "plan_key": self.plan_key,
            "target": self.target,
            "backend": self.backend,
            "scenario": self.scenario,
            "problem": self.problem,
            "wall_seconds": self.wall_seconds,
            "filter_seconds": self.filter_seconds,
            "backprojection_seconds": self.backprojection_seconds,
            "gups": self.gups,
            "peak_rss_bytes": self.peak_rss_bytes,
            "traced": self.traced,
            "span_count": self.span_count,
            "stage_seconds": dict(self.stage_seconds),
            "details": dict(self.details),
        }

    def summary(self) -> str:
        """Operator-facing text block (what ``repro reconstruct`` prints
        to stderr when tracing is on)."""
        executor = self.details.get("executor")
        lines = [
            f"run {self.plan_key} [{self.target}] backend={self.backend} "
            f"scenario={self.scenario} problem={self.problem}",
            f"  wall            {self.wall_seconds:.4f}s",
            f"  filter          {self.filter_seconds:.4f}s",
            f"  backprojection  {self.backprojection_seconds:.4f}s "
            f"({self.gups:.4f} GUPS{f', executor={executor}' if executor else ''})",
            f"  peak RSS        {self.peak_rss_bytes / 2**20:.1f} MiB",
        ]
        if self.traced:
            lines.append(f"  spans           {self.span_count}")
            for stage in sorted(self.stage_seconds):
                lines.append(
                    f"    {stage:<24s} {self.stage_seconds[stage]:.4f}s"
                )
        return "\n".join(lines)
