"""Service-level metrics: throughput, tail latency, queueing, cache efficacy.

The collector accumulates one record per finished (or rejected) job plus a
time series of queue-depth samples, and reduces them to the numbers a
service operator watches:

* throughput — completed jobs/s and aggregate GUPS over the makespan
  (the Section 2.3(II) metric, summed across tenants);
* latency — p50/p99/mean/max of arrival-to-completion time, and SLO
  attainment;
* queueing — mean and peak queue depth;
* cache — hit rate of the filtered-projection cache;
* utilization — busy GPU-seconds over cluster capacity;
* stage split — aggregate filtering vs back-projection seconds across
  completed jobs (the ``FDKResult``-level split, surfaced service-wide);
* worker accounting — when placements run for real on the dispatcher,
  the measured wall seconds and worker occupancy of those executions,
  summed across jobs;
* failures — jobs whose real execution crashed or timed out past the
  retry budget (the dispatcher's own retry/timeout/crash counters join
  the summary in :meth:`ReconstructionService.report`), so "failed loudly"
  is visible in the same summary operators already read;
* per-tenant tails — p99 latency and job count per tenant, because a
  multi-tenant service's aggregate p99 hides exactly the tenant being
  starved;
* fairness — per-tenant quota rejections (the HTTP 429 backpressure
  path), each tenant's share of the placed service seconds and a Jain's
  fairness index over weight-normalized service, emitted when the service
  runs the :class:`~repro.service.fairness.FairShareQueue` (the
  ``tenant_weights`` argument of :meth:`ServiceMetrics.summary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from .cache import FilteredProjectionCache
from .job import JobState, ReconstructionJob
from .queue import QUOTA_REJECTION_PREFIX

__all__ = ["QueueSample", "ServiceMetrics", "percentile"]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for an empty series."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class QueueSample:
    """Queue depth observed at one scheduling event."""

    time_seconds: float
    depth: int


@dataclass
class ServiceMetrics:
    """Accumulates per-job outcomes and reduces them to service KPIs."""

    # No lock of its own: the owning service's lock serializes mutation
    # and snapshot (report() copies these lists under that lock).
    completed: List[ReconstructionJob] = field(default_factory=list)  # guarded-by: caller
    rejected: List[ReconstructionJob] = field(default_factory=list)  # guarded-by: caller
    failed: List[ReconstructionJob] = field(default_factory=list)  # guarded-by: caller
    queue_samples: List[QueueSample] = field(default_factory=list)  # guarded-by: caller

    # ------------------------------------------------------------------ #
    def record_completion(self, job: ReconstructionJob) -> None:
        if job.state is not JobState.COMPLETED:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not completed")
        self.completed.append(job)

    def record_rejection(self, job: ReconstructionJob) -> None:
        if job.state is not JobState.REJECTED:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not rejected")
        self.rejected.append(job)

    def record_failure(self, job: ReconstructionJob) -> bool:
        """Record a job whose real execution failed (crash/timeout).

        The simulated event loop may already have counted the job as
        completed — the pilot verdict arrives when the dispatcher drains,
        after the discrete clock moved on — so a failed job is *removed*
        from the completed list: one job, one outcome.  Returns ``True``
        when a completion was overturned this way, so callers keeping
        monotonic completion counters (e.g. the obs registry) can count
        the demotion separately.
        """
        if job.state is not JobState.FAILED:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not failed")
        demoted = True
        try:
            self.completed.remove(job)
        except ValueError:
            demoted = False
        self.failed.append(job)
        return demoted

    def sample_queue_depth(self, now: float, depth: int) -> None:
        self.queue_samples.append(QueueSample(time_seconds=now, depth=depth))

    # ------------------------------------------------------------------ #
    @property
    def latencies(self) -> List[float]:
        return [j.latency_seconds for j in self.completed if j.latency_seconds is not None]

    @property
    def scenario_counts(self) -> Dict[str, int]:
        """Completed jobs per acquisition scenario (the workload mix)."""
        counts: Dict[str, int] = {}
        for job in self.completed:
            counts[job.scenario] = counts.get(job.scenario, 0) + 1
        return counts

    @property
    def tenant_latencies(self) -> Dict[str, List[float]]:
        """Arrival-to-completion latencies grouped by tenant."""
        grouped: Dict[str, List[float]] = {}
        for job in self.completed:
            if job.latency_seconds is not None:
                grouped.setdefault(job.tenant, []).append(job.latency_seconds)
        return grouped

    @property
    def quota_rejections(self) -> Dict[str, int]:
        """Per-tenant fair-share quota rejections (the 429 backpressure path)."""
        counts: Dict[str, int] = {}
        for job in self.rejected:
            reason = job.rejection_reason or ""
            if reason.startswith(QUOTA_REJECTION_PREFIX):
                counts[job.tenant] = counts.get(job.tenant, 0) + 1
        return counts

    def tenant_service_seconds(self) -> Dict[str, float]:
        """Busy GPU-seconds per tenant across completed jobs."""
        grouped: Dict[str, float] = {}
        for job in self.completed:
            seconds = (job.runtime_seconds or 0.0) * (job.gpus or 0)
            grouped[job.tenant] = grouped.get(job.tenant, 0.0) + seconds
        return grouped

    @property
    def makespan_seconds(self) -> float:
        """First arrival to last completion across the replayed workload."""
        if not self.completed:
            return 0.0
        start = min(j.arrival_seconds for j in self.completed)
        finish = max(j.finish_seconds for j in self.completed)
        return finish - start

    def summary(
        self,
        *,
        cache: Optional[FilteredProjectionCache] = None,
        cluster_gpus: Optional[int] = None,
        tenant_weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Reduce everything recorded so far to a flat KPI dictionary."""
        latencies = self.latencies
        makespan = self.makespan_seconds
        n_done = len(self.completed)
        total_updates = sum(j.problem.updates for j in self.completed)
        slo_jobs = [j for j in self.completed if j.slo_seconds is not None]
        busy_gpu_seconds = sum(
            (j.runtime_seconds or 0.0) * (j.gpus or 0) for j in self.completed
        )
        depths = [s.depth for s in self.queue_samples]
        out: Dict[str, float] = {
            "jobs_completed": float(n_done),
            "jobs_rejected": float(len(self.rejected)),
            "jobs_failed": float(len(self.failed)),
            "makespan_s": makespan,
            "throughput_jobs_per_s": (n_done / makespan) if makespan > 0 else float("nan"),
            "aggregate_gups": (
                total_updates / (makespan * 2.0**30) if makespan > 0 else float("nan")
            ),
            "latency_p50_s": percentile(latencies, 50.0),
            "latency_p99_s": percentile(latencies, 99.0),
            "latency_mean_s": float(np.mean(latencies)) if latencies else float("nan"),
            "latency_max_s": max(latencies) if latencies else float("nan"),
            "slo_attainment": (
                sum(1 for j in slo_jobs if j.met_slo) / len(slo_jobs)
                if slo_jobs else float("nan")
            ),
            "queue_depth_mean": float(np.mean(depths)) if depths else 0.0,
            "queue_depth_max": float(max(depths)) if depths else 0.0,
        }
        filter_total = sum(j.filter_seconds or 0.0 for j in self.completed)
        bp_total = sum(j.backprojection_seconds or 0.0 for j in self.completed)
        out["filter_seconds_total"] = filter_total
        out["backprojection_seconds_total"] = bp_total
        # 0.0 (not NaN) when nothing completed: the report must stay valid
        # JSON for strict parsers even on an all-rejected replay.
        out["filter_fraction"] = (
            filter_total / (filter_total + bp_total)
            if (filter_total + bp_total) > 0 else 0.0
        )
        # Real-execution worker accounting (absent when nothing ran for
        # real, so model-only reports keep their exact shape).
        executed = [j for j in self.completed if j.worker_seconds is not None]
        if executed:
            out["jobs_executed"] = float(len(executed))
            out["executed_wall_seconds_total"] = float(
                sum(j.executed_wall_seconds for j in executed)
            )
            out["worker_seconds_total"] = float(
                sum(j.worker_seconds for j in executed)
            )
        # One flat entry per scenario in the completed mix, so operators
        # (and the JSON report) see which acquisition protocols the
        # cluster actually served.
        for scenario, count in sorted(self.scenario_counts.items()):
            out[f"scenario[{scenario}]_jobs"] = float(count)
        # Per-tenant tail latency: the aggregate p99 of a multi-tenant mix
        # hides a starved tenant; the per-tenant p99 does not.
        for tenant, latencies_t in sorted(self.tenant_latencies.items()):
            out[f"tenant[{tenant}]_jobs"] = float(len(latencies_t))
            out[f"tenant[{tenant}]_p99_s"] = percentile(latencies_t, 99.0)
        # Quota rejections ride along whenever the fair-share layer
        # rejected anything, keeping non-fair report shapes exact.
        quota = self.quota_rejections
        if quota:
            out["quota_rejections"] = float(sum(quota.values()))
            for tenant, count in sorted(quota.items()):
                out[f"tenant[{tenant}]_quota_rejections"] = float(count)
        # Fairness KPIs are opt-in via tenant_weights (the service passes
        # its FairShareQueue's resolved weights): each tenant's share of
        # the placed service and Jain's index over weight-normalized
        # service — 1.0 means every tenant got exactly its weighted share.
        if tenant_weights is not None:
            from .fairness import jains_index  # late: fairness imports queue

            service = self.tenant_service_seconds()
            total_service = sum(service.values())
            normalized: List[float] = []
            for tenant, seconds in sorted(service.items()):
                if total_service > 0:
                    out[f"tenant[{tenant}]_share_of_service"] = (
                        seconds / total_service
                    )
                normalized.append(
                    seconds / float(tenant_weights.get(tenant, 1.0))
                )
            out["fairness_index"] = jains_index(normalized)
        if cache is not None:
            out["cache_hit_rate"] = cache.stats.hit_rate
            out["cache_hits"] = float(cache.stats.hits)
            out["cache_evictions"] = float(cache.stats.evictions)
        if cluster_gpus and makespan > 0:
            out["gpu_utilization"] = busy_gpu_seconds / (cluster_gpus * makespan)
        return out
