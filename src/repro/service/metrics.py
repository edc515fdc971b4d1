"""Service-level metrics: throughput, tail latency, queueing, cache efficacy.

The collector keeps **one ledger** — every job that reached its terminal
state, in the order it did — plus a running queue-depth statistic,
and reduces them to the numbers a service operator watches.  A job is in
the ledger once and has one state, so ``completed`` / ``rejected`` /
``failed`` are filters over it, never separate lists to keep in step; the
service enters jobs from its one transition method (see
:data:`repro.service.job.LIFECYCLE`, where the lifecycle is defined).  The
KPIs:

* throughput — completed jobs/s and aggregate GUPS over the makespan
  (the Section 2.3(II) metric, summed across tenants);
* latency — p50/p99/mean/max of arrival-to-completion time, and SLO
  attainment;
* queueing — mean and peak queue depth;
* cache — hit rate of the filtered-projection cache;
* utilization — busy GPU-seconds over cluster capacity;
* stage split — aggregate filtering vs back-projection seconds across
  completed jobs (the split a single-node result carries, surfaced
  service-wide);
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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..obs.metrics import percentile, plain_sum
from .cache import FilteredProjectionCache
from .job import TERMINAL_STATES, JobsByState, JobState, ReconstructionJob
from .queue import QUOTA_REJECTION_PREFIX

__all__ = ["ServiceMetrics"]


@dataclass
class ServiceMetrics(JobsByState):
    """One ledger of terminal jobs (``jobs``, in the order each became
    terminal — completed jobs in completion order, or with a dispatcher in
    the order their pilots' verdicts landed; the sums below are sensitive
    to it), reduced to service KPIs."""

    # No lock of its own: the owning service's lock serializes mutation
    # and snapshot (report() reads the ledger under that lock).  The three
    # counters are the queue depth over the scheduling cycles seen so far.
    queue_cycles: int = 0  # guarded-by: caller
    queue_depth_sum: int = 0  # guarded-by: caller
    queue_depth_max: int = 0  # guarded-by: caller

    # ------------------------------------------------------------------ #
    def record(self, job: ReconstructionJob) -> None:
        """Enter ``job`` at its terminal transition (it has only one)."""
        if job.state not in TERMINAL_STATES:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not terminal")
        self.jobs.append(job)

    def sample_queue_depth(self, depth: int) -> None:
        self.queue_cycles += 1
        self.queue_depth_sum += depth
        self.queue_depth_max = max(self.queue_depth_max, depth)

    # ------------------------------------------------------------------ #
    @property
    def quota_rejections(self) -> Dict[str, int]:
        """Per-tenant fair-share quota rejections (the 429 backpressure path)."""
        return _quota_rejections(self.rejected)

    def summary(
        self,
        *,
        cache: Optional[FilteredProjectionCache] = None,
        cluster_gpus: Optional[int] = None,
        tenant_weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Reduce everything recorded so far to a flat KPI dictionary."""
        # One walk of the ledger splits it by state, each part in ledger order.
        completed: List[ReconstructionJob] = []
        rejected: List[ReconstructionJob] = []
        failed: List[ReconstructionJob] = []
        for job in self.jobs:
            if job.state is JobState.COMPLETED:
                completed.append(job)
            elif job.state is JobState.REJECTED:
                rejected.append(job)
            else:  # record() enters terminal jobs only
                failed.append(job)
        latencies = [
            j.latency_seconds for j in completed if j.latency_seconds is not None
        ]
        # First arrival to last completion across the replayed workload.
        makespan = (
            max(j.finish_seconds for j in completed)
            - min(j.arrival_seconds for j in completed)
            if completed else 0.0
        )
        n_done = len(completed)
        total_updates = sum(j.problem.updates for j in completed)
        slo_jobs = [j for j in completed if j.slo_seconds is not None]
        # Busy GPU-seconds per tenant, and latencies grouped by tenant.
        tenant_service: Dict[str, float] = {}
        tenant_latencies: Dict[str, List[float]] = {}
        busy_gpu_seconds = 0.0  # summed left to right, as plain_sum does
        for job in completed:
            seconds = (job.runtime_seconds or 0.0) * (job.gpus or 0)
            busy_gpu_seconds += seconds
            tenant_service[job.tenant] = tenant_service.get(job.tenant, 0.0) + seconds
            if job.latency_seconds is not None:
                tenant_latencies.setdefault(job.tenant, []).append(job.latency_seconds)
        out: Dict[str, float] = {
            "jobs_completed": float(n_done),
            "jobs_rejected": float(len(rejected)),
            "jobs_failed": float(len(failed)),
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
            "queue_depth_mean": (
                self.queue_depth_sum / self.queue_cycles if self.queue_cycles else 0.0
            ),
            "queue_depth_max": float(self.queue_depth_max),
        }
        filter_total = plain_sum(j.filter_seconds or 0.0 for j in completed)
        bp_total = plain_sum(j.backprojection_seconds or 0.0 for j in completed)
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
        executed = [j for j in completed if j.worker_seconds is not None]
        if executed:
            out["jobs_executed"] = float(len(executed))
            out["executed_wall_seconds_total"] = plain_sum(
                j.executed_wall_seconds for j in executed
            )
            out["worker_seconds_total"] = plain_sum(
                j.worker_seconds for j in executed
            )
        # One flat entry per scenario in the completed mix, so operators
        # (and the JSON report) see which acquisition protocols the
        # cluster actually served.
        for scenario, count in sorted(_scenario_counts(completed).items()):
            out[f"scenario[{scenario}]_jobs"] = float(count)
        # Per-tenant tail latency: the aggregate p99 of a multi-tenant mix
        # hides a starved tenant; the per-tenant p99 does not.
        for tenant, latencies_t in sorted(tenant_latencies.items()):
            out[f"tenant[{tenant}]_jobs"] = float(len(latencies_t))
            out[f"tenant[{tenant}]_p99_s"] = percentile(latencies_t, 99.0)
        # Quota rejections ride along whenever the fair-share layer
        # rejected anything, keeping non-fair report shapes exact.
        quota = _quota_rejections(rejected)
        if quota:
            out["quota_rejections"] = float(
                sum(quota.values())  # repro-lint: disable=float-sum -- counts: ints
            )
            for tenant, count in sorted(quota.items()):
                out[f"tenant[{tenant}]_quota_rejections"] = float(count)
        # Fairness KPIs are opt-in via tenant_weights (the service passes
        # its FairShareQueue's resolved weights): each tenant's share of
        # the placed service and Jain's index over weight-normalized
        # service — 1.0 means every tenant got exactly its weighted share.
        if tenant_weights is not None:
            from .fairness import jains_index  # late: fairness imports queue

            total_service = plain_sum(tenant_service.values())
            normalized: List[float] = []
            for tenant, seconds in sorted(tenant_service.items()):
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


def _scenario_counts(completed: List[ReconstructionJob]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for job in completed:
        counts[job.scenario] = counts.get(job.scenario, 0) + 1
    return counts


def _quota_rejections(rejected: List[ReconstructionJob]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for job in rejected:
        reason = job.rejection_reason or ""
        if reason.startswith(QUOTA_REJECTION_PREFIX):
            counts[job.tenant] = counts.get(job.tenant, 0) + 1
    return counts
