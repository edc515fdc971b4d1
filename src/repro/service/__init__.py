"""Reconstruction-as-a-service: multi-tenant scheduling over the iFDK model.

The serving layer turns the one-shot Section 4 pipeline into a multi-tenant
service: jobs arrive with priorities and latency SLOs, an admission-
controlled queue feeds an SLO-aware scheduler that packs concurrent jobs
onto a simulated GPU cluster using Eq. 8-19 cost estimates, and a
content-keyed LRU cache of filtered projections lets repeat requests skip
the filtering stage.  ``repro serve`` and ``repro submit`` expose it on the
command line.

Real serving rides on three durable pieces: the
:class:`~repro.service.process_dispatch.ProcessDispatcher` — the one way a
placed job executes for real (``workers=N``) — runs pilots in a
crash-isolated process pool with per-job timeouts and bounded retries, the
:class:`~repro.service.store.JobStore` journals every job
transition so ``repro serve --state-dir`` recovers its queue after a kill,
and a :class:`~repro.service.cache.FilteredProjectionCache` on a directory
(``--cache-dir``) shares filtered projections across processes.  The
:class:`~repro.service.http.ServiceHTTPServer` exposes it all over
HTTP/JSON, speaking :class:`~repro.api.ReconstructionPlan`.
"""

from ..obs.metrics import percentile
from .cache import CacheKey, FilteredProjectionCache, fingerprint_stack
from .cache import OnDiskFilteredCache
from .fairness import FairShareQueue, jains_index
from .http import ServiceHTTPServer
from .job import JobState, ReconstructionJob, job_sort_key
from .metrics import ServiceMetrics
from .process_dispatch import ProcessDispatcher
from .queue import AdmissionPolicy, JobQueue
from .scheduler import ClusterScheduler, GPUCluster, Placement
from .service import ReconstructionService
from .store import JobStore
from .trace import (
    ArrivalTrace,
    synthetic_trace,
)

__all__ = [
    "AdmissionPolicy",
    "ArrivalTrace",
    "CacheKey",
    "ClusterScheduler",
    "FairShareQueue",
    "FilteredProjectionCache",
    "GPUCluster",
    "JobQueue",
    "JobState",
    "JobStore",
    "OnDiskFilteredCache",
    "Placement",
    "ProcessDispatcher",
    "ReconstructionJob",
    "ReconstructionService",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "fingerprint_stack",
    "jains_index",
    "job_sort_key",
    "percentile",
    "synthetic_trace",
]
