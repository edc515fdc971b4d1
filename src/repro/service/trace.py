"""Multi-tenant arrival traces: JSON format, replay input, synthesis.

A trace is the workload the service replays on its simulated clock: one
entry per job with an arrival time, the submitting tenant, the problem
specification (``"NuxNvxNp->NxxNyxNz"``), the dataset content key, a
priority class and a latency SLO.  Traces round-trip through a small JSON
document::

    {
      "version": 1,
      "cluster_gpus": 16,
      "jobs": [
        {"id": "job-0000", "tenant": "tenant-0", "arrival": 0.0,
         "problem": "1024x1024x1024->512x512x512", "dataset": "ds-2",
         "priority": 1, "slo": 20.0, "ramp_filter": "ram-lak"},
        ...
      ]
    }

:func:`synthetic_trace` generates the mixed multi-tenant workload used by
``repro serve``, the throughput benchmark and the example: a seeded Poisson
arrival process over a population of Table-4-class interactive jobs and
2K-class heavy reconstructions (the Figure 6 problem), with tenants
re-requesting a small pool of datasets so the filtered-projection cache
sees repeats — the traffic shape a hospital PACS or beamline facility
produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.types import problem_from_string
from ..obs.metrics import plain_sum
from .job import ReconstructionJob

__all__ = ["ArrivalTrace", "synthetic_trace"]

TRACE_VERSION = 1

#: The interactive slice of the synthetic workload: Table-4-class problems
#: (1024-projection scans, small-to-medium outputs) a single node can serve.
MIXED_TABLE4_PROBLEMS: Sequence[str] = (
    "512x512x1024->256x256x256",
    "512x512x1024->512x512x512",
    "1024x1024x1024->512x512x512",
    "1024x1024x1024->1024x1024x1024",
    "2048x2048x1024->1024x1024x1024",
)

#: The heavy slice: the Figure 6 2K reconstruction (4096 projections,
#: 2048^3 output) whose sub-volume forces R >= 4 on a 16 GB V100.
HEAVY_PROBLEM = "2048x2048x4096->2048x2048x2048"


@dataclass(frozen=True)
class TraceEntry:
    """One job request in a trace."""

    job_id: str
    tenant: str
    arrival_seconds: float
    problem: str
    dataset_id: str
    priority: int = 1
    slo_seconds: Optional[float] = None
    ramp_filter: str = "ram-lak"
    scenario: str = "full_scan"

    def __post_init__(self) -> None:
        # ``not x >= 0``, so that NaN fails too — ``json`` reads a bare NaN.
        # Refused here, by name: a NaN arrival never becomes due, and a
        # replay of it would not end.
        if not self.arrival_seconds >= 0:
            raise ValueError(
                f"trace entry {self.job_id!r}: arrival must be a non-negative "
                f"number (got {self.arrival_seconds!r})"
            )
        if self.slo_seconds is not None and not self.slo_seconds > 0:
            raise ValueError(
                f"trace entry {self.job_id!r}: slo must be positive when given "
                f"(got {self.slo_seconds!r})"
            )

    def to_json(self) -> Dict:
        return {
            "id": self.job_id,
            "tenant": self.tenant,
            "arrival": self.arrival_seconds,
            "problem": self.problem,
            "dataset": self.dataset_id,
            "priority": self.priority,
            "slo": self.slo_seconds,
            "ramp_filter": self.ramp_filter,
            "scenario": self.scenario,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "TraceEntry":
        try:
            return cls(
                job_id=str(payload["id"]),
                tenant=str(payload.get("tenant", "default")),
                arrival_seconds=float(payload["arrival"]),
                problem=str(payload["problem"]),
                dataset_id=str(payload.get("dataset", "")),
                priority=int(payload.get("priority", 1)),
                slo_seconds=(
                    None if payload.get("slo") is None else float(payload["slo"])
                ),
                ramp_filter=str(payload.get("ramp_filter", "ram-lak")),
                scenario=str(payload.get("scenario", "full_scan")),
            )
        except KeyError as exc:
            raise ValueError(f"trace entry missing required field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"trace entry field has the wrong type: {exc}") from exc

    def to_job(self) -> ReconstructionJob:
        return ReconstructionJob(
            problem=problem_from_string(self.problem),
            tenant=self.tenant,
            dataset_id=self.dataset_id or f"dataset-{self.job_id}",
            priority=self.priority,
            slo_seconds=self.slo_seconds,
            arrival_seconds=self.arrival_seconds,
            ramp_filter=self.ramp_filter,
            scenario=self.scenario,
            job_id=self.job_id,
        )


@dataclass
class ArrivalTrace:
    """An ordered multi-tenant workload plus the cluster it targets."""

    entries: List[TraceEntry] = field(default_factory=list)
    cluster_gpus: int = 16
    description: str = ""

    def __post_init__(self) -> None:
        if self.cluster_gpus <= 0:
            raise ValueError("cluster_gpus must be positive")
        self.entries = sorted(self.entries, key=lambda e: (e.arrival_seconds, e.job_id))

    def __len__(self) -> int:
        return len(self.entries)

    def jobs(self) -> List[ReconstructionJob]:
        """Fresh :class:`ReconstructionJob` objects, in arrival order."""
        return [entry.to_job() for entry in self.entries]

    @property
    def tenants(self) -> List[str]:
        return sorted({entry.tenant for entry in self.entries})

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(
            {
                "version": TRACE_VERSION,
                "cluster_gpus": self.cluster_gpus,
                "description": self.description,
                "jobs": [entry.to_json() for entry in self.entries],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "jobs" not in payload:
            raise ValueError("trace must be a JSON object with a 'jobs' array")
        if not isinstance(payload["jobs"], list):
            raise ValueError(
                f"trace 'jobs' must be an array, got "
                f"{type(payload['jobs']).__name__}"
            )
        version = payload.get("version", TRACE_VERSION)
        if version != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version!r}")
        if not all(isinstance(job, dict) for job in payload["jobs"]):
            raise ValueError("every trace job entry must be a JSON object")
        try:
            cluster_gpus = int(payload.get("cluster_gpus", 16))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"trace 'cluster_gpus' must be an integer: {exc}"
            ) from exc
        return cls(
            entries=[TraceEntry.from_json(job) for job in payload["jobs"]],
            cluster_gpus=cluster_gpus,
            description=str(payload.get("description", "")),
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ArrivalTrace":
        return cls.from_json(Path(path).read_text())


def synthetic_trace(
    n_jobs: int = 24,
    *,
    cluster_gpus: int = 16,
    seed: int = 0,
    n_tenants: int = 4,
    n_datasets: int = 6,
    heavy_fraction: float = 0.25,
    mean_interarrival_seconds: float = 1.2,
    interactive_slo_seconds: float = 25.0,
    heavy_slo_seconds: float = 90.0,
    scenario_mix: Optional[Dict[str, float]] = None,
    tenant_mix: Optional[Dict[str, float]] = None,
) -> ArrivalTrace:
    """Generate a seeded multi-tenant arrival trace (deterministic per seed).

    Arrivals follow a Poisson process; each job is a heavy 2K reconstruction
    with probability ``heavy_fraction`` and an interactive Table-4-class
    problem otherwise.  Datasets are drawn from a pool of ``n_datasets``
    content keys per class, so repeats exercise the filtered-projection
    cache.  Heavy jobs get a looser SLO and a lower priority class than
    interactive ones, which is what makes naive FIFO's head-of-line
    blocking visible.

    ``scenario_mix`` optionally maps acquisition-scenario preset names to
    sampling weights (e.g. ``{"full_scan": 0.6, "short_scan": 0.4}``); by
    default every job is a ``full_scan``.  ``tenant_mix`` optionally maps
    tenant names to arrival weights (e.g. ``{"aggressor": 10.0,
    "victim": 1.0}``) and replaces the uniform draw over ``n_tenants`` —
    the skewed-load input of the fair-share benchmark.  Both mixes use
    *separate* seeded streams, so enabling either changes nothing else
    about the trace.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if not 0.0 <= heavy_fraction <= 1.0:
        raise ValueError("heavy_fraction must be in [0, 1]")
    scenario_names: List[str] = []
    scenario_weights: List[float] = []
    if scenario_mix:
        for name, weight in scenario_mix.items():
            if weight < 0:
                raise ValueError(f"scenario weight for {name!r} must be >= 0")
            scenario_names.append(str(name))
            scenario_weights.append(float(weight))
        total = plain_sum(scenario_weights)
        if total <= 0:
            raise ValueError("scenario_mix weights must sum to a positive value")
        scenario_weights = [w / total for w in scenario_weights]
    tenant_names: List[str] = []
    tenant_weights: List[float] = []
    if tenant_mix:
        for name, weight in tenant_mix.items():
            if weight < 0:
                raise ValueError(f"tenant weight for {name!r} must be >= 0")
            tenant_names.append(str(name))
            tenant_weights.append(float(weight))
        total = plain_sum(tenant_weights)
        if total <= 0:
            raise ValueError("tenant_mix weights must sum to a positive value")
        tenant_weights = [w / total for w in tenant_weights]
    scenario_rng = np.random.default_rng(seed + 0x5C)
    tenant_rng = np.random.default_rng(seed + 0x7E)
    rng = np.random.default_rng(seed)
    entries: List[TraceEntry] = []
    now = 0.0
    for index in range(n_jobs):
        if index > 0:
            now += float(rng.exponential(mean_interarrival_seconds))
        scenario = (
            str(scenario_rng.choice(scenario_names, p=scenario_weights))
            if scenario_names else "full_scan"
        )
        heavy = bool(rng.random() < heavy_fraction)
        if heavy:
            problem = HEAVY_PROBLEM
            dataset = f"heavy-ds-{int(rng.integers(max(1, n_datasets // 2)))}"
            priority = 2
            slo = heavy_slo_seconds
        else:
            problem = str(rng.choice(list(MIXED_TABLE4_PROBLEMS)))
            dataset = f"scan-ds-{int(rng.integers(n_datasets))}"
            priority = int(rng.integers(0, 2))
            slo = interactive_slo_seconds
        # The uniform draw always happens so the main stream (arrivals,
        # problems, datasets) is identical with and without a tenant_mix.
        tenant = f"tenant-{int(rng.integers(n_tenants))}"
        if tenant_names:
            tenant = str(tenant_rng.choice(tenant_names, p=tenant_weights))
        entries.append(
            TraceEntry(
                job_id=f"job-{index:04d}",
                tenant=tenant,
                arrival_seconds=round(now, 3),
                problem=problem,
                dataset_id=dataset,
                priority=priority,
                slo_seconds=slo,
                scenario=scenario,
            )
        )
    return ArrivalTrace(
        entries=entries,
        cluster_gpus=cluster_gpus,
        description=(
            f"synthetic mixed workload: {n_jobs} jobs, "
            f"{heavy_fraction:.0%} heavy 2K reconstructions, seed {seed}"
        ),
    )
