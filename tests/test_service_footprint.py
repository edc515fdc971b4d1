"""What the service keeps per job: a slotted job, and records built on read.

A service keeps every job it has seen (registry, metrics ledger, report),
so a job's size is the service's per-job memory.  ``ReconstructionJob``
keeps its fields in ``__slots__`` on every Python version, and a
:class:`~repro.service.service.ServiceReport` builds its per-job records
only when they are first read.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import tracemalloc

import pytest

from repro.service import ReconstructionJob, ReconstructionService, synthetic_trace

SMALL = "512x512x1024->256x256x256"


def finished_job() -> ReconstructionJob:
    """A job with every kind of field set, its cache key memoised."""
    job = ReconstructionJob(
        SMALL, tenant="t", dataset_id="ds", priority=0, slo_seconds=30.0,
        arrival_seconds=2.0, scenario="short_scan", tenant_weight=2.0,
        max_inflight=3, plan_key="plan-k", acquisition="acq",
    )
    assert job.cache_key is job.cache_key
    job.mark_queued()
    job.mark_running(3.0, gpus=2, rows=1, columns=2, cache_hit=True,
                     filter_seconds=0.5, backprojection_seconds=1.5)
    job.mark_completed(9.0)
    job.mark_executed(0.1, 0.4, workers=2)
    job.pilot_cache_hit = True
    job.execution_attempts = 1
    return job


def test_a_job_has_no_instance_dict():
    assert not hasattr(ReconstructionJob(SMALL), "__dict__")


def test_a_job_refuses_an_attribute_that_is_not_a_field():
    job = ReconstructionJob(SMALL)
    with pytest.raises(AttributeError):
        job.finsh_seconds = 1.0  # a misspelt field


def test_a_trace_job_costs_at_most_600_bytes():
    trace = synthetic_trace(2000, cluster_gpus=16, seed=0)
    trace.jobs()  # warm whatever a first build caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jobs = trace.jobs()
        per_job = (tracemalloc.get_traced_memory()[0] - before) / len(jobs)
    finally:
        tracemalloc.stop()
    assert per_job <= 600, f"{per_job:.0f} B per trace job"


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips_a_job_exactly(protocol):
    job = finished_job()
    copy = pickle.loads(pickle.dumps(job, protocol))
    assert copy == job
    for field in dataclasses.fields(job):
        assert getattr(copy, field.name) == getattr(job, field.name), field.name
    assert copy.cache_key == job.cache_key
    assert json.dumps(copy.as_record()) == json.dumps(job.as_record())


def test_payload_round_trips_a_job_exactly():
    payload = finished_job().to_payload()
    assert ReconstructionJob.from_payload(payload).to_payload() == payload
    through_json = json.loads(json.dumps(payload))
    assert ReconstructionJob.from_payload(through_json).to_payload() == payload


def test_a_reports_records_are_built_on_first_read(monkeypatch):
    built = []
    as_record = ReconstructionJob.as_record

    def counting(job):
        built.append(job.job_id)
        return as_record(job)

    monkeypatch.setattr(ReconstructionJob, "as_record", counting)
    trace = synthetic_trace(400, cluster_gpus=16, seed=1)
    with ReconstructionService(16) as service:
        report = service.replay(trace)
        assert built == []  # the replay itself builds no record
        ledger = sorted(service.metrics.jobs, key=lambda j: (j.arrival_seconds, j.sequence))
        eager = [as_record(job) for job in ledger]
    lazy = report.jobs
    assert len(built) == len(trace)
    assert report.jobs is lazy and len(built) == len(trace)  # built once
    assert json.dumps(lazy, sort_keys=True) == json.dumps(eager, sort_keys=True)
    assert json.dumps(report.as_dict()["jobs"]) == json.dumps(eager)
