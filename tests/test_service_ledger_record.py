"""``ServiceMetrics.record()`` finds a job already in the ledger by its id.

A pilot's verdict can reach a job after the simulated event loop entered
it, so ``record()`` must tell a second verdict from a first one.  It keeps
the ``id()`` of every ledger job instead of scanning the ledger on each
failure.  A Hypothesis test drives random ``record()`` sequences, second
verdicts both ways round among them, against a ledger kept by that scan.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ReconstructionJob
from repro.service.job import JobState
from repro.service.metrics import ServiceMetrics

SMALL = "512x512x1024->256x256x256"


def _scanned_record(ledger, job) -> bool:
    """``record()`` as a scan of the ledger: a failure already there is not
    entered again; every other terminal job is."""
    if job.state is JobState.FAILED and any(entry is job for entry in ledger):
        return False
    ledger.append(job)
    return True


def _completed(job: ReconstructionJob, now: float) -> ReconstructionJob:
    job.mark_running(now, gpus=1, rows=1, columns=1, cache_hit=False)
    job.mark_completed(now + 1.0)
    return job


operations = st.lists(
    st.tuples(
        st.sampled_from(["complete", "reject", "fail", "overturn", "complete_failed"]),
        st.integers(0, 10**6),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(operations=operations)
def test_record_agrees_with_a_ledger_scan(operations):
    metrics = ServiceMetrics()
    ledger = []
    for step, (kind, pick) in enumerate(operations):
        completed = [job for job in ledger if job.state is JobState.COMPLETED]
        failed = [job for job in ledger if job.state is JobState.FAILED]
        if kind == "complete":
            job = _completed(ReconstructionJob(SMALL), float(step))
        elif kind == "reject":
            job = ReconstructionJob(SMALL)
            job.mark_rejected("infeasible: no decomposition")
        elif kind == "fail":
            job = ReconstructionJob(SMALL)
            job.mark_failed("pilot worker crashed")
        elif kind == "overturn" and completed:
            # A late pilot failure reaches a job the event loop completed.
            job = completed[pick % len(completed)]
            job.mark_failed("pilot timed out")
        elif kind == "complete_failed" and failed:
            # The pilot's failure drained before the simulated completion.
            job = _completed(failed[pick % len(failed)], float(step))
        else:
            continue
        expected = _scanned_record(ledger, job)
        assert metrics.record(job) is expected
        assert len(metrics.jobs) == len(ledger)
        assert all(a is b for a, b in zip(metrics.jobs, ledger))

