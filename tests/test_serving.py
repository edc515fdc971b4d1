"""Tests for the durable serving layer: job store, on-disk cache,
process dispatcher and the HTTP front door.

Fast tests (journal replay, disk-cache semantics, in-process restart
recovery, HTTP endpoints, one real-worker retry) run in tier-1.  Tests that
crash, wedge or kill worker processes or a subprocess are additionally
marked ``slow`` — the CI ``service-serving`` job runs them with
``-m serving``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import multiprocessing
import os
import random
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import plan as plan_module
from repro.api import plan_for_problem
from repro.core.types import ProjectionStack, problem_from_string
from repro.core import default_geometry_for_problem
from repro.obs import MetricsRegistry
from repro.service import (
    AdmissionPolicy,
    CacheKey,
    FilteredProjectionCache,
    JobState,
    JobStore,
    OnDiskFilteredCache,
    ProcessDispatcher,
    ReconstructionJob,
    ReconstructionService,
    ServiceHTTPServer,
)

pytestmark = pytest.mark.serving

SMALL = "512x512x1024->256x256x256"
PILOT = "32x32x16->16x16x16"


def make_job(problem=SMALL, **kwargs) -> ReconstructionJob:
    return ReconstructionJob(problem=problem_from_string(problem), **kwargs)


def make_filtered_stack(nu=8, nv=8, np_=4, seed=0) -> ProjectionStack:
    geometry = default_geometry_for_problem(
        nu=nu, nv=nv, np_=np_, nx=4, ny=4, nz=4
    )
    rng = np.random.default_rng(seed)
    return ProjectionStack(
        data=rng.standard_normal((np_, nv, nu)).astype(np.float32),
        angles=geometry.angles,
        filtered=True,
    )


# --------------------------------------------------------------------------- #
# Job store: journal + recovery
# --------------------------------------------------------------------------- #
class TestJobStore:
    def test_round_trip_of_all_lifecycle_events(self, tmp_path):
        store = JobStore(tmp_path)
        done = make_job(job_id="done", dataset_id="ds-1", slo_seconds=60.0)
        store.record("submitted", done)
        store.record("queued", done)
        done.mark_running(1.0, gpus=4, rows=1, columns=4, cache_hit=True,
                          filter_seconds=0.5, backprojection_seconds=2.0)
        store.record("placed", done, finish=9.0)
        done.mark_executed(0.1, 0.4, workers=2)
        done.execution_attempts = 1
        done.pilot_cache_hit = True
        store.record("executed", done)
        done.mark_completed(9.0)
        store.record("completed", done)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert len(recovered) == 1 and not recovered.pending
        job = recovered.completed[0]
        assert job.job_id == "done"
        assert job.state is JobState.COMPLETED
        assert job.start_seconds == 1.0 and job.finish_seconds == 9.0
        assert job.gpus == 4 and job.cache_hit is True
        assert job.slo_seconds == 60.0 and job.met_slo is True
        assert job.pilot_cache_hit is True and job.workers == 2

    def test_in_flight_jobs_recover_as_fresh_pending(self, tmp_path):
        store = JobStore(tmp_path)
        queued = make_job(job_id="q", arrival_seconds=3.0)
        store.record("submitted", queued)
        store.record("queued", queued)
        placed = make_job(job_id="p", arrival_seconds=4.0)
        store.record("submitted", placed)
        store.record("queued", placed)
        placed.mark_running(5.0, gpus=2, rows=1, columns=2, cache_hit=False)
        store.record("placed", placed, finish=30.0)
        store.close()

        recovered = JobStore(tmp_path).recover()
        ids = {job.job_id for job in recovered.pending}
        assert ids == {"q", "p"}
        for job in recovered.pending:
            # Placed-but-incomplete restarts from scratch: at-least-once.
            assert job.state is JobState.PENDING
            assert job.start_seconds is None and job.gpus is None
        by_id = {job.job_id: job for job in recovered.pending}
        assert by_id["q"].arrival_seconds == 3.0

    def test_terminal_classification(self, tmp_path):
        store = JobStore(tmp_path)
        rej = make_job(job_id="rej")
        store.record("submitted", rej)
        rej.mark_rejected("queue full")
        store.record("rejected", rej)
        bad = make_job(job_id="bad")
        store.record("submitted", bad)
        store.record("queued", bad)
        bad.mark_failed("pilot worker crashed")
        store.record("failed", bad)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert not recovered.pending and not recovered.completed
        assert recovered.rejected[0].rejection_reason == "queue full"
        assert recovered.failed[0].state is JobState.FAILED
        assert recovered.failed[0].failure_reason == "pilot worker crashed"

    def test_rejournaled_job_recovers_exactly_once(self, tmp_path):
        # A recovery re-submits in-flight jobs, which re-journals them; the
        # next recovery must still see one job, in its latest state.
        store = JobStore(tmp_path)
        job = make_job(job_id="twice")
        store.record("submitted", job)
        store.record("queued", job)
        store.record("submitted", job)  # the re-journal from a recovery
        store.record("queued", job)
        job.mark_completed(7.0)
        store.record("completed", job)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert len(recovered) == 1
        assert recovered.completed[0].finish_seconds == 7.0

    def test_a_readmitted_job_recovers_without_its_earlier_placement(self, tmp_path):
        # Placed, then the process died; recovery re-admitted the job and
        # the full queue rejected it.  The next recovery must not lay the
        # first life's placement over the rejection.
        store = JobStore(tmp_path)
        job = make_job(job_id="again")
        store.record("submitted", job)
        store.record("queued", job)
        job.mark_running(0.0, gpus=2, rows=1, columns=2, cache_hit=True,
                         filter_seconds=0.5, backprojection_seconds=1.5)
        store.record("placed", job, finish=5.0)
        fresh = make_job(job_id="again")
        store.record("submitted", fresh)  # the re-admission after the kill
        fresh.mark_rejected("queue full: depth 3 reached")
        store.record("rejected", fresh)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert recovered.jobs[0].as_record() == fresh.as_record()

    def test_late_pilot_verdict_does_not_demote_a_completed_job(self, tmp_path):
        # Journals written before a pilot's verdict was the job's terminal
        # event hold `executed` after `completed`; it must enrich the
        # outcome, not demote the job back to pending.
        store = JobStore(tmp_path)
        job = make_job(job_id="late")
        store.record("submitted", job)
        store.record("queued", job)
        job.mark_running(0.0, gpus=2, rows=1, columns=2, cache_hit=False)
        store.record("placed", job, finish=5.0)
        job.mark_completed(5.0)
        store.record("completed", job)
        job.mark_executed(0.0, 0.3, workers=1)
        job.pilot_cache_hit = False
        job.execution_attempts = 1
        store.record("executed", job)  # after `completed`
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert not recovered.pending
        assert recovered.completed[0].state is JobState.COMPLETED
        assert recovered.completed[0].workers == 1

    def test_an_older_journals_failed_after_completed_recovers_failed(self, tmp_path):
        # ...and such journals can hold a pilot's `failed` after `completed`
        # (the service now writes one terminal event per job): the later
        # terminal event is the job's outcome.
        store = JobStore(tmp_path)
        job = make_job(job_id="overturned")
        store.record("submitted", job)
        store.record("queued", job)
        job.mark_completed(5.0)
        store.record("completed", job)
        job.mark_failed("pilot worker crashed (attempt 2)")
        store.record("failed", job)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert not recovered.completed
        assert recovered.failed[0].failure_reason == (
            "pilot worker crashed (attempt 2)"
        )

    def test_torn_final_line_is_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job(job_id="ok")
        store.record("submitted", job)
        store.record("queued", job)
        store.close()
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "comp')  # killed mid-write

        recovered = JobStore(tmp_path).recover()
        assert [j.job_id for j in recovered.pending] == ["ok"]

    def test_append_after_torn_tail_truncates_not_merges(self, tmp_path):
        # kill -9 mid-write, restart, journal more work, restart again: the
        # recovered store must truncate the torn partial line before its
        # first append — otherwise the new record merges onto the partial
        # line and the second recovery either drops it as the "torn tail"
        # or refuses the whole journal as corrupt.
        store = JobStore(tmp_path)
        job = make_job(job_id="ok")
        store.record("submitted", job)
        store.record("queued", job)
        store.close()
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "comp')  # killed mid-write

        second = JobStore(tmp_path)
        assert [j.job_id for j in second.recover().pending] == ["ok"]
        new = make_job(job_id="new")
        second.record("submitted", new)
        second.record("queued", new)
        second.close()

        recovered = JobStore(tmp_path).recover()
        assert {j.job_id for j in recovered.pending} == {"ok", "new"}

    def test_torn_only_line_is_truncated_before_append(self, tmp_path):
        # The torn line is the journal's *only* line: the first append of a
        # fresh store must not fuse with it (pre-fix the merged line was
        # the last line, so replay dropped the new submission entirely).
        store = JobStore(tmp_path)
        store.journal_path.write_text('{"event": "subm', encoding="utf-8")
        job = make_job(job_id="fresh")
        store.record("submitted", job)
        store.record("queued", job)
        store.close()

        recovered = JobStore(tmp_path).recover()
        assert [j.job_id for j in recovered.pending] == ["fresh"]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job(job_id="ok")
        store.record("submitted", job)
        store.close()
        lines = store.journal_path.read_text().splitlines()
        store.journal_path.write_text("not json\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal"):
            JobStore(tmp_path).recover()

    def test_unknown_event_kind_is_rejected_on_append(self, tmp_path):
        with pytest.raises(ValueError, match="unknown journal event"):
            JobStore(tmp_path).append("exploded", "job-1")


# --------------------------------------------------------------------------- #
# The filtered-projection cache's directory store.  Policy properties (LRU,
# refresh, oversize refusal, payload round trip) are held on both stores by
# tests/test_service.py::TestFilteredProjectionCache; these are the
# directory's own: sharing, on-disk layout, and damaged files.
# --------------------------------------------------------------------------- #
def disk_key(dataset_id: str, **kwargs) -> CacheKey:
    fields = dict(dataset_id=dataset_id, ramp_filter="ram-lak",
                  nu=8, nv=8, np_=4)
    fields.update(kwargs)
    return CacheKey(**fields)


#: Meta-file contents that are not an entry: not UTF-8, not an object, and
#: an object whose ``nbytes`` is not a non-negative integer.
UNREADABLE_META = {
    "not-utf8": b"\xff\xfe",
    "not-an-object": b"[1]",
    "nbytes-not-an-int": b'{"nbytes": "x", "payload": true}',
}


def damage(path: Path, how: str) -> None:
    blob = bytearray(path.read_bytes())
    if how == "truncate-half":
        del blob[len(blob) // 2:]
    else:
        offset = len(blob) // 2 if how == "flip-mid" else len(blob) - 10
        blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestDirectoryCache:
    def test_second_instance_sees_entries(self, tmp_path):
        first = FilteredProjectionCache(1 << 20, directory=tmp_path)
        key = disk_key("ds-shared")
        first.insert(key, filtered=make_filtered_stack(seed=1))
        # A different instance (as a different process would build) hits.
        second = FilteredProjectionCache(1 << 20, directory=tmp_path)
        assert second.lookup(key) is True
        assert second.get_filtered(key) is not None
        assert second.stats.hits == 2

    def test_eviction_survives_missing_payload_file(self, tmp_path):
        cache = FilteredProjectionCache(1 << 20, directory=tmp_path)
        key = disk_key("gone")
        cache.insert(key, filtered=make_filtered_stack())
        # Simulate a concurrent eviction between meta read and payload load.
        (tmp_path / f"{key.tag}.npz").unlink()
        assert cache.get_filtered(key) is None  # a miss, not an error
        assert cache.stats.misses == 1

    def test_entry_layout_is_meta_json_plus_npz_by_tag(self, tmp_path):
        """A directory written by an earlier release stays warm: same names,
        same meta bytes, same archive members."""
        key, stack = disk_key("ds-layout"), make_filtered_stack(seed=3)
        FilteredProjectionCache(1 << 20, directory=tmp_path).insert(key, filtered=stack)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key.tag}.meta.json", f"{key.tag}.npz"
        ]
        meta = {"dataset_id": key.dataset_id, "filter_key": key.filter_key,
                "nbytes": stack.nbytes, "payload": True}
        assert (tmp_path / f"{key.tag}.meta.json").read_text(encoding="utf-8") == (
            json.dumps(meta, sort_keys=True)
        )
        with np.load(tmp_path / f"{key.tag}.npz") as archive:
            assert sorted(archive.files) == ["angles", "data"]
            np.testing.assert_array_equal(archive["data"], stack.data)

    def test_on_disk_filtered_cache_is_the_directory_store(self, tmp_path):
        # The name perfbench's store probe builds: constructor only.
        cache = OnDiskFilteredCache(tmp_path, capacity_bytes=1 << 20)
        assert isinstance(cache, FilteredProjectionCache)
        key, stack = disk_key("probe"), make_filtered_stack()
        cache.insert(key, filtered=stack)
        assert FilteredProjectionCache(directory=tmp_path).contains(key)
        np.testing.assert_array_equal(cache.get_filtered(key).data, stack.data)

    @pytest.mark.parametrize("content", UNREADABLE_META.values(), ids=UNREADABLE_META)
    def test_unreadable_meta_is_an_absent_entry(self, tmp_path, content):
        key = disk_key("ds-corrupt")
        (tmp_path / f"{key.tag}.meta.json").write_bytes(content)
        (tmp_path / "deadbeefdeadbeef.meta.json").write_bytes(content)
        cache = FilteredProjectionCache(100, directory=tmp_path)
        assert not cache.contains(key)
        assert not cache.lookup(key)
        assert cache.get_filtered(key) is None
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.stats.misses == 2
        cache.insert(disk_key("other"), nbytes=60)
        cache.insert(key, nbytes=60)  # overwrites the bad meta; evicts "other"
        assert cache.contains(key) and not cache.contains(disk_key("other"))
        assert cache.used_bytes == 60 and cache.stats.evictions == 1

    @pytest.mark.parametrize("content", UNREADABLE_META.values(), ids=UNREADABLE_META)
    def test_unreadable_meta_does_not_take_the_service_down(self, tmp_path, content):
        (tmp_path / "deadbeefdeadbeef.meta.json").write_bytes(content)
        service = ReconstructionService(16, cache_dir=tmp_path)
        job = make_job(dataset_id="ds-1")
        assert service.submit(job, now=0.0)
        service.run_until_idle()
        assert job.state is JobState.COMPLETED
        assert service.cache.contains(job.cache_key)

    @pytest.mark.parametrize("how", ["flip-mid", "flip-10-from-end", "truncate-half"])
    def test_damaged_payload_is_a_counted_miss(self, tmp_path, how):
        cache = FilteredProjectionCache(1 << 20, directory=tmp_path)
        key = disk_key("ds-damaged")
        cache.insert(key, filtered=make_filtered_stack())
        damage(tmp_path / f"{key.tag}.npz", how)
        assert cache.get_filtered(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.insert(key, filtered=make_filtered_stack())  # the refilter heals it
        assert cache.get_filtered(key) is not None

    def test_no_flip_or_cut_of_a_payload_raises_or_serves_wrong_bits(self, tmp_path):
        cache = FilteredProjectionCache(1 << 20, directory=tmp_path)
        key, stack = disk_key("ds-sweep"), make_filtered_stack()
        cache.insert(key, filtered=stack)
        payload = tmp_path / f"{key.tag}.npz"
        good = payload.read_bytes()
        damaged = [good[:cut] for cut in range(0, len(good), 7)]
        for offset in range(len(good)):
            blob = bytearray(good)
            blob[offset] ^= 0xFF
            damaged.append(bytes(blob))
        for blob in damaged:
            payload.write_bytes(blob)
            restored = cache.get_filtered(key)
            if restored is not None:  # only the zip's unchecked header fields
                np.testing.assert_array_equal(restored.data, stack.data)
                np.testing.assert_array_equal(restored.angles, stack.angles)


# --------------------------------------------------------------------------- #
# Service restart recovery (in-process)
# --------------------------------------------------------------------------- #
class TestServiceRestartRecovery:
    def test_queued_workload_survives_restart_without_loss_or_dupes(
        self, tmp_path
    ):
        state = tmp_path / "state"
        first = ReconstructionService(16, backend="vectorized", state_dir=state)
        for index in range(3):
            job = make_job(job_id=f"job-r{index}", dataset_id="ds-r",
                           arrival_seconds=float(index))
            assert first.submit(job, now=job.arrival_seconds)
        # Killed before any event-loop progress: jobs are queued, not run.
        first.close()

        second = ReconstructionService(16, backend="vectorized", state_dir=state)
        assert second.recovered_jobs == 3
        assert len(second.queue) == 3
        assert sorted(second.jobs) == ["job-r0", "job-r1", "job-r2"]
        second.run_until_idle()
        report = second.report()
        assert report.summary["jobs_completed"] == 3.0
        second.close()

        third = ReconstructionService(16, backend="vectorized", state_dir=state)
        # No duplicates: the journal dedups by job id, keeping outcomes.
        assert third.recovered_jobs == 3
        assert len(third.queue) == 0
        assert third.report().summary["jobs_completed"] == 3.0
        third.close()

    def test_rejections_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        from repro.service import AdmissionPolicy

        first = ReconstructionService(
            16, backend="vectorized", state_dir=state,
            admission=AdmissionPolicy(max_depth=1),
        )
        assert first.submit(make_job(job_id="fits"))
        assert not first.submit(make_job(job_id="overflow"))
        first.close()

        second = ReconstructionService(16, backend="vectorized", state_dir=state)
        assert second.jobs["overflow"].state is JobState.REJECTED
        assert len(second.queue) == 1  # only the admitted job came back
        second.close()

    def test_kill_minus_nine_mid_queue_recovers(self, tmp_path):
        """A SIGKILLed service process leaves a journal a fresh process
        recovers the full queue from."""
        state = tmp_path / "state"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.core.types import problem_from_string
            from repro.service import ReconstructionJob, ReconstructionService

            service = ReconstructionService(
                16, backend="vectorized", state_dir={str(state)!r})
            for index in range(4):
                service.submit(ReconstructionJob(
                    problem=problem_from_string({SMALL!r}),
                    job_id=f"killed-{{index}}", dataset_id="ds-k"))
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        service = ReconstructionService(16, backend="vectorized", state_dir=state)
        assert service.recovered_jobs == 4
        assert len(service.queue) == 4
        service.run_until_idle()
        assert service.report().summary["jobs_completed"] == 4.0
        service.close()


# --------------------------------------------------------------------------- #
# Service accounting: one verdict per job, and concurrent reports
# --------------------------------------------------------------------------- #
def _counted_as_summarised(service) -> dict:
    """Each terminal state's lifetime counter, checked against the summary."""
    snapshot = service.obs_snapshot()
    summary = service.summary()
    assert "service.completions_overturned" not in snapshot
    counted = {}
    for state in ("completed", "failed"):
        counted[state] = snapshot.get(f"service.jobs_{state}", 0.0)
        assert counted[state] == summary[f"jobs_{state}"], state
    return counted


class TestServiceAccounting:
    def test_a_pilot_failing_after_the_simulated_finish_is_the_only_verdict(
        self, tmp_path
    ):
        # The simulated finish frees the GPUs but writes no outcome: the
        # pilot's failure, landing later, is the job's one terminal event.
        from test_service_lifecycle import PilotStub

        service = ReconstructionService(
            16, backend="vectorized", obs=MetricsRegistry(), workers=1,
            state_dir=tmp_path,
        )
        pilots = PilotStub.install(service)
        job = make_job(job_id="late-fail", dataset_id="ds-o")
        assert service.submit(job, now=0.0)
        service.run_until_idle()
        assert job.state is JobState.RUNNING and pilots.held == [job]
        assert service.cluster.free_gpus == 16
        assert _counted_as_summarised(service) == {"completed": 0.0, "failed": 0.0}

        pilots.rule(job, ok=False)
        assert job.state is JobState.FAILED and job.finish_seconds is None
        assert _counted_as_summarised(service) == {"completed": 0.0, "failed": 1.0}
        service.close()
        events = [e["event"] for e in JobStore(tmp_path).events()]
        assert events == ["submitted", "queued", "placed", "failed"]

    def test_a_pilot_failing_before_the_simulated_finish_only_frees_gpus(self):
        # PR 21's case: the failure drains first, so the simulated finish
        # releases the GPUs and neither completes the job nor caches its
        # filtered projections.
        from test_service_lifecycle import PilotStub

        service = ReconstructionService(
            16, backend="vectorized", obs=MetricsRegistry(), workers=1,
        )
        PilotStub.install(service).eager = "fail"
        job = make_job(job_id="early-fail", dataset_id="ds-p")
        assert service.submit(job, now=0.0)
        service.run_until_idle()
        assert job.state is JobState.FAILED
        assert service.cluster.free_gpus == 16
        assert not service.cache.contains(job.cache_key)
        assert _counted_as_summarised(service) == {"completed": 0.0, "failed": 1.0}
        assert [j.job_id for j in service.metrics.jobs] == ["early-fail"]

    def test_verdicts_drained_on_another_thread_land_once(self, tmp_path):
        # A drain on another thread races the event loop for each job: the
        # verdict and the simulated finish meet under the service lock, and
        # whichever comes second writes the one terminal event.
        from test_service_lifecycle import PilotStub

        service = ReconstructionService(
            8, backend="vectorized", obs=MetricsRegistry(), workers=1,
            state_dir=tmp_path,
        )
        pilots = PilotStub.install(service)
        jobs = [make_job(job_id=f"race-{i}", dataset_id=f"ds-{i % 3}") for i in range(60)]
        looping = threading.Event()
        looping.set()

        def drain():
            while looping.is_set() or pilots.held:
                if pilots.held:
                    job = pilots.held[0]
                    pilots.rule(job, ok=int(job.job_id[5:]) % 4 != 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        drainer = threading.Thread(target=drain)
        drainer.start()
        try:
            for job in jobs:
                assert service.submit(job)
                service.run_until_idle()
        finally:
            looping.clear()
            drainer.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not drainer.is_alive()
        assert _counted_as_summarised(service) == {"completed": 45.0, "failed": 15.0}
        assert sorted(j.job_id for j in service.metrics.jobs) == sorted(j.job_id for j in jobs)
        service.close()
        verdicts = [e["job_id"] for e in JobStore(tmp_path).events()
                    if e["event"] in ("completed", "failed")]
        assert sorted(verdicts) == sorted(j.job_id for j in jobs)

    def test_every_kind_of_rejection_is_counted_exactly_once(self, tmp_path):
        # infeasible, queue full, scheduler-rejected, starved: each goes
        # through the one transition path, so the obs counter, the summary
        # and the journal agree (the `starved:` branch used to journal and
        # record but never count).
        registry = MetricsRegistry()
        service = ReconstructionService(
            8, backend="vectorized", obs=registry, state_dir=tmp_path,
            admission=AdmissionPolicy(max_depth=2),
        )
        refused = []

        def places_nothing(queue, now, running):
            # Refuses one job outright, then leaves the rest waiting with
            # nothing running: no future event can free GPUs for them.
            if not refused:
                job = queue.ordered()[0]
                queue.remove(job)
                job.mark_rejected("infeasible: does not fit the cluster")
                refused.append(job)
                return [], [job]
            return [], []

        service.scheduler.schedule = places_nothing
        jobs = {
            "infeasible": make_job("8192x8192x8192->8192x8192x8192", job_id="r-inf"),
            "scheduler": make_job(job_id="r-sched"),
            "starved": make_job(job_id="r-starved"),
            "queue full": make_job(job_id="r-full"),
        }
        for job in jobs.values():
            service.submit(job, now=0.0)
        service.run_until_idle()
        service.close()

        assert all(job.state is JobState.REJECTED for job in jobs.values())
        assert jobs["starved"].rejection_reason.startswith("starved:")
        assert jobs["queue full"].rejection_reason.startswith("queue full")
        summary = service.report().summary
        events = [e["event"] for e in JobStore(tmp_path).events()]
        assert registry.snapshot()["service.jobs_rejected"] == 4.0
        assert summary["jobs_rejected"] == 4.0
        assert events.count("rejected") == 4

    def test_reset_empties_the_registry_with_the_ledger(self):
        # reset() "forgets all jobs": after two replays of traces with
        # disjoint ids the registry GET /jobs serves held both traces'
        # jobs while the report listed the second's.
        from repro.service import ArrivalTrace, synthetic_trace

        first = synthetic_trace(5, cluster_gpus=16, seed=1)
        second = ArrivalTrace(
            entries=[
                dataclasses.replace(entry, job_id=f"second-{entry.job_id}")
                for entry in synthetic_trace(3, cluster_gpus=16, seed=2).entries
            ],
            cluster_gpus=16,
        )
        service = ReconstructionService(16, backend="vectorized")
        service.replay(first)
        report = service.replay(second)
        assert len(report.jobs) == 3
        assert sorted(service.jobs) == sorted(r["job_id"] for r in report.jobs)

        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        try:
            listed = _get(f"http://127.0.0.1:{server.port}/jobs")["jobs"]
        finally:
            server.stop()
            service.close()
        assert sorted(r["job_id"] for r in listed) == sorted(
            r["job_id"] for r in report.jobs
        )

    def test_report_is_consistent_under_concurrent_submissions(self):
        # GET /metrics runs report() on HTTP handler threads while the
        # event loop mutates the metrics lists; report() must snapshot
        # under the service lock, never tearing mid-update.
        import threading

        service = ReconstructionService(16, backend="vectorized")
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                try:
                    report = service.report()
                    # A torn snapshot shows jobs the summary missed (or
                    # vice versa): every report must agree with itself.
                    counted = (
                        report.summary["jobs_completed"]
                        + report.summary["jobs_rejected"]
                        + report.summary["jobs_failed"]
                    )
                    if counted != float(len(report.jobs)):
                        errors.append(
                            f"summary counts {counted} but report carries "
                            f"{len(report.jobs)} job records"
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

        reader = threading.Thread(target=hammer)
        reader.start()
        try:
            for index in range(20):
                job = make_job(job_id=f"conc-{index}", dataset_id="ds-c",
                               arrival_seconds=float(index))
                service.submit(job, now=job.arrival_seconds)
                service.run_until_idle()
        finally:
            stop.set()
            reader.join(timeout=30)
        assert not errors, errors[:3]
        assert service.report().summary["jobs_completed"] == 20.0


# --------------------------------------------------------------------------- #
# Process dispatcher: pool-rebuild bookkeeping (no real workers)
# --------------------------------------------------------------------------- #
class _FakeExecutor:
    """Records submissions; returned futures stay unresolved."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, payload):
        from concurrent.futures import Future

        self.submitted.append(payload)
        return Future()


class TestPoolRebuildBookkeeping:
    def _entry(self, dispatcher, job_id, future):
        from repro.service.process_dispatch import _Pending

        job = make_job(job_id=job_id, dataset_id="ds-rb")
        return _Pending(
            job=job, payload=dispatcher._payload_for(job, 1), attempt=1,
            submitted=0.0, parent=None, future=future,
        )

    def test_rebuild_keeps_resolved_outcomes_and_resubmits_the_lost(self):
        # A rebuild triggered by one job's timeout/crash must not re-run
        # collateral pilots that already resolved — a recorded result *or*
        # a recorded exception is an outcome; re-executing it duplicates
        # side effects at the same attempt number and bypasses retry
        # accounting.  Only entries the dead pool took with it (never ran,
        # cancelled, or resolved to the pool's own BrokenExecutor) go back.
        from concurrent.futures import BrokenExecutor, Future

        dispatcher = ProcessDispatcher(2, backend="vectorized",
                                       pilot_problem=PILOT)
        fake = _FakeExecutor()
        dispatcher._ensure = lambda: fake
        dispatcher._teardown_pool = lambda: None

        done_ok = Future()
        done_ok.set_result({"cache_hit": None, "filter_seconds": 0.0})
        done_raised = Future()
        done_raised.set_exception(RuntimeError("pilot raised"))
        done_broken = Future()
        done_broken.set_exception(BrokenExecutor("pool died"))
        cancelled = Future()
        cancelled.cancel()
        never_ran = Future()

        entries = {
            "ok": self._entry(dispatcher, "ok", done_ok),
            "raised": self._entry(dispatcher, "raised", done_raised),
            "broken": self._entry(dispatcher, "broken", done_broken),
            "cancelled": self._entry(dispatcher, "cancelled", cancelled),
            "lost": self._entry(dispatcher, "lost", never_ran),
        }
        dispatcher._rebuild_pool(list(entries.values()), width=1)

        assert entries["ok"].future is done_ok
        assert entries["raised"].future is done_raised  # NOT re-run
        assert entries["broken"].future is not done_broken
        assert entries["cancelled"].future is not cancelled
        assert entries["lost"].future is not never_ran
        resubmitted = {payload["job_id"] for payload in fake.submitted}
        assert resubmitted == {"broken", "cancelled", "lost"}

    def test_kept_exception_routes_through_retry_accounting(self):
        # The kept pilot exception must reach _retry_or_fail via _await:
        # attempt 2 is scheduled and the retry counter moves — instead of
        # the pre-fix silent re-execution at attempt 1.
        from concurrent.futures import Future

        dispatcher = ProcessDispatcher(2, backend="vectorized",
                                       pilot_problem=PILOT)
        fake = _FakeExecutor()
        dispatcher._ensure = lambda: fake
        dispatcher._teardown_pool = lambda: None

        done_raised = Future()
        done_raised.set_exception(RuntimeError("pilot raised"))
        entry = self._entry(dispatcher, "raised", done_raised)
        dispatcher._rebuild_pool([entry], width=1)
        assert fake.submitted == []  # nothing re-ran during the rebuild

        queue, failed = [], []
        dispatcher._await(entry, queue, failed)
        assert failed == []
        assert dispatcher.retries == 1
        assert [pending.attempt for pending in queue] == [2]
        assert [payload["attempt"] for payload in fake.submitted] == [2]


# --------------------------------------------------------------------------- #
# Process dispatcher: real workers, faults, shared cache
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestProcessDispatcher:
    def test_cross_process_cache_hit_across_service_restarts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = ReconstructionService(
            16, backend="vectorized", workers=2,
            pilot_problem=PILOT, cache_dir=cache_dir,
        )
        j1 = make_job(job_id="warm", dataset_id="ds-X")
        first.submit(j1)
        first.run_until_idle()
        assert j1.pilot_cache_hit is False  # first worker filtered + wrote
        first.close()

        # A new service = new worker processes; same cache directory.
        second = ReconstructionService(
            16, backend="vectorized", workers=2,
            pilot_problem=PILOT, cache_dir=cache_dir,
        )
        j2 = make_job(job_id="hit", dataset_id="ds-X")
        j3 = make_job(job_id="other", dataset_id="ds-Y")
        second.submit(j2)
        second.submit(j3)
        second.run_until_idle()
        assert j2.pilot_cache_hit is True  # written by another OS process
        assert j3.pilot_cache_hit is False  # different dataset never aliases
        second.close()

    def test_injected_crash_fails_loudly_and_degrades_the_pool(self, tmp_path):
        from repro.obs import MetricsRegistry

        obs = MetricsRegistry()
        service = ReconstructionService(
            16, backend="vectorized", workers=2,
            pilot_problem=PILOT, dispatch_timeout_seconds=60.0,
            dispatch_max_retries=1, obs=obs,
            fault_injection={"doomed": {"crash_attempts": [1, 2]}},
        )
        doomed = make_job(job_id="doomed", dataset_id="ds-c")
        fine = make_job(job_id="fine", dataset_id="ds-c2")
        service.submit(doomed)
        service.submit(fine)
        service.run_until_idle()
        assert doomed.state is JobState.FAILED
        assert "crashed" in doomed.failure_reason
        assert doomed.execution_attempts == 2
        assert fine.state is JobState.COMPLETED
        dispatcher = service.dispatcher
        assert dispatcher.crashes == 2
        assert dispatcher.effective_workers == 1  # degraded, still alive
        summary = service.report().summary
        assert summary["jobs_failed"] == 1.0
        assert summary["dispatch_crashes"] == 2.0
        snapshot = service.obs_snapshot()
        assert snapshot["dispatch.crashes"] == 2.0
        assert snapshot["service.jobs_failed"] == 1.0
        service.close()

    def test_each_pilot_verdict_is_its_jobs_one_terminal_event(self, tmp_path):
        service = ReconstructionService(
            16, backend="vectorized", workers=1, pilot_problem=PILOT,
            obs=MetricsRegistry(), state_dir=tmp_path, dispatch_max_retries=0,
            fault_injection={"bad": {"raise_attempts": [1]}},
        )
        for job_id in ("good", "bad"):
            service.submit(make_job(job_id=job_id, dataset_id=job_id), now=0.0)
        service.run_until_idle()
        assert _counted_as_summarised(service) == {"completed": 1.0, "failed": 1.0}
        service.close()
        events: dict = {}
        for event in JobStore(tmp_path).events():
            events.setdefault(event["job_id"], []).append(event["event"])
        assert events == {
            "good": ["submitted", "queued", "placed", "executed", "completed"],
            "bad": ["submitted", "queued", "placed", "failed"],
        }
        recovered = {job.job_id: job for job in JobStore(tmp_path).recover().jobs}
        assert recovered["good"].state is JobState.COMPLETED
        assert recovered["good"].execution_attempts == 1
        assert recovered["bad"].state is JobState.FAILED
        assert recovered["bad"].execution_attempts == 1

    def test_timeout_is_killed_and_retried_to_success(self, tmp_path):
        service = ReconstructionService(
            16, backend="vectorized", workers=1,
            pilot_problem=PILOT, dispatch_timeout_seconds=2.0,
            dispatch_max_retries=2,
            fault_injection={"stuck": {"sleep_seconds": 30.0,
                                       "sleep_attempts": [1]}},
        )
        stuck = make_job(job_id="stuck", dataset_id="ds-t")
        service.submit(stuck)
        service.run_until_idle()
        assert stuck.state is JobState.COMPLETED  # retry succeeded
        assert stuck.execution_attempts == 2
        assert service.dispatcher.timeouts == 1
        assert service.dispatcher.retries == 1
        service.close()

    def test_exhausted_timeouts_fail_the_job_not_the_service(self, tmp_path):
        service = ReconstructionService(
            16, backend="vectorized", workers=1,
            pilot_problem=PILOT, dispatch_timeout_seconds=1.0,
            dispatch_max_retries=0,
            fault_injection={"wedged": {"sleep_seconds": 30.0}},
        )
        wedged = make_job(job_id="wedged", dataset_id="ds-w")
        after = make_job(job_id="after", dataset_id="ds-a")
        service.submit(wedged)
        service.submit(after)
        service.run_until_idle()  # must return, not hang
        assert wedged.state is JobState.FAILED
        assert "timed out" in wedged.failure_reason
        assert after.state is JobState.COMPLETED
        service.close()

    def test_pilot_exception_is_retried(self, tmp_path):
        dispatcher = ProcessDispatcher(
            1, backend="vectorized", pilot_problem=PILOT,
            fault_injection={"flaky": {"raise_attempts": [1]}},
        )
        from repro.service import Placement
        from repro.service.scheduler import AllocationPlan

        job = make_job(job_id="flaky", dataset_id="ds-f")
        plan = AllocationPlan(gpus=1, rows=1, columns=1,
                              runtime_seconds=1.0, cache_hit=False)
        dispatcher.dispatch([Placement(job=job, plan=plan, start_seconds=0.0)])
        failures = dispatcher.drain()
        assert failures == []
        assert job.execution_attempts == 2
        assert dispatcher.retries == 1
        dispatcher.close()


# --------------------------------------------------------------------------- #
# The one dispatcher: faults counted once, nothing left behind
# --------------------------------------------------------------------------- #
def _left_behind(before, allowed=0):
    """Worker processes (beyond ``before``) still alive once the dying have
    had time to die, and dispatcher-named threads."""
    deadline = time.monotonic() + 10.0
    while True:
        children = [
            child for child in multiprocessing.active_children()
            if child not in before
        ]
        if len(children) <= allowed or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    threads = [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("repro-dispatch")
    ]
    return children, threads


class TestOneDispatcher:
    def test_a_fault_is_counted_once_and_close_leaves_nothing(self):
        before = multiprocessing.active_children()
        obs = MetricsRegistry()
        service = ReconstructionService(
            16, backend="vectorized", workers=1, pilot_problem=PILOT, obs=obs,
            fault_injection={"flaky": {"raise_attempts": [1]}},
        )
        flaky = make_job(job_id="flaky", dataset_id="ds-f")
        fine = make_job(job_id="fine", dataset_id="ds-g")
        service.submit(flaky)
        service.submit(fine)
        service.run_until_idle()
        assert flaky.state is JobState.COMPLETED and flaky.execution_attempts == 2
        assert fine.execution_attempts == 1
        # One retry: in the dispatcher's window counter, in the summary the
        # report builds from it, and in the lifetime instrument — the same 1.
        summary = service.report().summary
        assert service.dispatcher.retries == 1
        assert (
            summary["dispatch_retries"],
            summary["dispatch_timeouts"],
            summary["dispatch_crashes"],
        ) == (1.0, 0.0, 0.0)
        assert obs.snapshot()["dispatch.retries"] == 1.0
        assert "dispatch.crashes" not in obs.snapshot()
        # A fresh window forgets it (and the summary its keys); the lifetime
        # instrument does not.
        service.reset()
        assert "dispatch_retries" not in service.report().summary
        assert obs.snapshot()["dispatch.retries"] == 1.0
        service.close()
        assert _left_behind(before) == ([], [])

    @pytest.mark.slow
    def test_an_injected_crash_leaves_nothing(self):
        before = multiprocessing.active_children()
        service = ReconstructionService(
            16, backend="vectorized", workers=2, pilot_problem=PILOT,
            dispatch_max_retries=0,
            fault_injection={"doomed": {"crash_attempts": [1]}},
        )
        doomed = make_job(job_id="doomed", dataset_id="ds-c")
        service.submit(doomed)
        service.run_until_idle()
        assert doomed.state is JobState.FAILED
        # The broken pool's workers are gone; only the rebuilt pool's live.
        children, _ = _left_behind(
            before, allowed=service.dispatcher.effective_workers
        )
        assert len(children) <= service.dispatcher.effective_workers == 1
        service.close()
        assert _left_behind(before) == ([], [])

    @pytest.mark.slow
    def test_an_exhausted_timeout_leaves_nothing(self):
        before = multiprocessing.active_children()
        service = ReconstructionService(
            16, backend="vectorized", workers=1, pilot_problem=PILOT,
            dispatch_timeout_seconds=1.0, dispatch_max_retries=0,
            fault_injection={"wedged": {"sleep_seconds": 30.0}},
        )
        wedged = make_job(job_id="wedged", dataset_id="ds-w")
        service.submit(wedged)
        service.run_until_idle()
        assert wedged.state is JobState.FAILED
        # The wedged worker was killed, not abandoned to finish its sleep.
        children, _ = _left_behind(before, allowed=1)
        assert len(children) <= 1
        service.close()
        assert _left_behind(before) == ([], [])


# --------------------------------------------------------------------------- #
# HTTP front door
# --------------------------------------------------------------------------- #
def _post(url: str, body: bytes) -> dict:
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


class TestHTTPFrontDoor:
    @pytest.fixture()
    def front(self):
        service = ReconstructionService(16, backend="vectorized")
        server = ServiceHTTPServer(service, auto_advance=True)
        server.start()
        yield server
        server.stop()
        service.close()

    def test_submit_plan_and_poll_job(self, front):
        base = f"http://127.0.0.1:{front.port}"
        plan = plan_for_problem(
            problem_from_string(SMALL), target="service", backend="vectorized"
        )
        record = _post(base + "/plans?dataset=ds-http",
                       plan.to_json().encode("utf-8"))
        assert record["state"] == "completed"  # auto-advance drained it
        assert record["dataset"] == "ds-http"
        fetched = _get(base + f"/jobs/{record['job_id']}")
        assert fetched["state"] == "completed"
        assert fetched["latency_s"] is not None
        everything = _get(base + "/jobs")
        assert len(everything["jobs"]) == 1
        metrics = _get(base + "/metrics")
        assert metrics["summary"]["jobs_completed"] == 1.0

    def test_metrics_builds_no_job_record(self, front, monkeypatch):
        base = f"http://127.0.0.1:{front.port}"
        plan = plan_for_problem(
            problem_from_string(SMALL), target="service", backend="vectorized"
        )
        _post(base + "/plans?dataset=ds-metrics", plan.to_json().encode("utf-8"))
        expected = front.service.report().summary

        def no_records(job):
            raise AssertionError("GET /metrics built a job record")

        monkeypatch.setattr(ReconstructionJob, "as_record", no_records)
        metrics = _get(base + "/metrics")
        assert metrics["summary"] == json.loads(json.dumps(expected))
        assert metrics["summary"]["jobs_completed"] == 1.0

    def test_scenario_mix_load(self, front):
        base = f"http://127.0.0.1:{front.port}"
        problem = problem_from_string(SMALL)
        mix = ["full_scan", "short_scan", "sparse_view", "full_scan"]
        for index, scenario in enumerate(mix):
            plan = plan_for_problem(
                problem, target="service", backend="vectorized",
                scenario=scenario, tenant=f"tenant-{index % 2}",
            )
            record = _post(base + f"/plans?dataset=ds-{scenario}",
                           plan.to_json().encode("utf-8"))
            assert record["state"] == "completed"
        summary = _get(base + "/metrics")["summary"]
        assert summary["jobs_completed"] == float(len(mix))
        assert summary["scenario[full_scan]_jobs"] == 2.0
        assert summary["scenario[short_scan]_jobs"] == 1.0
        # Per-tenant tails surfaced for the mix.
        assert summary["tenant[tenant-0]_jobs"] == 2.0
        assert "tenant[tenant-1]_p99_s" in summary
        # Same dataset+filter identity resubmitted: cache hit on placement.
        assert summary["cache_hits"] >= 1.0

    def test_malformed_plan_is_a_400(self, front):
        base = f"http://127.0.0.1:{front.port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/plans", b'{"not_a_field": 1}')
        assert excinfo.value.code == 400
        assert "unknown plan field" in json.loads(excinfo.value.read())["error"]

    def test_unknown_job_is_a_404(self, front):
        base = f"http://127.0.0.1:{front.port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/jobs/never-submitted")
        assert excinfo.value.code == 404

    def test_explicit_advance_endpoint(self):
        service = ReconstructionService(16, backend="vectorized")
        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            plan = plan_for_problem(
                problem_from_string(SMALL), target="service",
                backend="vectorized",
            )
            record = _post(base + "/plans", plan.to_json().encode("utf-8"))
            assert record["state"] == "queued"  # nothing advanced yet
            _post(base + "/advance", b"")
            fetched = _get(base + f"/jobs/{record['job_id']}")
            assert fetched["state"] == "completed"
        finally:
            server.stop()
            service.close()


def _raw_request(port: int, payload: bytes) -> str:
    """Send raw bytes and return the decoded response (error-path probes)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        sock.settimeout(10)
        chunks = []
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
        return b"".join(chunks).decode("utf-8", "replace")


class TestHTTPErrorPaths:
    """Regression tests for front-door crashes: each of these paths used to
    kill the handler thread and reset the connection instead of answering."""

    @pytest.fixture()
    def observed(self):
        service = ReconstructionService(
            16, backend="vectorized", obs=MetricsRegistry()
        )
        server = ServiceHTTPServer(service, auto_advance=True)
        server.start()
        yield server
        server.stop()
        service.close()

    def test_malformed_content_length_is_a_400(self, observed):
        response = _raw_request(
            observed.port,
            b"POST /plans HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
        )
        assert response.startswith("HTTP/1.0 400") or response.startswith(
            "HTTP/1.1 400"
        )
        assert "malformed Content-Length" in response

    def test_negative_content_length_is_a_400(self, observed):
        response = _raw_request(
            observed.port,
            b"POST /plans HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
        )
        assert " 400 " in response.splitlines()[0]
        assert "negative Content-Length" in response

    def test_oversized_body_is_a_413_without_reading_it(self, observed):
        huge = observed.max_body_bytes + 1
        response = _raw_request(
            observed.port,
            f"POST /plans HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {huge}\r\n\r\n".encode(),
        )
        assert " 413 " in response.splitlines()[0]
        assert "exceeds" in response

    def test_internal_error_is_a_json_500_and_counted(self, observed):
        service = observed.service

        def boom(*args, **kwargs):
            raise RuntimeError("dispatcher wedged")

        service.submit_plan = boom
        plan = plan_for_problem(
            problem_from_string(SMALL), target="service", backend="vectorized"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"http://127.0.0.1:{observed.port}/plans",
                  plan.to_json().encode("utf-8"))
        assert excinfo.value.code == 500
        assert "dispatcher wedged" in json.loads(excinfo.value.read())["error"]
        assert service.obs_snapshot()["service.http.errors"] == 1.0
        # The handler thread survived: the next request still answers.
        assert _get(f"http://127.0.0.1:{observed.port}/jobs") == {"jobs": []}

    def test_client_disconnect_mid_response_is_swallowed_and_counted(self):
        import types

        from repro.service.http import _Handler

        class _BrokenPipeFile:
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

        obs = MetricsRegistry()
        handler = object.__new__(_Handler)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /plans HTTP/1.1"
        handler.wfile = _BrokenPipeFile()
        handler.server = types.SimpleNamespace(
            front=types.SimpleNamespace(
                service=types.SimpleNamespace(obs=obs)
            )
        )
        handler.close_connection = False
        handler._send(200, {"ok": True})  # must not raise
        assert handler.close_connection
        assert obs.snapshot()["service.http.client_disconnects"] == 1.0

    def test_quota_rejection_is_a_429_with_retry_after(self):
        service = ReconstructionService(
            16, backend="vectorized",
            admission=AdmissionPolicy(max_queue_depth_per_tenant=1),
        )
        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            plan = plan_for_problem(
                problem_from_string(SMALL), target="service",
                backend="vectorized",
            )
            first = _post(base + "/plans?dataset=ds-0",
                          plan.to_json().encode("utf-8"))
            assert first["state"] == "queued"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/plans?dataset=ds-1",
                      plan.to_json().encode("utf-8"))
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers["Retry-After"]
            assert int(retry_after) >= 1
            payload = json.loads(excinfo.value.read())
            assert payload["error"].startswith("tenant quota")
            assert payload["retry_after_seconds"] >= 1.0
            assert payload["job"]["state"] == "rejected"
            assert payload["job"]["retry_after_s"] == pytest.approx(
                payload["retry_after_seconds"]
            )
        finally:
            server.stop()
            service.close()

    def test_each_response_leaves_in_one_socket_write(self, monkeypatch):
        # A head flushed apart from its body is two small segments, and the
        # second waits out the client's delayed ACK (Nagle).
        service = ReconstructionService(
            16, backend="vectorized",
            admission=AdmissionPolicy(max_queue_depth_per_tenant=1),
        )
        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        sent = []

        def recording(method):
            def write(sock, data, *args):
                if sock.getsockname()[1] == server.port:  # server side only
                    sent.append(bytes(data))
                return method(sock, data, *args)
            return write

        monkeypatch.setattr(socket.socket, "sendall", recording(socket.socket.sendall))
        monkeypatch.setattr(socket.socket, "send", recording(socket.socket.send))
        try:
            base = f"http://127.0.0.1:{server.port}"
            plan = plan_for_problem(
                problem_from_string(SMALL), target="service",
                backend="vectorized",
            ).to_json().encode("utf-8")

            def one_write(status, request):
                sent.clear()
                try:
                    response = urllib.request.urlopen(request, timeout=30)
                except urllib.error.HTTPError as error:
                    response = error
                with response:
                    assert response.status == status
                    body = response.read()
                    headers = response.headers
                assert len(sent) == 1, [data[:40] for data in sent]
                assert sent[0].startswith(b"HTTP/1.0 %d " % status)
                assert sent[0].endswith(b"\r\n\r\n" + body)
                return headers

            post = lambda path: urllib.request.Request(base + path, data=plan, method="POST")
            one_write(202, post("/plans?dataset=ds-0"))
            assert "Retry-After" in one_write(429, post("/plans?dataset=ds-1"))
            one_write(200, base + "/jobs")
            one_write(200, base + "/metrics")
            one_write(404, base + "/jobs/never-submitted")
            one_write(400, urllib.request.Request(base + "/plans", data=b"{", method="POST"))
        finally:
            server.stop()
            service.close()

    def test_infeasible_plan_is_a_400_not_a_429(self):
        # One V100 cannot hold a 2048^3 sub-volume: never feasible, so the
        # front door must answer 400 (fix the request), not 429 (retry).
        service = ReconstructionService(1, backend="vectorized")
        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        try:
            plan = plan_for_problem(
                problem_from_string("2048x2048x4096->2048x2048x2048"),
                target="service", backend="vectorized",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://127.0.0.1:{server.port}/plans",
                      plan.to_json().encode("utf-8"))
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read())
            assert "infeasible" in payload["error"]
            assert "Retry-After" not in excinfo.value.headers
        finally:
            server.stop()
            service.close()

    def test_connection_overflow_is_a_503(self):
        service = ReconstructionService(
            16, backend="vectorized", obs=MetricsRegistry()
        )
        server = ServiceHTTPServer(
            service, auto_advance=False, handler_threads=1, max_connections=1
        )
        server.start()
        holder = None
        try:
            # Occupy the only connection slot with a stalled request (the
            # handler blocks reading a body that never arrives).  Getting
            # bytes back means this connection itself lost a race and was
            # 503'd — close it and take a fresh one until one sticks.
            for _ in range(50):
                candidate = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                )
                candidate.sendall(
                    b"POST /plans HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 8\r\n\r\n"
                )
                candidate.settimeout(0.3)
                try:
                    candidate.recv(1)
                except socket.timeout:
                    holder = candidate  # silence: a handler is blocked on it
                    break
                candidate.close()
            assert holder is not None, "could not occupy the handler slot"
            # The slot stays held until the stalled read times out, so the
            # next connection must be shed at the door.
            overflow = _raw_request(
                server.port,
                b"GET /jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            assert " 503 " in overflow.splitlines()[0]
            assert "connection limit" in overflow
            snapshot = service.obs_snapshot()
            assert snapshot["service.http.rejected_connections"] >= 1.0
        finally:
            if holder is not None:
                holder.close()
            server.stop()
            service.close()


#: The three plan documents the front-door benchmark posts for many datasets.
PROTOCOL_SPECS = (
    "512x512x1024->256x256x256",
    "1024x1024x1024->512x512x512",
    "512x512x1024->128x128x128",
)
OVERSIZED = object()  # a step that declares a body over the server's limit


def _front_door_steps(seed: int) -> list:
    """A seeded ``(path, body)`` sequence of POSTs: the protocol documents
    again and again, documents seen once, explicit advances, and a bad
    JSON body, an unknown field and an oversized body at seeded places."""
    rng = random.Random(seed)
    protocol = [
        plan_for_problem(spec, target="service", cluster_gpus=16)
        .to_json(indent=None).encode("utf-8")
        for spec in PROTOCOL_SPECS
    ]
    steps = []
    for index in range(48):
        if rng.random() < 0.7:
            body = rng.choice(protocol)
        else:
            body = plan_for_problem(
                rng.choice(PROTOCOL_SPECS), target="service", cluster_gpus=16,
                tenant=f"tenant-{index % 2}", slo_seconds=60.0 + index,
            ).to_json().encode("utf-8")
        steps.append((f"/plans?dataset=ds-{rng.randrange(7)}", body))
        if rng.random() < 0.3:
            steps.append(("/advance", b""))
    for bad in (b"{not json", b'{"geometry": {}, "worker_count": 4}', OVERSIZED):
        steps.insert(rng.randrange(len(steps) + 1), ("/plans", bad))
    return steps


def _drive_front_door(state_dir: Path, steps: list, *, cold: bool):
    """Each step's ``(status, body)`` and the state dir's bytes.  ``cold``
    empties the plan parse memo before every request, so each POST parses
    its document and derives its identity anew."""
    plan_module._parsed_plans.clear()
    service = ReconstructionService(
        16, state_dir=state_dir,
        admission=AdmissionPolicy(max_queue_depth_per_tenant=3),
    )
    server = ServiceHTTPServer(service, auto_advance=False)
    server.start()
    responses = []
    try:
        for path, body in steps:
            if cold:
                plan_module._parsed_plans.clear()
            if body is OVERSIZED:
                raw = _raw_request(
                    server.port,
                    b"POST /plans HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
                    % (server.max_body_bytes + 1),
                )
                head, payload = raw.split("\r\n\r\n", 1)
                responses.append((int(head.split()[1]), payload.encode("utf-8")))
                continue
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                connection.request("POST", path, body=body)
                response = connection.getresponse()
                responses.append((response.status, response.read()))
            finally:
                connection.close()
    finally:
        server.stop()
        service.close()
    stored = b"".join(
        path.name.encode("utf-8") + b"\0" + path.read_bytes()
        for path in sorted(state_dir.iterdir())
    )
    return responses, stored


def _normalised_job_ids(responses, stored):
    """Job ids come from one process-wide counter, so a second run numbers
    its jobs on from the first's.  Each distinct ``job-NNNN`` becomes
    ``job-#k``, ``k`` its order of first appearance in the responses and
    then the stored bytes; everything else is compared as it was sent."""
    ordinals = {}

    def ordinal(match):
        return ordinals.setdefault(match.group(0), b"job-#%d" % len(ordinals))

    normal = [(status, re.sub(rb"job-\d+", ordinal, body))
              for status, body in responses]
    return normal, re.sub(rb"job-\d+", ordinal, stored)


class TestFrontDoorByteIdentity:
    """A memoised plan parse is the same bytes on the wire and on disk."""

    def test_cold_and_warm_parses_answer_and_journal_the_same_bytes(self, tmp_path):
        steps = _front_door_steps(seed=56)
        cold = _drive_front_door(tmp_path / "cold", steps, cold=True)
        warm = _drive_front_door(tmp_path / "warm", steps, cold=False)
        statuses = {status for status, _ in cold[0]}
        assert {200, 202, 400, 413, 429} <= statuses
        distinct = {body for path, body in steps
                    if path.startswith("/plans?")}
        assert len(plan_module._parsed_plans) == len(distinct)  # warm hits
        cold_responses, cold_stored = _normalised_job_ids(*cold)
        warm_responses, warm_stored = _normalised_job_ids(*warm)
        assert [s for s, _ in warm_responses] == [s for s, _ in cold_responses]
        for step, (a, b) in enumerate(zip(cold_responses, warm_responses)):
            assert a == b, f"step {step}: {steps[step][0]}"
        assert b"job-#" in cold_stored and warm_stored == cold_stored


@pytest.mark.slow
class TestHTTPKillAndRecover:
    def test_http_service_killed_mid_queue_recovers_over_http(self, tmp_path):
        """End-to-end: start `repro serve --http`, submit over HTTP, SIGKILL
        the server mid-queue, restart on the same state dir, and observe the
        queued jobs complete — with the cache warm across the restart."""
        state = tmp_path / "state"
        cache = tmp_path / "cache"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--http", "0", "--backend", "vectorized",
            "--state-dir", str(state), "--cache-dir", str(cache),
        ]

        def start_server():
            proc = subprocess.Popen(
                args, env=env, stdout=subprocess.PIPE, text=True
            )
            line = proc.stdout.readline()
            assert "serving on http://" in line, line
            return proc, line.strip().rsplit(":", 1)[1]

        proc, port = start_server()
        try:
            plan = plan_for_problem(
                problem_from_string(SMALL), target="service",
                backend="vectorized",
            )
            submitted = []
            for index in range(3):
                record = _post(
                    f"http://127.0.0.1:{port}/plans?dataset=ds-kill",
                    plan.to_json().encode("utf-8"),
                )
                submitted.append(record["job_id"])
        finally:
            proc.kill()  # SIGKILL: no atexit, no journal flush beyond appends
            proc.wait(timeout=30)

        proc, port = start_server()
        try:
            base = f"http://127.0.0.1:{port}"
            jobs = _get(base + "/jobs")["jobs"]
            recovered_ids = {job["job_id"] for job in jobs}
            assert set(submitted) <= recovered_ids
            assert len(jobs) == len(submitted)  # no duplicates
            _post(base + "/advance", b"")
            summary = _get(base + "/metrics")["summary"]
            assert summary["jobs_completed"] == float(len(submitted))
        finally:
            proc.kill()
            proc.wait(timeout=30)
