"""The job lifecycle, checked as a whole.

* the lifecycle table (``repro.service.job.LIFECYCLE``) is consistent with
  the job it describes;
* a journal recorded by the commit *before* the table existed replays to
  the records that commit's own ``recover()`` produced;
* a Hypothesis state machine drives a durable, simulated service through
  random submit / submit_plan / advance / restart sequences — with or
  without pilots, whose verdicts it hands over before or after each job's
  simulated finish — and checks, after every step, the invariants ROADMAP
  item 5(a) names: one state per admitted job, terminal states final, at
  most one terminal journal event and one ledger entry per job, the
  report, the registry, the obs counters and the journal all counting the
  same jobs, and recovery idempotent.

The tier-1 machine runs in about two seconds; the ``slow`` variant spends
ten times the examples and runs in the ``service-serving`` CI job.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import plan_for_problem
from repro.core.types import problem_from_string
from repro.obs import MetricsRegistry
from repro.service import (
    AdmissionPolicy,
    JobState,
    JobStore,
    ReconstructionJob,
    ReconstructionService,
)
from repro.service import job as job_module
from repro.service.job import LIFECYCLE, TERMINAL_EVENTS, TERMINAL_STATES

pytestmark = pytest.mark.serving

DATA = Path(__file__).parent / "data"

SMALL = "512x512x1024->256x256x256"
MID = "1024x1024x1024->512x512x512"
HUGE = "8192x8192x8192->8192x8192x8192"  # fits no decomposition of 8 GPUs
GPUS = 8


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
class TestLifecycleTable:
    def test_every_paired_attribute_is_a_job_field(self):
        fields = {f.name: f for f in dataclasses.fields(ReconstructionJob)}
        for event, transition in LIFECYCLE.items():
            for name, attribute, default in transition.fields:
                assert attribute in fields, (event, name, attribute)

    def test_every_state_is_reached_by_exactly_one_event(self):
        reached = [t.state for t in LIFECYCLE.values() if t.state is not None]
        assert sorted(s.value for s in reached) == sorted(s.value for s in JobState)

    def test_a_terminal_event_is_named_after_its_state(self):
        # The service re-enters recovered terminal jobs by state name.
        for event, transition in LIFECYCLE.items():
            if transition.state in TERMINAL_STATES:
                assert event == transition.state.value

    def test_write_then_replay_round_trips_every_event(self):
        job = ReconstructionJob(problem=problem_from_string(SMALL), job_id="rt")
        job.mark_running(2.0, gpus=4, rows=2, columns=2, cache_hit=True,
                         filter_seconds=0.5, backprojection_seconds=1.5)
        job.mark_executed(0.25, 0.75, workers=3)
        job.pilot_cache_hit = False
        job.execution_attempts = 2
        job.mark_completed(9.0)
        job.mark_rejected("queue full")
        job.mark_failed("pilot worker crashed")
        for event, transition in LIFECYCLE.items():
            written = json.loads(json.dumps(transition.journal_fields(job)))
            replayed = ReconstructionJob(problem=job.problem, job_id="rt")
            transition.apply(replayed, written)
            for _, attribute, _ in transition.fields:
                assert getattr(replayed, attribute) == getattr(job, attribute)
            if transition.state is not None:
                assert replayed.state is transition.state

    def test_replay_defaults_stand_in_for_missing_fields(self):
        job = ReconstructionJob(problem=problem_from_string(SMALL))
        LIFECYCLE["rejected"].apply(job, {})
        assert job.state is JobState.REJECTED and job.rejection_reason == "rejected"
        LIFECYCLE["executed"].apply(job, {"finish": 1.5, "workers": None})
        assert job.state is JobState.REJECTED  # a side record moves nothing
        assert job.workers == 1 and job.executed_wall_seconds == 1.5
        assert job.pilot_cache_hit is None and job.execution_attempts == 0


# --------------------------------------------------------------------------- #
# A journal written before the table existed
# --------------------------------------------------------------------------- #
class TestJournalCompatibility:
    """``journal_pr20.jsonl`` was journaled by the parent commit's service
    (12 jobs on 8 GPUs behind a depth-3 queue: completions with and
    without a cache hit, an infeasible and three queue-full rejections,
    two jobs placed when the process "died", a torn last line) and
    ``journal_pr20.expected.json`` is what that commit's ``recover()``
    made of it."""

    @pytest.fixture()
    def recovered(self, tmp_path):
        shutil.copy(DATA / "journal_pr20.jsonl", tmp_path / "journal.jsonl")
        return JobStore(tmp_path).recover()

    def test_records_and_pending_set_are_the_parents(self, recovered):
        expected = json.loads((DATA / "journal_pr20.expected.json").read_text())
        assert len(recovered) == 12
        assert sorted(j.job_id for j in recovered.pending) == sorted(expected["pending"])
        assert {j.job_id: j.as_record() for j in recovered.jobs} == expected["records"]

    def test_the_fixture_covers_what_it_claims(self, recovered):
        assert any(j.cache_hit for j in recovered.completed)
        assert any(not j.cache_hit for j in recovered.completed)
        reasons = {j.rejection_reason.split(":")[0] for j in recovered.rejected}
        assert reasons == {"infeasible", "queue full"}
        journal = (DATA / "journal_pr20.jsonl").read_text()
        assert not journal.endswith("\n")  # the torn tail
        placed = {json.loads(line)["job_id"] for line in journal.splitlines()[:-1]
                  if json.loads(line)["event"] == "placed"}
        assert {j.job_id for j in recovered.pending} <= placed

    def test_a_service_reopened_on_it_finishes_the_pending_jobs(self, tmp_path):
        shutil.copy(DATA / "journal_pr20.jsonl", tmp_path / "journal.jsonl")
        with ReconstructionService(GPUS, state_dir=tmp_path) as service:
            assert service.recovered_jobs == 12
            service.run_until_idle()
            summary = service.report().summary
            assert summary["jobs_completed"] == 8.0
            assert summary["jobs_rejected"] == 4.0
        again = JobStore(tmp_path).recover()
        assert not again.pending and len(again) == 12


def test_a_restart_never_reuses_a_recovered_job_id(tmp_path, monkeypatch):
    """Each process numbers default job ids from zero, so recovery must move
    the numbering past every recovered ``job-NNNN``: a reused id would make
    the journal fold two jobs into one."""
    def new_process():
        monkeypatch.setattr(job_module, "_job_counter", itertools.count())

    new_process()
    ReconstructionJob(problem=problem_from_string(SMALL))  # built, never submitted
    with ReconstructionService(GPUS, workers=0, state_dir=tmp_path) as service:
        first = [service.submit_plan(PLANS[0]).job_id for _ in range(2)]
    new_process()
    with ReconstructionService(GPUS, workers=0, state_dir=tmp_path) as service:
        assert sorted(service.jobs) == first
        later = [service.submit_plan(PLANS[0]).job_id for _ in range(2)]
    assert not set(later) & set(first)
    new_process()
    again = JobStore(tmp_path).recover()
    assert sorted(job.job_id for job in again.jobs) == sorted(first + later)


# --------------------------------------------------------------------------- #
# The state machine
# --------------------------------------------------------------------------- #
PLANS = [
    plan_for_problem(spec, target="service", cluster_gpus=GPUS, **qos)
    for spec, qos in (
        (SMALL, {}),
        (MID, {"slo_seconds": 60.0, "tenant": "alpha"}),
        (SMALL, {"scenario": "short_scan", "priority": 0, "tenant": "beta"}),
    )
]

#: Live records carry the backpressure hint; the journal does not.
UNJOURNALED = ("retry_after_s",)


def _journaled(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in UNJOURNALED}


def _registry(service: ReconstructionService) -> dict:
    return {
        job_id: (job.state, _journaled(job.as_record()))
        for job_id, job in service.jobs.items()
    }


class PilotStub:
    """A service's dispatcher with no processes: each dispatched pilot is
    held until the caller rules on it, or is ruled on as it is dispatched
    (``eager``), which is before its simulated finish.

    Install it with :meth:`install`, which hands it the callbacks the
    service gave its real dispatcher (built with ``workers=1``; a
    dispatcher starts no process before its first dispatch)."""

    def __init__(self, on_executed, on_failed):
        self.on_executed = on_executed
        self.on_failed = on_failed
        self.held: list = []  # dispatched jobs awaiting a verdict
        self.eager = None  # None (hold), "ok" or "fail"

    @classmethod
    def install(cls, service: ReconstructionService) -> "PilotStub":
        real = service.dispatcher
        stub = service.dispatcher = cls(real.on_executed, real.on_failed)
        return stub

    def dispatch(self, placements):
        for placement in placements:
            self.held.append(placement.job)
            if self.eager is not None:
                self.rule(placement.job, ok=self.eager == "ok")

    def rule(self, job, *, ok: bool) -> None:
        """Hand ``job``'s verdict to the service, as a drain would."""
        self.held.remove(job)
        job.execution_attempts = 1
        if ok:
            job.mark_executed(0.25, 0.75, workers=1)
            job.pilot_cache_hit = False
            self.on_executed(job)
        else:
            job.mark_failed("pilot worker crashed (attempt 1)")
            self.on_failed(job)

    def drain(self):
        return []  # verdicts land when the caller rules

    def fault_summary(self):
        return {}

    def close(self):
        pass


class ServiceLifecycle(RuleBasedStateMachine):
    """Random histories of one durable, simulated service, with
    (``PilotStub``) or without (``workers=0``) pilots."""

    def __init__(self):
        super().__init__()
        self.job_counter = job_module._job_counter  # restored in teardown
        self.state_dir = Path(tempfile.mkdtemp(prefix="repro-lifecycle-"))
        # One registry for the life of the machine: the counters are
        # lifetime counters, so they keep counting across restarts.
        self.obs = MetricsRegistry()
        self.with_pilots = False
        self.pilots = None  # the open service's PilotStub, with pilots
        self.service = self._open()
        self.admitted: dict = {}  # job id -> last state seen
        self.counters: dict = {}
        self.minted = 0

    def _open(self) -> ReconstructionService:
        service = ReconstructionService(
            GPUS, state_dir=self.state_dir, obs=self.obs,
            admission=AdmissionPolicy(max_depth=3),
            workers=int(self.with_pilots),
        )
        if self.with_pilots:
            eager = self.pilots.eager if self.pilots is not None else None
            self.pilots = PilotStub.install(service)
            self.pilots.eager = eager
        return service

    @initialize(pilots=st.booleans())
    def choose_pilots(self, pilots):
        if pilots:
            self.service.close()
            self.with_pilots = True
            self.service = self._open()

    def teardown(self):
        self.service.close()
        job_module._job_counter = self.job_counter
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    @rule(
        problem=st.sampled_from([SMALL, SMALL, MID, HUGE]),
        dataset=st.integers(0, 2),
        slo=st.sampled_from([None, 30.0, 600.0]),
        priority=st.integers(0, 2),
    )
    def submit(self, problem, dataset, slo, priority):
        self.minted += 1
        job = ReconstructionJob(
            problem=problem_from_string(problem), job_id=f"sm-{self.minted}",
            dataset_id=f"ds-{dataset}", slo_seconds=slo, priority=priority,
        )
        admitted = self.service.submit(job)
        assert admitted == (job.state is JobState.QUEUED)
        self.admitted[job.job_id] = job.state

    @rule(plan=st.sampled_from(PLANS), dataset=st.integers(0, 2))
    def submit_plan(self, plan, dataset):
        job = self.service.submit_plan(plan, dataset_id=f"ds-{dataset}")
        assert job.job_id not in self.admitted
        self.admitted[job.job_id] = job.state

    @rule()
    def advance(self):
        self.service.run_until_idle()
        for job in self.service.jobs.values():
            assert job.state in TERMINAL_STATES or self._held(job)

    @precondition(lambda self: self.pilots is not None)
    @rule(eager=st.sampled_from([None, "ok", "fail"]))
    def time_the_verdicts(self, eager):
        # From now on pilots rule at dispatch (before the simulated
        # finish) or are held for pilot_verdict (after it).
        self.pilots.eager = eager

    @precondition(lambda self: self.pilots is not None and self.pilots.held)
    @rule(pick=st.integers(0, 2**16), ok=st.booleans())
    def pilot_verdict(self, pick, ok):
        job = self.pilots.held[pick % len(self.pilots.held)]
        assert job.state is JobState.RUNNING  # its simulated finish passed
        self.pilots.rule(job, ok=ok)
        assert job.state is (JobState.COMPLETED if ok else JobState.FAILED)

    @rule(held=st.sampled_from(["killed", "ok", "fail"]))
    def restart(self, held):
        # Held pilots die with a killed process; a closing one drains them.
        if self.pilots is not None and held != "killed":
            for job in list(self.pilots.held):
                self.pilots.rule(job, ok=held == "ok")
        # Each reopening is a new process: default job ids count from zero.
        self.service.close()
        job_module._job_counter = itertools.count()
        self.service = self._open()
        once = _registry(self.service)
        # recover . recover == recover: the reopening re-journaled its
        # re-submissions; a second one must find the same jobs.
        self.service.close()
        job_module._job_counter = itertools.count()
        self.service = self._open()
        assert _registry(self.service) == once

    def _held(self, job) -> bool:
        """Running, its simulated finish passed, its verdict still held."""
        return (
            self.pilots is not None
            and job.state is JobState.RUNNING
            and any(held is job for held in self.pilots.held)
        )

    # ------------------------------------------------------------------ #
    @invariant()
    def every_admitted_job_has_one_state_and_terminal_ones_keep_it(self):
        jobs = self.service.jobs
        assert set(jobs) == set(self.admitted)  # none lost, none invented
        for job_id, job in jobs.items():
            before = self.admitted[job_id]
            if before in TERMINAL_STATES:
                assert job.state is before, (job_id, before, job.state)
            # In flight, a job is queued, or awaits its held verdict:
            # otherwise RUNNING only exists inside advance.
            assert (
                job.state in TERMINAL_STATES
                or job.state is JobState.QUEUED
                or self._held(job)
            )
            self.admitted[job_id] = job.state

    @invariant()
    def report_registry_counters_and_journal_count_the_same_jobs(self):
        report = self.service.report()
        census = {state: 0 for state in TERMINAL_STATES}
        for job in self.service.jobs.values():
            if job.state in TERMINAL_STATES:
                census[job.state] += 1
        records = [
            json.loads(line)
            for line in (self.state_dir / "journal.jsonl").read_text().splitlines()
        ] if (self.state_dir / "journal.jsonl").exists() else []
        events = [record["event"] for record in records]
        snapshot = self.obs.snapshot()
        for state in TERMINAL_STATES:
            name = state.value
            counted = census[state]
            assert report.summary[f"jobs_{name}"] == counted
            assert snapshot.get(f"service.jobs_{name}", 0.0) == counted
            assert events.count(name) == counted
        assert len(report.jobs) == sum(census.values())
        # One verdict per job: one terminal journal event, one ledger entry.
        verdicts = [r["job_id"] for r in records if r["event"] in TERMINAL_EVENTS]
        assert len(verdicts) == len(set(verdicts))
        ledger = [record["job_id"] for record in report.jobs]
        assert len(ledger) == len(set(ledger))

    @invariant()
    def the_journal_alone_rebuilds_every_terminal_record(self):
        recovered = {j.job_id: j for j in JobStore(self.state_dir).recover().jobs}
        assert set(recovered) == set(self.service.jobs)
        for job_id, job in self.service.jobs.items():
            if job.state in TERMINAL_STATES:
                assert _journaled(recovered[job_id].as_record()) == _journaled(
                    job.as_record()
                )
            else:
                assert recovered[job_id].state is JobState.PENDING

    @invariant()
    def counters_are_monotone(self):
        snapshot = {
            name: value for name, value in self.obs.snapshot().items()
            if name.startswith("service.jobs_")
        }
        for name, value in self.counters.items():
            assert snapshot[name] >= value, name
        self.counters = snapshot


def test_lifecycle_state_machine():
    run_state_machine_as_test(
        ServiceLifecycle,
        settings=settings(max_examples=25, stateful_step_count=20, deadline=None),
    )


@pytest.mark.slow
def test_lifecycle_state_machine_long():
    run_state_machine_as_test(
        ServiceLifecycle,
        settings=settings(max_examples=250, stateful_step_count=20, deadline=None),
    )
