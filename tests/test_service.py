"""Tests for the reconstruction-as-a-service layer (``repro.service``)."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading

import numpy as np
import pytest

from repro.core.types import ProjectionStack, problem_from_string
from repro.service import (
    AdmissionPolicy,
    ArrivalTrace,
    CacheKey,
    ClusterScheduler,
    FilteredProjectionCache,
    GPUCluster,
    JobQueue,
    JobState,
    ProcessDispatcher,
    ReconstructionJob,
    ReconstructionService,
    ServiceMetrics,
    fingerprint_stack,
    synthetic_trace,
)
from repro.service.trace import TraceEntry

SMALL = "512x512x1024->256x256x256"
MEDIUM = "1024x1024x1024->1024x1024x1024"
HEAVY = "2048x2048x4096->2048x2048x2048"


def make_job(problem=SMALL, **kwargs) -> ReconstructionJob:
    return ReconstructionJob(problem=problem_from_string(problem), **kwargs)


# --------------------------------------------------------------------------- #
# Jobs and the queue
# --------------------------------------------------------------------------- #
class TestJob:
    def test_lifecycle(self):
        job = make_job(slo_seconds=30.0, arrival_seconds=5.0)
        assert job.state is JobState.PENDING
        assert job.deadline_seconds == 35.0
        job.mark_queued()
        job.mark_running(6.0, gpus=4, rows=1, columns=4, cache_hit=False)
        job.mark_completed(16.0)
        assert job.latency_seconds == pytest.approx(11.0)
        assert job.runtime_seconds == pytest.approx(10.0)
        assert job.met_slo is True

    def test_best_effort_deadline_is_infinite(self):
        assert make_job().deadline_seconds == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_job(priority=-1)
        with pytest.raises(ValueError):
            make_job(slo_seconds=0.0)

    def test_record_is_json_serializable(self):
        job = make_job(slo_seconds=10.0)
        json.dumps(job.as_record())


class TestJobQueue:
    def test_orders_by_priority_then_deadline(self):
        queue = JobQueue()
        late = make_job(priority=1, slo_seconds=50.0)
        urgent = make_job(priority=0, slo_seconds=50.0)
        tight = make_job(priority=1, slo_seconds=5.0)
        for job in (late, urgent, tight):
            assert queue.offer(job)
        assert [j.job_id for j in queue.ordered()] == [
            urgent.job_id, tight.job_id, late.job_id
        ]
        assert queue.ordered()[0] is urgent

    def test_depth_cap_rejects(self):
        queue = JobQueue(AdmissionPolicy(max_depth=2))
        assert queue.offer(make_job())
        assert queue.offer(make_job())
        third = make_job()
        assert not queue.offer(third)
        assert third.state is JobState.REJECTED
        assert "queue full" in third.rejection_reason

    def test_backlog_cap_rejects(self):
        queue = JobQueue(AdmissionPolicy(max_backlog_seconds=10.0))
        first = make_job()
        first.estimated_seconds = 8.0
        second = make_job()
        second.estimated_seconds = 5.0
        assert queue.offer(first)
        assert not queue.offer(second)
        assert "backlog" in second.rejection_reason


# --------------------------------------------------------------------------- #
# Filtered-projection cache
# --------------------------------------------------------------------------- #
CAPACITY = 250


def cache_key(dataset="ds-0", ramp="ram-lak") -> CacheKey:
    return CacheKey(dataset_id=dataset, ramp_filter=ramp, nu=64, nv=64, np_=32)


def tiny_filtered_stack(seed=0) -> ProjectionStack:
    """A 128-byte filtered stack: small enough for a CAPACITY-byte cache."""
    rng = np.random.default_rng(seed)
    return ProjectionStack(
        data=rng.standard_normal((2, 4, 4)).astype(np.float32),
        angles=np.array([0.0, np.pi]),
        filtered=True,
    )


def stamp_recency(cache: FilteredProjectionCache) -> FilteredProjectionCache:
    """Give every write and touch of a directory cache its own mtime second.

    The meta file's mtime is the directory store's recency clock, and the
    kernel stamps files from a coarse clock: writes microseconds apart tie,
    and a tie falls back to directory order.  One second per event makes
    recency exactly the order of the calls, as it is in memory.
    """
    store = cache._store
    clock = itertools.count(1_000_000)
    put, touch = store.put, store.touch

    def stamp(tag):
        second = next(clock)
        os.utime(store.directory / f"{tag}.meta.json", (second, second))

    def stamped_put(key, nbytes, filtered):
        tag = put(key, nbytes, filtered)
        stamp(tag)
        return tag

    def stamped_touch(key):
        touch(key)
        stamp(key.tag)

    store.put, store.touch = stamped_put, stamped_touch
    return cache


@pytest.fixture(params=["memory", "directory"])
def cache(request, tmp_path) -> FilteredProjectionCache:
    """A CAPACITY-byte cache on each entry store: one body per property."""
    if request.param == "memory":
        return FilteredProjectionCache(capacity_bytes=CAPACITY)
    return stamp_recency(
        FilteredProjectionCache(capacity_bytes=CAPACITY, directory=tmp_path / "cache")
    )


def resummed(cache: FilteredProjectionCache) -> int:
    """Ground truth: the sizes the store holds (in its dict, or in its meta
    files on disk), summed afresh."""
    store = cache._store
    if hasattr(store, "directory"):
        return sum(
            json.loads(meta.read_text(encoding="utf-8"))["nbytes"]
            for meta in store.directory.glob("*.meta.json")
        )
    return sum(entry.nbytes for entry in store._entries.values())


class TestFilteredProjectionCache:
    def test_hit_miss_accounting(self, cache):
        key = cache_key()
        assert not cache.lookup(key)
        cache.insert(key, nbytes=100)
        assert cache.lookup(key)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.insertions == 1

    def test_contains_does_not_count(self, cache):
        assert not cache.contains(cache_key())
        cache.insert(cache_key(), nbytes=10)
        assert cache.contains(cache_key())
        assert cache.stats.lookups == 0

    def test_content_keyed(self, cache):
        cache.insert(cache_key("a"), nbytes=10)
        assert not cache.contains(cache_key("b"))
        assert not cache.contains(cache_key("a", ramp="hann"))
        assert cache.contains(cache_key("a"))

    def test_lru_eviction_by_bytes(self, cache):
        a, b, c = cache_key("a"), cache_key("b"), cache_key("c")
        cache.insert(a, nbytes=100)
        cache.insert(b, nbytes=100)
        cache.lookup(a)  # a becomes most-recently-used
        cache.insert(c, nbytes=100)  # over capacity: evicts b (LRU)
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)
        assert cache.stats.evictions == 1
        assert cache.used_bytes == 200 == resummed(cache)

    def test_refresh_that_grows_an_entry_still_enforces_capacity(self, cache):
        a, b = cache_key("a"), cache_key("b")
        cache.insert(a, nbytes=100)
        cache.insert(b, nbytes=100)
        cache.insert(a, nbytes=200)  # refresh grows a over capacity
        assert cache.used_bytes == 200 == resummed(cache)
        assert cache.stats.evictions == 1 and not cache.contains(b)
        assert cache.stats.insertions == 2  # a refresh is not an insertion

    def test_refresh_that_shrinks_an_entry_makes_it_the_newest(self, cache):
        a, b, c = cache_key("a"), cache_key("b"), cache_key("c")
        cache.insert(a, nbytes=100)
        cache.insert(b, nbytes=100)
        cache.insert(a, nbytes=20)  # refresh shrinks a, moves it to MRU
        assert cache.used_bytes == 120 == resummed(cache)
        cache.insert(c, nbytes=150)  # 270 > 250: evicts b (LRU), not a
        assert cache.used_bytes == 170 == resummed(cache)
        assert cache.contains(a) and cache.contains(c) and not cache.contains(b)
        assert cache.stats.evictions == 1 and cache.stats.insertions == 3

    def test_oversize_insert_is_refused(self, cache):
        # An entry larger than the capacity must be refused up front: once
        # accepted, no eviction could make it fit.
        with pytest.raises(ValueError, match="exceeds the cache capacity"):
            cache.insert(cache_key("big"), nbytes=CAPACITY + 1)
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.stats.insertions == 0

    def test_oversize_refresh_is_refused_without_corrupting_the_total(self, cache):
        cache.insert(cache_key("a"), nbytes=40)
        with pytest.raises(ValueError, match="exceeds the cache capacity"):
            cache.insert(cache_key("a"), nbytes=CAPACITY + 1)
        assert cache.used_bytes == 40 == resummed(cache)
        assert cache.contains(cache_key("a"))

    def test_used_bytes_is_a_resum_through_inserts_refreshes_and_evictions(self, cache):
        sizes = [90, 40, 120, 10, 250, 0, 60, 70, 200, 5]
        for step, nbytes in enumerate(sizes):
            cache.insert(cache_key(f"ds-{step % 4}"), nbytes=nbytes)
            assert cache.used_bytes == resummed(cache) <= CAPACITY

    def test_insert_needs_a_size_or_a_stack(self, cache):
        with pytest.raises(ValueError, match="either nbytes or a filtered stack"):
            cache.insert(cache_key())

    def test_payload_round_trip(self, cache):
        key, stack = cache_key(), tiny_filtered_stack(seed=7)
        cache.insert(key, filtered=stack)
        assert cache.contains(key) and cache.used_bytes == stack.nbytes
        restored = cache.get_filtered(key)
        np.testing.assert_array_equal(restored.data, stack.data)
        np.testing.assert_array_equal(restored.angles, stack.angles)
        assert restored.filtered is True
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_size_only_refresh_keeps_the_payload(self, cache):
        key, stack = cache_key(), tiny_filtered_stack()
        cache.insert(key, filtered=stack)
        cache.insert(key, nbytes=stack.nbytes)
        np.testing.assert_array_equal(cache.get_filtered(key).data, stack.data)

    def test_size_only_entry_misses_on_read(self, cache):
        key = cache_key("sched-only")
        cache.insert(key, nbytes=64)
        assert cache.contains(key)
        assert cache.get_filtered(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_memory_store_keeps_a_running_total_not_a_rescan(self):
        # A re-sum per access was O(n^2) over an eviction loop.  The running
        # total does not see a mutation made behind the store's back; a
        # re-sum would.
        cache = FilteredProjectionCache(capacity_bytes=1000)
        cache.insert(cache_key("a"), nbytes=100)
        cache._store._entries[cache_key("a")].nbytes = 999
        assert cache.used_bytes == 100

    def test_memory_store_never_hashes_the_tag(self, monkeypatch):
        # The tag is ~30x a dict probe; the scheduler's hot calls must not pay it.
        def no_tag(self):
            raise AssertionError("memory store computed CacheKey.tag")

        monkeypatch.setattr(CacheKey, "tag", property(no_tag))
        cache = FilteredProjectionCache(capacity_bytes=CAPACITY)
        for dataset in "abc":
            cache.contains(cache_key(dataset))
            cache.lookup(cache_key(dataset))
            cache.insert(cache_key(dataset), nbytes=100)
        assert cache.get_filtered(cache_key("c")) is None
        assert cache.stats.evictions == 1

    def test_fingerprint_tracks_content(self, small_projections):
        base = fingerprint_stack(small_projections)
        assert base == fingerprint_stack(small_projections.copy())
        modified = small_projections.copy()
        modified.data[0, 0, 0] += 1.0
        assert base != fingerprint_stack(modified)


@pytest.mark.parametrize(
    "jobs, seed, counters", [(500, 3, (437, 63, 47, 34)), (1000, 7, (923, 77, 54, 41))]
)
def test_replay_is_identical_on_both_stores(tmp_path, jobs, seed, counters):
    """The policy decides; the store only keeps entries.  Recency is stamped
    per event on the directory (see stamp_recency), so both stores see the
    same LRU order and must make every decision alike."""
    trace = synthetic_trace(jobs, cluster_gpus=16, seed=seed)
    services = [
        ReconstructionService(16, policy="slo"),
        ReconstructionService(
            16, policy="slo", cache=stamp_recency(FilteredProjectionCache(directory=tmp_path))
        ),
    ]
    memory, directory = (service.replay(trace).as_dict() for service in services)
    for service in services:
        stats = service.cache.stats
        assert (stats.hits, stats.misses, stats.insertions, stats.evictions) == counters
    assert memory["summary"] == directory["summary"]
    # Byte-identical, compared by digest: a diff of two megabyte-long JSON
    # strings would take pytest minutes to render.
    memory, directory = (
        hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        for report in (memory, directory)
    )
    assert memory == directory


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #
class TestClusterScheduler:
    def test_slo_picks_cheapest_allocation_meeting_deadline(self):
        scheduler = ClusterScheduler(GPUCluster(16))
        loose = make_job(SMALL, slo_seconds=300.0)
        tight = make_job(SMALL, slo_seconds=4.0)
        loose_plan = scheduler.best_plan(loose, 16, now=0.0)
        tight_plan = scheduler.best_plan(tight, 16, now=0.0)
        assert loose_plan.gpus < tight_plan.gpus
        assert tight_plan.finish_at(0.0) <= tight.deadline_seconds

    def test_memory_constraint_forces_rows(self):
        scheduler = ClusterScheduler(GPUCluster(16))
        # The 2K output (32 GiB) needs R >= 4 on a 16 GB V100, so no plan
        # with fewer than 4 GPUs exists.
        plans = scheduler.candidate_plans(make_job(HEAVY), 16)
        assert plans and min(p.gpus for p in plans) >= 4
        assert all(p.rows >= 4 for p in plans)

    def test_cached_runtime_is_never_slower(self):
        scheduler = ClusterScheduler(GPUCluster(16))
        problem = problem_from_string(SMALL)
        plain = scheduler.runtime_seconds(problem, 1, 4)
        cached = scheduler.runtime_seconds(problem, 1, 4, cached=True)
        assert cached <= plain

    def test_fifo_takes_whole_cluster_in_order(self):
        cluster = GPUCluster(8)
        scheduler = ClusterScheduler(cluster, policy="fifo")
        queue = JobQueue()
        first = make_job(SMALL, arrival_seconds=0.0)
        second = make_job(SMALL, arrival_seconds=1.0)
        queue.offer(second)
        queue.offer(first)
        placements, rejected = scheduler.schedule(queue, now=1.0, running=[])
        assert not rejected
        assert [p.job is first for p in placements[:1]] == [True]
        assert placements[0].gpus == 8  # the whole cluster
        assert len(placements) == 1 and len(queue) == 1  # head-of-line blocking

    def test_slo_packs_concurrent_jobs(self):
        cluster = GPUCluster(16)
        scheduler = ClusterScheduler(cluster, policy="slo")
        queue = JobQueue()
        jobs = [make_job(SMALL, slo_seconds=120.0) for _ in range(4)]
        for job in jobs:
            queue.offer(job)
        placements, _ = scheduler.schedule(queue, now=0.0, running=[])
        assert len(placements) == 4  # all run concurrently
        assert sum(p.gpus for p in placements) <= 16

    def test_infeasible_job_rejected(self):
        scheduler = ClusterScheduler(GPUCluster(4))
        queue = JobQueue()
        monster = make_job("2048x2048x4096->8192x8192x8192")
        queue.offer(monster)
        placements, rejected = scheduler.schedule(queue, now=0.0, running=[])
        assert not placements and rejected == [monster]
        assert monster.state is JobState.REJECTED

    def test_slo_defers_for_larger_grid_when_waiting_meets_deadline(self):
        from repro.pipeline import choose_grid
        from repro.service import Placement
        from repro.service.scheduler import AllocationPlan

        cluster = GPUCluster(8)
        scheduler = ClusterScheduler(cluster, policy="slo")
        heavy = make_job(HEAVY)
        r4 = scheduler.runtime_seconds(heavy.problem, *choose_grid(heavy.problem, 4))
        r8 = scheduler.runtime_seconds(heavy.problem, *choose_grid(heavy.problem, 8))
        assert r8 < r4
        # 4 GPUs are busy until t=1; the remaining 4 would miss the SLO,
        # but all 8 starting at t=1 meet it.
        blocker = make_job(SMALL)
        blocker.mark_running(0.0, gpus=4, rows=1, columns=4, cache_hit=False)
        cluster.allocate(4)
        running = [Placement(
            job=blocker,
            plan=AllocationPlan(gpus=4, rows=1, columns=4,
                                runtime_seconds=1.0, cache_hit=False),
            start_seconds=0.0,
        )]
        heavy.slo_seconds = 1.0 + r8 + 0.5
        assert heavy.slo_seconds < r4
        queue = JobQueue()
        queue.offer(heavy)
        placements, rejected = scheduler.schedule(queue, now=0.0, running=running)
        assert placements == [] and rejected == []
        assert len(queue) == 1  # deferred behind the 8-GPU reservation

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            ClusterScheduler(GPUCluster(4), policy="random")

    def test_cluster_allocation_bounds(self):
        cluster = GPUCluster(4)
        cluster.allocate(3)
        with pytest.raises(RuntimeError):
            cluster.allocate(2)
        cluster.release(3)
        with pytest.raises(RuntimeError):
            cluster.release(1)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestServiceMetrics:
    def test_summary_percentiles_and_throughput(self):
        metrics = ServiceMetrics()
        for i, latency in enumerate((1.0, 2.0, 3.0, 4.0)):
            job = make_job(SMALL, arrival_seconds=float(i))
            job.mark_running(float(i), gpus=2, rows=1, columns=2, cache_hit=False)
            job.mark_completed(float(i) + latency)
            metrics.record(job)
        summary = metrics.summary(cluster_gpus=4)
        assert summary["jobs_completed"] == 4
        assert summary["latency_p50_s"] == pytest.approx(2.5)
        assert summary["makespan_s"] == pytest.approx(7.0)
        assert summary["throughput_jobs_per_s"] == pytest.approx(4 / 7.0)
        assert 0.0 < summary["gpu_utilization"] <= 1.0

    def test_summary_totals_add_left_to_right(self):
        """A compensated sum (``sum()`` from Python 3.12) gives 1.0 here;
        the recorded replay digests hold the plain left-to-right sums."""
        metrics = ServiceMetrics()
        for seconds in (1e16, 1.0, -1e16):
            job = make_job(SMALL)
            job.mark_running(0.0, gpus=1, rows=1, columns=1, cache_hit=False,
                             filter_seconds=seconds, backprojection_seconds=seconds)
            job.mark_completed(1.0)
            metrics.record(job)
        summary = metrics.summary()
        assert summary["filter_seconds_total"] == 0.0
        assert summary["backprojection_seconds_total"] == 0.0

    def test_rejects_wrong_state(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError):
            metrics.record(make_job())


# --------------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------------- #
class TestArrivalTrace:
    def test_synthetic_trace_is_deterministic(self):
        a = synthetic_trace(12, seed=7)
        b = synthetic_trace(12, seed=7)
        assert a.to_json() == b.to_json()
        assert synthetic_trace(12, seed=8).to_json() != a.to_json()

    def test_json_roundtrip(self, tmp_path):
        trace = synthetic_trace(10, cluster_gpus=8, seed=3)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ArrivalTrace.load(path)
        assert loaded.cluster_gpus == 8
        assert loaded.to_json() == trace.to_json()

    def test_entries_sorted_by_arrival(self):
        trace = ArrivalTrace(entries=[
            TraceEntry(job_id="b", tenant="t", arrival_seconds=5.0, problem=SMALL,
                       dataset_id="d"),
            TraceEntry(job_id="a", tenant="t", arrival_seconds=1.0, problem=SMALL,
                       dataset_id="d"),
        ])
        assert [e.job_id for e in trace.entries] == ["a", "b"]

    def test_malformed_json_raises_value_error(self):
        with pytest.raises(ValueError):
            ArrivalTrace.from_json("not json")
        with pytest.raises(ValueError):
            ArrivalTrace.from_json("[1, 2]")
        with pytest.raises(ValueError):
            ArrivalTrace.from_json('{"jobs": [{"tenant": "t"}]}')

    def test_null_fields_raise_value_error(self):
        with pytest.raises(ValueError):
            ArrivalTrace.from_json(
                '{"jobs": [{"id": "j", "arrival": null, "problem": "%s"}]}' % SMALL
            )
        with pytest.raises(ValueError):
            ArrivalTrace.from_json(
                '{"jobs": [{"id": "j", "arrival": 0.0, "priority": null, '
                '"problem": "%s"}]}' % SMALL
            )


# --------------------------------------------------------------------------- #
# End-to-end service replay
# --------------------------------------------------------------------------- #
class TestReconstructionService:
    def test_replay_completes_every_job(self):
        trace = synthetic_trace(20, cluster_gpus=8, seed=1)
        service = ReconstructionService(8)
        report = service.replay(trace)
        assert report.summary["jobs_completed"] == 20
        assert report.summary["jobs_rejected"] == 0
        assert service.cluster.in_use == 0
        assert len(service.queue) == 0

    def test_cache_hits_on_repeat_datasets(self):
        trace = synthetic_trace(20, cluster_gpus=8, seed=1, n_datasets=2)
        service = ReconstructionService(8)
        report = service.replay(trace)
        assert report.summary["cache_hit_rate"] > 0

    def test_job_larger_than_the_whole_cache_completes_uncached(self, tmp_path):
        """Its input can never fit, so it is simply not cached: the job still
        completes, is journaled and counted, and ``run_until_idle`` returns."""
        trace = synthetic_trace(1, cluster_gpus=8, seed=1)
        (job,) = trace.jobs()
        cache = FilteredProjectionCache(capacity_bytes=job.problem.input_bytes() - 1)
        with ReconstructionService(8, cache=cache, state_dir=tmp_path) as service:
            assert service.submit(job, now=0.0)
            service.run_until_idle()
            assert service.report().summary["jobs_completed"] == 1
        assert len(cache) == 0 and cache.stats.insertions == 0
        with ReconstructionService(8, cache=cache, state_dir=tmp_path) as recovered:
            assert recovered.report().summary["jobs_completed"] == 1
            assert len(recovered.queue) == 0

    def test_concurrent_jobs_never_exceed_cluster(self):
        trace = synthetic_trace(20, cluster_gpus=8, seed=2)
        service = ReconstructionService(8)
        report = service.replay(trace)
        events = []
        for job in report.jobs:
            events.append((job["start_s"], job["gpus"]))
            events.append((job["finish_s"], -job["gpus"]))
        in_use, peak = 0, 0
        # Releases sort before same-instant allocations, as in the event loop.
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            in_use += delta
            peak = max(peak, in_use)
        assert peak <= 8

    def test_submit_rejects_infeasible_problem(self):
        service = ReconstructionService(2)
        job = make_job("2048x2048x4096->8192x8192x8192")
        assert not service.submit(job)
        assert job.state is JobState.REJECTED
        assert "infeasible" in job.rejection_reason
        assert service.metrics.rejected == [job]

    def test_single_job_latency_matches_model(self):
        service = ReconstructionService(4)
        job = make_job(SMALL, slo_seconds=1000.0)
        assert service.submit(job)
        service.run_until_idle()
        expected = service.scheduler.runtime_seconds(job.problem, job.rows, job.columns)
        assert job.latency_seconds == pytest.approx(expected)
        assert job.met_slo

    def test_fifo_policy_serializes(self):
        trace = synthetic_trace(8, cluster_gpus=8, seed=0, heavy_fraction=0.0)
        report = ReconstructionService(8, policy="fifo").replay(trace)
        done = [j for j in report.jobs if j["state"] == "completed"]
        # With the whole cluster per job, executions never overlap.
        spans = sorted((j["start_s"], j["finish_s"]) for j in done)
        for (_, f0), (s1, _) in zip(spans, spans[1:]):
            assert s1 >= f0 - 1e-9

    def test_report_is_json_serializable(self):
        report = ReconstructionService(8).replay(synthetic_trace(6, seed=0))
        json.dumps(report.as_dict())

    def test_second_replay_starts_from_fresh_metrics(self):
        service = ReconstructionService(8)
        service.replay(synthetic_trace(6, seed=0))
        report = service.replay(synthetic_trace(5, seed=1))
        assert report.summary["jobs_completed"] == 5
        assert len(report.jobs) == 5

    def test_stage_timings_surface_in_jobs_and_summary(self):
        """The filter/back-projection split must survive up to ServiceMetrics."""
        trace = synthetic_trace(10, cluster_gpus=8, seed=3, n_datasets=2)
        service = ReconstructionService(8)
        report = service.replay(trace)
        done = [j for j in report.jobs if j["state"] == "completed"]
        assert done
        for job in done:
            assert job["backprojection_s"] > 0
            # A cache hit skips filtering entirely; a miss pays T_flt.
            if job["cache_hit"]:
                assert job["filter_s"] == 0.0
            else:
                assert job["filter_s"] > 0
        summary = report.summary
        assert summary["backprojection_seconds_total"] == pytest.approx(
            sum(j["backprojection_s"] for j in done)
        )
        assert summary["filter_seconds_total"] == pytest.approx(
            sum(j["filter_s"] for j in done)
        )
        assert 0.0 < summary["filter_fraction"] < 1.0

    def test_stage_timings_match_model_breakdown(self):
        service = ReconstructionService(4)
        job = make_job(SMALL)
        assert service.submit(job)
        service.run_until_idle()
        breakdown = service.scheduler.model.breakdown(job.problem, job.rows, job.columns)
        assert job.filter_seconds == pytest.approx(breakdown.t_flt)
        assert job.backprojection_seconds == pytest.approx(breakdown.t_bp)

    def test_service_backend_is_stamped_on_jobs_and_report(self):
        service = ReconstructionService(8, backend="vectorized")
        job = make_job(SMALL)
        assert service.submit(job)
        service.run_until_idle()
        assert job.backend == "vectorized"
        report = service.report()
        assert report.backend == "vectorized"
        assert report.as_dict()["backend"] == "vectorized"
        with pytest.raises(ValueError, match="unknown backend"):
            ReconstructionService(8, backend="nope")


# --------------------------------------------------------------------------- #
# Real concurrent execution (the dispatcher's worker processes)
# --------------------------------------------------------------------------- #
@pytest.mark.serving
class TestDispatch:
    @pytest.fixture(scope="class")
    def service(self):
        """One two-worker service for the class: its pool is spawned once."""
        with ReconstructionService(16, backend="blocked", workers=2) as service:
            yield service

    def test_disjoint_placements_overlap_in_wall_clock(self, service):
        service.reset()
        jobs = [make_job(SMALL, slo_seconds=500.0) for _ in range(2)]
        for job in jobs:
            assert service.submit(job)
        service.run_until_idle()
        first, second = jobs
        # Both were placed in the same scheduling cycle on disjoint GPU
        # sets and dispatched as one batch to a 2-worker pool: each must
        # start before the other finishes.
        assert first.executed_wall_seconds > 0
        assert second.executed_wall_seconds > 0
        assert first.executed_start_seconds < second.executed_finish_seconds
        assert second.executed_start_seconds < first.executed_finish_seconds
        assert first.start_seconds == second.start_seconds  # one cycle, one batch
        assert service.summary()["jobs_executed"] == 2

    def test_cache_hits_are_safe_under_concurrent_submit(self, service):
        warm = make_job(dataset_id="shared")
        assert service.submit(warm)
        service.run_until_idle()
        jobs = [make_job(dataset_id="shared") for _ in range(8)]
        outcomes = [None] * len(jobs)

        def tenant(index):
            outcomes[index] = service.submit(jobs[index])

        threads = [
            threading.Thread(target=tenant, args=(i,), name=f"tenant-{i}")
            for i in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcomes)
        service.run_until_idle()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert all(j.cache_hit for j in jobs)  # warmed dataset: all hit
        stats = service.cache.stats
        # Counted lookups stayed consistent under concurrency.
        assert stats.hits + stats.misses == stats.lookups
        assert stats.hits >= len(jobs)

    def test_worker_accounting_sums_correctly(self, service):
        report = service.replay(synthetic_trace(10, cluster_gpus=8, seed=4))
        done = [j for j in report.jobs if j["state"] == "completed"]
        assert done and all(j["executed_wall_s"] > 0 for j in done)
        assert all(j["workers"] >= 1 for j in done)
        summary = report.summary
        assert summary["jobs_executed"] == len(done)
        assert summary["worker_seconds_total"] == pytest.approx(
            sum(j["worker_seconds"] for j in done)
        )
        assert summary["executed_wall_seconds_total"] == pytest.approx(
            sum(j["executed_wall_s"] for j in done)
        )
        # No fault, no fault keys: the report keeps its fault-free shape.
        assert not [key for key in summary if key.startswith("dispatch_")]
        # A second replay's ledger holds its own jobs' verdicts only.
        second = service.replay(synthetic_trace(4, cluster_gpus=8, seed=5))
        assert second.summary["jobs_executed"] == 4
        assert second.summary["worker_seconds_total"] == pytest.approx(
            sum(j["worker_seconds"] for j in second.jobs)
        )

    def test_model_only_service_has_no_worker_accounting(self):
        report = ReconstructionService(8).replay(synthetic_trace(4, seed=0))
        assert "worker_seconds_total" not in report.summary
        assert all(j["executed_wall_s"] is None for j in report.jobs)

    def test_dispatcher_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            ProcessDispatcher(0)
        with pytest.raises(ValueError, match="non-negative integer"):
            ReconstructionService(8, workers=-1)

    def test_record_with_execution_is_json_serializable(self, service):
        job = make_job(SMALL)
        assert service.submit(job)
        service.run_until_idle()
        json.dumps(job.as_record())
        with pytest.raises(ValueError):
            job.mark_executed(2.0, 1.0, workers=1)
        with pytest.raises(ValueError):
            job.mark_executed(0.0, 1.0, workers=0)


# --------------------------------------------------------------------------- #
# CLI surface of the service
# --------------------------------------------------------------------------- #
class TestServiceCLI:
    def test_trace_then_serve(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "workload.json"
        report_path = tmp_path / "report.json"
        assert main(["trace", "--jobs", "20", "--gpus", "8", "--seed", "0",
                     "-o", str(trace_path)]) == 0
        assert main(["serve", "--trace", str(trace_path),
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "latency_p99_s" in out and "cache_hit_rate" in out
        report = json.loads(report_path.read_text())
        assert report["summary"]["jobs_completed"] == 20
        assert report["summary"]["cache_hit_rate"] > 0
        assert report["cluster_gpus"] == 8

    def test_serve_missing_trace_exits_2(self, tmp_path):
        from repro.cli import main

        assert main(["serve", "--trace", str(tmp_path / "nope.json")]) == 2

    def test_serve_malformed_trace_exits_2(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["serve", "--trace", str(bad)]) == 2

    def test_submit_prints_completed_record(self, capsys):
        from repro.cli import main

        assert main(["submit", "--problem", SMALL, "--gpus", "4",
                     "--slo", "1000"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "completed"
        assert record["met_slo"] is True


# --------------------------------------------------------------------------- #
# Acquisition scenarios in the service layer
# --------------------------------------------------------------------------- #
class TestScenarioAwareService:
    def key(self, scenario="full", dataset="ds-0"):
        return CacheKey(dataset_id=dataset, ramp_filter="ram-lak",
                        nu=64, nv=64, np_=32, scenario=scenario)

    def test_cache_key_includes_scenario(self):
        """Same projections, different scenario -> miss; identical -> hit."""
        cache = FilteredProjectionCache()
        cache.insert(self.key(scenario="full"), nbytes=10)
        assert not cache.lookup(self.key(scenario="short"))
        assert cache.lookup(self.key(scenario="full"))
        assert self.key("full").tag != self.key("short").tag

    def test_for_job_resolves_preset_to_cache_token(self):
        """PR 1's cache can no longer serve full-scan filtering to a
        short-scan job: the job's scenario preset lands in the key."""
        full = CacheKey.for_job(make_job(dataset_id="ds-1"))
        short = CacheKey.for_job(
            make_job(dataset_id="ds-1", scenario="short_scan")
        )
        assert full.scenario == "full"
        assert short.scenario == "short"
        assert full != short
        # Renamed-but-identical protocols share filtered projections.
        assert CacheKey.for_job(
            make_job(dataset_id="ds-1", scenario="full_scan")
        ) == full
        # Unregistered ad-hoc names isolate conservatively (verbatim token).
        assert CacheKey.for_job(
            make_job(dataset_id="ds-1", scenario="custom-protocol")
        ).scenario == "custom-protocol"

    def test_for_job_token_agrees_with_scenarios_for_every_preset(self):
        """There is exactly one scenario cache-identity function.

        The service cache used to carry its own ``scenario_cache_token``
        copy of this mapping; it now delegates to
        :func:`repro.scenarios.cache_token_for`.  Pin the agreement on
        every registered preset so the two layers can never drift again.
        """
        from repro.scenarios import available_scenarios, cache_token_for, get_scenario

        for name in available_scenarios():
            scenario = get_scenario(name)
            key = CacheKey.for_job(make_job(dataset_id="ds-1", scenario=name))
            assert key.scenario == cache_token_for(name) == scenario.cache_token

    def test_service_cache_misses_across_scenarios(self):
        """End to end: a short-scan job on a cached dataset is not a hit."""
        service = ReconstructionService(8)
        first = make_job(dataset_id="shared", scenario="full_scan")
        assert service.submit(first)
        service.run_until_idle()
        repeat = make_job(dataset_id="shared", scenario="full_scan")
        other = make_job(dataset_id="shared", scenario="short_scan")
        assert service.submit(repeat) and service.submit(other)
        service.run_until_idle()
        assert repeat.cache_hit
        assert not other.cache_hit

    def test_job_round_trips_scenario(self):
        job = make_job(scenario="sparse_view", slo_seconds=60.0)
        record = job.as_record()
        assert record["scenario"] == "sparse_view"
        assert json.dumps(record)  # record stays JSON-serializable
        with pytest.raises(ValueError, match="scenario"):
            make_job(scenario="")

    def test_metrics_count_scenarios(self):
        metrics = ServiceMetrics()
        for scenario in ("full_scan", "short_scan", "short_scan"):
            job = make_job(scenario=scenario)
            job.mark_running(0.0, gpus=1, rows=1, columns=1, cache_hit=False)
            job.mark_completed(1.0)
            metrics.record(job)
        summary = metrics.summary()
        assert summary["scenario[full_scan]_jobs"] == 1.0
        assert summary["scenario[short_scan]_jobs"] == 2.0

    def test_trace_entry_round_trips_scenario(self, tmp_path):
        entry = TraceEntry(
            job_id="job-0", tenant="t", arrival_seconds=0.0,
            problem=SMALL, dataset_id="ds", scenario="noisy",
        )
        trace = ArrivalTrace(entries=[entry], cluster_gpus=4)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ArrivalTrace.load(path)
        assert loaded.entries[0].scenario == "noisy"
        assert loaded.jobs()[0].scenario == "noisy"
        # Legacy traces without the field default to full_scan.
        legacy = TraceEntry.from_json(
            {"id": "j", "arrival": 0.0, "problem": SMALL}
        )
        assert legacy.scenario == "full_scan"

    def test_synthetic_trace_scenario_mix(self):
        mixed = synthetic_trace(
            30, seed=5, scenario_mix={"full_scan": 0.5, "short_scan": 0.5}
        )
        scenarios = {e.scenario for e in mixed.entries}
        assert scenarios == {"full_scan", "short_scan"}
        # The mix draws from a separate stream: everything else identical.
        plain = synthetic_trace(30, seed=5)
        assert all(e.scenario == "full_scan" for e in plain.entries)
        for a, b in zip(plain.entries, mixed.entries):
            assert (a.job_id, a.arrival_seconds, a.problem, a.dataset_id,
                    a.priority) == (b.job_id, b.arrival_seconds, b.problem,
                                    b.dataset_id, b.priority)
        with pytest.raises(ValueError, match="sum to a positive"):
            synthetic_trace(5, scenario_mix={"full_scan": 0.0})

    def test_scenario_replay_reports_mix(self):
        trace = synthetic_trace(
            12, cluster_gpus=8, seed=2,
            scenario_mix={"full_scan": 0.6, "sparse_view": 0.4},
        )
        report = ReconstructionService(8).replay(trace)
        mix_keys = [k for k in report.summary if k.startswith("scenario[")]
        assert mix_keys
        assert sum(report.summary[k] for k in mix_keys) == report.summary[
            "jobs_completed"
        ]
        for job in report.jobs:
            if job["state"] == "completed":
                assert job["scenario"] in ("full_scan", "sparse_view")


# --------------------------------------------------------------------------- #
# Plan-driven cache keying (the repro.api front door)
# --------------------------------------------------------------------------- #
class TestPlanDrivenCacheKeying:
    """The filtered-projection cache keys on the plan's filtering identity.

    Two jobs whose plans differ only in execution knobs (``workers``,
    ``backend``, output extent, QoS) must share a cache entry; plans that
    differ in scenario or acquisition geometry must never share one.
    """

    def plan(self, problem=SMALL, **fields):
        from repro.api import plan_for_problem

        return plan_for_problem(problem, target="service", **fields)

    def test_workers_only_difference_shares_cache_entry(self):
        base = self.plan()
        more_workers = base.with_updates(workers=4)
        # Execution identity differs, filtering identity does not.
        assert base.key() != more_workers.key()
        assert base.filter_key() == more_workers.filter_key()
        assert CacheKey.from_plan(base, "shared") == CacheKey.from_plan(
            more_workers, "shared"
        )
        service = ReconstructionService(8)
        first = ReconstructionJob.from_plan(base, dataset_id="shared")
        second = ReconstructionJob.from_plan(more_workers, dataset_id="shared")
        assert service.submit(first)
        service.run_until_idle()
        assert service.submit(second)
        service.run_until_idle()
        assert second.cache_hit
        assert first.as_record()["plan_key"] == base.key()
        assert second.as_record()["plan_key"] == more_workers.key()

    def test_output_extent_difference_shares_cache_entry(self):
        # Filtering sees only the input stack: re-reconstructing the SAME
        # acquisition at another output size reuses the filtering.
        a = self.plan("512x512x1024->256x256x256")
        b = a.with_updates(geometry=a.geometry.with_volume(128, 128, 128))
        assert CacheKey.from_plan(a, "ds") == CacheKey.from_plan(b, "ds")

    def test_acquisition_physics_difference_never_shares(self):
        # Same shapes, different physics (pitch / distances / span) filter
        # differently — the plan's acquisition token must split the keys.
        import dataclasses

        a = self.plan()
        shapes_only = a.geometry
        rescaled = dataclasses.replace(shapes_only, du=shapes_only.du * 2.0)
        short_arc = dataclasses.replace(
            shapes_only, angular_range=shapes_only.angular_range / 2.0
        )
        for other in (rescaled, short_arc):
            b = a.with_updates(geometry=other)
            assert b.filter_key() != a.filter_key()
            assert CacheKey.from_plan(b, "ds") != CacheKey.from_plan(a, "ds")

    def test_submit_plan_rejects_backend_mismatch(self):
        plan = self.plan(backend="vectorized")
        service = ReconstructionService(8, backend="reference")
        with pytest.raises(ValueError, match="backend 'vectorized'"):
            service.submit_plan(plan, dataset_id="ds")
        # The guard lives in submit() itself, so the from_plan + submit
        # path cannot bypass it either.
        job = ReconstructionJob.from_plan(plan, dataset_id="ds")
        with pytest.raises(ValueError, match="backend 'vectorized'"):
            service.submit(job)

    def test_scenario_difference_never_shares(self):
        base = self.plan()
        short = base.with_updates(scenario="short_scan")
        assert base.filter_key() != short.filter_key()
        assert CacheKey.from_plan(base, "shared") != CacheKey.from_plan(
            short, "shared"
        )
        service = ReconstructionService(8)
        first = ReconstructionJob.from_plan(base, dataset_id="shared")
        second = ReconstructionJob.from_plan(short, dataset_id="shared")
        assert service.submit(first)
        service.run_until_idle()
        assert service.submit(second)
        service.run_until_idle()
        assert not second.cache_hit

    def test_geometry_difference_never_shares(self):
        base = self.plan("512x512x1024->256x256x256")
        fewer_views = self.plan("512x512x512->256x256x256")
        wider = self.plan("1024x512x1024->256x256x256")
        assert CacheKey.from_plan(base, "ds") != CacheKey.from_plan(
            fewer_views, "ds"
        )
        assert CacheKey.from_plan(base, "ds") != CacheKey.from_plan(wider, "ds")

    def test_service_submit_plan_round_trip(self):
        plan = self.plan(slo_seconds=1000.0, priority=0, tenant="plan-tenant")
        service = ReconstructionService(8)
        job = service.submit_plan(plan, dataset_id="ds-plan")
        assert job.state is not JobState.REJECTED
        service.run_until_idle()
        assert job.state is JobState.COMPLETED
        assert job.plan_key == plan.key()
        assert job.tenant == "plan-tenant"
        assert job.met_slo is True


# --------------------------------------------------------------------------- #
# Service-layer bugfix regressions (fingerprint dtype, backlog-cap bypass)
# --------------------------------------------------------------------------- #
class TestFingerprintDtypeRegression:
    def test_dtype_reinterpretation_changes_fingerprint(self):
        from repro.core.types import ProjectionStack

        data = np.linspace(0.0, 1.0, 2 * 4 * 8, dtype=np.float32).reshape(2, 4, 8)
        angles = np.linspace(0.0, 2 * np.pi, 2, endpoint=False)
        base = ProjectionStack(data=data, angles=angles)
        alias = ProjectionStack(data=data.copy(), angles=angles.copy())
        # Reinterpret the identical buffer as int32: same bytes, same shape,
        # different acquisition.  Pre-fix these aliased one cache entry.
        alias.data = alias.data.view(np.int32)
        assert alias.data.tobytes() == base.data.tobytes()
        assert alias.data.shape == base.data.shape
        assert fingerprint_stack(base) != fingerprint_stack(alias)


class TestQueueBacklogEstimationRegression:
    def test_missing_estimate_counts_against_backlog_cap(self):
        # Pre-fix: estimated_seconds=None silently bypassed the cap.
        queue = JobQueue(
            AdmissionPolicy(max_backlog_seconds=10.0), estimator=lambda job: 8.0
        )
        first, second = make_job(), make_job()
        assert first.estimated_seconds is None
        assert queue.offer(first)
        assert first.estimated_seconds == 8.0  # estimate recorded on the job
        assert not queue.offer(second)
        assert second.state is JobState.REJECTED
        assert "backlog" in second.rejection_reason

    def test_default_estimator_derives_from_performance_model(self):
        queue = JobQueue(AdmissionPolicy(max_backlog_seconds=1e9))
        job = make_job(SMALL)
        assert queue.offer(job)
        assert job.estimated_seconds is not None and job.estimated_seconds > 0
        assert queue.backlog_seconds == pytest.approx(job.estimated_seconds)

    def test_unestimatable_job_is_admitted_with_warning(self):
        queue = JobQueue(
            AdmissionPolicy(max_backlog_seconds=10.0), estimator=lambda job: None
        )
        job = make_job()
        with pytest.warns(RuntimeWarning, match="no runtime estimate"):
            assert queue.offer(job)
        assert job.state is JobState.QUEUED

    def test_no_cap_never_consults_the_estimator(self):
        def exploding(job):
            raise AssertionError("estimator must not run without a backlog cap")

        queue = JobQueue(estimator=exploding)
        assert queue.offer(make_job())


class TestNotANumberRegression:
    """``slo_seconds <= 0`` and ``arrival_seconds < 0`` are both false for
    NaN, so a NaN SLO was queued — under a key no bisect can find again,
    after which ``run_until_idle`` raised "job ... is not queued under its
    sort key" for a *healthy* job in every later cycle — and a NaN arrival
    was replayed: ``min(nan, finish)`` never reaches it and the event loop
    spun for good."""

    NAN = float("nan")

    def test_a_nan_slo_is_refused_and_the_service_keeps_serving(self):
        from repro.api import plan_for_problem

        def submit_all(service, jobs):
            for job in jobs:
                assert service.submit(job, now=0.0)

        with ReconstructionService(16) as service:
            submit_all(service, [make_job(HEAVY, slo_seconds=90.0) for _ in range(3)])
            with pytest.raises(ValueError, match="slo_seconds"):
                service.submit(make_job(SMALL, slo_seconds=self.NAN), now=0.0)
            bad_plan = plan_for_problem(SMALL, target="service", slo_seconds=self.NAN)
            # The plan door was already shut (validate() asks isfinite, and
            # key() will not hash a NaN): pinned here beside the job door.
            with pytest.raises(ValueError, match="slo_seconds"):
                bad_plan.validate()
            with pytest.raises(ValueError):
                service.submit_plan(bad_plan, dataset_id="bad", now=0.0)
            assert len(service.queue) == 3 and len(service.jobs) == 3
            submit_all(service, [make_job(HEAVY, slo_seconds=90.0) for _ in range(3)])
            submit_all(service, [make_job(SMALL, slo_seconds=5.0) for _ in range(6)])
            service.run_until_idle()  # raised ValueError, forever, before
            assert len(service.queue) == 0
            assert service.report().summary["jobs_completed"] == 12.0

    @pytest.mark.parametrize("slo", [NAN, 0.0, -1.0])
    def test_one_rule_for_the_slo_at_every_door(self, slo):
        with pytest.raises(ValueError, match="slo_seconds"):
            make_job(slo_seconds=slo)
        with pytest.raises(ValueError, match="'j7'.*slo"):
            TraceEntry.from_json(
                {"id": "j7", "arrival": 0.0, "problem": SMALL, "slo": slo}
            )

    @pytest.mark.parametrize("arrival", [NAN, -1.0])
    def test_one_rule_for_the_arrival_at_every_door(self, arrival):
        with pytest.raises(ValueError, match="arrival_seconds"):
            make_job(arrival_seconds=arrival)
        with pytest.raises(ValueError, match="'j7'.*arrival"):
            TraceEntry.from_json({"id": "j7", "arrival": arrival, "problem": SMALL})
        with pytest.raises(ValueError, match="'j8'.*arrival"):  # hand-built, too
            TraceEntry(job_id="j8", tenant="t", arrival_seconds=arrival,
                       problem=SMALL, dataset_id="d")

    def test_an_infinite_slo_is_still_best_effort(self):
        job = make_job(slo_seconds=float("inf"), arrival_seconds=3.0)
        assert job.deadline_seconds == float("inf")
        entry = TraceEntry.from_json(
            {"id": "j", "arrival": 3.0, "problem": SMALL, "slo": float("inf")}
        )
        assert entry.to_job().deadline_seconds == float("inf")

    @pytest.mark.parametrize("now", [NAN, float("inf"), float("-inf")])
    def test_submit_refuses_a_clock_that_is_not_a_number(self, now):
        with ReconstructionService(16) as service:
            job = make_job(job_id="late")
            with pytest.raises(ValueError, match="now="):
                service.submit(job, now=now)
            assert "late" not in service.jobs and len(service.queue) == 0
            assert service.submit(job, now=0.0)

    def test_a_trace_file_with_a_nan_arrival_is_refused_at_load(self, tmp_path):
        """Through the CLI in a child process, under a timeout: at the
        parent this replay never returned."""
        import subprocess
        import sys
        from pathlib import Path

        payload = json.loads(synthetic_trace(30, seed=1).to_json())
        payload["jobs"][10]["arrival"] = self.NAN
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))  # json writes, and reads, a bare NaN
        src = str(Path(__file__).resolve().parents[1] / "src")
        served = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--trace", str(path)],
            env={**os.environ, "PYTHONPATH": src}, timeout=30,
            capture_output=True, text=True,
        )
        assert served.returncode == 2
        assert "job-0010" in served.stderr and "arrival" in served.stderr
        with pytest.raises(ValueError, match="'job-0010'.*arrival"):
            ArrivalTrace.load(path)
