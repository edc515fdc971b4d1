"""Per-layer probes: small timed calls into each layer's public functions.

A traced run (``--trace 1``) of *any* workload runs every probe, so each
per-layer metric is measured in every traced run, next to the traced
workload's own layer shares (the ``op.*`` metrics, see ``run.py``).  A
probe measures one layer from outside; spans inside ``src/repro`` are a
later change.

Each probe declares, beside unit and direction, the end-to-end metric and
workload it is expected to move (``moves``) — written down before
measuring, so a later change can be held to it.  Probe sizes are chosen
so that the whole suite fits in a few seconds; where that meant a smaller
problem than the workload's, the name says so (``n32``, ``n500``).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from perfbench.harness import Metric, child_env, percentile
from perfbench.workloads import (
    CLUSTER_GPUS,
    ServerProcess,
    http_plans,
    replay_once,
    timed_gets,
    write_journal,
)


METRICS: Dict[str, Metric] = {}
_PROBES: List[Callable[[Path, int], Dict[str, float]]] = []


def probe(metrics: Dict[str, Metric]):
    """Register a probe function and the metrics it returns."""
    def register(fn):
        METRICS.update(metrics)
        _PROBES.append(fn)
        return fn
    return register


def run_probes(workdir: Path, seed: int) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for fn in _PROBES:
        values.update(fn(workdir, seed))
    return values


def median_seconds(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median seconds of ``repeats`` calls after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _random_stack(plan, seed: int):
    from repro.core.types import ProjectionStack

    g = plan.geometry
    data = np.random.default_rng(seed).random((g.np_, g.nv, g.nu), dtype=np.float32)
    return ProjectionStack(data=data, angles=g.angles)


def _plan(problem: str, **fields):
    from repro.api import plan_for_problem

    return plan_for_problem(problem, **fields)


# --------------------------------------------------------------------- #
# api
# --------------------------------------------------------------------- #
@probe({
    "api.plan_parse_us": Metric("us", "lower", "op_p50_ms @ http_submit"),
    "api.session_compile_ms": Metric("ms", "lower", "setup_s @ fdk_bp_64"),
})
def probe_api(workdir: Path, seed: int) -> Dict[str, float]:
    from repro.api import ReconstructionPlan, Session

    text = http_plans()[0]
    parse = median_seconds(lambda: [ReconstructionPlan.from_json(text).key() for _ in range(50)])
    plan = _plan("96x96x128->64x64x64", backend="vectorized")
    compile_s = median_seconds(lambda: Session(plan).close())
    return {"api.plan_parse_us": parse / 50 * 1e6,
            "api.session_compile_ms": compile_s * 1e3}


# --------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------- #
_BP = "op_p50_ms @ fdk_bp_64"


@probe({
    "backends.filter_mpix_per_s": Metric("Mpix/s", "higher", "op_p50_ms @ fdk_filter_wide"),
    "backends.bp_gups.n32": Metric("GUPS", "higher", _BP),
    "backends.bp_gups.n64": Metric("GUPS", "higher", _BP),
    "backends.bp_gups.n128": Metric("GUPS", "higher", _BP),
    "backends.bp_gups.blocked_n64": Metric("GUPS", "higher", _BP),
    "backends.bp_gups.reference_n32": Metric("GUPS", "higher", "setup_s @ fdk_bp_64"),
    "backends.bp_gups.parallel_w1_n64": Metric("GUPS", "higher", "op_p50_ms @ stream_pfs_par"),
    "backends.bp_gups.parallel_w2_n64": Metric("GUPS", "higher", "op_p50_ms @ stream_pfs_par"),
    "backends.parallel_speedup_w2": Metric("ratio", "higher", "op_p50_ms @ stream_pfs_par"),
})
def probe_backends(workdir: Path, seed: int) -> Dict[str, float]:
    """Filter rate and a back-projection size sweep.

    Few views (GUPS is per voxel update, so the view count only sets the
    probe's length): 16 at 32³, 8 at 64³, 2 at 128³.
    """
    from repro.backends import resolve_backend

    wide = _plan("512x64x32->16x16x16")
    stack = _random_stack(wide, seed)
    vectorized = resolve_backend("vectorized")
    filter_s = median_seconds(lambda: vectorized.filter_stack(stack, wide.geometry))
    values = {"backends.filter_mpix_per_s": stack.data.size / filter_s / 1e6}

    def gups(problem: str, backend: str, workers=None) -> float:
        plan = _plan(problem)
        filtered = vectorized.filter_stack(_random_stack(plan, seed), plan.geometry)
        resolved = resolve_backend(backend, workers=workers)
        try:
            seconds = median_seconds(lambda: resolved.backproject(filtered, plan.geometry))
        finally:
            if workers is not None:
                resolved.close()
        return plan.problem.updates / seconds / 1e9

    n32, n64, n128 = "48x48x16->32x32x32", "96x96x8->64x64x64", "192x192x2->128x128x128"
    values.update({
        "backends.bp_gups.n32": gups(n32, "vectorized"),
        "backends.bp_gups.n64": gups(n64, "vectorized"),
        "backends.bp_gups.n128": gups(n128, "vectorized"),
        "backends.bp_gups.blocked_n64": gups(n64, "blocked"),
        "backends.bp_gups.reference_n32": gups(n32, "reference"),
        "backends.bp_gups.parallel_w1_n64": gups(n64, "parallel", workers=1),
        "backends.bp_gups.parallel_w2_n64": gups(n64, "parallel", workers=2),
    })
    values["backends.parallel_speedup_w2"] = (
        values["backends.bp_gups.parallel_w2_n64"] / values["backends.bp_gups.parallel_w1_n64"]
    )
    return values


# --------------------------------------------------------------------- #
# streaming, pfs, scenarios, obs
# --------------------------------------------------------------------- #
@probe({
    "streaming.vs_whole_stack_ratio": Metric("ratio", "lower", "op_p50_ms @ stream_pfs_par"),
    "scenarios.short_scan_weights_ms": Metric("ms", "lower", "setup_s @ fdk_filter_wide"),
    "obs.tracer_overhead_pct": Metric("%", "lower", "op_p50_ms @ fdk_bp_64"),
})
def probe_drivers(workdir: Path, seed: int) -> Dict[str, float]:
    from repro.api import Session
    from repro.obs import Tracer

    whole = _plan("96x96x32->32x32x32", backend="vectorized")
    chunked = whole.with_updates(streaming=True, chunk_size=4)
    stack = _random_stack(whole, seed)

    def run_seconds(plan, **session_args) -> float:
        with Session(plan, **session_args) as session:
            return median_seconds(lambda: session.run(stack))

    whole_s = run_seconds(whole)
    short = _plan("512x64x256->16x16x16", scenario="short_scan")
    scenario, geometry = short.resolved_scenario(), short.scenario_geometry()
    return {
        "streaming.vs_whole_stack_ratio": run_seconds(chunked) / whole_s,
        "scenarios.short_scan_weights_ms":
            median_seconds(lambda: scenario.redundancy_weights(geometry)) * 1e3,
        "obs.tracer_overhead_pct":
            100.0 * (run_seconds(whole, tracer=Tracer()) / whole_s - 1.0),
    }


_IO = "op_p50_ms @ stream_pfs_par"


@probe({
    "pfs.read_mb_per_s": Metric("MB/s", "higher", _IO),
    "pfs.write_mb_per_s": Metric("MB/s", "higher", _IO),
    "pfs.volume_write_ms": Metric("ms", "lower", _IO),
})
def probe_pfs(workdir: Path, seed: int) -> Dict[str, float]:
    """On-disk PFS: a 16 x 384 x 384 dataset (9.4 MB) and a 64³ volume."""
    from repro.pfs import (
        SimulatedPFS,
        read_projection_subset,
        write_projection_dataset,
        write_volume_slices,
    )

    stack = _random_stack(_plan("384x384x16->16x16x16"), seed)
    pfs = SimulatedPFS(root_dir=workdir / "probe-pfs")
    megabytes = stack.data.nbytes / 1e6
    write_s = median_seconds(lambda: write_projection_dataset(pfs, stack))
    read_s = median_seconds(lambda: read_projection_subset(pfs, range(stack.np_)))
    volume = np.zeros((64, 64, 64), dtype=np.float32)
    store_s = median_seconds(lambda: write_volume_slices(pfs, "probe", volume))
    return {"pfs.read_mb_per_s": megabytes / read_s,
            "pfs.write_mb_per_s": megabytes / write_s,
            "pfs.volume_write_ms": store_s * 1e3}


# --------------------------------------------------------------------- #
# pipeline, mpi
# --------------------------------------------------------------------- #
_GRID = "op_p50_ms @ ifdk_grid_2x2"
_STAGES = ("load", "filter", "h2d", "backprojection", "allgather", "d2h", "reduce", "store")


@probe({
    "pipeline.overlap_delta": Metric("ratio", "higher", _GRID),
    "pipeline.stage_input_ms": Metric("ms", "lower", _GRID),
    "pipeline.read_volume_ms": Metric("ms", "lower", _GRID),
    "pipeline.vs_single_node_ratio": Metric("ratio", "lower", _GRID),
    **{f"pipeline.stage_ms.{stage}": Metric("ms", "lower", _GRID) for stage in _STAGES},
})
def probe_pipeline(workdir: Path, seed: int) -> Dict[str, float]:
    """iFDK on a 2x2 grid at ``ifdk_grid_2x2``'s size: busy time per rank stage.

    ``Session.run`` reports only the filter and back-projection totals of
    an ``ifdk`` plan, so the other stages are read here, off the public
    ``IFDKFramework`` the session wraps.  Stage times are summed over the
    four ranks and overlap, so they add up to more than the wall time; the
    ratio to the single-node run of the same problem is the framework's
    overhead.
    """
    from repro.api import Session
    from repro.pfs import SimulatedPFS, read_volume
    from repro.pipeline import IFDKConfig, IFDKFramework

    problem = "96x96x128->64x64x64"
    grid = _plan(problem, backend="vectorized", target="ifdk", rows=2, columns=2)
    stack = _random_stack(grid, seed)
    pfs = SimulatedPFS()
    framework = IFDKFramework(IFDKConfig.from_plan(grid), pfs=pfs)
    stage_input_s = median_seconds(lambda: framework.stage_input(stack))
    results = []
    grid_s = median_seconds(lambda: results.append(framework.reconstruct()))
    result = results[-1]
    read_s = median_seconds(lambda: read_volume(pfs, "reconstruction"))
    with Session(_plan(problem, backend="vectorized")) as session:
        single_s = median_seconds(lambda: session.run(stack))
    totals = result.stage_totals()
    values = {f"pipeline.stage_ms.{stage}": totals.get(stage, 0.0) * 1e3 for stage in _STAGES}
    values.update({
        "pipeline.overlap_delta": result.mean_overlap_delta(),
        "pipeline.stage_input_ms": stage_input_s * 1e3,
        "pipeline.read_volume_ms": read_s * 1e3,
        "pipeline.vs_single_node_ratio": (stage_input_s + grid_s) / single_s,
    })
    return values


@probe({
    "mpi.allgather_us": Metric("us", "lower", _GRID),
    "mpi.reduce_ms": Metric("ms", "lower", _GRID),
    "mpi.spmd_launch_ms": Metric("ms", "lower", _GRID),
})
def probe_mpi(workdir: Path, seed: int) -> Dict[str, float]:
    """Four ranks: Allgather of a 96x96 projection, Reduce of a 32x64x64 slab."""
    from repro.mpi import run_spmd

    rounds = 20
    projection = np.ones((96, 96), dtype=np.float32)
    slab = np.ones((32, 64, 64), dtype=np.float32)

    def collectives(comm, call, payload):
        comm.Barrier()
        start = time.perf_counter()
        for _ in range(rounds):
            call(comm, payload)
        return (time.perf_counter() - start) / rounds

    launch_s = median_seconds(lambda: run_spmd(4, lambda comm: None))
    gather_s = max(run_spmd(4, collectives, lambda c, p: c.Allgather(p), projection))
    reduce_s = max(run_spmd(4, collectives, lambda c, p: c.Reduce(p, root=0), slab))
    return {"mpi.allgather_us": gather_s * 1e6, "mpi.reduce_ms": reduce_s * 1e3,
            "mpi.spmd_launch_ms": launch_s * 1e3}


# --------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------- #
_PLAIN = "work_per_s @ svc_replay_plain_3k"
_FAIR = "work_per_s @ svc_replay_fair_1k"
_SUBMIT = "work_per_s @ http_submit"


@probe({
    "service.replay_jobs_per_s.n500": Metric("1/s", "higher", _PLAIN),
    "service.replay_jobs_per_s.n2000": Metric("1/s", "higher", _PLAIN),
    "service.replay_scaling_ratio": Metric("ratio", "higher", _PLAIN),
    "service.fair_replay_jobs_per_s.n500": Metric("1/s", "higher", _FAIR),
    "service.sim_slo_attainment.n2000": Metric("fraction", "higher", _PLAIN),
    "service.sim_latency_p99.n2000": Metric("sim_s", "lower", _PLAIN),
})
def probe_replay(workdir: Path, seed: int) -> Dict[str, float]:
    """Replay rate at two trace lengths: it falls with length today.

    ``service.replay_scaling_ratio`` is n2000 / n500 (ROADMAP's bar for a
    flat curve is 0.8).  The two ``sim_*`` values are on the simulated
    clock and repeat exactly per seed: they show a faster scheduler that
    bought its speed with a worse schedule.
    """
    from repro.service import synthetic_trace

    def rate(jobs: int, fair: bool):
        trace = synthetic_trace(jobs, cluster_gpus=CLUSTER_GPUS, seed=seed)
        _, summary, seconds = replay_once(fair, trace)
        return jobs / seconds, summary

    rate(200, True)  # warm-up: both queue classes, lazy imports
    n500, _ = rate(500, False)
    n2000, summary = rate(2000, False)
    fair, _ = rate(500, True)
    return {
        "service.replay_jobs_per_s.n500": n500,
        "service.replay_jobs_per_s.n2000": n2000,
        "service.replay_scaling_ratio": n2000 / n500,
        "service.fair_replay_jobs_per_s.n500": fair,
        "service.sim_slo_attainment.n2000": summary["slo_attainment"],
        "service.sim_latency_p99.n2000": summary["latency_p99_s"],
    }


@probe({
    "service.queue.offer_remove_us": Metric("us", "lower", _PLAIN),
    "service.fairness.offer_remove_us": Metric("us", "lower", _FAIR),
    "service.scheduler.schedule_ms": Metric("ms", "lower", _PLAIN),
})
def probe_queue(workdir: Path, seed: int) -> Dict[str, float]:
    """Queue offer+remove at depth 256; one scheduling cycle over 256 jobs."""
    from repro.service import (
        AdmissionPolicy,
        ClusterScheduler,
        FairShareQueue,
        GPUCluster,
        JobQueue,
        synthetic_trace,
    )

    depth, samples = 256, 200
    trace = synthetic_trace(depth + samples, cluster_gpus=CLUSTER_GPUS, seed=seed)

    def offer_remove_us(make_queue) -> float:
        jobs = trace.jobs()
        for job in jobs:
            job.estimated_seconds = 10.0
        queue = make_queue(AdmissionPolicy(max_depth=depth + 1, fair_share=True))
        for job in jobs[:depth]:
            queue.offer(job)
        start = time.perf_counter()
        for job in jobs[depth:]:
            queue.offer(job)
            queue.remove(job)
        return (time.perf_counter() - start) / samples * 1e6

    def schedule_s() -> float:
        queue = JobQueue(AdmissionPolicy(max_depth=depth))
        scheduler = ClusterScheduler(GPUCluster(CLUSTER_GPUS), policy="slo")
        for job in trace.jobs()[:depth]:
            job.estimated_seconds = 10.0
            queue.offer(job)
        start = time.perf_counter()
        scheduler.schedule(queue, 0.0, [])
        return time.perf_counter() - start

    return {
        "service.queue.offer_remove_us": offer_remove_us(JobQueue),
        "service.fairness.offer_remove_us": offer_remove_us(FairShareQueue),
        "service.scheduler.schedule_ms": statistics.median(schedule_s() for _ in range(3)) * 1e3,
    }


@probe({
    "service.store.append_us": Metric("us", "lower", _SUBMIT),
    "service.store.journal_bytes_per_job": Metric("B", "lower", _SUBMIT),
    "service.store.recover_ms": Metric("ms", "lower", "setup_s @ http_submit"),
    "service.cache.lookup_us": Metric("us", "lower", _PLAIN),
    "service.diskcache.insert_ms": Metric("ms", "lower", "none until the service executes plans"),
    "service.diskcache.get_ms": Metric("ms", "lower", "none until the service executes plans"),
})
def probe_store(workdir: Path, seed: int) -> Dict[str, float]:
    """Journal append/recover on a 500-job journal; cache lookups; 2.4 MB disk entry."""
    from repro.api import ReconstructionPlan
    from repro.service import (
        CacheKey,
        FilteredProjectionCache,
        JobStore,
        OnDiskFilteredCache,
    )

    plans = http_plans()
    state = workdir / "probe-state"
    jobs = 500
    ids = write_journal(state, plans, [(i % 3, f"ds-{i % 7}") for i in range(jobs)], jobs)
    journal_bytes = (state / "journal.jsonl").stat().st_size
    with JobStore(state) as store:
        recover_s = median_seconds(store.recover)
    with JobStore(workdir / "probe-append") as store:
        append_s = median_seconds(lambda: [
            store.append("queued", ids[i % jobs], clock=float(i)) for i in range(200)
        ])

    plan = ReconstructionPlan.from_json(plans[0])
    keys = [CacheKey.from_plan(plan, f"ds-{i}") for i in range(64)]
    cache = FilteredProjectionCache()
    for key in keys[::2]:
        cache.insert(key, nbytes=1 << 20)
    lookup_s = median_seconds(lambda: [cache.lookup(key) for key in keys])

    small = _plan("96x96x64->16x16x16")
    filtered = _random_stack(small, seed)
    filtered.filtered = True
    disk = OnDiskFilteredCache(workdir / "probe-diskcache")
    disk_key = CacheKey.from_plan(small, "probe")
    insert_s = median_seconds(lambda: disk.insert(disk_key, filtered=filtered))
    get_s = median_seconds(lambda: disk.get_filtered(disk_key))
    return {
        "service.store.append_us": append_s / 200 * 1e6,
        "service.store.journal_bytes_per_job": journal_bytes / jobs,
        "service.store.recover_ms": recover_s * 1e3,
        "service.cache.lookup_us": lookup_s / len(keys) * 1e6,
        "service.diskcache.insert_ms": insert_s * 1e3,
        "service.diskcache.get_ms": get_s * 1e3,
    }


@probe({
    "service.http.restart_ms": Metric("ms", "lower", "setup_s @ http_submit"),
    "service.http.submit_p50_ms": Metric("ms", "lower", "op_p50_ms @ http_submit"),
    "service.http.submit_p99_ms": Metric("ms", "lower", "op_p50_ms @ http_submit"),
    "service.http.get_job_p50_ms": Metric("ms", "lower", "op_p50_ms @ http_submit"),
    "service.http.get_metrics_p50_ms": Metric("ms", "lower", "op_p50_ms @ http_submit"),
    "cli.import_s": Metric("s", "lower", "setup_s @ http_submit"),
    "cli.reconstruct_s": Metric("s", "lower", "setup_s @ fdk_bp_64"),
})
def probe_front_door(workdir: Path, seed: int) -> Dict[str, float]:
    """A server restarted on a 1000-job journal: 300 submissions, then reads.

    The submissions are closed-loop on one connection at a time, so their
    p99 shows server and host stalls only; the open-loop tail is the
    traced ``http_submit`` run's ``op.p90_ms``.  ``GET /metrics`` is
    O(jobs) today and is read at the 1300 jobs this probe leaves.
    ``cli.*`` are cold child processes.
    """
    plans = http_plans()
    state = workdir / "probe-http"
    known = write_journal(state, plans, [(i % 3, f"ds-{i % 7}") for i in range(1000)], 1000)
    start = time.perf_counter()
    server = ServerProcess(state)
    try:
        status, _ = server.request("GET", f"/jobs/{known[0]}")
        restart_s = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"probe restart lost job {known[0]}: {status}")
        submit_ms = []
        for index in range(310):
            start = time.perf_counter()
            status, _ = server.request("POST", f"/plans?dataset=ds-{index % 7}",
                                       plans[index % len(plans)])
            if status != 202:
                raise RuntimeError(f"probe submission answered {status}")
            submit_ms.append((time.perf_counter() - start) * 1e3)
        job_ms, _ = timed_gets(server, f"/jobs/{known[-1]}", 40)
        metrics_ms, _ = timed_gets(server, "/metrics", 5)
    finally:
        server.kill()

    def cold(*args: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], check=True, env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start

    return {
        "service.http.restart_ms": restart_s * 1e3,
        "service.http.submit_p50_ms": percentile(submit_ms[10:], 50),
        "service.http.submit_p99_ms": percentile(submit_ms[10:], 99),
        "service.http.get_job_p50_ms": percentile(job_ms, 50),
        "service.http.get_metrics_p50_ms": percentile(metrics_ms, 50),
        "cli.import_s": cold("-c", "import repro.cli"),
        "cli.reconstruct_s": cold("-m", "repro.cli", "reconstruct", "--problem",
                                  "48x48x32->32x32x32", "--backend", "vectorized"),
    }
