"""The seven benchmark workloads.

Each workload has a ``prepare`` step, run once per benchmark run in the
orchestrating process (it generates the seeded inputs and the expected
output, neither of which is measured), and a ``round`` step, run in a
fresh child process per round (set-up, one untimed warm-up op, then timed
ops until the round's share of ``--seconds`` is used).

Backends, scenarios and targets are named only through plan JSON, so the
implementations behind those names can be collapsed without touching
this file.  Why each workload exists is recorded in ``BENCHMARK.json``
and at length in ``README.md``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import (
    SpanRecorder,
    child_env,
    due_times,
    percentile,
    wait_until,
)

# The conformance bound every backend owes the ``reference`` backend.
REL_RMSE_BOUND = 1e-5

# Layers an op's wall time is split into (self time of the op span is
# ``other``): what the interaction table in README.md is measured with.
LAYERS = ("filter", "backproject", "io_read", "io_write", "comm")


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def rel_rmse(volume: np.ndarray, reference: np.ndarray) -> float:
    a = volume.astype(np.float64)
    b = reference.astype(np.float64)
    return float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b ** 2)))


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a live process (default: this one), in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux a child's ``ru_maxrss``
    starts at its parent's resident set at fork, so it would report the
    orchestrator's memory for every small round.
    """
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _seeded_stack(plan, seed: int, analytic_views: int):
    """Analytic Shepp-Logan projections plus seeded detector noise.

    Forward projection costs about a microsecond per ray and is paid in
    every run, so only ``analytic_views`` evenly spaced views are computed
    and each is held for the views in between.  Timing does not depend on
    pixel values and the output check compares with an oracle run on the
    *same* stack, so the coarser sinogram costs nothing but image quality.
    """
    from repro.core import (
        EllipsoidPhantom,
        default_geometry_for_problem,
        forward_project_analytic,
        shepp_logan_ellipsoids,
    )
    from repro.core.types import ProjectionStack

    g = plan.geometry
    views = min(analytic_views, g.np_)
    if g.np_ % views:
        raise ValueError(f"{views} analytic views do not divide Np={g.np_}")
    coarse = default_geometry_for_problem(
        nu=g.nu, nv=g.nv, np_=views, nx=g.nx, ny=g.ny, nz=g.nz
    )
    base = forward_project_analytic(EllipsoidPhantom(shepp_logan_ellipsoids()), coarse)
    data = np.repeat(base.data, g.np_ // views, axis=0)
    noise = np.random.default_rng(seed).standard_normal(data.shape, dtype=np.float32)
    data += np.float32(0.01 * float(data.max())) * noise
    return ProjectionStack(data=data, angles=g.angles)


def _load_stack(plan, path: str):
    from repro.core.types import ProjectionStack

    return ProjectionStack(data=np.load(path), angles=plan.geometry.angles)


def _oracle_volume(plan, stack, backend: str) -> np.ndarray:
    """The same acquisition reconstructed whole-stack, single-node, by ``backend``."""
    from repro.api import Session

    oracle = plan.with_updates(
        target="fdk", backend=backend, workers=None, rows=None, columns=None,
        streaming=False, chunk_size=None, memory_budget_bytes=None,
    )
    with Session(oracle) as session:
        return session.run(stack).volume.data


def _lay(rec: SpanRecorder, start: float, layers: Dict[str, float]) -> None:
    """Lay driver-reported layer durations end to end inside the open op span."""
    cursor = start
    for name in LAYERS:
        seconds = layers.get(name, 0.0)
        if seconds > 0.0:
            rec.record(name, cursor, cursor + seconds)
            cursor += seconds


@dataclass
class OpOutcome:
    """What one op hands back to the loop that timed it."""

    errors: List[str]
    #: Wall time of the program's work alone; output checks are not in it.
    seconds: float = 0.0
    #: Digest of the op's output; ops of one run must all agree.
    digest: str = ""
    counts: Optional[Dict[str, float]] = None


@dataclass
class RoundContext:
    """What a round is given: its share of the run's seconds and the recorder."""

    seconds: float
    rec: SpanRecorder
    spawn_wall: float
    setup_s: float = 0.0

    def ready(self) -> None:
        """Set-up is over: the next thing the round does is timed.

        Wall clock, not ``perf_counter``: the start was stamped by the
        parent just before it spawned this process.
        """
        self.setup_s = time.time() - self.spawn_wall


def _op_loop(
    run_op: Callable[[], OpOutcome],
    ctx: RoundContext,
    *,
    work_per_op: float,
    warm_op: Optional[Callable[[], OpOutcome]] = None,
) -> dict:
    """One warm-up op, then timed ops until the round's seconds are used.

    A failed op is counted as failed and contributes no timing sample.
    Another op is started only while at least half of it should still fit,
    so a round of long ops does not overrun its share by a whole op.
    """
    rec = ctx.rec
    errors: List[str] = []
    digests: List[str] = []
    counts: Dict[str, float] = {}
    attempted = failed = 0

    def attempt(op: Callable[[], OpOutcome]) -> Optional[float]:
        nonlocal attempted, failed, counts
        attempted += 1
        rec.op = attempted
        try:
            outcome = op()
        except Exception as exc:  # a failed op is a result, not a crash
            failed += 1
            errors.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            return None
        if outcome.errors:
            failed += 1
            errors.extend(f"op {attempted}: {e}" for e in outcome.errors)
            return None
        if outcome.digest:
            digests.append(outcome.digest)
        counts = outcome.counts or counts
        return outcome.seconds

    attempt(warm_op or run_op)  # warm-up: lazy imports, FFT plans, worker pools
    rec.spans.clear()
    ctx.ready()
    op_ms: List[float] = []
    loop_start = time.perf_counter()
    last = 0.0
    while True:
        used = time.perf_counter() - loop_start
        if op_ms and used + last / 2 > ctx.seconds:
            break
        elapsed = attempt(run_op)
        if elapsed is None:
            if failed > 3:
                break
            continue
        last = elapsed
        op_ms.append(elapsed * 1e3)
    return {
        "op_ms": op_ms,
        "work_per_op": work_per_op,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": sorted(set(digests)),
        "counts": counts,
    }


# --------------------------------------------------------------------- #
# Reconstruction workloads
# --------------------------------------------------------------------- #
# name -> (problem, --quick problem, plan fields, analytic views, oracle backend)
#
# The oracle is the ``reference`` backend except on ``stream_pfs_par``: the
# reference *filter* alone takes 6-10 s on a 384-wide detector, more than
# a run can pay, so the streamed volume is held to the whole-stack
# ``vectorized`` reconstruction instead (streaming and ``parallel`` are
# meant to be bit-identical to it), and ``vectorized`` is itself held to
# ``reference`` by the other three workloads.
RECON: Dict[str, Tuple[str, str, dict, int, str]] = {
    "fdk_bp_64": (
        "96x96x128->64x64x64", "24x24x16->16x16x16",
        {"backend": "vectorized"}, 32, "reference",
    ),
    "fdk_filter_wide": (
        "512x64x256->16x16x16", "64x8x16->8x8x8",
        {"backend": "vectorized"}, 16, "reference",
    ),
    "stream_pfs_par": (
        "384x384x96->48x48x48", "48x48x12->16x16x16",
        {"backend": "parallel", "workers": 2, "streaming": True,
         "memory_budget_bytes": 48 << 20}, 6, "vectorized",
    ),
    "ifdk_grid_2x2": (
        "96x96x128->64x64x64", "24x24x16->16x16x16",
        {"backend": "vectorized", "target": "ifdk", "rows": 2, "columns": 2},
        32, "reference",
    ),
}


def prepare_recon(name: str, seed: int, workdir: Path, quick: bool) -> dict:
    from repro.api import plan_for_problem

    problem, quick_problem, fields, analytic_views, oracle = RECON[name]
    plan = plan_for_problem(quick_problem if quick else problem, **fields)
    stack = _seeded_stack(plan, seed, analytic_views)
    np.save(workdir / "stack.npy", stack.data)
    np.save(workdir / "reference.npy", _oracle_volume(plan, stack, oracle))
    inputs = {
        "plan_json": plan.to_json(indent=None),
        "stack": str(workdir / "stack.npy"),
        "reference": str(workdir / "reference.npy"),
    }
    if name == "stream_pfs_par":
        # Written here, by the short-lived orchestrator, so the dataset's
        # in-memory copy never counts in the round's peak RSS.
        from repro.pfs import SimulatedPFS, write_projection_dataset

        dataset = workdir / "dataset"
        write_projection_dataset(SimulatedPFS(root_dir=dataset), stack)
        inputs["dataset"] = str(dataset)
    return inputs


def _recon_outcome(plan, volume: np.ndarray, reference: np.ndarray,
                   seconds: float) -> OpOutcome:
    """Check one reconstructed volume against the oracle's."""
    error = rel_rmse(volume, reference)
    errors = []
    if not error <= REL_RMSE_BOUND:
        errors.append(f"relative RMSE vs oracle {error:.3e} > {REL_RMSE_BOUND:.0e}")
    counts = {"bp_mupdates": plan.problem.updates / 1e6, "rel_rmse": error}
    return OpOutcome(errors, seconds, digest(volume), counts)


def _pfs_reads(pfs, since: Tuple[int, int] = (0, 0)) -> Tuple[int, int]:
    """Bytes and files read from ``pfs`` (after an earlier reading ``since``)."""
    return pfs.stats.bytes_read - since[0], pfs.stats.files_read - since[1]


def _pfs_counts(pfs, since: Tuple[int, int]) -> Dict[str, float]:
    nbytes, files = _pfs_reads(pfs, since)
    return {"pfs_mb_read": nbytes / 1e6, "pfs_files_read": files}


def _recon_inputs(inputs: dict):
    from repro.api import ReconstructionPlan

    plan = ReconstructionPlan.from_json(inputs["plan_json"])
    return plan, np.load(inputs["reference"])


def round_session(inputs: dict, ctx: RoundContext) -> dict:
    """``fdk_bp_64`` / ``fdk_filter_wide`` / ``ifdk_grid_2x2``: ``Session(plan).run(stack)``.

    The same call traced and untraced.  Only a single-node result splits
    the op's wall time into layers: on target ``ifdk`` the two durations
    are busy time summed over overlapping ranks (more than the wall time),
    so that op stays one opaque span and its stages are measured by
    ``probes.probe_pipeline`` on the same problem.
    """
    from repro.api import Session

    rec = ctx.rec
    plan, reference = _recon_inputs(inputs)
    stack = _load_stack(plan, inputs["stack"])
    with Session(plan) as session:
        def run_op() -> OpOutcome:
            with rec.span("op"):
                start = time.perf_counter()
                result = session.run(stack)
                elapsed = time.perf_counter() - start
                if plan.target == "fdk":
                    _lay(rec, start, {"filter": result.filter_seconds,
                                      "backproject": result.backprojection_seconds})
            return _recon_outcome(plan, result.volume.data, reference, elapsed)

        return _op_loop(run_op, ctx, work_per_op=plan.problem.updates / 1e6)


def round_stream(inputs: dict, ctx: RoundContext) -> dict:
    """``stream_pfs_par``: PFS read -> chunked reconstruction -> volume store."""
    from repro.pfs import SimulatedPFS, read_volume, write_volume_slices
    from repro.streaming import (
        PFSChunkSource,
        ProjectionChunkSource,
        StreamingReconstructor,
    )

    class TimedSource(ProjectionChunkSource):
        """Adds up the time the driver spends waiting inside the source."""

        def __init__(self, inner):
            self.inner = inner
            self.wait_seconds = 0.0

        @property
        def num_projections(self) -> int:
            return self.inner.num_projections

        def chunks(self, bounds):
            iterator = iter(self.inner.chunks(bounds))
            while True:
                start = time.perf_counter()
                try:
                    chunk = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.wait_seconds += time.perf_counter() - start
                yield chunk

    rec = ctx.rec
    plan, reference = _recon_inputs(inputs)
    pfs = SimulatedPFS(root_dir=inputs["dataset"])
    store = SimulatedPFS(root_dir=Path(inputs["workdir"]) / f"volumes-{os.getpid()}")
    with StreamingReconstructor.from_plan(plan) as reconstructor:
        def run_op() -> OpOutcome:
            reads = _pfs_reads(pfs)
            source = PFSChunkSource(pfs)
            if rec.enabled:
                source = TimedSource(source)
            with rec.span("op"):
                start = time.perf_counter()
                result = reconstructor.reconstruct(source)
                reconstructed = time.perf_counter()
                write_volume_slices(store, "volume", result.volume.data)
                elapsed = time.perf_counter() - start
                if rec.enabled:
                    _lay(rec, start, {
                        "io_read": source.wait_seconds,
                        "filter": result.filter_seconds,
                        "backproject": result.backprojection_seconds,
                        "io_write": start + elapsed - reconstructed,
                    })
            outcome = _recon_outcome(plan, read_volume(store, "volume").data,
                                     reference, elapsed)
            budget = result.memory_budget_bytes
            if budget is None or result.working_set_bytes > budget:
                outcome.errors.append(
                    f"working set {result.working_set_bytes} B over budget {budget} B"
                )
            outcome.counts.update(_pfs_counts(pfs, reads), chunks=result.chunk_count,
                                  chunk_size=result.chunk_size)
            return outcome

        return _op_loop(run_op, ctx, work_per_op=plan.problem.updates / 1e6)


# --------------------------------------------------------------------- #
# Service replays
# --------------------------------------------------------------------- #
# name -> (trace length, --quick length, fair share?)
REPLAY = {
    "svc_replay_plain_3k": (3000, 150, False),
    "svc_replay_fair_1k": (1000, 100, True),
}
WARMUP_JOBS = 300
CLUSTER_GPUS = 16
SIM_KEYS = ("slo_attainment", "latency_p99_s", "jobs_completed", "jobs_rejected")


def prepare_replay(name: str, seed: int, workdir: Path, quick: bool) -> dict:
    length, quick_length, fair = REPLAY[name]
    return {"jobs": quick_length if quick else length, "fair": fair, "seed": seed}


def replay_once(fair: bool, trace) -> Tuple[List[str], Dict[str, float], float]:
    """One timed replay on a fresh service, plus the conservation check.

    A service keeps its filtered-projection cache across replays, which
    changes the simulated schedule of every replay after the first; a
    fresh service per op makes the schedule a function of the seed alone.
    """
    from repro.service import AdmissionPolicy, ReconstructionService

    admission = (
        AdmissionPolicy(fair_share=True, tenant_weights={"tenant-0": 3.0})
        if fair else None
    )
    start = time.perf_counter()
    with ReconstructionService(CLUSTER_GPUS, policy="slo", admission=admission) as service:
        summary = service.replay(trace).summary
    elapsed = time.perf_counter() - start
    done = {k: int(summary.get(f"jobs_{k}", 0)) for k in ("completed", "rejected", "failed")}
    errors = []
    if sum(done.values()) != len(trace):
        errors.append(f"{done} does not add up to {len(trace)} jobs")
    return errors, summary, elapsed


def round_replay(inputs: dict, ctx: RoundContext) -> dict:
    """``svc_replay_*``: queue + scheduler cycle in simulated time.

    The warm-up replays only the trace's first jobs: it is there to import
    lazily loaded modules and warm the allocator, and a full-length
    warm-up would triple the set-up of a three-second op.
    """
    from repro.service import ArrivalTrace, synthetic_trace

    fair = inputs["fair"]
    trace = synthetic_trace(inputs["jobs"], cluster_gpus=CLUSTER_GPUS, seed=inputs["seed"])
    warm = ArrivalTrace(entries=trace.entries[:WARMUP_JOBS], cluster_gpus=CLUSTER_GPUS)

    def run_op() -> OpOutcome:
        with ctx.rec.span("op"):
            errors, summary, elapsed = replay_once(fair, trace)
        sim = {key: summary[key] for key in SIM_KEYS}
        return OpOutcome(errors, elapsed, json.dumps(sim, sort_keys=True), {
            "jobs_completed": sim["jobs_completed"],
            "jobs_rejected": sim["jobs_rejected"],
            "sim_slo_attainment": sim["slo_attainment"],
            "sim_latency_p99": sim["latency_p99_s"],
        })

    # The digest is the simulated summary: ops that disagree on it fail
    # the run, so the schedule must repeat exactly per seed.
    return _op_loop(run_op, ctx, work_per_op=float(len(trace)),
                    warm_op=lambda: OpOutcome(replay_once(fair, warm)[0]))


# --------------------------------------------------------------------- #
# HTTP front door
# --------------------------------------------------------------------- #
HTTP_PLANS = (
    "512x512x1024->256x256x256",
    "1024x1024x1024->512x512x512",
    "512x512x1024->128x128x128",
)
HTTP_DATASETS = 7
# About a third of the closed-loop capacity measured on the reference host
# (~900 req/s with the journal on), so phase A measures latency without a
# growing backlog and phase B measures capacity.
OPEN_LOOP_RATE = 300.0
OPEN_LOOP_CLIENTS = 2
JOURNAL_JOBS = 1000


def http_plans() -> List[str]:
    from repro.api import plan_for_problem

    return [
        plan_for_problem(spec, target="service", cluster_gpus=CLUSTER_GPUS).to_json(indent=None)
        for spec in HTTP_PLANS
    ]


def write_journal(state_dir: Path, plans: List[str], requests, jobs: int) -> List[str]:
    """Run ``jobs`` submissions through a journaling service; returns their ids."""
    from repro.api import ReconstructionPlan
    from repro.service import ReconstructionService

    with ReconstructionService(CLUSTER_GPUS, policy="slo", state_dir=state_dir) as service:
        for plan_index, dataset in requests[:jobs]:
            service.submit_plan(ReconstructionPlan.from_json(plans[plan_index]),
                                dataset_id=dataset)
            service.run_until_idle()
        return sorted(service.jobs)


def prepare_http(name: str, seed: int, workdir: Path, quick: bool) -> dict:
    """Plans in seeded order, and a journal for the server to recover.

    Every round restarts the server on a copy of this journal, which is
    what makes ``setup_s`` of this workload the restart time of a server
    with ``JOURNAL_JOBS`` jobs of history.
    """
    plans = http_plans()
    order = random.Random(seed)
    requests = [
        (order.randrange(len(plans)), f"ds-{order.randrange(HTTP_DATASETS)}")
        for _ in range(4096)
    ]
    state = workdir / "state0"
    known = write_journal(state, plans, requests, 50 if quick else JOURNAL_JOBS)
    return {"plans": plans, "requests": requests, "state0": str(state),
            "known_jobs": known}


class ServerProcess:
    """``python -m repro.cli serve --http 0`` as a child of the round."""

    def __init__(self, state_dir: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--state-dir", str(state_dir), "--gpus", str(CLUSTER_GPUS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env(),
        )
        line = self.process.stdout.readline()
        if "serving on http://" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def request(self, method: str, path: str, body: Optional[str] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def kill(self) -> float:
        """SIGKILL and reap (the journal must survive exactly this).

        Returns the server's peak resident set in MiB, read while it is
        still alive.
        """
        peak = 0.0
        if self.process.poll() is None:
            peak = peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()
        return peak


def timed_gets(server: ServerProcess, path: str, repeats: int) -> Tuple[List[float], int]:
    """Latencies (ms) of ``repeats`` GETs that returned 200, and the failures."""
    samples, failed = [], 0
    for _ in range(repeats):
        start = time.perf_counter()
        status, _ = server.request("GET", path)
        if status == 200:
            samples.append((time.perf_counter() - start) * 1e3)
        else:
            failed += 1
    return samples, failed


def round_http(inputs: dict, ctx: RoundContext) -> dict:
    """``http_submit``: restart on a journal, then open loop, then closed loop."""
    plans, requests = inputs["plans"], inputs["requests"]
    known = inputs["known_jobs"]
    state = Path(inputs["workdir"]) / f"state-{os.getpid()}"
    shutil.copytree(inputs["state0"], state)
    errors: List[str] = []
    cursor = 0  # next entry of the seeded request order

    def submit(index: int) -> bool:
        plan_index, dataset = requests[index % len(requests)]
        status, _ = server.request("POST", f"/plans?dataset={dataset}", plans[plan_index])
        return status == 202

    server = ServerProcess(state)
    try:
        # Set-up ends at the first 200 for a job only the journal knows.
        status, _ = server.request("GET", f"/jobs/{known[0]}")
        if status != 200:
            errors.append(f"restart: GET /jobs/{known[0]} -> {status}")
        for _ in range(10):  # warm-up submissions
            submit(cursor)
            cursor += 1
        ctx.ready()
        status, body = server.request("GET", "/jobs")
        recovered = {job["job_id"] for job in json.loads(body)["jobs"]} if status == 200 else set()
        if not set(known) <= recovered:
            errors.append(f"restart lost {len(set(known) - recovered)} journaled jobs")

        # Phase A: open loop at a fixed rate, each request timed from when
        # it was due, so a stall shows on the requests queued behind it.
        count = max(20, int(OPEN_LOOP_RATE * ctx.seconds * 0.45))
        due = due_times(time.perf_counter() + 0.05, OPEN_LOOP_RATE, count)
        latency_ms: List[Optional[float]] = [None] * count
        late_ms = [0.0] * count
        base = cursor

        def client(offset: int) -> None:
            for index in range(offset, count, OPEN_LOOP_CLIENTS):
                late_ms[index] = wait_until(due[index]) * 1e3
                if submit(base + index):
                    done = time.perf_counter()
                    latency_ms[index] = (done - due[index]) * 1e3
                    ctx.rec.record("op", due[index], done)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(OPEN_LOOP_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cursor += count
        op_ms = [value for value in latency_ms if value is not None]
        attempted, failed = count, count - len(op_ms)
        # Phase B: closed loop on one client — capacity.
        closed_start = time.perf_counter()
        closed_ok = 0
        while time.perf_counter() - closed_start < ctx.seconds * 0.40:
            attempted += 1
            if submit(cursor):
                closed_ok += 1
            else:
                failed += 1
            cursor += 1
        closed_seconds = time.perf_counter() - closed_start
    finally:
        server_rss_mb = server.kill()
    if failed:
        errors.append(f"{failed} of {attempted} requests were not answered 202")
    # How late the generator itself ran, as a share of the gap between sends.
    gap_ms = 1e3 / OPEN_LOOP_RATE
    return {
        "op_ms": op_ms,
        "closed": {"work": float(closed_ok), "seconds": closed_seconds},
        "attempted": attempted, "failed": failed, "errors": errors, "digests": [],
        "counts": {"gen_late_p99_pct": 100.0 * percentile(late_ms, 99) / gap_ms},
        "peak_rss_mb": server_rss_mb,
    }


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[str, int, Path, bool], dict]
    round: Callable[[dict, RoundContext], dict]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fdk_bp_64", prepare_recon, round_session),
        Workload("fdk_filter_wide", prepare_recon, round_session),
        Workload("stream_pfs_par", prepare_recon, round_stream),
        Workload("ifdk_grid_2x2", prepare_recon, round_session),
        Workload("svc_replay_plain_3k", prepare_replay, round_replay),
        Workload("svc_replay_fair_1k", prepare_replay, round_replay),
        Workload("http_submit", prepare_http, round_http),
    )
}
