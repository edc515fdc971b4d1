"""Measurement plumbing shared by the runner, the workloads and the probes.

Nothing here imports ``repro``: the statistics, the span recorder and the
child-process launcher are the benchmark's own, so the program under test
is only ever measured from outside.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A child that has not answered by then is hung, not slow: the slowest
# round (a cold streaming reconstruction) takes about ten seconds.
CHILD_TIMEOUT_S = 150.0


class Metric(NamedTuple):
    """Declaration of one per-layer metric (``BENCHMARK.json`` holds the first two)."""

    unit: str
    better: str
    moves: str  # "<end-to-end metric> @ <workload>" it is expected to move


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a pool of timings."""
    return {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class SpanRecorder:
    """In-memory spans: name, start, end, parent and the op they belong to.

    A disabled recorder (the untraced run) costs one attribute test per
    ``span`` call, so workload code is written once for both modes.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._clock = clock
        self._stack: List[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "start": self._clock(),
                  "end": None, "parent": parent, "op": self.op}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = self._clock()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child of the innermost open span.

        For layers only reachable through a driver: the driver reports a
        duration, and the span is laid inside the driver's own interval.
        """
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "op": self.op})

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        return self_seconds(self.spans)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_seconds(spans: Iterable[dict]) -> Dict[str, float]:
    """Self time per span name over a list of span records.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so overlapping or overrunning children are
    never counted twice and never make a self time negative.
    """
    spans = [s for s in spans if s["end"] is not None]
    children: Dict[Optional[int], List[dict]] = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(record)
    totals: Dict[str, float] = {}
    for record in spans:
        covered = 0.0
        cursor = record["start"]
        for child in sorted(children.get(record["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], record["end"])
            if end > start:
                covered += end - start
                cursor = end
        own = (record["end"] - record["start"]) - covered
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


# --------------------------------------------------------------------- #
# Open-loop schedule
# --------------------------------------------------------------------- #
def due_times(start: float, rate_per_s: float, count: int) -> List[float]:
    """When each request of a fixed-rate open loop is due."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate_per_s for index in range(count)]


def wait_until(due: float, clock=time.perf_counter, sleep=time.sleep) -> float:
    """Sleep until ``due``; returns how late the caller actually is.

    Latency of an open-loop request is taken from ``due``, not from the
    return of this call, so a stall delays later requests visibly.
    """
    delay = due - clock()
    if delay > 0:
        sleep(delay)
    return max(0.0, clock() - due)


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #
# One BLAS/OpenMP thread in every process of the benchmark — the measured
# children and the orchestrator, whose probes time the same library calls:
# the only parallelism in a run is what the workload's plan asks for.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    """Environment of every measured process: ``THREAD_ENV`` and ``src`` on the path."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(spec: dict, gauge: "HostGauge") -> dict:
    """Run one round in a fresh interpreter; returns its JSON result.

    ``spawn_wall`` is stamped just before the spawn so the child can
    report set-up time from process creation, interpreter start included.
    ``gauge`` samples the host's speed while the child runs; the result
    carries the reading over its set-up (``setup_speed``) and over its
    timed ops (``op_speed``), and the NumPy kernel's median time
    (``host_calib_s``).
    """
    spec = dict(spec, spawn_wall=time.time())
    with gauge.watch() as readings:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
            timeout=CHILD_TIMEOUT_S,
        )
        ended = time.time()
    if done.returncode != 0:
        raise RuntimeError(
            f"round child for {spec.get('workload')!r} exited "
            f"{done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ready = spec["spawn_wall"] + result["setup_s"]
    result["setup_speed"] = host_speed(readings, spec["spawn_wall"], ready)
    result["op_speed"] = host_speed(readings, ready, ended)
    result["host_calib_s"] = percentile([r["numpy_s"] for r in readings], 50)
    return result


# --------------------------------------------------------------------- #
# Host
# --------------------------------------------------------------------- #
class HostGauge:
    """Two small fixed kernels whose run time says how fast the host is now.

    One is NumPy-bound (it streams 1 MiB through three ufuncs) and one
    interpreter-bound — what the workloads are bound by.  A reading is the
    mean, over the two, of the median time of three calls divided by a
    reference time: 1.0 = reference speed, 1.5 = everything takes half as
    long again.  The references are constants (the development host in
    a quiet twenty minutes), so timings put at reference speed are comparable
    between runs.

    Readings are only ever taken in the orchestrating process, by a thread
    that samples while the round's child runs (:meth:`watch`), and the
    kernels write into buffers made once: no reading depends on what the
    measured program did to its own heap.  They are taken in the thread's
    *CPU* time, because the sampler shares two vCPUs with the workload's
    threads: waiting for a core must not read as a slow host (the reading
    would then depend on how many threads the program runs), while a host
    that executes slowly must — on this VM CPU time wanders with wall
    time, so the slow phases are not steal.
    """

    REFERENCE_S = (1.35e-3, 0.46e-3)
    PERIOD_S = 0.25

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        # Both operands at fixed offsets from one page boundary, the second
        # shifted by 1 KiB: where the allocator puts the block (and whether
        # the two would alias modulo 4 KiB) must not move a reading.
        count, page = 1 << 18, 4096
        block = np.empty(2 * 4 * count + 2 * page, dtype=np.uint8)
        start = -block.ctypes.data % page
        self._x = block[start:start + 4 * count].view(np.float32)
        self._y = block[start + 4 * count + 1024:start + 8 * count + 1024].view(np.float32)
        self._x[:] = np.linspace(0.5, 1.5, count, dtype=np.float32)

    def _numpy(self) -> None:
        np, x, y = self._np, self._x, self._y
        for _ in range(8):
            np.multiply(x, x, out=y)
            np.add(y, x, out=y)
            np.sqrt(y, out=y)

    def _python(self) -> None:
        total = 0
        for i in range(12000):
            total += i & 7

    def read(self) -> dict:
        """One reading (about 8 ms): when, NumPy kernel CPU seconds, speed."""
        seconds = []
        for kernel in (self._numpy, self._python):
            samples = []
            for _ in range(3):
                start = time.thread_time()
                kernel()
                samples.append(time.thread_time() - start)
            seconds.append(sorted(samples)[1])
        speed = sum(s / ref for s, ref in zip(seconds, self.REFERENCE_S)) / len(seconds)
        return {"t": time.time(), "numpy_s": seconds[0], "speed": speed}

    @contextlib.contextmanager
    def watch(self) -> Iterator[List[dict]]:
        """Sample every ``PERIOD_S`` on a thread until the block exits.

        Yields the list the readings are appended to.  The thread costs
        about 3 % of one vCPU, the same on every run.
        """
        readings = [self.read()]
        done = threading.Event()

        def sample() -> None:
            while not done.wait(self.PERIOD_S):
                readings.append(self.read())

        thread = threading.Thread(target=sample, name="host-gauge", daemon=True)
        thread.start()
        try:
            yield readings
        finally:
            done.set()
            thread.join()


def host_speed(readings: Sequence[dict], start: float, end: float) -> float:
    """Mean speed reading over the wall-clock interval ``[start, end]``.

    An interval too short to contain a reading takes the reading nearest
    to its middle.
    """
    inside = [r["speed"] for r in readings if start <= r["t"] <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(readings, key=lambda r: abs(r["t"] - middle))["speed"]]
    return sum(inside) / len(inside)


def host_profile() -> Dict[str, str]:
    """What makes two hosts comparable: CPUs, model, interpreter, NumPy."""
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": str(os.cpu_count()),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
