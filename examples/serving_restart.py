#!/usr/bin/env python
"""Kill a serving process mid-queue and watch the restart recover it.

Demonstrates the durable-serving pieces of ``repro.service`` end to end:

1. a first service process submits a queue of jobs against
   ``--state-dir``-style journaling and a shared on-disk filtered cache,
   warms the cache by completing one job, then is SIGKILLed with the rest
   of the queue still pending — no shutdown hook, no flush, exactly the
   crash a real deployment has to survive;
2. a second process (this one) rebuilds the service on the same state
   directory: the journal replay brings back every job exactly once —
   the completed job with its outcome, the pending ones re-queued;
3. the recovered queue drains on fresh worker processes, and the jobs
   that re-request the warmed dataset hit the on-disk cache even though
   the process (and worker pool) that filtered it is long dead.

Run:  python examples/serving_restart.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

from repro.service import JobState, ReconstructionService

PILOT = "32x32x16->16x16x16"
PROBLEM = "512x512x1024->256x256x256"


def crash_a_serving_process(state_dir: Path, cache_dir: Path) -> None:
    """Phase 1 in a child process, ended by SIGKILL mid-queue."""
    script = textwrap.dedent(
        f"""
        import os, signal
        from repro.core.types import problem_from_string
        from repro.service import ReconstructionJob, ReconstructionService

        service = ReconstructionService(
            16, backend="vectorized", workers=1,
            pilot_problem={PILOT!r},
            state_dir={str(state_dir)!r}, cache_dir={str(cache_dir)!r})
        # Complete one job: journals its outcome and warms the disk cache.
        warm = ReconstructionJob(
            problem=problem_from_string({PROBLEM!r}),
            job_id="job-warm", dataset_id="ds-popular")
        service.submit(warm)
        service.run_until_idle()
        print(f"  [first process] job-warm completed, "
              f"pilot cache hit: {{warm.pilot_cache_hit}}", flush=True)
        # Queue more work, then die before any of it runs.
        for index in range(3):
            service.submit(ReconstructionJob(
                problem=problem_from_string({PROBLEM!r}),
                job_id=f"job-queued-{{index}}", dataset_id="ds-popular"))
        print("  [first process] 3 jobs queued; SIGKILL now", flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    process = subprocess.run([sys.executable, "-c", script])
    assert process.returncode == -signal.SIGKILL, process.returncode


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as scratch:
        state_dir = Path(scratch) / "state"
        cache_dir = Path(scratch) / "cache"

        print("phase 1: first service process, killed mid-queue")
        crash_a_serving_process(state_dir, cache_dir)

        print("phase 2: restart on the same state dir and recover")
        service = ReconstructionService(
            16, backend="vectorized", workers=1,
            pilot_problem=PILOT, state_dir=state_dir, cache_dir=cache_dir,
        )
        print(f"  recovered {service.recovered_jobs} jobs "
              f"({len(service.queue)} re-queued) "
              f"from {service.store.journal_path}")
        warm = service.jobs["job-warm"]
        assert warm.state is JobState.COMPLETED  # outcome survived the kill
        assert len(service.queue) == 3

        print("phase 3: drain the recovered queue on fresh workers")
        service.run_until_idle()
        summary = service.summary()
        for index in range(3):
            job = service.jobs[f"job-queued-{index}"]
            print(f"  job-queued-{index}: {job.state.value}, "
                  f"pilot cache hit: {job.pilot_cache_hit}")
            assert job.state is JobState.COMPLETED
            # ds-popular was filtered (and cached) by the dead first
            # process; these pilots ran in brand-new worker processes.
            assert job.pilot_cache_hit is True
        assert summary["jobs_completed"] == 4.0  # job-warm + 3 recovered
        print(f"  summary: jobs_completed={summary['jobs_completed']:.0f}, "
              f"cache_hit_rate={summary['cache_hit_rate']:.2f}")
        service.close()
        print("queued workload survived the kill: nothing lost, "
              "nothing duplicated, cache warm across processes.")


if __name__ == "__main__":
    main()
