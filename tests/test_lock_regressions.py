"""Regression tests for the genuine lock-discipline findings.

Each test here failed before its fix:

* ``reset()``, ``_recover()`` and the event loop's initial dispatch read
  guarded state (``_running`` / ``_finish_heap`` / ``clock_seconds``)
  without the service lock — ``LockCheckedService`` turns those
  attributes, and the placed jobs awaiting a pilot verdict (``_pilots``),
  into properties that assert ``self._lock._is_owned()`` on every *read*,
  so any unlocked access anywhere in the service trips immediately.
* ``POST /advance`` in the HTTP front door read ``service.clock_seconds``
  unlocked on the handler thread; with ``LockCheckedService`` the
  pre-fix handler raised ``AssertionError`` (surfacing as a 500 through
  the guard boundary) while the fixed handler answers 200.
* ``WorkerPool.started`` (hence ``TiledBackend.pool_started``, which
  reads through it) read its executor reference without the owning
  lock — ``FlagLock`` counts acquisitions and proves each property now
  takes it.

The two dtype findings (``cosine_weight_table``'s and the proposed
kernel's dtype-less ``np.arange``) change no numerics — their regression
test is the lint self-clean gate in ``test_lint_clean.py``, which fails
whenever either construct reappears.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.backends.tiled import TiledBackend, WorkerPool
from repro.core.types import problem_from_string
from repro.service import (
    ReconstructionJob,
    ReconstructionService,
    ServiceHTTPServer,
)

SMALL = "512x512x1024->256x256x256"


def make_job(job_id: str, **kwargs) -> ReconstructionJob:
    return ReconstructionJob(
        problem=problem_from_string(SMALL), job_id=job_id, **kwargs
    )


def _locked_read_property(name: str):
    """A data descriptor asserting the service lock is held on every read.

    Writes stay unchecked: ``__init__`` assigns before the object is
    shared.  Reads are where torn state escapes to other threads.
    """

    def getter(self):
        assert self._lock._is_owned(), (
            f"{name} read without holding the service lock"
        )
        return self.__dict__[name]

    def setter(self, value):
        self.__dict__[name] = value

    return property(getter, setter)


class LockCheckedService(ReconstructionService):
    clock_seconds = _locked_read_property("clock_seconds")
    _running = _locked_read_property("_running")
    _finish_heap = _locked_read_property("_finish_heap")
    _pilots = _locked_read_property("_pilots")


class FlagLock:
    """Context-manager lock that counts acquisitions."""

    def __init__(self):
        self.entered = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self.entered += 1
        self._lock.__enter__()
        return self

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.entered += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()


# --------------------------------------------------------------------- #
# Service state
# --------------------------------------------------------------------- #
class TestServiceLockDiscipline:
    def test_event_loop_reads_guarded_state_under_lock(self):
        service = LockCheckedService(cluster_gpus=8)
        assert service.submit(make_job("a"), now=0.0)
        assert service.submit(make_job("b"), now=1.0)
        service.run_until_idle()
        report = service.report()
        assert report.summary["jobs_completed"] == 2

    def test_pilot_verdicts_read_guarded_state_under_lock(self):
        from test_service_lifecycle import PilotStub

        service = LockCheckedService(cluster_gpus=8, workers=1)
        pilots = PilotStub.install(service)
        pilots.eager = "ok"
        assert service.submit(make_job("early"), now=0.0)
        service.run_until_idle()
        pilots.eager = None
        assert service.submit(make_job("late"), now=0.0)
        service.run_until_idle()
        pilots.rule(pilots.held[0], ok=True)
        assert service.report().summary["jobs_completed"] == 2

    def test_reset_takes_the_lock(self):
        service = LockCheckedService(cluster_gpus=8)
        service.submit(make_job("c"), now=0.0)
        service.run_until_idle()
        service.reset()
        with service._lock:
            assert service.clock_seconds == 0.0

    def test_recovery_replays_under_the_lock(self, tmp_path):
        first = LockCheckedService(cluster_gpus=8, state_dir=tmp_path)
        first.submit(make_job("d"), now=0.0)
        first.close()
        second = LockCheckedService(cluster_gpus=8, state_dir=tmp_path)
        try:
            assert second.recovered_jobs == 1
            second.run_until_idle()
            assert second.report().summary["jobs_completed"] == 1
        finally:
            second.close()


# --------------------------------------------------------------------- #
# HTTP front door
# --------------------------------------------------------------------- #
class TestHTTPAdvanceLocking:
    def test_advance_reports_clock_without_unlocked_read(self):
        service = LockCheckedService(cluster_gpus=8)
        server = ServiceHTTPServer(service, auto_advance=False)
        server.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/advance", data=b"", method="POST"
            )
            # Pre-fix: the handler's unlocked clock_seconds read raised
            # AssertionError, which the guard boundary turned into a 500.
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                body = json.loads(response.read().decode("utf-8"))
            assert body["ok"] is True
            assert body["clock_seconds"] == pytest.approx(0.0)
        finally:
            server.stop()
            service.close()


# --------------------------------------------------------------------- #
# Parallel backend pool state
# --------------------------------------------------------------------- #
class TestPoolStateLocking:
    def test_worker_pool_started_takes_the_lock(self):
        pool = WorkerPool(2)
        flag = FlagLock()
        pool._lock = flag
        assert pool.started is False
        assert flag.entered == 1

    def test_tiled_backend_pool_started_takes_the_pool_lock(self):
        backend = TiledBackend(workers=2)
        flag = FlagLock()
        backend._pool._lock = flag
        assert backend.pool_started is False
        assert flag.entered == 1
