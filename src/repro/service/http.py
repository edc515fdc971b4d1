"""A minimal HTTP/JSON front door for the reconstruction service.

Speaks :class:`~repro.api.ReconstructionPlan` over plain ``http.server``
(stdlib only — no new dependencies), so "reconstruction as a service" is
an actual network service rather than a Python API:

* ``POST /plans[?dataset=<id>]`` — body is a plan's canonical JSON
  (:meth:`~repro.api.ReconstructionPlan.to_json`); submits through
  :meth:`~repro.service.service.ReconstructionService.submit_plan` and
  returns the job record.  A malformed or mismatched plan is a ``400``
  with the :class:`ValueError` text — the same strictness as the API.
  The body goes through :meth:`~repro.api.ReconstructionPlan.from_json`,
  which keeps the last 64 documents it parsed under the SHA-256 of their
  text: a client posting one protocol plan for many datasets pays one
  parse, and the job reads the plan's key, acquisition token and problem,
  which the plan derives once.  A body that fails to parse is parsed (and
  answered ``400``) every time.
* ``GET /jobs/<id>`` — one job's record (``404`` for an unknown id;
  restart-recovered jobs are served from the journal-backed registry).
* ``GET /jobs`` — every known job record.
* ``GET /metrics`` — the KPI summary plus the obs-registry snapshot.
* ``POST /advance`` — drive the discrete event loop to idle (completing
  queued work); with ``auto_advance=True`` every submission does this
  implicitly, so a demo client never needs to call it.

Status-code contract for ``POST /plans``::

    202  admitted (record carries the queued/completed job)
    400  never feasible — malformed plan JSON, unknown fields, backend
         mismatch, or a problem no (R, C) decomposition of the cluster
         can hold.  Retrying the same request can never succeed.
    429  transient backpressure — a per-tenant fair-share quota or a
         queue depth/backlog admission cap rejected the job.  The
         response carries a ``Retry-After`` header (integer seconds,
         derived from the tenant's backlog estimate) and a JSON body
         with ``error``, ``retry_after_seconds`` and the rejected job
         record.  Retrying after the hint is expected to succeed.

``400`` means *fix the request*; ``429`` means *slow down* — the fair
scheduling layer (:mod:`repro.service.fairness`) decides which, by
attaching ``retry_after_seconds`` to quota/backlog rejections only.

Robustness: handler threads come from a **bounded pool**
(``handler_threads``) behind a **connection cap** (``max_connections``)
instead of unbounded thread-per-request — excess connections receive an
immediate ``503`` and are closed, counted as
``service.http.rejected_connections``.  A malformed ``Content-Length`` is
a JSON ``400`` (not a reset connection), a body over ``max_body_bytes``
is a ``413``, any non-:class:`ValueError` escaping the service layer is
caught at the handler boundary and returned as a JSON ``500`` (counted as
``service.http.errors``), and a client that disconnects mid-response is
swallowed and counted (``service.http.client_disconnects``) instead of
spamming stderr from daemon threads.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .job import JobState
from .service import ReconstructionService

__all__ = ["ServiceHTTPServer"]


class _HTTPError(Exception):
    """An error with a definite HTTP status, raised inside a handler."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    # Set by ServiceHTTPServer on the server instance; typed here for clarity.
    server: "_BoundServer"

    # Bound socket-read patience: a stalled client cannot pin a pool
    # thread forever (the read raises and the connection closes).
    timeout = 30

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service's obs layer is the log; HTTP stays quiet

    # ------------------------------------------------------------------ #
    def _count(self, name: str) -> None:
        self.server.front.service.obs.counter(name).inc()

    def _send(self, code: int, payload, *, headers: Optional[dict] = None) -> None:
        """Serialize and send one JSON response, in one write.

        ``end_headers()`` would flush the head as one segment and the body
        would follow as a second: two small writes on a socket without
        ``TCP_NODELAY`` wait out the client's delayed ACK (Nagle).  So the
        head is ended here and leaves with the body in one ``sendall``.

        A client gone mid-response (``BrokenPipeError`` /
        ``ConnectionResetError``) is swallowed and counted — handler
        threads are daemons and a disconnecting client is routine, not a
        stack trace.
        """
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            # An HTTP/0.9 request gets no head: the buffer is never made.
            head = getattr(self, "_headers_buffer", [])
            if head:
                head.append(b"\r\n")  # what end_headers() adds
            head.append(body)
            self._headers_buffer = []
            self.wfile.write(b"".join(head))
        except (BrokenPipeError, ConnectionResetError):
            self._count("service.http.client_disconnects")
            self.close_connection = True

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length")
        if raw is None or not raw.strip():
            return b""
        try:
            length = int(raw)
        except ValueError:
            raise _HTTPError(
                400, f"malformed Content-Length header: {raw!r}"
            ) from None
        if length < 0:
            raise _HTTPError(400, f"negative Content-Length: {length}")
        limit = self.server.front.max_body_bytes
        if length > limit:
            raise _HTTPError(
                413, f"request body of {length} bytes exceeds the "
                     f"{limit}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------------ #
    # Handler boundary: every route runs inside _guard, so a bug (or a
    # broken dispatcher raising RuntimeError out of submit_plan/advance)
    # becomes a JSON 500 instead of a dead thread and a reset connection.
    # ------------------------------------------------------------------ #
    def _guard(self, route) -> None:
        try:
            route()
        except _HTTPError as exc:
            self._send(exc.code, {"error": exc.message})
            # The request body may be partly or wholly unread (malformed /
            # oversized Content-Length): never reuse this connection, or
            # the leftover bytes would be parsed as the next request line.
            self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            self._count("service.http.client_disconnects")
            self.close_connection = True
        except ValueError as exc:
            # The service layer's contract errors (plan/backend mismatch).
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - the boundary must hold
            self._count("service.http.errors")
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._guard(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._guard(self._route_post)

    # ------------------------------------------------------------------ #
    def _route_get(self) -> None:
        service = self.server.front.service
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["metrics"]:
            self._send(200, {
                "summary": service.summary(),
                "obs": service.obs_snapshot(),
            })
            return
        if parts == ["jobs"]:
            with service._lock:
                records = [job.as_record() for job in service.jobs.values()]
            self._send(200, {"jobs": records})
            return
        if len(parts) == 2 and parts[0] == "jobs":
            with service._lock:
                job = service.jobs.get(parts[1])
            if job is None:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
                return
            self._send(200, job.as_record())
            return
        self._send(404, {"error": f"no such resource {parsed.path!r}"})

    def _route_post(self) -> None:
        front = self.server.front
        service = front.service
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["plans"]:
            from ..api.plan import ReconstructionPlan  # late: api imports service

            query = parse_qs(parsed.query)
            dataset_id = (query.get("dataset") or [""])[0]
            try:
                plan = ReconstructionPlan.from_json(
                    self._read_body().decode("utf-8")
                )
                job = service.submit_plan(plan, dataset_id=dataset_id)
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
                return
            if job.state is JobState.REJECTED:
                if job.retry_after_seconds is not None:
                    # Transient quota/backlog backpressure: tell the
                    # tenant when to come back (the 429 contract above).
                    retry = max(1, math.ceil(job.retry_after_seconds))
                    self._send(429, {
                        "error": job.rejection_reason,
                        "retry_after_seconds": job.retry_after_seconds,
                        "job": job.as_record(),
                    }, headers={"Retry-After": str(retry)})
                else:
                    # Never feasible on this cluster: retrying cannot help.
                    self._send(400, {
                        "error": job.rejection_reason,
                        "job": job.as_record(),
                    })
                return
            if front.auto_advance:
                front.advance()
            self._send(202, job.as_record())
            return
        if parts == ["advance"]:
            front.advance()
            # clock_seconds is guarded by the service lock; an unlocked
            # read can tear against an event-loop advance on another
            # handler thread.
            with service._lock:
                clock = service.clock_seconds
            self._send(200, {"ok": True, "clock_seconds": clock})
            return
        self._send(404, {"error": f"no such resource {parsed.path!r}"})


_BUSY_RESPONSE_BODY = b'{"error": "connection limit reached, retry later"}'
_BUSY_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_BUSY_RESPONSE_BODY)).encode("ascii") + b"\r\n"
    b"Retry-After: 1\r\n"
    b"Connection: close\r\n\r\n" + _BUSY_RESPONSE_BODY
)


class _BoundServer(ThreadingHTTPServer):
    daemon_threads = True
    front: "ServiceHTTPServer"

    def process_request(self, request, client_address):
        """Dispatch onto the bounded pool instead of thread-per-request.

        Connections beyond ``max_connections`` (queued plus in-flight) get
        an immediate ``503`` and are closed — overload sheds load at the
        door instead of accumulating threads without bound.
        """
        front = self.front
        if not front._connection_slots.acquire(blocking=False):
            front.service.obs.counter("service.http.rejected_connections").inc()
            try:
                request.sendall(_BUSY_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            front._pool.submit(self._handle_in_pool, request, client_address)
        except RuntimeError:  # pool already shut down (server stopping)
            front._connection_slots.release()
            self.shutdown_request(request)

    def _handle_in_pool(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - mirror process_request_thread
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self.front._connection_slots.release()

    def handle_error(self, request, client_address):
        # Counted, not printed: daemon handler threads must not spam
        # stderr when a client vanishes mid-conversation.
        self.front.service.obs.counter("service.http.errors").inc()


class ServiceHTTPServer:
    """Serve one :class:`ReconstructionService` over HTTP/JSON.

    ``handler_threads`` bounds concurrent request handling and
    ``max_connections`` caps accepted-but-unfinished connections (the
    overflow is refused with ``503``); ``max_body_bytes`` bounds request
    bodies (``413`` beyond it).
    """

    def __init__(
        self,
        service: ReconstructionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auto_advance: bool = True,
        handler_threads: int = 8,
        max_connections: int = 64,
        max_body_bytes: int = 1 << 20,
    ):
        if handler_threads < 1:
            raise ValueError("handler_threads must be a positive integer")
        if max_connections < handler_threads:
            raise ValueError(
                "max_connections must be >= handler_threads "
                f"(got {max_connections} < {handler_threads})"
            )
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be a positive integer")
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port on start()
        self.auto_advance = auto_advance
        self.handler_threads = handler_threads
        self.max_connections = max_connections
        self.max_body_bytes = max_body_bytes
        self._server: Optional[_BoundServer] = None
        self._thread: Optional[threading.Thread] = None
        self._advance_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._connection_slots = threading.Semaphore(max_connections)

    # ------------------------------------------------------------------ #
    def advance(self) -> None:
        """Drive the event loop to idle; serialized across handler threads."""
        with self._advance_lock:
            self.service.run_until_idle()

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the actual port."""
        if self._server is not None:
            return self.port
        self._pool = ThreadPoolExecutor(
            max_workers=self.handler_threads,
            thread_name_prefix="repro-http-handler",
        )
        server = _BoundServer((self.host, self.port), _Handler)
        server.front = self
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def serve_forever(self) -> None:
        """Blocking serve (the CLI's ``--http`` mode); Ctrl-C to stop."""
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ServiceHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
