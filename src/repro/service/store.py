"""Durable job store: a JSONL journal of job lifecycle transitions.

The in-memory service loses its queue the moment the process dies — fine
for a simulator, disqualifying for the paper's "reconstruction as a
service" pitch.  :class:`JobStore` makes the queue restartable by
journaling every lifecycle transition to an append-only JSON-lines file
under a state directory::

    {"event": "submitted", "job_id": "job-0001", "job": {...static identity...}}
    {"event": "queued",    "job_id": "job-0001"}
    {"event": "placed",    "job_id": "job-0001", "start": 0.0, "gpus": 4, ...}
    {"event": "executed",  "job_id": "job-0001", "start": 0.01, "finish": 0.2, ...}
    {"event": "completed", "job_id": "job-0001", "finish": 12.5}

The event names, the state each one means and the fields it carries are
not spelled here: :meth:`JobStore.record` writes, and :meth:`recover`
replays, through :data:`repro.service.job.LIFECYCLE` — the only place an
event or a journaled field is added.  :meth:`JobStore.append` is the raw
line writer underneath.

On restart, :meth:`recover` replays the journal and classifies every job
by its *last durable state*:

* ``completed`` / ``rejected`` / ``failed`` — terminal; reconstructed with
  their recorded outcome so reports and the HTTP ``/jobs`` registry
  survive the restart;
* ``submitted`` / ``queued`` / ``placed`` — in flight when the process
  died; reconstructed as fresh ``PENDING`` jobs for re-admission.  A
  placed-but-incomplete job restarts from the queue (at-least-once
  execution), and job ids are unique in the journal, so recovery never
  loses a job and never duplicates one.

Durability model: each append is flushed to the operating system, so the
journal survives ``kill -9`` of the service process (a whole-machine crash
can lose the tail — the last event, never the journal's integrity).  A
torn final line from a mid-write kill is detected and ignored on replay,
and truncated away before the first new append — so a recovered service's
own appends never merge onto the partial line and re-corrupt the journal.
Corruption anywhere else raises loudly.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO

from ..obs import get_tracer
from .job import LIFECYCLE, TERMINAL_EVENTS, JobsByState, JobState, ReconstructionJob

__all__ = ["JobStore"]

#: File name of the journal inside the state directory.
JOURNAL_NAME = "journal.jsonl"


@dataclass
class RecoveredState(JobsByState):
    """Outcome of one journal replay: every job once, in submission order,
    in its last durable state."""

    @property
    def pending(self) -> List[ReconstructionJob]:
        """Jobs that were in flight (submitted/queued/placed) — re-admit these."""
        return self.in_state(JobState.PENDING)

    def __len__(self) -> int:
        return len(self.jobs)


class JobStore:
    """Append-only journal of job transitions under a state directory."""

    def __init__(self, state_dir) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / JOURNAL_NAME
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, event: str, job_id: str, **fields) -> None:
        """Journal one transition; flushed before returning (kill-safe)."""
        if event not in LIFECYCLE:
            raise ValueError(f"unknown journal event {event!r}")
        record = {"event": event, "job_id": job_id}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._repair_torn_tail()
                self._handle = self.journal_path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def _repair_torn_tail(self) -> None:
        """Truncate a partial final line left by a mid-write ``kill -9``.

        Appending onto a torn tail would merge the new record into the
        partial line — the next replay would then either drop it as the
        torn tail or, once more events follow, refuse the whole journal as
        corrupt.  Called under the lock before the append handle opens.
        """
        try:
            with self.journal_path.open("rb+") as handle:
                size = handle.seek(0, 2)
                if size == 0:
                    return
                handle.seek(size - 1)
                if handle.read(1) == b"\n":
                    return
                # Scan backwards for the last newline; everything after it
                # is the torn record, which replay would discard anyway.
                keep = 0
                position = size
                while position > 0:
                    step = min(4096, position)
                    handle.seek(position - step)
                    chunk = handle.read(step)
                    newline = chunk.rfind(b"\n")
                    if newline != -1:
                        keep = position - step + newline + 1
                        break
                    position -= step
                handle.truncate(keep)
        except FileNotFoundError:
            return

    def record(self, event: str, job: ReconstructionJob, **extra) -> None:
        """Journal ``event`` for ``job`` with the fields the lifecycle table
        pairs with it (plus any ``extra`` ones replay does not need)."""
        if event == "submitted":
            extra["job"] = job.to_payload()
        self.append(event, job.job_id, **LIFECYCLE[event].journal_fields(job), **extra)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def events(self) -> Iterator[dict]:
        """Parsed journal events in append order.

        A torn *final* line (the process was killed mid-write) is silently
        dropped; a malformed line anywhere else means real corruption and
        raises ``ValueError``.
        """
        if not self.journal_path.exists():
            return
        lines = self.journal_path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == len(lines) - 1:
                    return  # torn tail from a mid-write kill: ignore
                raise ValueError(
                    f"corrupt journal {self.journal_path} at line {index + 1}: {exc}"
                ) from exc
            if not isinstance(payload, dict) or "event" not in payload:
                raise ValueError(
                    f"corrupt journal {self.journal_path} at line {index + 1}: "
                    "not an event object"
                )
            yield payload

    def recover(self) -> RecoveredState:
        """Replay the journal into a :class:`RecoveredState`.

        Jobs are keyed by ``job_id`` (submission order preserved), so a job
        journaled many times — including across earlier recoveries, which
        re-journal their re-submissions — recovers exactly once.
        """
        with get_tracer().span("service.store", op="recover"):
            identity: Dict[str, dict] = {}  # latest submission wins (identical across re-journals)
            outcome: Dict[str, str] = {}  # the event holding each job's durable state
            latest: Dict[str, Dict[str, dict]] = {}  # each job's last record per event
            for event in self.events():
                job_id = str(event.get("job_id", ""))
                kind = event["event"]
                if kind == "submitted":
                    identity[job_id] = event.get("job", {})
                    if outcome.get(job_id) not in TERMINAL_EVENTS:
                        latest[job_id] = {}  # a re-admission: the last try's records are stale
                elif job_id not in identity:
                    raise ValueError(
                        f"corrupt journal {self.journal_path}: {kind!r} event "
                        f"for unknown job {job_id!r}"
                    )
                else:
                    latest.setdefault(job_id, {})[kind] = event
                # Only a later terminal event replaces a terminal outcome
                # (a recovery re-journals `submitted`).  The service writes
                # one per job; older journals can hold `executed` or a
                # pilot's `failed` after `completed`.
                if kind in TERMINAL_EVENTS or outcome.get(job_id) not in TERMINAL_EVENTS:
                    outcome[job_id] = kind
            state = RecoveredState()
            for job_id, payload in identity.items():
                job = ReconstructionJob.from_payload(payload)
                last = outcome[job_id]
                if last in TERMINAL_EVENTS:
                    # The placement and the pilot's accounting, then the
                    # outcome itself.  In-flight jobs restart as submitted.
                    records = latest[job_id]
                    for kind, record in records.items():
                        if kind in LIFECYCLE and kind not in TERMINAL_EVENTS:
                            LIFECYCLE[kind].apply(job, record)
                    LIFECYCLE[last].apply(job, records[last])
                state.jobs.append(job)
            return state

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
