"""A lightweight dynamic lock-order sanitizer (opt-in, test-time).

Deadlocks need two ingredients: two locks and two threads that acquire
them in opposite orders.  The second ingredient is timing-dependent and
rarely reproduces under test; the *order inversion* itself is not — any
run that takes ``A`` then ``B`` on one code path and ``B`` then ``A`` on
another has proven the hazard, whether or not the threads collided.

:class:`LockOrderSanitizer` wraps ``threading.Lock``/``RLock`` objects in
a tracking proxy, records the directed acquisition graph (an edge
``A -> B`` whenever ``B`` is acquired while ``A`` is held, on any
thread), and reports an inversion the moment both ``A -> B`` and
``B -> A`` have been observed — with the acquisition stack of *both*
sides, so the two conflicting code paths are immediately readable.

Enable it for a test run with::

    REPRO_LOCK_SANITIZER=1 python -m pytest -m "serving or fairness"

(``tests/conftest.py`` installs the factory shim when the variable is
set and fails the session if any inversion was recorded).  Locks are
identified by a per-wrapper monotonic token, never ``id()`` — CPython
reuses addresses after garbage collection, and id-keyed graphs grow
phantom edges between unrelated locks.

Reentrant acquisition of an ``RLock`` the thread already holds records
no edges: re-entry cannot deadlock against another lock.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LockOrderSanitizer",  # repro-lint: disable=dead-export -- the programmatic entry point README documents
]

#: Path fragments identifying frames that belong to this project (and the
#: analysis package itself, which must never track its own locks).
_PROJECT_FRAGMENT = os.sep + "repro" + os.sep
_SELF_FRAGMENT = os.sep + "analysis" + os.sep


@dataclass
class Inversion:
    """One detected lock-order inversion: A->B and B->A both observed."""

    first_label: str
    second_label: str
    forward_stack: str
    reverse_stack: str

    def render(self) -> str:
        return (
            f"lock-order inversion between {self.first_label} and "
            f"{self.second_label}\n"
            f"--- acquired {self.second_label} while holding "
            f"{self.first_label} at:\n{self.forward_stack}"
            f"--- acquired {self.first_label} while holding "
            f"{self.second_label} at:\n{self.reverse_stack}"
        )


class _TrackedLock:
    """Proxy around a real Lock/RLock that reports acquisitions."""

    def __init__(self, sanitizer: "LockOrderSanitizer", raw, token: int, label: str):
        self._san_sanitizer = sanitizer
        self._san_raw = raw
        self._san_token = token
        self._san_label = label

    def acquire(self, blocking=True, timeout=-1):
        got = self._san_raw.acquire(blocking, timeout)
        if got:
            self._san_sanitizer._on_acquire(self)
        return got

    def release(self):
        self._san_sanitizer._on_release(self)
        self._san_raw.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.release()
        return False

    def locked(self):
        return self._san_raw.locked()

    def __getattr__(self, name):
        # Delegate everything else (RLock._is_owned, Condition's
        # _release_save/_acquire_restore probing, ...) to the real lock.
        return getattr(self._san_raw, name)

    def __repr__(self):
        return f"<tracked {self._san_label} {self._san_raw!r}>"


class LockOrderSanitizer:
    """Record the cross-thread lock acquisition graph; detect inversions."""

    def __init__(self, stack_limit: int = 12):
        self._stack_limit = stack_limit
        self._tokens = itertools.count(1)
        self._tls = threading.local()
        # Internal guard: a *raw* lock, invisible to tracking.
        self._guard = threading.Lock()
        # (held_token, acquired_token) -> formatted stack at first sight.
        self._edges: Dict[Tuple[int, int], str] = {}
        self._labels: Dict[int, str] = {}
        self._inversions: List[Inversion] = []
        self._saved_factories: Optional[Tuple] = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, lock, label: str = "") -> _TrackedLock:
        """Wrap one lock object in a tracking proxy."""
        token = next(self._tokens)
        label = label or f"lock#{token}"
        with self._guard:
            # Two locks born on the same source line (e.g. two Counter
            # instances) must stay distinguishable in inversion reports.
            if label in self._labels.values():
                label = f"{label}#{token}"
            self._labels[token] = label
        return _TrackedLock(self, lock, token, label)

    def install(self) -> None:
        """Patch ``threading.Lock``/``RLock`` to hand out tracked locks.

        Only locks created from project code are wrapped (decided by
        walking the creating frames); stdlib internals get raw locks so
        interpreter machinery is never perturbed.
        """
        if self._saved_factories is not None:
            return
        raw_lock, raw_rlock = threading.Lock, threading.RLock
        self._saved_factories = (raw_lock, raw_rlock)

        def make(raw_factory, kind):
            def factory(*args, **kwargs):
                lock = raw_factory(*args, **kwargs)
                site = _project_creation_site()
                if site is None:
                    return lock
                return self.wrap(lock, label=f"{kind}@{site}")

            return factory

        threading.Lock = make(raw_lock, "Lock")
        threading.RLock = make(raw_rlock, "RLock")

    def uninstall(self) -> None:
        if self._saved_factories is None:
            return
        threading.Lock, threading.RLock = self._saved_factories
        self._saved_factories = None

    # -- tracking ---------------------------------------------------------

    def _held(self) -> List[_TrackedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def _on_acquire(self, lock: _TrackedLock) -> None:
        held = self._held()
        reentrant = any(h._san_token == lock._san_token for h in held)
        if not reentrant and held:
            stack = "".join(
                traceback.format_stack(sys._getframe(2), limit=self._stack_limit)
            )
            with self._guard:
                for prior in held:
                    key = (prior._san_token, lock._san_token)
                    if key in self._edges:
                        continue
                    self._edges[key] = stack
                    reverse = (lock._san_token, prior._san_token)
                    if reverse in self._edges:
                        self._inversions.append(
                            Inversion(
                                first_label=self._labels[prior._san_token],
                                second_label=self._labels[lock._san_token],
                                forward_stack=stack,
                                reverse_stack=self._edges[reverse],
                            )
                        )
        held.append(lock)

    def _on_release(self, lock: _TrackedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i]._san_token == lock._san_token:
                del held[i]
                return

    # -- reporting --------------------------------------------------------

    @property
    def inversions(self) -> List[Inversion]:
        with self._guard:
            return list(self._inversions)

    @property
    def edge_count(self) -> int:
        with self._guard:
            return len(self._edges)

    def report(self) -> str:
        inversions = self.inversions
        if not inversions:
            return (
                f"lock sanitizer: no inversions "
                f"({self.edge_count} acquisition edge(s) observed)"
            )
        parts = [
            f"lock sanitizer: {len(inversions)} lock-order inversion(s) detected"
        ]
        parts.extend(inv.render() for inv in inversions)
        return "\n".join(parts)


def _project_creation_site() -> Optional[str]:
    """Nearest project frame that created the lock, or None for stdlib."""
    frame = sys._getframe(1)
    for _ in range(20):
        if frame is None:
            return None
        filename = frame.f_code.co_filename
        if _PROJECT_FRAGMENT in filename and _SELF_FRAGMENT not in filename:
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return None
