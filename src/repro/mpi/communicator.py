"""An in-process, thread-per-rank MPI communicator.

The paper uses Intel MPI over InfiniBand to coordinate up to 2,048 ranks;
this environment has no MPI launcher, so the communicator below provides
the same programming model *inside one process*: every rank is a Python
thread, collectives are implemented with shared memory and reusable
barriers, and the SPMD contract (all ranks of a communicator call the same
collectives in the same order) is the same one real MPI imposes.

Because NumPy releases the GIL for array operations, ranks genuinely overlap
their filtering/back-projection work, which is what makes the functional
pipeline simulation in :mod:`repro.pipeline` meaningful.

The operations are the four iFDK calls (Section 4.1.1, Figure 3), in
mpi4py's upper-case buffer style: ``Split`` into column and row
communicators, ``Allgather`` within a column, a sum ``Reduce`` across a row
and ``Barrier``.  Contributions to ``Allgather`` and ``Reduce`` must agree
in shape and dtype on every rank; a mismatch fails loudly on every rank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "CommunicatorError",  # repro-lint: disable=dead-export -- what SimCommunicator raises
    "SimCommunicator",
]


class CommunicatorError(RuntimeError):
    """Raised on misuse of the simulated communicator (SPMD violations)."""


class _Barrier:
    """A reusable barrier whose :meth:`abort` breaks only the waits it has
    not released yet.

    ``threading.Barrier.abort`` also breaks a wait that has been released but
    whose thread has not woken yet, so one rank failing right after a
    collective could make a sibling fail that very collective.  Here a
    released wait always returns.
    """

    def __init__(self, parties: int):
        self._parties = parties
        self._cond = threading.Condition()
        self._arrived = 0
        self._generation = 0
        self._broken = False

    def wait(self) -> None:
        with self._cond:
            if self._broken:
                raise threading.BrokenBarrierError
            generation = self._generation
            self._arrived += 1
            if self._arrived == self._parties:
                self._arrived = 0
                self._generation += 1
                self._cond.notify_all()
                return
            self._cond.wait_for(lambda: self._generation != generation or self._broken)
            if self._generation == generation:
                raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()


class _Context:
    """Shared state of one communicator (one instance per rank group)."""

    def __init__(self, size: int):
        self.barrier = _Barrier(size)
        self.lock = threading.Lock()
        self.slots: Dict[str, Any] = {}
        self._split_cache: Dict[Any, "_Context"] = {}

    def abort(self) -> None:
        """Break this communicator's barrier and every ``Split`` child's, so
        a rank blocked in any derived collective stops waiting for a dead one."""
        self.barrier.abort()
        with self.lock:
            children = list(self._split_cache.values())
        for child in children:
            child.abort()


@dataclass
class SimCommunicator:
    """Handle giving one rank access to its communicator.

    Create the world communicator only through
    :func:`repro.mpi.engine.run_spmd`, which owns the shared context;
    sub-communicators are created with :meth:`Split`.
    """

    rank: int
    size: int
    _context: _Context

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.size:
            raise ValueError(f"rank {self.rank} outside communicator of size {self.size}")

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _exchange(self, operation: str, payload: Any) -> List[Any]:
        """All ranks deposit ``payload``; every rank gets the ordered list.

        Two barrier phases guarantee that (1) all deposits are visible before
        anyone reads and (2) all reads finish before the slot is reused by
        the next collective.
        """
        ctx = self._context
        with ctx.lock:
            store = ctx.slots.setdefault(operation, [None] * self.size)
            store[self.rank] = payload
        ctx.barrier.wait()
        with ctx.lock:
            gathered = list(ctx.slots[operation])
        # The second barrier guarantees every rank has read the slot before
        # any rank can deposit into it again for the next collective.
        ctx.barrier.wait()
        return gathered

    def _exchange_buffers(self, operation: str, sendbuf: np.ndarray) -> List[np.ndarray]:
        """:meth:`_exchange` of a copy of ``sendbuf``, checked for agreement.

        The deposit is a copy: the collective returns as soon as this rank
        is done, so the caller may legally reuse its buffer immediately (MPI
        blocking semantics) even though siblings read the deposit later.
        Every rank sees the same deposits, so a shape or dtype mismatch
        raises on every rank alike.
        """
        if not isinstance(sendbuf, np.ndarray):
            raise TypeError(f"sendbuf must be a numpy.ndarray, got {type(sendbuf).__name__}")
        gathered = self._exchange(operation, np.array(sendbuf, copy=True))
        first = gathered[0]
        if any(b.shape != first.shape or b.dtype != first.dtype for b in gathered):
            layout = ", ".join(
                f"rank {rank}: {b.shape} {b.dtype}" for rank, b in enumerate(gathered)
            )
            raise CommunicatorError(
                f"{operation} contributions disagree in shape or dtype ({layout})"
            )
        return gathered

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def Barrier(self) -> None:  # noqa: N802
        """Block until every rank of the communicator has arrived."""
        self._context.barrier.wait()

    def Allgather(  # noqa: N802
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All ranks gather every rank's contribution (rank order)."""
        gathered = self._exchange_buffers("Allgather", sendbuf)
        if recvbuf is None:
            recvbuf = np.empty((self.size,) + sendbuf.shape, dtype=sendbuf.dtype)
        for index, chunk in enumerate(gathered):
            np.copyto(recvbuf[index], chunk)
        return recvbuf

    def Reduce(self, sendbuf: np.ndarray, root: int = 0) -> Optional[np.ndarray]:  # noqa: N802
        """Element-wise sum onto ``root``, added in rank order; ``None`` elsewhere."""
        if not 0 <= root < self.size:
            raise CommunicatorError(f"root {root} outside communicator of size {self.size}")
        gathered = self._exchange_buffers("Reduce", sendbuf)
        if self.rank != root:
            return None
        # No other rank reads the deposits' values, so the root may add into
        # rank 0's copy in place.
        result = gathered[0]
        for buf in gathered[1:]:
            np.add(result, buf, out=result)
        return result

    # ------------------------------------------------------------------ #
    # Sub-communicators
    # ------------------------------------------------------------------ #
    def Split(self, color: int, key: Optional[int] = None) -> "SimCommunicator":  # noqa: N802
        """Partition the communicator by ``color``; order ranks by ``key``.

        Mirrors ``MPI_Comm_split``: ranks passing the same ``color`` form a
        new communicator, ordered by ``(key, old_rank)``.
        """
        key = self.rank if key is None else int(key)
        gathered = self._exchange("Split", (int(color), key, self.rank))
        members = sorted((k, r) for c, k, r in gathered if c == int(color))
        group = tuple(r for _, r in members)
        ctx = self._context
        with ctx.lock:
            if group not in ctx._split_cache:
                ctx._split_cache[group] = _Context(len(group))
            new_context = ctx._split_cache[group]
        # Every rank must observe the cached context before any group starts
        # issuing collectives on the new communicator.
        ctx.barrier.wait()
        return SimCommunicator(group.index(self.rank), len(group), new_context)
