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

Supported operations (the subset iFDK needs, mirroring mpi4py's upper-case
buffer API): ``Barrier``, ``Bcast``, ``Scatter``, ``Gather``, ``Allgather``,
``Reduce``, ``Allreduce``, ``Send``/``Recv`` and ``Split``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .datatypes import ReduceOp, validate_buffer

__all__ = ["SimCommunicator", "CommunicatorError"]


class CommunicatorError(RuntimeError):
    """Raised on misuse of the simulated communicator (SPMD violations)."""


class _Context:
    """Shared state of one communicator (one instance per rank group)."""

    def __init__(self, size: int, name: str):
        self.size = size
        self.name = name
        self.barrier = threading.Barrier(size)
        self.lock = threading.Lock()
        self.slots: Dict[str, Any] = {}
        self.point_to_point: Dict[Tuple[int, int, int], "queue.Queue[np.ndarray]"] = {}
        self.bytes_moved = 0
        self.collective_calls: Dict[str, int] = {}
        self._split_cache: Dict[Any, "_Context"] = {}

    # ------------------------------------------------------------------ #
    def p2p_queue(self, src: int, dst: int, tag: int) -> "queue.Queue[np.ndarray]":
        key = (src, dst, tag)
        with self.lock:
            if key not in self.point_to_point:
                self.point_to_point[key] = queue.Queue()
            return self.point_to_point[key]

    def abort(self) -> None:
        """Break this communicator's barrier and every ``Split`` child's, so
        a rank blocked in any derived collective stops waiting for a dead one."""
        self.barrier.abort()
        with self.lock:
            children = list(self._split_cache.values())
        for child in children:
            child.abort()

    def account(self, operation: str, nbytes: int) -> None:
        with self.lock:
            self.bytes_moved += int(nbytes)
            self.collective_calls[operation] = self.collective_calls.get(operation, 0) + 1


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
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._context.name

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved through this communicator (all ranks)."""
        return self._context.bytes_moved

    @property
    def collective_calls(self) -> Dict[str, int]:
        """Histogram of collective invocations (all ranks)."""
        return dict(self._context.collective_calls)

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py-style name
        return self.rank

    def Get_size(self) -> int:  # noqa: N802
        return self.size

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
        slot_key = f"{operation}"
        with ctx.lock:
            store = ctx.slots.setdefault(slot_key, [None] * self.size)
            store[self.rank] = payload
        ctx.barrier.wait()
        with ctx.lock:
            gathered = list(ctx.slots[slot_key])
        # The second barrier guarantees every rank has read the slot before
        # any rank can deposit into it again for the next collective.
        ctx.barrier.wait()
        return gathered

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def Barrier(self) -> None:  # noqa: N802
        """Block until every rank of the communicator has arrived."""
        self._context.account("Barrier", 0)
        self._context.barrier.wait()

    def Bcast(self, buffer: np.ndarray, root: int = 0) -> np.ndarray:  # noqa: N802
        """Broadcast ``buffer`` from ``root``; returns the received array."""
        validate_buffer(buffer)
        self._check_root(root)
        # Deposit a copy: the collective returns as soon as this rank is done,
        # so the caller may legally reuse its buffer immediately (MPI blocking
        # semantics) even though siblings read the deposit later.
        payload = np.array(buffer, copy=True) if self.rank == root else None
        gathered = self._exchange("Bcast", payload)
        source = gathered[root]
        self._context.account("Bcast", source.nbytes)
        if self.rank == root:
            return buffer
        np.copyto(buffer, source)
        return buffer

    def Scatter(  # noqa: N802
        self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int = 0
    ) -> np.ndarray:
        """Scatter equal chunks of ``sendbuf`` (at root) to every rank."""
        validate_buffer(recvbuf, "recvbuf")
        self._check_root(root)
        if self.rank == root:
            validate_buffer(sendbuf, "sendbuf")
            if sendbuf.shape[0] != self.size:
                raise CommunicatorError(
                    f"Scatter sendbuf first dimension ({sendbuf.shape[0]}) must equal "
                    f"communicator size ({self.size})"
                )
        gathered = self._exchange(
            "Scatter", np.array(sendbuf, copy=True) if self.rank == root else None
        )
        chunks = gathered[root]
        np.copyto(recvbuf, chunks[self.rank])
        self._context.account("Scatter", recvbuf.nbytes)
        return recvbuf

    def Gather(  # noqa: N802
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int = 0
    ) -> Optional[np.ndarray]:
        """Gather equal-size contributions onto ``root``."""
        validate_buffer(sendbuf, "sendbuf")
        self._check_root(root)
        gathered = self._exchange("Gather", np.array(sendbuf, copy=True))
        self._context.account("Gather", sendbuf.nbytes)
        if self.rank != root:
            return None
        if recvbuf is None:
            recvbuf = np.empty((self.size,) + sendbuf.shape, dtype=sendbuf.dtype)
        for index, chunk in enumerate(gathered):
            np.copyto(recvbuf[index], chunk)
        return recvbuf

    def Allgather(  # noqa: N802
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All ranks gather every rank's contribution (rank order)."""
        validate_buffer(sendbuf, "sendbuf")
        gathered = self._exchange("Allgather", np.array(sendbuf, copy=True))
        self._context.account("Allgather", sendbuf.nbytes * self.size)
        if recvbuf is None:
            recvbuf = np.empty((self.size,) + sendbuf.shape, dtype=sendbuf.dtype)
        for index, chunk in enumerate(gathered):
            np.copyto(recvbuf[index], chunk)
        return recvbuf

    def Reduce(  # noqa: N802
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: ReduceOp = ReduceOp.SUM,
        root: int = 0,
    ) -> Optional[np.ndarray]:
        """Element-wise reduction onto ``root``."""
        validate_buffer(sendbuf, "sendbuf")
        self._check_root(root)
        gathered = self._exchange("Reduce", np.array(sendbuf, copy=True))
        self._context.account("Reduce", sendbuf.nbytes)
        if self.rank != root:
            return None
        combined = op.combine(gathered)
        if recvbuf is None:
            return combined
        np.copyto(recvbuf, combined)
        return recvbuf

    def Allreduce(  # noqa: N802
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: ReduceOp = ReduceOp.SUM,
    ) -> np.ndarray:
        """Element-wise reduction delivered to every rank."""
        validate_buffer(sendbuf, "sendbuf")
        gathered = self._exchange("Allreduce", np.array(sendbuf, copy=True))
        self._context.account("Allreduce", sendbuf.nbytes * 2)
        combined = op.combine(gathered)
        if recvbuf is None:
            return combined
        np.copyto(recvbuf, combined)
        return recvbuf

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #
    def Send(self, buffer: np.ndarray, dest: int, tag: int = 0) -> None:  # noqa: N802
        """Send a copy of ``buffer`` to ``dest``."""
        validate_buffer(buffer)
        self._check_root(dest)
        q = self._context.p2p_queue(self.rank, dest, tag)
        self._context.account("Send", buffer.nbytes)
        q.put(np.array(buffer, copy=True))

    def Recv(  # noqa: N802
        self, buffer: np.ndarray, source: int, tag: int = 0, timeout: float = 60.0
    ) -> np.ndarray:
        """Receive into ``buffer`` from ``source`` (blocking, with timeout)."""
        validate_buffer(buffer)
        self._check_root(source)
        q = self._context.p2p_queue(source, self.rank, tag)
        try:
            received = q.get(timeout=timeout)
        except queue.Empty as exc:
            raise CommunicatorError(
                f"Recv from rank {source} (tag {tag}) timed out after {timeout}s"
            ) from exc
        if received.shape != buffer.shape:
            raise CommunicatorError(
                f"Recv shape mismatch: got {received.shape}, expected {buffer.shape}"
            )
        np.copyto(buffer, received)
        return buffer

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
        members = sorted(
            (k, r) for c, k, r in gathered if c == int(color)
        )
        ranks_in_group = [r for _, r in members]
        new_rank = ranks_in_group.index(self.rank)
        cache_key = ("split", tuple(ranks_in_group))
        ctx = self._context
        with ctx.lock:
            if cache_key not in ctx._split_cache:
                ctx._split_cache[cache_key] = _Context(
                    size=len(ranks_in_group),
                    name=f"{ctx.name}/color{color}",
                )
            new_context = ctx._split_cache[cache_key]
        # Every rank must observe the cached context before any group starts
        # issuing collectives on the new communicator.
        ctx.barrier.wait()
        return SimCommunicator(rank=new_rank, size=len(ranks_in_group), _context=new_context)

    # ------------------------------------------------------------------ #
    def _check_root(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"rank {rank} outside communicator of size {self.size}"
            )
