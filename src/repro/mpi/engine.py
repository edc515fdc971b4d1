"""SPMD execution engine: run an MPI-style program with N in-process ranks.

``run_spmd`` plays the role of ``mpiexec -n N python program.py`` for the
simulated communicator: it creates the world context, spawns one thread per
rank, runs the rank function everywhere and collects either the per-rank
return values or the first exception (all ranks are joined before the error
is re-raised, so a failing test cannot leak threads).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .communicator import SimCommunicator, _Context

__all__ = [
    "SpmdError",  # repro-lint: disable=dead-export -- what run_spmd raises
    "run_spmd",
]


@dataclass
class RankFailure:
    """Captured exception from one rank (its ``__traceback__`` included)."""

    rank: int
    exception: BaseException


class SpmdError(RuntimeError):
    """Raised when one or more ranks of an SPMD run fail."""

    def __init__(self, failures: Sequence[RankFailure]):
        self.failures = list(failures)
        summary = "; ".join(f"rank {f.rank}: {f.exception!r}" for f in self.failures)
        super().__init__(f"{len(self.failures)} rank(s) failed: {summary}")


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    name: str = "world",
    timeout: Optional[float] = 600.0,
    **kwargs: Any,
) -> List[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``n_ranks`` simulated MPI ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks (threads) to launch.
    fn:
        The rank program.  Its first argument is the rank's
        :class:`~repro.mpi.communicator.SimCommunicator`.
    timeout:
        Per-thread join timeout in seconds; ``None`` waits forever.  A rank
        still alive after the timeout indicates a deadlock (e.g. mismatched
        collectives) and raises :class:`SpmdError`.

    Returns
    -------
    list
        The return value of every rank, indexed by rank.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")

    context = _Context(n_ranks)
    results: List[Any] = [None] * n_ranks
    failures: List[RankFailure] = []
    failures_lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = SimCommunicator(rank=rank, size=n_ranks, _context=context)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - report every rank failure
            with failures_lock:
                failures.append(RankFailure(rank=rank, exception=exc))
            # Abort every barrier (sub-communicators' too) so sibling ranks
            # blocked in a collective see a BrokenBarrierError, not a deadlock.
            context.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"{name}-rank{rank}")
        for rank in range(n_ranks)
    ]
    for thread in threads:
        thread.start()
    hung = []
    for rank, thread in enumerate(threads):
        thread.join(timeout=timeout)
        if thread.is_alive():
            hung.append(rank)
    if hung:
        context.abort()
        for thread in threads:
            thread.join(timeout=5.0)
        raise SpmdError(
            [RankFailure(rank, TimeoutError(f"rank {rank} did not finish")) for rank in hung]
        )
    if failures:
        raise SpmdError(sorted(failures, key=lambda f: f.rank))
    return results
