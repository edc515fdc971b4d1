"""Projection chunk sources: where a streaming reconstruction reads from.

A :class:`ProjectionChunkSource` hands the :class:`StreamingReconstructor`
consecutive :class:`ProjectionChunk` windows of the acquisition, in order,
without ever requiring the whole ``(Np, Nv, Nu)`` stack in memory.  Three
sources cover the paper's regimes:

* :class:`StackChunkSource` — an in-memory stack, sliced without copying
  (zero-cost adapter; what ``Session.run`` wraps around its input);
* :class:`PFSChunkSource` — the out-of-core path: chunks are read on
  demand from a :class:`~repro.pfs.SimulatedPFS` projection dataset, so
  peak memory is one chunk, not one acquisition;
* :class:`OnlineChunkSource` — the *instant* path: projections arrive one
  at a time through a :class:`~repro.pipeline.CircularBuffer` while the
  gantry is still turning, with a bounded reorder window for
  out-of-order completion.

Fault semantics are deliberately loud: a source that cannot deliver the
full acquisition (producer died, stream closed early, an index arrived
twice, reordering exceeded the window) raises :class:`StreamingError` —
never a silent partial volume.  A stalled producer surfaces as the
:class:`TimeoutError` of the underlying buffer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..core.types import ProjectionStack
from ..pfs.projection_io import dataset_angles, read_projection_subset
from ..pfs.storage import SimulatedPFS
from ..pipeline.circular_buffer import BufferClosed, CircularBuffer

__all__ = [
    "OnlineChunkSource",
    "PFSChunkSource",
    "ProjectionChunk",  # repro-lint: disable=dead-export -- what a custom source's chunks() yields
    "ProjectionChunkSource",
    "StackChunkSource",
    "StreamingError",
    "stream_stack",
]


class StreamingError(RuntimeError):
    """A chunk source could not deliver the acquisition it promised."""


@dataclass(frozen=True)
class ProjectionChunk:
    """One consecutive window ``[start, stop)`` of the acquisition."""

    start: int
    stop: int
    stack: ProjectionStack

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"invalid chunk bounds [{self.start}, {self.stop})")
        if self.stack.np_ != self.stop - self.start:
            raise ValueError(
                f"chunk [{self.start}, {self.stop}) carries {self.stack.np_} "
                f"projections, expected {self.stop - self.start}"
            )

    @property
    def size(self) -> int:
        return self.stop - self.start


class ProjectionChunkSource(abc.ABC):
    """Protocol: iterate an acquisition as ordered projection chunks."""

    @property
    @abc.abstractmethod
    def num_projections(self) -> int:
        """Total projections this source will deliver (``Np``)."""

    @abc.abstractmethod
    def chunks(
        self, bounds: Sequence[Tuple[int, int]]
    ) -> Iterator[ProjectionChunk]:
        """Yield one :class:`ProjectionChunk` per requested ``(start, stop)``.

        ``bounds`` is a :func:`~repro.streaming.plan_chunks` partition of
        ``range(num_projections)``; implementations must yield exactly one
        chunk per bound, in order, or raise :class:`StreamingError`.
        """


class StackChunkSource(ProjectionChunkSource):
    """Chunks over an in-memory stack (views, no copies).

    Slicing ``data[start:stop]`` along the projection axis of a contiguous
    stack is itself contiguous, so each chunk aliases the parent storage —
    the adapter adds no memory beyond the stack the caller already holds.
    """

    def __init__(self, stack: ProjectionStack):
        self._stack = stack

    @property
    def num_projections(self) -> int:
        return self._stack.np_

    @property
    def filtered(self) -> bool:
        return self._stack.filtered

    def chunks(
        self, bounds: Sequence[Tuple[int, int]]
    ) -> Iterator[ProjectionChunk]:
        for start, stop in bounds:
            yield ProjectionChunk(
                start=start,
                stop=stop,
                stack=ProjectionStack(
                    data=self._stack.data[start:stop],
                    angles=self._stack.angles[start:stop],
                    filtered=self._stack.filtered,
                ),
            )


class PFSChunkSource(ProjectionChunkSource):
    """Chunks read on demand from a PFS projection dataset.

    The dataset layout is the one :func:`repro.pfs.write_projection_dataset`
    produces (one object per projection plus the angles vector); only the
    angles are held resident — projection data lives on the PFS until its
    chunk is requested.
    """

    def __init__(self, pfs: SimulatedPFS):
        self._pfs = pfs
        self._angles = np.asarray(dataset_angles(pfs), dtype=np.float64)
        if self._angles.ndim != 1 or self._angles.shape[0] < 1:
            raise StreamingError(
                "PFS dataset has no projections (empty angles vector)"
            )

    @property
    def num_projections(self) -> int:
        return int(self._angles.shape[0])

    def chunks(
        self, bounds: Sequence[Tuple[int, int]]
    ) -> Iterator[ProjectionChunk]:
        for start, stop in bounds:
            try:
                stack = read_projection_subset(self._pfs, range(start, stop))
            except (KeyError, IndexError) as exc:
                raise StreamingError(
                    f"PFS dataset is missing projections in [{start}, {stop}): "
                    f"{exc}"
                ) from exc
            yield ProjectionChunk(start=start, stop=stop, stack=stack)


class OnlineChunkSource(ProjectionChunkSource):
    """Chunks assembled from projections arriving through a circular buffer.

    The producer (the "acquisition") puts ``(index, angle, projection)``
    triples into ``buffer`` — in any order within ``reorder_window`` of the
    oldest outstanding chunk — and closes the buffer after the last one.
    Reconstruction overlaps acquisition: each chunk is released as soon as
    its window is complete, while later projections are still arriving.

    Parameters
    ----------
    buffer:
        The :class:`~repro.pipeline.CircularBuffer` joining producer and
        consumer; its capacity provides the back-pressure bound.
    num_projections:
        Total projections the producer has promised (``Np``).
    timeout:
        Per-item wait in seconds; a producer that stalls longer raises the
        buffer's :class:`TimeoutError` (``None`` waits forever).
    reorder_window:
        How far past the current chunk an early arrival may run before the
        source declares the stream incoherent (default: the buffer
        capacity, the natural bound on in-flight items).
    """

    def __init__(
        self,
        buffer: CircularBuffer,
        num_projections: int,
        *,
        timeout: Optional[float] = None,
        reorder_window: Optional[int] = None,
    ):
        if num_projections < 1:
            raise ValueError(
                f"num_projections must be positive, got {num_projections}"
            )
        if reorder_window is not None and reorder_window < 0:
            raise ValueError(
                f"reorder_window must be non-negative, got {reorder_window}"
            )
        self._buffer = buffer
        self._np = int(num_projections)
        self._timeout = timeout
        self._window = (
            int(reorder_window) if reorder_window is not None else buffer.capacity
        )

    @property
    def num_projections(self) -> int:
        return self._np

    def _receive(self, pending: Dict[int, Tuple[float, np.ndarray]], stop: int):
        """Pull one triple into ``pending``, enforcing stream coherence."""
        item = self._buffer.get(self._timeout)
        if item is None:
            raise StreamingError(
                f"projection stream closed after {len(pending)} pending of "
                f"{self._np} promised projections — refusing to reconstruct "
                "a partial acquisition"
            )
        try:
            index, angle, projection = item
            index = int(index)
        except (TypeError, ValueError) as exc:
            raise StreamingError(
                f"malformed stream item {item!r}: expected "
                "(index, angle, projection)"
            ) from exc
        if not 0 <= index < self._np:
            raise StreamingError(
                f"projection index {index} outside the promised acquisition "
                f"of {self._np} projections"
            )
        if index in pending:
            raise StreamingError(f"projection {index} arrived twice")
        pending[index] = (float(angle), np.asarray(projection))
        ahead = sum(1 for i in pending if i >= stop)
        if ahead > self._window:
            raise StreamingError(
                f"{ahead} projections arrived more than one chunk ahead, "
                f"exceeding the reorder window of {self._window}; the "
                "producer is completing too far out of order"
            )

    def chunks(
        self, bounds: Sequence[Tuple[int, int]]
    ) -> Iterator[ProjectionChunk]:
        pending: Dict[int, Tuple[float, np.ndarray]] = {}
        delivered = 0
        for start, stop in bounds:
            if index_lt := [i for i in pending if i < start]:
                raise StreamingError(
                    f"projection {min(index_lt)} arrived after its chunk was "
                    "already delivered (duplicate or out-of-range index)"
                )
            while any(i not in pending for i in range(start, stop)):
                self._receive(pending, stop)
            angles = []
            images = []
            for i in range(start, stop):
                angle, image = pending.pop(i)
                angles.append(angle)
                images.append(image)
            delivered += stop - start
            yield ProjectionChunk(
                start=start,
                stop=stop,
                stack=ProjectionStack(
                    data=np.stack(images, axis=0),
                    angles=np.asarray(angles, dtype=np.float64),
                ),
            )
        if delivered != self._np or pending:
            raise StreamingError(
                f"chunk plan covered {delivered} of {self._np} promised "
                f"projections with {len(pending)} left over — the plan and "
                "the stream disagree about the acquisition"
            )


def stream_stack(
    stack: ProjectionStack,
    buffer: CircularBuffer,
    *,
    order: Optional[Sequence[int]] = None,
    close: bool = True,
) -> int:
    """Produce a stack into a buffer, one ``(index, angle, projection)`` at a time.

    The convenience producer for tests and examples: run it on a thread to
    simulate an acquisition feeding :class:`OnlineChunkSource`.  ``order``
    permutes the emission sequence (the *indices* still identify each
    projection, so a permuted emission models out-of-order completion).
    Returns the number of projections emitted; ``close=True`` closes the
    buffer afterwards so the consumer sees end-of-stream.
    """
    indices = range(stack.np_) if order is None else order
    emitted = 0
    try:
        for index in indices:
            index = int(index)
            buffer.put((index, float(stack.angles[index]), stack.data[index]))
            emitted += 1
    except BufferClosed:
        pass
    finally:
        if close:
            buffer.close()
    return emitted
