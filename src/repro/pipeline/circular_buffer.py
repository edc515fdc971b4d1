"""Bounded circular buffer between an acquisition thread and the reconstructor.

The paper's per-rank threads "exchange data with each other using circular
buffers" (Section 4.1.3).  The rank runtime here runs its stages in order
(see :mod:`~repro.pipeline.rank_runtime`), so the ring's user is online
acquisition: :class:`~repro.streaming.sources.OnlineChunkSource` takes
projections from a scanner thread on one.  It is a classic bounded
producer/consumer ring: the producer blocks when the buffer is full
(back-pressure keeps host memory bounded), the consumer blocks when it is
empty, and the producer signals completion by closing the buffer.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

__all__ = ["BufferClosed", "CircularBuffer"]

T = TypeVar("T")


class BufferClosed(RuntimeError):
    """Raised when putting into a buffer that has been closed."""


class CircularBuffer(Generic[T]):
    """A bounded, thread-safe FIFO with close semantics.

    Parameters
    ----------
    capacity:
        Maximum number of items held at once; the paper sizes this so that a
        slow consumer throttles the producer instead of exhausting memory.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._items: Deque[T] = deque()
        self._closed = False
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.total_put = 0
        self.total_got = 0
        self.high_watermark = 0

    # ------------------------------------------------------------------ #
    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Append an item, blocking while the buffer is full."""
        with self._not_full:
            if self._closed:
                raise BufferClosed("cannot put into a closed buffer")
            while len(self._items) >= self.capacity:
                if not self._not_full.wait(timeout=timeout):
                    raise TimeoutError("CircularBuffer.put timed out")
                if self._closed:
                    raise BufferClosed("buffer closed while waiting to put")
            self._items.append(item)
            self.total_put += 1
            self.high_watermark = max(self.high_watermark, len(self._items))
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[T]:
        """Pop the oldest item; returns ``None`` once closed and drained."""
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    raise TimeoutError("CircularBuffer.get timed out")
            item = self._items.popleft()
            self.total_got += 1
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Mark the stream as finished; readers drain the remainder then get ``None``."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[T]:
        """Iterate until the buffer is closed and drained."""
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

