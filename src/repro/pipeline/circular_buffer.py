"""Bounded circular buffer joining the pipeline threads (Figure 4a).

The paper's three per-rank threads "execute independently and exchange data
with each other using circular buffers" (Section 4.1.3).  This is a classic
bounded producer/consumer ring: the producer blocks when the buffer is full
(back-pressure keeps host memory bounded), the consumer blocks when it is
empty, and the producer signals completion by closing the buffer.

:func:`ahead` is the one way a stage is put on such a ring: the rank runtime
chains two of them (filter ‖ AllGather ‖ back-project).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, Iterator, List, Optional, TypeVar

from ..obs import get_tracer, use_tracer

__all__ = ["BufferClosed", "CircularBuffer", "ahead"]

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


def ahead(steps: Iterator[T], depth: int, *, name: str) -> Iterator[T]:
    """Yield ``steps`` as a thread called ``name`` runs them, up to ``depth``
    steps ahead of the consumer (one stage boundary of Fig. 4a).

    A step starts only while at most ``depth`` others are unfinished — the one
    the consumer holds and those waiting in, or being made for, the buffer.
    Either side stopping releases the other: the producer closes the buffer
    behind its error, raised here after the finished steps (its own exception,
    not the :class:`BufferClosed` fallout); closing this generator never leaves
    a ``put`` blocked, joins the thread and closes ``steps``.
    """
    ready: CircularBuffer = CircularBuffer(depth)
    slots = threading.Semaphore(depth + 1)  # steps in flight
    errors: List[BaseException] = []
    tracer = get_tracer()  # ambient on the consuming thread

    def produce() -> None:
        try:
            with use_tracer(tracer):
                while slots.acquire() and not ready.closed:
                    ready.put(next(steps))
        except (StopIteration, BufferClosed):
            pass  # the steps are exhausted, or the consumer has left
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            ready.close()

    thread = threading.Thread(target=produce, name=name)
    thread.start()
    try:
        for step in ready:
            yield step
            slots.release()  # the step just consumed is finished
        if errors:
            raise errors[0]
    finally:
        ready.close()
        slots.release()
        thread.join()
        steps.close()
