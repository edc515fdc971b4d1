#!/usr/bin/env python
"""Online streaming reconstruction with ``repro.streaming``.

A real scanner does not hand you a finished projection stack: frames
arrive one at a time, sometimes slightly out of order, while the
reconstruction is already running.  This example plays the acquisition
side on a producer thread — pushing ``(index, angle, frame)`` triples
through a bounded :class:`~repro.pipeline.CircularBuffer` — while a
:class:`~repro.streaming.StreamingReconstructor` consumes them in fixed
chunks on the other end, filtering and accumulating each chunk as soon
as it is complete.  The consumer never holds more than one chunk of
projections, yet the result is **bit-identical** to the offline
whole-stack reconstruction of the same frames.

Run:  python examples/streaming_online.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import default_geometry_for_problem
from repro.core.types import ProjectionStack
from repro.pipeline import CircularBuffer
from repro.streaming import (
    OnlineChunkSource,
    StreamingReconstructor,
    chunk_working_set_bytes,
    stream_stack,
    whole_stack_working_set_bytes,
)

CHUNK_SIZE = 8


def main() -> None:
    geometry = default_geometry_for_problem(
        nu=96, nv=64, np_=48, nx=48, ny=48, nz=24
    )
    rng = np.random.default_rng(0)
    stack = ProjectionStack(
        data=rng.standard_normal(
            (geometry.np_, geometry.nv, geometry.nu)
        ).astype(np.float32),
        angles=geometry.angles,
    )

    # The scanner: a producer thread emitting frames in *almost* sorted
    # order (adjacent pairs swapped — the kind of jitter a multi-detector
    # readout produces).  The buffer holds one chunk, so the producer
    # blocks whenever the reconstruction falls behind: bounded memory on
    # both sides of the pipe.
    order = list(range(geometry.np_))
    for i in range(0, geometry.np_ - 1, 2):
        order[i], order[i + 1] = order[i + 1], order[i]
    buffer = CircularBuffer(capacity=CHUNK_SIZE)
    producer = threading.Thread(
        target=stream_stack, args=(stack, buffer), kwargs={"order": order}
    )
    producer.start()

    # The consumer: chunks of CHUNK_SIZE frames are filtered and
    # back-projected as they complete.  The reorder window (defaulting to
    # the buffer capacity) bounds how far ahead the scanner may run; a
    # stalled or truncated acquisition raises StreamingError instead of
    # silently returning a partial volume.
    source = OnlineChunkSource(buffer, geometry.np_, timeout=30.0)
    with StreamingReconstructor(
        geometry, backend="vectorized", chunk_size=CHUNK_SIZE
    ) as reconstructor:
        result = reconstructor.reconstruct(source)
    producer.join()

    print(
        f"streamed {result.num_projections} projections in "
        f"{result.chunk_count} chunks of <= {result.chunk_size}"
    )
    print(
        f"working set: {result.working_set_bytes / 1e6:.1f} MB per chunk vs "
        f"{whole_stack_working_set_bytes(geometry) / 1e6:.1f} MB whole-stack"
    )
    print(
        f"filter {result.filter_seconds * 1e3:.1f} ms + backproject "
        f"{result.backprojection_seconds * 1e3:.1f} ms, "
        f"peak RSS {result.peak_rss_bytes / 1e6:.1f} MB"
    )
    assert result.working_set_bytes == chunk_working_set_bytes(
        geometry, CHUNK_SIZE
    )

    # The punchline: the online, out-of-order, chunk-at-a-time volume is
    # bit-identical to the offline whole-stack reconstruction.
    offline = StreamingReconstructor(
        geometry, backend="vectorized"
    ).reconstruct_stack(stack)
    exact = np.array_equal(result.volume.data, offline.volume.data)
    print(f"bit-identical to the offline whole-stack volume: {exact}")
    assert exact


if __name__ == "__main__":
    main()
