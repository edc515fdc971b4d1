"""The single-node FDK driver: whole-stack, out-of-core and online.

Filtering all ``Np`` projections before back-projecting any would hold
two full ``(Np, Nv, Nu)`` arrays at once.  This package runs that handoff
as a *chunk iterator* pipeline instead — an in-memory whole stack too, in
default chunks of :data:`~repro.streaming.chunks.DEFAULT_CHUNK_SIZE`
projections per backend worker — so reconstruction holds one chunk of
filtered rows at a time, can (a) bound its working set by an explicit
``memory_budget_bytes`` for stacks that exceed node RAM, and (b) start
before acquisition finishes, consuming projections through
:class:`~repro.pipeline.CircularBuffer` — the paper's "instant FDK"
overlap of acquisition and reconstruction.

The pieces:

* :mod:`~repro.streaming.chunks` — chunk planning and the working-set
  budget arithmetic (:func:`plan_chunks`, :func:`resolve_chunk_size`,
  :func:`parse_byte_size`);
* :mod:`~repro.streaming.sources` — the :class:`ProjectionChunkSource`
  protocol and its three implementations (in-memory stack, PFS-backed
  reader, online circular-buffer consumer);
* :mod:`~repro.streaming.reconstructor` — the
  :class:`StreamingReconstructor` executor (``reconstruct_stack`` for an
  in-memory stack, ``reconstruct`` for a source), whose runs are
  bit-identical at every chunk size on every backend by construction.

The same plan/Session/CLI seams drive it: set ``streaming: true`` (plus
optional ``chunk_size`` / ``memory_budget_bytes``) on a
:class:`~repro.api.ReconstructionPlan`, or pass ``--stream`` /
``--chunk-size`` / ``--memory-budget`` to ``repro reconstruct``.
"""

from .chunks import (
    chunk_working_set_bytes,
    parse_byte_size,
    plan_chunks,
    resolve_chunk_size,
    whole_stack_working_set_bytes,
)
from .reconstructor import StreamingReconstructor
from .sources import (
    OnlineChunkSource,
    PFSChunkSource,
    ProjectionChunk,
    ProjectionChunkSource,
    StackChunkSource,
    StreamingError,
    stream_stack,
)

__all__ = [
    "OnlineChunkSource",
    "PFSChunkSource",
    "ProjectionChunk",
    "ProjectionChunkSource",
    "StackChunkSource",
    "StreamingError",
    "StreamingReconstructor",
    "chunk_working_set_bytes",
    "parse_byte_size",
    "plan_chunks",
    "resolve_chunk_size",
    "stream_stack",
    "whole_stack_working_set_bytes",
]
