"""Chunk planning for streaming reconstruction.

Every single-node run hands filtered rows to the back-projection in bounded
*chunks* of consecutive projections — a whole in-memory stack too, so no
run holds a second ``(Np, Nv, Nu)`` array of filtered rows.  This module
owns the arithmetic of that decomposition:

* :func:`plan_chunks` — the exact partition of ``range(Np)`` into
  consecutive ``[start, stop)`` windows (full coverage, no overlap, order
  preserved — the invariants the Hypothesis suite pins);
* :func:`chunk_working_set_bytes` — a deliberate *over*-estimate of the
  transient memory one chunk pushes through the shared filtering driver
  (mirroring the tiled backend's ``_block_bytes`` discipline: the
  estimate must bound reality, not flatter it);
* :func:`resolve_chunk_size` — turn an explicit ``chunk_size`` and/or a
  ``memory_budget_bytes`` (or, with neither, the backend's worker count)
  into the chunk size actually executed, raising a clear
  :class:`ValueError` when the budget cannot fit even one projection
  instead of thrashing.

The budget bounds the **streaming working set**: the raw and filtered rows
of the chunks in flight plus the filter's row-group buffers, over-counted
(see :func:`per_projection_working_set_bytes`).  It deliberately excludes
the output volume and the back-projection workspace — those are bounded
separately (the volume is the irreducible output; each shard's column
tables and fixed Z-chunk workspace by the tiled backend's ``byte_budget``,
which every non-``reference`` backend name runs under — allocated when a
chunk's back-projection starts and released when it ends, so they never sit
under the next chunk's filtering peak) and exist identically at every chunk
size, so including them would make every budget comparison a tautology.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..core.filtering import canonical_fft_length
from ..core.geometry import CBCTGeometry

__all__ = [
    "chunk_working_set_bytes",
    "parse_byte_size",
    "plan_chunks",
    "resolve_chunk_size",
    "whole_stack_working_set_bytes",
]

#: Projections per backend worker in a chunk when neither ``chunk_size``
#: nor a budget is given.  A chunk costs each stage one pool hand-off and a
#: cold start of its caches, 50-150 µs; per worker, so each worker's share
#: of a chunk stays the same.  ``Session.run`` in ms on a 2-vCPU Xeon,
#: medians of alternating fresh processes (ten per cell for ``parallel(2)``,
#: six for ``vectorized``):
#:
#: ===========  ==========================  ==========================
#: per worker   96x96x128->64^3             512x64x256->16^3
#:              vectorized / parallel(2)    vectorized / parallel(2)
#: ===========  ==========================  ==========================
#: one chunk    50.0 / 27.2                 52.6 / 30.4
#:          16  50.5 / 28.0                 52.0 / 30.0
#:          32  48.9 / 27.2                 50.9 / 29.8
#: ===========  ==========================  ==========================
#:
#: 16 per worker slowed ``parallel(2)`` on the first problem in 8 of 10
#: pairs; 32 holds both backends flat or faster, with 4 MiB of filtered rows
#: in flight on the wide detector instead of 32 MiB.
DEFAULT_CHUNK_SIZE = 32


def plan_chunks(num_projections: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Partition ``range(num_projections)`` into consecutive chunks.

    Returns ``[(start, stop), ...]`` with ``stop - start <= chunk_size``;
    the windows cover every index exactly once, never overlap, and are
    ordered — the properties that make chunked accumulation bit-identical
    to the whole-stack sum.
    """
    if isinstance(num_projections, bool) or not isinstance(num_projections, int):
        raise ValueError(
            f"num_projections must be an integer, got {num_projections!r}"
        )
    if num_projections < 1:
        raise ValueError(
            f"num_projections must be positive, got {num_projections}"
        )
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise ValueError(f"chunk_size must be an integer, got {chunk_size!r}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        (start, min(start + chunk_size, num_projections))
        for start in range(0, num_projections, chunk_size)
    ]


def per_projection_working_set_bytes(geometry: CBCTGeometry) -> int:
    """Budgeted transient bytes per ``(Nv, Nu)`` projection of a chunk.

    The formula is the whole-chunk filter as it was written — raw rows,
    weighted product, float64 redundancy intermediate, complex128 spectrum
    and float64 inverse over the canonical padded length
    (:func:`~repro.core.filtering.canonical_fft_length`), filtered output —
    kept as the unit of account: budgets, chunk counts and stored plans are
    expressed in it.  It is not what runs.  No backend allocates those wide
    buffers per chunk any more, the tiled backends transform at a shorter
    length, and a run holds far less (``tests/test_streaming.py`` traces
    one): the filter is fused per row group, so a chunk in flight is its raw
    and filtered float32 rows, one chunk at a time, plus each filtering
    thread's :data:`~repro.core.filtering.GROUP_ROWS` rows of buffers.
    """
    nv, nu = int(geometry.nv), int(geometry.nu)
    pad = canonical_fft_length(nu)
    row_bytes = nv * nu * (4 + 4 + 8 + 4)  # raw + weighted + f64 + filtered
    spectrum_bytes = nv * (pad // 2 + 1) * 16  # complex128 rfft bins, as written
    inverse_bytes = nv * pad * 8  # float64 irfft over the padded length, as written
    return row_bytes + spectrum_bytes + inverse_bytes


def chunk_working_set_bytes(geometry: CBCTGeometry, chunk_size: int) -> int:
    """Streaming working set of one chunk of ``chunk_size`` projections."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return int(chunk_size) * per_projection_working_set_bytes(geometry)


def whole_stack_working_set_bytes(
    geometry: CBCTGeometry, num_projections: Optional[int] = None
) -> int:
    """Working set of ``num_projections`` (default: all) as one chunk."""
    np_ = geometry.np_ if num_projections is None else int(num_projections)
    return chunk_working_set_bytes(geometry, np_)


def resolve_chunk_size(
    geometry: CBCTGeometry,
    num_projections: int,
    *,
    chunk_size: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    workers: int = 1,
) -> int:
    """The chunk size a run actually executes, streamed or whole-stack.

    * neither given — :data:`DEFAULT_CHUNK_SIZE` per backend worker
      (``workers``), capped at the stack;
    * ``chunk_size`` only — used as-is (capped at the stack);
    * budget only — the largest chunk whose working set fits the budget;
    * both — the explicit chunk size, rejected if its working set exceeds
      the budget (an impossible request must fail, not silently shrink).

    A budget too small for even a single projection raises
    :class:`ValueError` naming the minimum feasible budget, and either knob
    that is not a true positive integer raises as
    :meth:`ReconstructionPlan.validate <repro.api.ReconstructionPlan.validate>`
    does — never truncated to one.
    """
    if num_projections < 1:
        raise ValueError(
            f"num_projections must be positive, got {num_projections}"
        )
    for name, value in (("chunk_size", chunk_size),
                        ("memory_budget_bytes", memory_budget_bytes)):
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < 1
        ):
            raise ValueError(f"{name} must be a positive integer (got {value!r})")
    if memory_budget_bytes is None:
        if chunk_size is None:
            return min(DEFAULT_CHUNK_SIZE * workers, num_projections)
        return min(chunk_size, num_projections)
    per = per_projection_working_set_bytes(geometry)
    largest_fitting = memory_budget_bytes // per
    if largest_fitting < 1:
        raise ValueError(
            f"memory_budget_bytes={memory_budget_bytes} cannot stream even "
            f"one {geometry.nv}x{geometry.nu} projection through the filter "
            f"pipeline (working set ~{per} bytes/projection); raise the "
            f"budget to at least {per} bytes"
        )
    if chunk_size is not None:
        chunk_size = min(chunk_size, num_projections)
        if chunk_size > largest_fitting:
            raise ValueError(
                f"chunk_size={chunk_size} needs a working set of "
                f"~{chunk_working_set_bytes(geometry, chunk_size)} bytes, "
                f"exceeding memory_budget_bytes={memory_budget_bytes}; the "
                f"largest chunk that fits is {largest_fitting}"
            )
        return chunk_size
    return min(largest_fitting, num_projections)


_BYTE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1 << 10, "kb": 1 << 10, "kib": 1 << 10,
    "m": 1 << 20, "mb": 1 << 20, "mib": 1 << 20,
    "g": 1 << 30, "gb": 1 << 30, "gib": 1 << 30,
}


def parse_byte_size(text) -> int:
    """Parse a byte count like ``268435456``, ``256MiB`` or ``1.5G``.

    Suffixes are binary (``k``/``M``/``G`` and their ``iB``/``B`` forms,
    case-insensitive).  The result must be a positive whole number of
    bytes; anything else raises :class:`ValueError` (the CLI exit-2 path).
    """
    if isinstance(text, bool):
        raise ValueError(f"byte size must be a number, got {text!r}")
    if isinstance(text, (int, float)):
        text = str(text)
    match = re.fullmatch(
        r"\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*", str(text)
    )
    if not match:
        raise ValueError(
            f"cannot parse byte size {text!r} (expected e.g. 268435456, "
            "64MiB, 1.5G)"
        )
    number, suffix = match.groups()
    factor = _BYTE_SUFFIXES.get(suffix.lower())
    if factor is None:
        raise ValueError(
            f"unknown byte-size suffix {suffix!r} in {text!r} "
            "(expected k/M/G, kB/MB/GB or kiB/MiB/GiB)"
        )
    value = float(number) * factor
    if value <= 0 or value != int(value):
        raise ValueError(
            f"byte size {text!r} must be a positive whole number of bytes"
        )
    return int(value)
