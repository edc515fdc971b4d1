"""The vectorized block kernels of the tiled backend: its NumPy executor.

Algorithm 2 always runs here.  Algorithm 4 runs here on a host without a C
compiler — elsewhere :mod:`repro.backends.native` executes the same
per-voxel operation sequence as compiled code (no column table, no Z chunks),
is proved against :func:`accumulate_proposed_block` with ``==`` before first
use, and everything below about chunking, tables and the GIL describes this
executor only.

Where the ``reference`` backend is a literal transcription of the paper's
algorithms (per-projection Python loops, chunked coordinate batches, SciPy
``map_coordinates`` fetches), these kernels restructure the same arithmetic
for NumPy throughput:

* **Filtering** uses the real-input FFT (``rfft``/``irfft``) in single
  precision end to end — the ramp response is real and even, so multiplying
  the half-spectrum is mathematically identical to the complex FFT path at
  half the transform work, and float32 transforms halve the bytes again.
  The tiled backends transform at the shortest exact length
  (:func:`repro.core.filtering.shortest_ramp_filter_response`: 768, not
  1024, for a 384-wide row).
* **Proposed back-projection (Algorithm 4)** hoists everything Theorems 2
  and 3 allow out of the Z loop *and* fuses the remaining work: for each
  projection the per-column detector coordinate ``u``, reciprocal ``f=1/z``
  and distance weight ``Wdis=f²`` are computed once per ``(i, j)`` column,
  the ``u`` interpolation **and** the distance weight are folded into a
  pre-gathered column table ``table[col, v] = Wdis·((1-du)·Q[v,u0]+du·Q[v,u0+1])``,
  and every Z slice then costs one multiply-add for ``v`` (affine in ``k``
  by Theorem 3) plus a 1-D linear interpolation into ``table``.  The
  explicit mirror-row reflection of Theorem 1 buys nothing here — the ``v``
  computation is already a single vectorized multiply-add — so all slices
  are evaluated directly, which also makes Z-slab decompositions bit-exact.
* **Standard back-projection (Algorithm 2)** evaluates the full three inner
  products per voxel as the paper prescribes, with a manual fused bilinear
  gather instead of chunked ``map_coordinates`` calls.

Memory layout and traffic
-------------------------

The kernels are bound by memory traffic, not arithmetic, so both are built
around what one projection x one tile has to move:

* The projection is kept inside a two-sample zero border on every side
  (:class:`BlockWorkspace`), so every out-of-detector fetch reads a stored
  zero and no kernel carries bounds masks.  The proposed kernel keeps it
  **transposed**, ``(Nu+4, Nv+4)`` — the paper's layout: a voxel column
  walks the detector along ``v``, so its table is one contiguous row and
  the table build is two contiguous row gathers (``take(axis=0)``) blended
  in place, and the Z loop's two samples are neighbours in memory.  The
  compiled kernel builds no table, so its plane stays **row-major**: ``Nv+4``
  rows at a power-of-two stride, filled by one ``memcpy`` per detector row.
* Only the **band** of detector rows a tile's Z range projects onto is
  gathered (:func:`_row_band`), so table cost follows slab thickness — an
  iFDK rank or a ``z_range`` slab does not pay for the whole detector.
* The Z loop runs in chunks of ``CHUNK_ELEMENTS`` voxels over a fixed
  workspace written through ``out=`` ufuncs.  Nothing ``(K, columns)``-sized
  is ever allocated: every array the loop allocates (the gather results)
  is one chunk or one table piece, small enough for the allocator to
  recycle instead of mapping and page-faulting fresh memory per projection
  — which is what kept two worker threads from scaling before.

All coordinates and interpolation weights are computed in float64 and each
sample is rounded to float32 exactly once, before a float32 blend — the same
rounding structure as the reference path, which is why the two agree to
~1e-7 relative RMSE (the conformance bound is 1e-5).  The operation sequence
per voxel (``v = slope·k + offset``, ``floor``, ``dv = v - v0``, ``clip``,
``lo·(1-dv) + hi·dv``) is fixed: ``tests/test_block_kernels.py`` holds both
kernels to the bit patterns of their frozen predecessors.  Index safety
rests on finite coordinates (``VolumeAccumulator`` rejects a source inside
the volume) plus the clip; every gather still runs with ``mode="raise"``.

The block kernels take explicit ``(k, y)`` sub-ranges and are elementwise in
the block, and each detector row's transform is independent of how rows are
grouped, so :mod:`repro.backends.tiled` may cut the work into any tiles,
chunks and row groups and still produce **bit-identical** results (asserted
by the conformance suite).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..core.filtering import _pocketfft


__all__ = [
    "rfft_ramp_filter",
    "BlockWorkspace",
    "accumulate_proposed_block",
]


@lru_cache(maxsize=8)
def _index_grids(ny: int, nx: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only float64 ``(j_grid, i_grid)`` meshes, shared across calls."""
    jj = np.arange(ny, dtype=np.float64)
    ii = np.arange(nx, dtype=np.float64)
    j_grid, i_grid = np.meshgrid(jj, ii, indexing="ij")
    j_grid.setflags(write=False)
    i_grid.setflags(write=False)
    return j_grid, i_grid


# --------------------------------------------------------------------------- #
# Filtering: single-precision real-FFT ramp convolution
# --------------------------------------------------------------------------- #
def rfft_ramp_filter(
    rows: np.ndarray, response: np.ndarray, tau: float, scale: float, out: np.ndarray
) -> None:
    """Convolve one zero-padded row group with the ramp response, in float32.

    The group kernel of :func:`repro.core.filtering.filter_projections` at
    the paper's precision (Alg. 1 is single precision): ``rfft`` of the padded
    rows as they stand, the complex64 half-spectrum times the float32
    half-response with ``tau * scale`` folded in (``pad//2 + 1`` float64
    products rounded once, 1-2 µs a call), in place, and the float32
    ``irfft``'s first ``Nu`` columns copied into ``out``.  ``pad`` is the
    response's length, whatever it is (even or odd): the tiled backends hand
    in :func:`~repro.core.filtering.shortest_ramp_filter_response`'s.  The
    ramp kernel is real and even, so this is the full complex-FFT product;
    against ``reference``'s complex128 one at the canonical pad the rows
    differ by ~1e-7 relative RMSE, at most ~1.4e-6 of the RMS at a sample
    (bounded at 1e-6 / 5e-6 by ``tests/test_filter_fusion.py``).  A row's
    bits do not depend on the rows it shares a call with.  The transforms'
    outputs are allocated, as ``scipy.fft``'s are.
    """
    pad = rows.shape[-1]
    if pad != response.shape[0] or pad < out.shape[-1]:
        raise ValueError("rows must be padded to the response length")
    fft = _pocketfft()
    spectrum = fft.rfft(rows)
    spectrum *= (response[: pad // 2 + 1] * (tau * scale)).astype(np.float32)
    out[...] = fft.irfft(spectrum, n=pad)[:, : out.shape[-1]]


# --------------------------------------------------------------------------- #
# Back-projection block kernels (elementwise in the (k, y) block)
# --------------------------------------------------------------------------- #
#: The NumPy executor's: voxels (slices x columns) per Z chunk of a tile, and
#: rows x band per piece of the column-table build — the size of every array
#: these kernels touch per step (the compiled executor has no chunks and does
#: not read it).  Chosen from this sweep of proposed back-projection, NumPy
#: executor, on a 2-vCPU Xeon
#: (4 MiB L2 per core), seconds with one worker / two workers:
#:
#: ==========  ===================  ====================
#: elements    96x96x128 -> 64^3    128x128x64 -> 128^3
#: ==========  ===================  ====================
#:     16 384  0.327 / 0.559        1.597 / 1.799
#:     32 768  0.334 / 0.345        1.499 / 1.071
#:     65 536  0.335 / 0.266        1.288 / 0.747
#:    131 072  0.339 / 0.236        1.255 / 0.635
#:    262 144  0.351 / 0.231        1.315 / 0.652
#:    524 288  0.350 / 0.226        1.267 / 0.774
#: (previous)  0.580 / 0.335        2.619 / 1.416
#: ==========  ===================  ====================
#:
#: (``previous`` is the kernel this one replaced.)  One worker barely cares.
#: Two do: every NumPy call re-takes the GIL, and below ~64k voxels per call
#: the workers spend their time queueing for it (two slower than one at
#: 16k).  Above 64k two workers gain another ~10 % while the workspace (32
#: bytes per chunk voxel and shard) doubles with every step — at 128k the
#: four-rank iFDK benchmark's peak RSS passes the previous kernel's (124 ->
#: 123-130 MiB), at 64k it stays 10 MiB under it.
CHUNK_ELEMENTS = 1 << 16

#: dtype of each ``(slices, columns)`` chunk buffer the kernels' ``out=``
#: ufuncs write, and how many float32 gather results a chunk allocates.
_CHUNK_BUFFERS = {
    "proposed": ((np.float64,) * 2 + (np.float32,) * 2 + (np.intp,), 2),
    "standard": ((np.float64,) * 3 + (np.float32,) * 4 + (np.intp,), 4),
}

#: Live bytes per chunk voxel of the hungrier kernel (the standard one):
#: what :func:`repro.backends.tiled._block_bytes` charges for a chunk.  One
#: gather more than a chunk allocates: the previous chunk's last result is
#: still bound while the next chunk's first gather runs.
CHUNK_BYTES_PER_ELEMENT = max(
    sum(np.dtype(dtype).itemsize for dtype in dtypes) + 4 * (gathers + 1)
    for dtypes, gathers in _CHUNK_BUFFERS.values()
)


def chunk_slices(n_slices: int, n_cols: int) -> int:
    """Slices per Z chunk of an ``(n_slices, n_cols)`` tile (at least one)."""
    return min(n_slices, max(1, CHUNK_ELEMENTS // n_cols))


def _padded_index(coord_int: np.ndarray, bound: int, origin=2.0) -> np.ndarray:
    """Map floor coordinates onto a double-zero-padded axis, in place.

    ``coord_int`` holds float64 ``floor`` values; on return it holds their
    (still float64, exactly integral) positions on an axis laid out as
    ``[0, 0, data[0..bound-1], 0, 0]``.  Clipping to ``[-2, bound]`` parks
    every out-of-range neighbour (and the neighbour's ``+1`` successor) on a
    zero sample, which replaces the bounds masks of a classic bilinear
    gather with plain arithmetic.  ``origin`` is where ``data[0]`` sits: 2 on
    the bare axis, or one position per column for axes laid end to end in a
    flat table.
    """
    np.clip(coord_int, -2.0, float(bound), out=coord_int)
    coord_int += origin
    return coord_int


def _row_band(slope: np.ndarray, offset: np.ndarray, ks: np.ndarray, nv: int):
    """Padded detector rows ``[lo, hi)`` the slices ``ks`` can read.

    ``v = slope·k + offset`` is monotone in ``k`` for every column — in
    floating point too, since rounding is monotone — so the tile's two end
    slices bound every row index the Z loop will form, and only that band
    of the column table needs building: a thin Z slab pays for the rows it
    projects onto, not for the whole detector.
    """
    ends = slope * ks[[0, -1], None] + offset
    band = _padded_index(np.floor([ends.min(), ends.max()]), nv)
    if np.isnan(band).any():  # what the Z loop's take() would raise on, named
        raise IndexError("a voxel's detector row is not finite: index out of range")
    lo, hi = band.astype(int).tolist()
    return lo, hi + 2  # one past the upper neighbour of the highest row


class BlockWorkspace:
    """Scratch memory of one shard's kernel calls, allocated once per stack.

    Holds the current projection inside a two-sample zero border on every
    side (:meth:`load`) — ``(Nv+4, Nu+4)`` for the standard kernel,
    transposed to ``(Nu+4, Nv+4)`` for the proposed one so a voxel column's
    walk along ``v`` is contiguous — plus the proposed kernel's blended
    column table and the fixed-size chunk buffers.  ``tile_shapes`` lists
    the ``(slices, columns)`` extents of the tiles the workspace will
    serve; it is sized for the largest and reused for every projection, so
    the accumulation loop allocates nothing larger than one chunk.
    """

    def __init__(self, algorithm: str, nv: int, nu: int, tile_shapes) -> None:
        tile_shapes = list(tile_shapes)
        self.nv, self.nu = nv, nu
        self._transposed = algorithm == "proposed"
        padded = (nu + 4, nv + 4) if self._transposed else (nv + 4, nu + 4)
        self.detector = np.zeros(padded, dtype=np.float32)
        max_cols = max(cols for _, cols in tile_shapes)
        self.table = np.empty(
            max_cols * (nv + 4) if self._transposed else 0, dtype=np.float32
        )
        chunk = max(chunk_slices(k, cols) * cols for k, cols in tile_shapes)
        self._chunk = [
            np.empty(chunk, dtype=dtype) for dtype in _CHUNK_BUFFERS[algorithm][0]
        ]

    def load(self, projection: np.ndarray) -> None:
        """Copy one filtered ``(Nv, Nu)`` projection inside the zero border."""
        self.detector[2:-2, 2:-2] = projection.T if self._transposed else projection

    def chunk(self, n_slices: int, n_cols: int):
        """The chunk buffers as ``(n_slices, n_cols)`` views."""
        size = n_slices * n_cols
        return [buffer[:size].reshape(n_slices, n_cols) for buffer in self._chunk]


def accumulate_proposed_block(
    out_block: np.ndarray,
    work: BlockWorkspace,
    p: np.ndarray,
    ks: np.ndarray,
    i_grid: np.ndarray,
    j_grid: np.ndarray,
) -> None:
    """Fused Algorithm 4 update of one ``(K, By, Nx)`` block.

    Parameters
    ----------
    out_block:
        Float32 accumulator view of shape ``(K, By, Nx)`` — Z slices ``ks``
        by a Y tile by the full X extent, in the i-major layout.
    work:
        The shard's workspace, holding the filtered projection
        (:meth:`BlockWorkspace.load`) to back-project.
    p:
        The 3x4 projection matrix for this projection's angle.
    ks:
        Global Z indices of the block's slices, float64 ``(K,)``.
    i_grid, j_grid:
        Float64 index meshes of shape ``(By, Nx)`` for the Y tile.
    """
    nv, nu = work.nv, work.nu
    n_k = len(ks)
    n_y, n_x = i_grid.shape
    n_cols = n_y * n_x
    # Theorems 2 and 3: u, 1/z and Wdis depend only on (i, j).  This block is
    # K-independent, so it stays in float64 — it is amortized over all Z.
    x = p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]
    z = p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]
    f = 1.0 / z
    u = x * f
    w = f * f
    y_base = p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]
    u0 = np.floor(u)
    du = u - u0
    weight_left = ((1.0 - du) * w).astype(np.float32).reshape(n_cols, 1)
    weight_right = (du * w).astype(np.float32).reshape(n_cols, 1)
    row_left = _padded_index(u0, nu).astype(np.intp).ravel()
    row_right = row_left + 1
    # Theorem 3 again: v is affine in k, v = slope·k + offset per column.
    offset = (y_base * f).ravel()
    slope = (p[1, 2] * f).ravel()

    lo, hi = _row_band(slope, offset, ks, nv)
    band = hi - lo
    source = np.ascontiguousarray(work.detector[:, lo:hi])

    # Fold the u interpolation and the distance weight into per-column
    # detector tables: table[col, v] = Wdis·((1-du)·Q[v,u0] + du·Q[v,u0+1]).
    # Each is a contiguous row of the transposed projection, so the build is
    # two row gathers and a blend; columns that leave the detector gather the
    # zero border, and so do the Z-loop's reads above and below it.
    table = work.table[: n_cols * band].reshape(n_cols, band)
    step = max(1, CHUNK_ELEMENTS // band)
    for c0 in range(0, n_cols, step):
        c1 = c0 + step
        left = np.take(source, row_left[c0:c1], axis=0, mode="raise")
        left *= weight_left[c0:c1]
        right = np.take(source, row_right[c0:c1], axis=0, mode="raise")
        right *= weight_right[c0:c1]
        np.add(left, right, out=table[c0:c1])
    flat_low = table.reshape(-1)
    flat_high = flat_low[1:]
    origin = np.arange(n_cols, dtype=np.float64)
    origin *= band
    origin += 2 - lo

    # The coordinate is computed in float64 (sub-pixel accuracy), the blend
    # in float32 — a single rounding per sample, like the reference path.
    kc = chunk_slices(n_k, n_cols)
    for k0 in range(0, n_k, kc):
        k1 = min(k0 + kc, n_k)
        v, v0, dv, rest, index = work.chunk(k1 - k0, n_cols)
        np.multiply(slope, ks[k0:k1, None], out=v)
        v += offset
        np.floor(v, out=v0)
        np.subtract(v, v0, out=dv)
        np.copyto(index, _padded_index(v0, nv, origin), casting="unsafe")
        sample_low = flat_low.take(index, mode="raise")
        sample_high = flat_high.take(index, mode="raise")
        np.subtract(1.0, dv, out=rest)
        sample_low *= rest
        sample_high *= dv
        sample_low += sample_high
        out_block[k0:k1] += sample_low.reshape(k1 - k0, n_y, n_x)


def accumulate_standard_block(
    out_block: np.ndarray,
    work: BlockWorkspace,
    p: np.ndarray,
    ks: np.ndarray,
    i_grid: np.ndarray,
    j_grid: np.ndarray,
) -> None:
    """Fused Algorithm 2 update of one ``(K, By, Nx)`` block.

    Three inner products per voxel (no hoisting — this is the standard
    scheme), with the bilinear fetch done as four flat gathers fused with
    the ``Wdis`` weighting, over the same Z chunks and workspace discipline
    as :func:`accumulate_proposed_block`.
    """
    nv, nu = work.nv, work.nu
    n_k = len(ks)
    n_y, n_x = i_grid.shape
    n_cols = n_y * n_x
    x_base = (p[0, 0] * i_grid + p[0, 1] * j_grid + p[0, 3]).ravel()
    y_base = (p[1, 0] * i_grid + p[1, 1] * j_grid + p[1, 3]).ravel()
    z_base = (p[2, 0] * i_grid + p[2, 1] * j_grid + p[2, 3]).ravel()

    # All four bilinear neighbours resolve by arithmetic alone —
    # out-of-detector fetches land on the plane's stored zeros, no masks.
    width = nu + 4
    flat = work.detector.reshape(-1)

    kc = chunk_slices(n_k, n_cols)
    for k0 in range(0, n_k, kc):
        k1 = min(k0 + kc, n_k)
        kcol = ks[k0:k1, None]
        u, v, f, w, du, dv, rest, index = work.chunk(k1 - k0, n_cols)
        # Coordinates in float64 (sub-pixel accuracy); weights and samples in
        # float32, matching the single rounding per sample of the reference.
        np.add(z_base, p[2, 2] * kcol, out=f)
        np.divide(1.0, f, out=f)
        np.add(x_base, p[0, 2] * kcol, out=u)
        u *= f
        np.add(y_base, p[1, 2] * kcol, out=v)
        v *= f
        np.multiply(f, f, out=w)
        u0 = np.floor(u, out=f)
        np.subtract(u, u0, out=du)
        v0 = np.floor(v, out=u)
        np.subtract(v, v0, out=dv)
        flat_index = _padded_index(v0, nv)
        flat_index *= width
        flat_index += _padded_index(u0, nu)
        np.copyto(index, flat_index, casting="unsafe")
        p00 = flat.take(index, mode="raise")
        p10 = flat[1:].take(index, mode="raise")
        p01 = flat[width:].take(index, mode="raise")
        p11 = flat[width + 1 :].take(index, mode="raise")

        np.subtract(1.0, du, out=rest)
        p00 *= rest
        p10 *= du
        p00 += p10
        p01 *= rest
        p11 *= du
        p01 += p11
        np.subtract(1.0, dv, out=rest)
        p00 *= rest
        p01 *= dv
        p00 += p01
        p00 *= w
        out_block[k0:k1] += p00.reshape(k1 - k0, n_y, n_x)


_BLOCK_KERNELS = {
    "proposed": accumulate_proposed_block,
    "standard": accumulate_standard_block,
}
