"""The tiled backend: one bounded tile plan executed on one worker pool.

The block kernels of :mod:`repro.backends.vectorized` keep per-column
state — the proposed kernel's detector table is ``(columns, Nv+4)`` — so
handed every column of a 2048² slice at once they would hold gigabytes.
This backend cuts every hot path into independent units — ``(z, y)`` volume
tiles bounded by a byte budget for back-projection, ranges of the shared
filter's fixed-size row groups (:data:`repro.core.filtering.GROUP_ROWS`)
for filtering — and runs them on a persistent :class:`WorkerPool`.  It is
registered under three names: ``vectorized`` and ``blocked`` (one worker,
inline on the caller's thread) and ``parallel`` (:func:`default_workers`
threads).

The proposed kernel (Algorithm 4) has two executors of one operation
sequence.  ``native`` — :mod:`repro.backends.native`, ``alg4.c`` built on
first use — folds a shard's tiles for a whole stack in one foreign call that
releases the GIL, so shards scale with cores; on x86-64 with AVX2 it takes
eight tile columns per step (:func:`repro.backends.native.isa` names the
loop).  Measured on 2 vCPUs (a Xeon with AVX2), 96x96x128->64^3, median of
7: 44 ms on one shard and 46 on two with the eight lanes (62 and 63 with the
four lanes they replaced), 133 and 93 on the scalar loop; the NumPy
executor, median of 3: 240 and 164.  So on that host a second shard speeds
up the scalar loop only.
``numpy`` — the block kernels of
:mod:`repro.backends.vectorized` — is the fallback on a host without a C
compiler, the load-time oracle of the compiled object, and the only executor
of the standard kernel (Algorithm 2): same bits, but it re-takes the GIL for
every chunk-sized ufunc, so a second shard buys only ~1.3x.  An
accumulator's ``executor`` says which one it runs; so does its
``backproject`` span.

What ``byte_budget`` bounds, per tile (:func:`_block_bytes`, the NumPy
executor's working set — the compiled one holds 28 bytes per tile column
and one padded projection, far inside it): the column
tables and ``(i, j)`` temporaries, proportional to the tile's columns, plus
one Z chunk of workspace — ``CHUNK_ELEMENTS`` voxels, whatever the tile's Z
extent, because the kernels walk Z in fixed chunks themselves.  So the
budget decides how many rows a tile has (Y splits first) and Z only splits
under budgets too small for a single row.  Outside it: the output slab and
each shard's padded copy of the current projection.
``tests/test_block_kernels.py`` checks the model against ``tracemalloc``.

Neither tiling nor concurrency touches the numerics.  The kernels are
elementwise in the ``(k, y)`` block and each detector row's transform is
independent of how rows are grouped or dealt to threads; every worker owns
a statically assigned, *disjoint* subset of the tile plan
(``tiles[w::workers]``) and writes only its own region of one preallocated
output; within a tile the accumulation order is the sequential stack
order.  So the result is
**bit-identical** for every byte budget, worker count and run — asserted by
``tests/test_backend_conformance.py`` and ``tests/test_parallel_determinism.py``.

Thread hygiene: the pool starts lazily on the first multi-task dispatch and
its threads are named ``repro-parallel-*`` (the ``run_spmd`` discipline:
every thread this package starts must be joinable and attributable).
:meth:`TiledBackend.close` joins all workers; a closed pool restarts lazily,
so closing a shared registry instance is always safe.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.filtering import shortest_ramp_filter_response
from ..core.geometry import CBCTGeometry
from ..core.types import DEFAULT_DTYPE, ProjectionStack, Volume
from ..obs import get_tracer
from . import native
from .base import ComputeBackend, VolumeAccumulator
from .vectorized import (
    _BLOCK_KERNELS,
    CHUNK_BYTES_PER_ELEMENT,
    CHUNK_ELEMENTS,
    BlockWorkspace,
    _index_grids,
    chunk_slices,
    rfft_ramp_filter,
)

__all__ = ["TiledBackend"]

#: Default working-set bound per tile: 32 MiB of tables and workspace.
DEFAULT_BYTE_BUDGET = 32 << 20

#: Thread-name prefix of every pool worker (leak checks grep for this).
WORKER_THREAD_PREFIX = "repro-parallel"

Tile = Tuple[int, int, int, int]


def check_workers(workers) -> int:
    """``workers`` if it is a positive integer, else :class:`ValueError`."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer (got {workers!r})")
    return workers


def default_workers() -> int:
    """Worker count when none is given: ``REPRO_PARALLEL_WORKERS`` or cores.

    The environment override is how CI forces a fixed pool width (the
    ``parallel-conformance`` job runs the whole matrix with 4 workers on
    whatever runner it lands on); without it the count follows the host,
    capped at 4: nothing wider has been measured (the development host has
    two vCPUs, on which the compiled scalar loop's shards scale 1.4x and its
    lane loop's not measurably).
    """
    env = os.environ.get("REPRO_PARALLEL_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"REPRO_PARALLEL_WORKERS must be a positive integer (got {env!r})"
            )
        return workers
    return max(1, min(4, os.cpu_count() or 1))


class WorkerPool:
    """A persistent, lazily-started worker pool with blocking dispatch.

    :meth:`run` executes a batch of callables and returns when all have
    finished, re-raising the first failure.  The caller's thread runs the
    first task and pool threads the others, so ``workers`` counts the caller:
    with one worker (or one task) no pool is started and ``workers=1`` is
    exactly the single-threaded execution it claims to be.
    ``workers=None`` resolves :func:`default_workers` on first use, never at
    construction, so a malformed ``REPRO_PARALLEL_WORKERS`` cannot fail an
    import that merely builds a pool.
    """

    def __init__(self, workers: Optional[int] = None):
        self._workers = (  # guarded-by: _lock
            None if workers is None else check_workers(workers)
        )
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def workers(self) -> int:
        """The resolved worker count (reads the environment on first use)."""
        with self._lock:
            if self._workers is None:
                self._workers = default_workers()
            return self._workers

    def _ensure(self, workers: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix=WORKER_THREAD_PREFIX
                )
            return self._executor

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Run ``tasks`` to completion; the first exception propagates.

        Every task has finished when this returns *or raises*: tasks write
        into shared output arrays, so a failure must not hand control back
        while a sibling is still writing.
        """
        tasks = list(tasks)
        workers = self.workers
        if workers == 1 or len(tasks) <= 1:
            for task in tasks:
                task()
            return
        # The caller is a worker too: it runs the first task itself and pool
        # threads the rest — one hand-off fewer per dispatch (``stream_pfs_par``
        # 3-4 % faster in 3 of 3 runs, 2 MiB less RSS).  It also keeps the
        # caller's core busy: the development VM's guest scheduler can leave
        # the threads a parked caller woke sharing its vCPU while the other
        # idles; two shards ran so stacked (207 ms for 106) in 2 of 10 fresh
        # process starts before this and in 0 of 10 after.
        executor = self._ensure(workers)
        futures = [executor.submit(task) for task in tasks[1:]]
        try:
            tasks[0]()
        finally:
            wait(futures)
        for future in futures:
            future.result()

    def close(self) -> None:
        """Join every worker thread; the pool restarts lazily if reused."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    @property
    def started(self) -> bool:
        with self._lock:
            return self._executor is not None


def _traced(
    tasks: List[Callable[[], None]],
    name: str,
    attrs: Callable[[int], Dict[str, int]],
) -> List[Callable[[], None]]:
    """Wrap task ``i`` in a ``name`` span with ``attrs(i)`` when tracing.

    The ambient tracer and parent span are captured here, on the dispatching
    thread (thread-locals do not cross the pool boundary), and handed to
    each task explicitly.  Untraced dispatch runs the bare tasks and never
    builds the attributes.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return tasks
    parent = tracer.current_span_id()

    def wrap(task: Callable[[], None], task_attrs: Dict[str, int]):
        def run() -> None:
            with tracer.span(name, parent=parent, **task_attrs):
                task()

        return run

    return [wrap(task, attrs(index)) for index, task in enumerate(tasks)]


# --------------------------------------------------------------------------- #
# Tile planning
# --------------------------------------------------------------------------- #
def _block_bytes(kt: int, yt: int, nx: int, nv: int) -> int:
    """Ceiling on the bytes one ``(kt, yt)`` tile holds live, either algorithm.

    Per column: the proposed kernel's float32 table over the whole padded
    detector height (the band a tile really reaches is not known to the
    planner) and ~16 float64 ``(i, j)`` coordinate and weight temporaries.
    Per chunk voxel: the workspace buffers and gather results of the
    hungrier (standard) kernel.  Plus the gathered pieces of the table
    build (two per piece, and the previous piece's last).  The Z extent
    enters only through the chunk, which stops growing at
    ``CHUNK_ELEMENTS`` voxels (or one slice of the tile, if that is
    larger); this deliberately over-counts a little so the budget is a
    ceiling, not a target.
    """
    cols = yt * nx
    return (
        cols * (4 * (nv + 4) + 8 * 16)
        + CHUNK_BYTES_PER_ELEMENT * chunk_slices(kt, cols) * cols
        + 3 * 4 * max(CHUNK_ELEMENTS, nv + 4)
    )


def _fewest_parts(extent: int, fits: Callable[[int], bool]) -> int:
    """Smallest part count whose largest part ``fits`` (``extent`` if none)."""
    for parts in range(1, extent):
        if fits(-(-extent // parts)):
            return parts
    return extent


def plan_tiles(
    nz_local: int,
    ny: int,
    nx: int,
    nv: int,
    byte_budget: int,
    min_tiles: int = 1,
) -> List[Tile]:
    """Deterministic ``(z0, z1, y0, y1)`` tiling under ``byte_budget`` bytes.

    Local Z coordinates (``0 <= z0 < z1 <= nz_local``).  Y splits first:
    inside one tile the proposed kernel's per-column detector tables are
    shared along Z, so Y splits add no redundant column work while every Z
    split rebuilds (its band of) those tables.  Z splits only once Y is
    down to single rows; degenerate budgets bottom out at 1x1-slice tiles
    rather than failing.  ``min_tiles`` (the worker count) splits further,
    in the same order, until the plan can occupy every worker — a slab with
    fewer rows than that simply under-fills the pool.  Parts of an axis are
    balanced: their extents differ by at most one.
    """
    if byte_budget <= 0:
        raise ValueError("byte_budget must be positive")
    if min_tiles < 1:
        raise ValueError("min_tiles must be positive")
    y_parts = _fewest_parts(
        ny, lambda yt: _block_bytes(nz_local, yt, nx, nv) <= byte_budget
    )
    yt = -(-ny // y_parts)
    z_parts = _fewest_parts(
        nz_local, lambda kt: _block_bytes(kt, yt, nx, nv) <= byte_budget
    )
    y_parts = min(ny, max(y_parts, -(-min_tiles // z_parts)))
    z_parts = min(nz_local, max(z_parts, -(-min_tiles // y_parts)))
    z_edges = [nz_local * part // z_parts for part in range(z_parts + 1)]
    y_edges = [ny * part // y_parts for part in range(y_parts + 1)]
    return [
        (z0, z1, y0, y1)
        for z0, z1 in zip(z_edges, z_edges[1:])
        for y0, y1 in zip(y_edges, y_edges[1:])
    ]


# --------------------------------------------------------------------------- #
# Accumulator and backend
# --------------------------------------------------------------------------- #
class _TiledAccumulator(VolumeAccumulator):
    """Shard-parallel tile accumulation into one preallocated volume."""

    def __init__(
        self,
        geometry: CBCTGeometry,
        *,
        algorithm: str,
        z_range: Optional[Tuple[int, int]],
        byte_budget: int,
        pool: WorkerPool,
        workers: int,
        backend: str,
    ):
        super().__init__(geometry, algorithm=algorithm, z_range=z_range)
        self.backend = backend
        self._pool = pool
        # Algorithm 4 has a compiled executor (resolved on the first proposed
        # accumulator of the process, never at import); Algorithm 2 and a
        # host without a usable compiler run the NumPy block kernels.
        self._native = native.resolve() if self.algorithm == "proposed" else None
        self.executor = "numpy" if self._native is None else "native"
        # What every ``backproject.worker`` span says ran: the executor and,
        # on the compiled one, the loop of alg4.c ("avx2" / "scalar").
        self._worker_attrs = {"executor": self.executor}
        if self._native is not None:
            self._worker_attrs["isa"] = self._native.isa
        self._out = np.zeros(
            (self.nz_local, geometry.ny, geometry.nx), dtype=DEFAULT_DTYPE
        )
        tiles = plan_tiles(
            self.nz_local, geometry.ny, geometry.nx, geometry.nv,
            byte_budget, min_tiles=workers,
        )
        # Static round-robin shards: worker w owns tiles[w::workers] —
        # disjoint by construction and interleaved for load balance, with no
        # scheduling-dependent assignment.
        shards = [shard for shard in (tiles[w::workers] for w in range(workers)) if shard]
        if self._native is not None:  # the compiled kernel takes the tiles themselves
            self._shards = [np.array(shard, dtype=np.int64) for shard in shards]
        else:
            j_grid, i_grid = _index_grids(geometry.ny, geometry.nx)
            z_start = self.z_range[0]
            # Per tile, built once: the output view, the global Z indices of its
            # slices and the index meshes of its rows — the NumPy kernel's operands.
            self._shards = [
                [
                    (
                        self._out[z0:z1, y0:y1, :],
                        np.arange(z_start + z0, z_start + z1, dtype=np.float64),
                        i_grid[y0:y1, :],
                        j_grid[y0:y1, :],
                    )
                    for z0, z1, y0, y1 in shard
                ]
                for shard in shards
            ]

    def _fold_shard(self, shard, projections: np.ndarray, matrices: np.ndarray) -> None:
        if self._native is not None:
            # One GIL-free foreign call: the projection loop runs inside C.
            self._native(self._out, self.z_range[0], shard, projections, matrices)
            return
        # One workspace per shard and stack, sized for the shard's largest
        # tile and reused for every projection; released with the stack, so
        # it never sits under the next chunk's filtering peak.
        kernel = _BLOCK_KERNELS[self.algorithm]
        work = BlockWorkspace(
            self.algorithm, self.geometry.nv, self.geometry.nu,
            [(len(ks), rows.size) for _, ks, rows, _ in shard],
        )
        for matrix, projection in zip(matrices, projections):
            work.load(projection)
            for block, ks, i_grid, j_grid in shard:
                kernel(block, work, matrix, ks, i_grid, j_grid)

    def _dispatch(self, projections: np.ndarray, angles: Sequence[float]) -> None:
        # Packed once for every shard: (Np, 3, 4) float64, and for the compiled
        # executor the stack as the float32 C array its pointer will cross as.
        matrices = np.stack([
            self.geometry.projection_matrix(float(angle)).matrix for angle in angles
        ])
        if self._native is not None:
            projections = np.ascontiguousarray(projections, dtype=DEFAULT_DTYPE)
        tasks = [
            partial(self._fold_shard, shard, projections, matrices)
            for shard in self._shards
        ]
        self._pool.run(_traced(tasks, "backproject.worker", lambda worker: dict(
            payload_bytes=int(projections.nbytes),
            worker=worker,
            tiles=len(self._shards[worker]),
            projections=len(matrices),
            **self._worker_attrs,
        )))

    def add(self, projection: np.ndarray, angle: float) -> None:
        projection = np.asarray(projection, dtype=DEFAULT_DTYPE)
        self._validate(projection.shape)
        self._dispatch(projection[None, ...], [angle])

    def _add_stack(self, stack: ProjectionStack) -> None:
        # One synchronization point for the whole stack instead of one per
        # projection; each shard still accumulates its tiles in sequential
        # stack order, so the bits match streaming add() exactly.
        self._dispatch(stack.data, stack.angles)

    def volume(self) -> Volume:
        return Volume(
            data=self._out.copy(), voxel_pitch=self.geometry.voxel_pitch
        )


class TiledBackend(ComputeBackend):
    """The block kernels under a byte budget, on a worker pool.

    ``workers=None`` follows :func:`default_workers` (resolved on first
    execution); ``workers=1`` never starts a thread.  ``byte_budget``
    bounds the working set of one volume tile (column tables plus one Z
    chunk of workspace); filtering runs in fixed row groups and needs none.
    ``name`` is the registry name the instance answers to (``vectorized`` /
    ``blocked`` / ``parallel``).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        *,
        name: str = "parallel",
    ):
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        self.name = name
        self.byte_budget = int(byte_budget)
        self._pool = WorkerPool(workers)

    @property
    def workers(self) -> int:
        """The resolved worker count (reads the environment on first use)."""
        return self._pool.workers

    apply_filter = staticmethod(rfft_ramp_filter)
    ramp_response = staticmethod(shortest_ramp_filter_response)

    def dispatch_filter(self, filter_groups, groups) -> None:
        """Deal contiguous ranges of the row groups to the pool's workers.

        Each group writes its own rows of the one result through the scratch
        of whichever thread runs it (bit-exact at any worker count); a
        one-group stack (an iFDK rank's call) stays on the calling thread.
        """
        parts = min(self.workers, len(groups))
        edges = [len(groups) * part // parts for part in range(parts + 1)]
        shares = [groups[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self._pool.run(_traced(
            [partial(filter_groups, share) for share in shares],
            "filter.worker",
            lambda worker: dict(
                rows=sum(stop - first  # repro-lint: disable=float-sum -- row indices: ints
                         for _, first, stop in shares[worker])
            ),
        ))

    def accumulator(
        self,
        geometry: CBCTGeometry,
        *,
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
    ) -> VolumeAccumulator:
        return _TiledAccumulator(
            geometry,
            algorithm=algorithm,
            z_range=z_range,
            byte_budget=self.byte_budget,
            pool=self._pool,
            workers=self.workers,
            backend=self.name,
        )

    def close(self) -> None:
        """Join the worker pool (restarts lazily if the backend is reused)."""
        self._pool.close()

    @property
    def pool_started(self) -> bool:
        """Whether the pool currently holds live worker threads."""
        return self._pool.started
