"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import apply_ramp_filter
from repro.core.types import ReconstructionProblem, Volume
from repro.mpi import run_spmd
from repro.pipeline import CircularBuffer, Decomposition, IFDKConfig
from repro.core import default_geometry_for_problem


problem_strategy = st.builds(
    ReconstructionProblem,
    nu=st.integers(1, 4096),
    nv=st.integers(1, 4096),
    np_=st.integers(1, 8192),
    nx=st.integers(1, 8192),
    ny=st.integers(1, 8192),
    nz=st.integers(1, 8192),
)


@given(problem=problem_strategy)
@settings(max_examples=100, deadline=None)
def test_problem_identities(problem):
    """alpha, updates and byte counts are mutually consistent for any problem."""
    assert problem.alpha == pytest.approx(problem.input_pixels / problem.output_voxels)
    assert problem.updates == problem.output_voxels * problem.np_
    assert problem.input_bytes() == problem.input_pixels * 4
    # GUPS is inversely proportional to time.
    assert problem.gups(2.0) == pytest.approx(problem.gups(1.0) / 2.0)


@given(
    nx=st.integers(1, 12), ny=st.integers(1, 12), nz=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_volume_kmajor_roundtrip_is_lossless(nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    volume = Volume(data=rng.random((nz, ny, nx)).astype(np.float32))
    np.testing.assert_array_equal(Volume.from_kmajor(volume.to_kmajor()).data, volume.data)


@given(
    rows=st.integers(1, 8),
    columns=st.integers(1, 8),
    proj_per_rank=st.integers(1, 4),
    slab=st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_decomposition_partitions_any_grid(rows, columns, proj_per_rank, slab):
    """For any R x C grid the decomposition covers inputs and outputs exactly once."""
    geometry = default_geometry_for_problem(
        nu=16, nv=16,
        np_=rows * columns * proj_per_rank,
        nx=8, ny=8, nz=rows * slab,
    )
    config = IFDKConfig(geometry=geometry, rows=rows, columns=columns)
    Decomposition(config).verify_complete()
    assert config.projections_per_rank == proj_per_rank
    assert config.slab_thickness == slab


@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20),
    nbuffers=st.integers(1, 5),
)
@settings(max_examples=50, deadline=None)
def test_reduce_sums_in_rank_order(values, nbuffers):
    """``Reduce`` onto the root adds the ranks' buffers in rank order."""
    buffers = [np.array(values, dtype=np.float64) * (i + 1) for i in range(nbuffers)]
    reduced = run_spmd(nbuffers, lambda comm: comm.Reduce(buffers[comm.rank], root=0))[0]
    expected = buffers[0].copy()
    for buffer in buffers[1:]:
        expected += buffer
    np.testing.assert_array_equal(reduced, expected)
    np.testing.assert_allclose(reduced, np.stack(buffers).sum(axis=0), rtol=1e-9)


@given(items=st.lists(st.integers(), max_size=30), capacity=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_circular_buffer_preserves_order_and_counts(items, capacity):
    buf = CircularBuffer(capacity=max(capacity, len(items), 1))
    for item in items:
        buf.put(item)
    buf.close()
    assert list(buf) == items
    assert buf.total_put == len(items)
    assert buf.total_got == len(items)


@given(
    n_rows=st.integers(1, 6),
    width=st.integers(8, 64),
    seed=st.integers(0, 1000),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=30, deadline=None)
def test_ramp_filter_is_linear_operator(n_rows, width, seed, scale):
    rng = np.random.default_rng(seed)
    rows = rng.random((n_rows, width)).astype(np.float32)
    scaled = apply_ramp_filter(rows * np.float32(scale), tau=1.0)
    reference = apply_ramp_filter(rows, tau=1.0) * np.float32(scale)
    np.testing.assert_allclose(scaled, reference, atol=1e-3 * scale)
