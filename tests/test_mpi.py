"""Tests for the in-process MPI substrate."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import default_geometry_for_problem
from repro.mpi import CommunicatorError, SimCommunicator, SpmdError, run_spmd
from repro.pipeline import Decomposition, IFDKConfig


class TestRunSpmd:
    def test_returns_per_rank_results(self):
        results = run_spmd(4, lambda comm: comm.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_rejects_nonpositive_ranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_rank_failure_reported(self):
        def failing(comm):
            if comm.rank == 2:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(SpmdError) as excinfo:
            run_spmd(4, failing)
        assert any(f.rank == 2 for f in excinfo.value.failures)

    def test_extra_args_forwarded(self):
        results = run_spmd(2, lambda comm, a, b=0: a + b + comm.rank, 5, b=7)
        assert results == [12, 13]


class TestCollectives:
    def test_barrier_and_rank_size(self):
        def program(comm):
            comm.Barrier()
            return (comm.rank, comm.size)

        assert run_spmd(3, program) == [(0, 3), (1, 3), (2, 3)]

    def test_public_methods_are_the_four_ifdk_collectives(self):
        public = sorted(
            name for name in vars(SimCommunicator)
            if not name.startswith("_") and callable(getattr(SimCommunicator, name))
        )
        assert public == ["Allgather", "Barrier", "Reduce", "Split"]

    def test_allgather_preserves_rank_order(self):
        def program(comm):
            send = np.array([comm.rank, comm.rank * 2], dtype=np.int64)
            return comm.Allgather(send).tolist()

        for result in run_spmd(4, program):
            assert result == [[0, 0], [1, 2], [2, 4], [3, 6]]

    def test_allgather_send_buffer_reusable_immediately(self):
        """MPI blocking semantics: the caller may overwrite its buffer right
        after the call returns without corrupting what siblings receive."""

        def program(comm):
            received = []
            send = np.zeros(1, dtype=np.float64)
            for round_index in range(20):
                send[0] = comm.rank * 100 + round_index
                gathered = comm.Allgather(send)
                received.append(gathered[:, 0].copy())
            return received

        results = run_spmd(4, program)
        for rounds in results:
            for round_index, gathered in enumerate(rounds):
                expected = [rank * 100 + round_index for rank in range(4)]
                assert gathered.tolist() == expected

    def test_allgather_into_recvbuf(self):
        def program(comm):
            recv = np.zeros((comm.size, 2), dtype=np.float32)
            out = comm.Allgather(np.full(2, comm.rank, dtype=np.float32), recv)
            return out is recv, recv[:, 0].tolist()

        assert run_spmd(3, program) == [(True, [0.0, 1.0, 2.0])] * 3

    def test_reduce_sum_only_root_receives(self):
        def program(comm):
            send = np.full(3, float(comm.rank + 1))
            out = comm.Reduce(send, root=0)
            return None if out is None else out.tolist()

        results = run_spmd(4, program)
        assert results[0] == [10.0, 10.0, 10.0]
        assert results[1] is None

    def test_reduce_to_a_nonzero_root_leaves_the_send_buffer_alone(self):
        def program(comm):
            send = np.full(2, float(comm.rank + 1), dtype=np.float32)
            out = comm.Reduce(send, root=2)
            return send.tolist(), None if out is None else out.tolist()

        results = run_spmd(3, program)
        assert results[2] == ([3.0, 3.0], [6.0, 6.0])
        assert results[0] == ([1.0, 1.0], None)

    def test_split_groups_and_orders(self):
        def program(comm):
            color = comm.rank % 2
            sub = comm.Split(color=color, key=-comm.rank)  # reverse order inside group
            return (color, sub.rank, sub.size)

        results = run_spmd(4, program)
        # Group {0, 2}: key -2 < 0, so rank 2 becomes sub-rank 0.
        assert results[2] == (0, 0, 2)
        assert results[0] == (0, 1, 2)
        assert results[1][2] == 2

    def test_invalid_root_rejected(self):
        def program(comm):
            comm.Reduce(np.zeros(1), root=5)

        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, program)
        assert all(
            isinstance(f.exception, CommunicatorError) for f in excinfo.value.failures
        )

    def test_non_array_contribution_rejected(self):
        def program(comm):
            comm.Allgather([comm.rank])

        with pytest.raises(SpmdError) as excinfo:
            run_spmd(1, program)
        assert isinstance(excinfo.value.failures[0].exception, TypeError)


def test_a_rank_failing_after_a_collective_does_not_fail_its_siblings():
    """A failing rank aborts every barrier, but a collective its siblings
    already completed stays complete, even for a sibling whose thread has
    not woken from the released wait yet."""
    def program(comm):
        comm.Allgather(np.array([comm.rank]))
        if comm.rank == 0:
            raise RuntimeError("rank 0 fails after the collective")
        return comm.rank

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(30):
            with pytest.raises(SpmdError) as excinfo:
                run_spmd(8, program, timeout=30.0)
            assert [f.rank for f in excinfo.value.failures] == [0]
    finally:
        sys.setswitchinterval(interval)


class TestMismatchedContributions:
    """Contributions that disagree in shape or dtype fail loudly on every
    rank, naming the operation and each rank's layout — never a silent
    broadcast or cast."""

    @staticmethod
    def _failures(program):
        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, program)
        failures = excinfo.value.failures
        assert sorted(f.rank for f in failures) == [0, 1]
        assert all(isinstance(f.exception, CommunicatorError) for f in failures)
        return [str(f.exception) for f in failures]

    def test_reduce_rejects_mismatched_shapes(self):
        def program(comm):
            comm.Reduce(np.ones(3 if comm.rank == 0 else 1, dtype=np.float32), root=0)

        for message in self._failures(program):
            assert "Reduce" in message
            assert "rank 0: (3,) float32" in message
            assert "rank 1: (1,) float32" in message

    def test_allgather_rejects_mismatched_dtypes(self):
        def program(comm):
            dtype = np.float32 if comm.rank == 0 else np.float64
            comm.Allgather(np.full(1, 0.2, dtype=dtype))

        for message in self._failures(program):
            assert "Allgather" in message
            assert "rank 0: (1,) float32" in message
            assert "rank 1: (1,) float64" in message


class TestGridCommunicators:
    def test_split_by_assignment_creates_row_and_column_communicators(self):
        """The two ``Split`` calls of ``run_rank``, keyed by the rank's
        :class:`~repro.pipeline.decomposition.RankAssignment` (column-major, Figure 3a)."""
        geometry = default_geometry_for_problem(nu=8, nv=8, np_=4, nx=4, ny=4, nz=4)
        decomposition = Decomposition(IFDKConfig(geometry=geometry, rows=2, columns=2))

        def program(comm):
            a = decomposition.assignment(comm.rank)
            col_comm = comm.Split(color=a.column, key=a.row)
            row_comm = comm.Split(color=a.row, key=a.column)
            mine = np.array([comm.rank])
            return (
                a.row, a.column,
                col_comm.Allgather(mine)[:, 0].tolist(),
                row_comm.Allgather(mine)[:, 0].tolist(),
            )

        results = run_spmd(4, program)
        # Columns are {0,1} and {2,3}; rows are {0,2} and {1,3}.
        assert results[0] == (0, 0, [0, 1], [0, 2])
        assert results[3] == (1, 1, [2, 3], [1, 3])
