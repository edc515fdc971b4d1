"""Tests for the in-process MPI substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import (
    RankGrid2D,
    ReduceOp,
    SpmdError,
    run_spmd,
)


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
            return (comm.Get_rank(), comm.Get_size())

        assert run_spmd(3, program) == [(0, 3), (1, 3), (2, 3)]

    def test_bcast(self):
        def program(comm):
            buf = np.full(4, comm.rank, dtype=np.float64)
            comm.Bcast(buf, root=1)
            return buf.tolist()

        for result in run_spmd(3, program):
            assert result == [1.0, 1.0, 1.0, 1.0]

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

    def test_reduce_sum_only_root_receives(self):
        def program(comm):
            send = np.full(3, float(comm.rank + 1))
            out = comm.Reduce(send, op=ReduceOp.SUM, root=0)
            return None if out is None else out.tolist()

        results = run_spmd(4, program)
        assert results[0] == [10.0, 10.0, 10.0]
        assert results[1] is None

    @pytest.mark.parametrize("op,expected", [
        (ReduceOp.SUM, 6.0), (ReduceOp.PROD, 6.0), (ReduceOp.MAX, 3.0), (ReduceOp.MIN, 1.0),
    ])
    def test_allreduce_operators(self, op, expected):
        def program(comm):
            send = np.array([float(comm.rank + 1)])
            return float(comm.Allreduce(send, op=op)[0])

        assert all(r == expected for r in run_spmd(3, program))

    def test_gather_and_scatter(self):
        def program(comm):
            send = np.array([comm.rank], dtype=np.int64)
            gathered = comm.Gather(send, None, root=0)
            if comm.rank == 0:
                table = gathered * 10
            else:
                table = None
            recv = np.zeros(1, dtype=np.int64)
            comm.Scatter(table, recv, root=0)
            return int(recv[0])

        assert run_spmd(4, program) == [0, 10, 20, 30]

    def test_send_recv(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.array([42.0]), dest=1, tag=7)
                return None
            buf = np.zeros(1)
            comm.Recv(buf, source=0, tag=7)
            return float(buf[0])

        assert run_spmd(2, program)[1] == 42.0

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

    def test_collective_accounting(self):
        def program(comm):
            comm.Allgather(np.zeros(10, dtype=np.float32))
            comm.Barrier()
            return comm.collective_calls

        calls = run_spmd(2, program)[0]
        assert calls["Allgather"] == 2  # one call per rank
        assert calls["Barrier"] == 2

    def test_invalid_root_rejected(self):
        def program(comm):
            comm.Bcast(np.zeros(1), root=5)

        with pytest.raises(SpmdError):
            run_spmd(2, program)


class TestRankGrid:
    def test_column_major_layout_matches_figure3(self):
        # Figure 3a: 32 ranks, R=8, C=4 -> rank 9 sits at row 1, column 1.
        grid = RankGrid2D(rows=8, columns=4)
        pos = grid.position(9)
        assert (pos.row, pos.column) == (1, 1)
        assert grid.global_rank(1, 1) == 9

    def test_members(self):
        grid = RankGrid2D(rows=4, columns=2)
        assert grid.column_members(1) == [4, 5, 6, 7]
        assert grid.row_members(2) == [2, 6]

    def test_bounds(self):
        grid = RankGrid2D(rows=2, columns=2)
        with pytest.raises(ValueError):
            grid.position(4)
        with pytest.raises(ValueError):
            grid.global_rank(2, 0)

    def test_split_creates_row_and_column_communicators(self):
        grid = RankGrid2D(rows=2, columns=2)

        def program(comm):
            pos, col_comm, row_comm = grid.split(comm)
            col_sum = col_comm.Allreduce(np.array([float(comm.rank)]))
            row_sum = row_comm.Allreduce(np.array([float(comm.rank)]))
            return (pos.row, pos.column, float(col_sum[0]), float(row_sum[0]))

        results = run_spmd(4, program)
        # Columns are {0,1} and {2,3}; rows are {0,2} and {1,3}.
        assert results[0] == (0, 0, 1.0, 2.0)
        assert results[3] == (1, 1, 5.0, 4.0)

    def test_split_size_mismatch(self):
        grid = RankGrid2D(rows=4, columns=4)

        def program(comm):
            grid.split(comm)

        with pytest.raises(SpmdError):
            run_spmd(2, program)
