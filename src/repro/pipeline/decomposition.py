"""Problem decomposition onto the 2-D rank grid (Section 4.1.1, Figure 3).

* Columns partition the **input**: column ``c`` owns the contiguous block of
  ``Np / C`` projections starting at ``c · Np/C``.  Within a column the
  block is dealt round-robin to the ``R`` ranks, so that AllGather round
  ``t`` assembles the ``R`` consecutive projections
  ``[block_start + t·R, block_start + (t+1)·R)`` — one from each rank.
* Rows partition the **output**: row ``r`` owns the Z slab
  ``[r · Nz/R, (r+1) · Nz/R)`` of the volume.

Keeping this mapping in one place means the rank runtime, the performance
model and the tests all agree on who owns what.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .config import IFDKConfig

__all__ = ["Decomposition"]


@dataclass(frozen=True)
class RankAssignment:
    """Everything one rank needs to know about its share of the problem."""

    global_rank: int
    row: int
    column: int
    owned_projections: Tuple[int, ...]
    column_projections: Tuple[int, ...]
    z_range: Tuple[int, int]


class Decomposition:
    """2-D decomposition of one :class:`~repro.pipeline.config.IFDKConfig`."""

    def __init__(self, config: IFDKConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    def column_block(self, column: int) -> Tuple[int, int]:
        """Global projection index range ``[start, stop)`` of one column."""
        per_column = self.config.projections_per_column
        if not 0 <= column < self.config.columns:
            raise ValueError(f"column {column} outside grid")
        return column * per_column, (column + 1) * per_column

    def projections_for_rank(self, row: int, column: int) -> List[int]:
        """Global indices loaded and filtered by the rank at (row, column)."""
        start, stop = self.column_block(column)
        if not 0 <= row < self.config.rows:
            raise ValueError(f"row {row} outside grid")
        return list(range(start + row, stop, self.config.rows))

    def allgather_round_indices(self, column: int, round_index: int) -> List[int]:
        """Global indices assembled by AllGather round ``round_index`` of a column."""
        start, stop = self.column_block(column)
        rows = self.config.rows
        lo = start + round_index * rows
        if lo >= stop:
            raise ValueError(
                f"round {round_index} exceeds the {self.config.projections_per_rank} "
                "AllGather rounds of this configuration"
            )
        return list(range(lo, min(lo + rows, stop)))

    def z_range_for_row(self, row: int) -> Tuple[int, int]:
        """Z slab ``[z_start, z_stop)`` owned by one row of the grid."""
        if not 0 <= row < self.config.rows:
            raise ValueError(f"row {row} outside grid")
        thickness = self.config.slab_thickness
        return row * thickness, (row + 1) * thickness

    # ------------------------------------------------------------------ #
    def assignment(self, global_rank: int) -> RankAssignment:
        """Full assignment of one global rank (column-major placement)."""
        rows = self.config.rows
        if not 0 <= global_rank < self.config.n_ranks:
            raise ValueError(f"rank {global_rank} outside grid of {self.config.n_ranks}")
        row = global_rank % rows
        column = global_rank // rows
        start, stop = self.column_block(column)
        return RankAssignment(
            global_rank=global_rank,
            row=row,
            column=column,
            owned_projections=tuple(self.projections_for_rank(row, column)),
            column_projections=tuple(range(start, stop)),
            z_range=self.z_range_for_row(row),
        )

    def all_assignments(self) -> List[RankAssignment]:
        """Assignments of every rank, indexed by global rank."""
        return [self.assignment(r) for r in range(self.config.n_ranks)]

    # ------------------------------------------------------------------ #
    def verify_complete(self) -> None:
        """Sanity check: the decomposition covers everything exactly once.

        * every projection index is owned by exactly one rank,
        * every Z slice is produced by exactly one row,
        * every column sees exactly ``Np / C`` projections.
        """
        seen = np.zeros(self.config.geometry.np_, dtype=np.int64)
        for assignment in self.all_assignments():
            for index in assignment.owned_projections:
                seen[index] += 1
        if not np.all(seen == 1):
            raise AssertionError("projection ownership is not a partition")
        covered = np.zeros(self.config.geometry.nz, dtype=np.int64)
        for row in range(self.config.rows):
            z0, z1 = self.z_range_for_row(row)
            covered[z0:z1] += 1
        if not np.all(covered == 1):
            raise AssertionError("Z slabs do not partition the volume")
