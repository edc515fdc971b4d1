"""The iFDK distributed framework: end-to-end driver (Section 4).

:class:`IFDKFramework` wires every substrate together:

1. the input projections are written to (or already live on) the simulated
   PFS;
2. ``R × C`` MPI ranks are launched with :func:`repro.mpi.engine.run_spmd`,
   each running the load / filter / AllGather / back-projection steps of
   :mod:`repro.pipeline.rank_runtime` in order;
3. the row-root ranks store their reduced Z slabs back to the PFS, from
   which the final volume is reassembled;
4. wall-clock timings, per-rank stage breakdowns, communication volumes and
   the performance-model prediction for the same configuration are reported
   together in :class:`IFDKRunResult`.

On this machine the framework runs scaled-down problems (tens of ranks,
64–256³ volumes) for functional validation; the at-scale numbers of the
paper's evaluation come from the same configuration objects fed to the
performance model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.types import ProjectionStack, ReconstructionProblem, Volume
from ..mpi.engine import run_spmd
from ..pfs.projection_io import write_projection_dataset
from ..pfs.storage import SimulatedPFS
from ..pfs.volume_io import read_volume
from .config import IFDKConfig
from .decomposition import Decomposition
from .perfmodel import ABCI_MICROBENCHMARKS, IFDKPerformanceModel, PerformanceBreakdown
from .rank_runtime import RankResult, run_rank

__all__ = ["IFDKFramework"]


@dataclass
class IFDKRunResult:
    """Everything produced by one distributed reconstruction."""

    volume: Volume
    config: IFDKConfig
    rank_results: List[RankResult]
    wall_seconds: float
    modelled: PerformanceBreakdown
    problem: ReconstructionProblem

    # ------------------------------------------------------------------ #
    @property
    def gups(self) -> float:
        """Measured end-to-end GUPS of the functional run."""
        return self.problem.gups(self.wall_seconds)

    @property
    def modelled_gups(self) -> float:
        """GUPS predicted by the performance model for the same grid."""
        return self.problem.gups(self.modelled.t_runtime)

    def stage_totals(self) -> Dict[str, float]:
        """Sum of each stage's busy time across all ranks."""
        totals: Dict[str, float] = {}
        for result in self.rank_results:
            for stage, seconds in result.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def mean_overlap_delta(self) -> float:
        """Average of the per-rank overlap factors δ (Table 5)."""
        deltas = [r.overlap_delta for r in self.rank_results if np.isfinite(r.overlap_delta)]
        return float(np.mean(deltas)) if deltas else float("nan")


class IFDKFramework:
    """Configured distributed FDK reconstruction."""

    def __init__(
        self,
        config: IFDKConfig,
        *,
        pfs: Optional[SimulatedPFS] = None,
        performance_model: Optional[IFDKPerformanceModel] = None,
    ):
        self.config = config
        self.pfs = pfs or SimulatedPFS()
        self.performance_model = performance_model or IFDKPerformanceModel(
            ABCI_MICROBENCHMARKS
        )
        # Fail fast on inconsistent configurations.
        Decomposition(config).verify_complete()
        config.validate_device_memory()

    # ------------------------------------------------------------------ #
    def stage_input(self, stack: ProjectionStack) -> float:
        """Write the acquisition to the PFS; returns the modelled write time."""
        geometry = self.config.geometry
        if stack.np_ != geometry.np_ or stack.nv != geometry.nv or stack.nu != geometry.nu:
            raise ValueError(
                f"projection stack {stack.np_}x{stack.nv}x{stack.nu} does not match "
                f"the configured geometry {geometry.np_}x{geometry.nv}x{geometry.nu}"
            )
        return write_projection_dataset(self.pfs, stack)

    def reconstruct(
        self,
        stack: Optional[ProjectionStack] = None,
        *,
        volume_name: str = "reconstruction",
    ) -> IFDKRunResult:
        """Run the full distributed reconstruction.

        Parameters
        ----------
        stack:
            The acquisition to reconstruct.  When omitted, the projections
            must already be present on the PFS (staged by a previous
            :meth:`stage_input` call).
        volume_name:
            Name under which the output slabs are stored on the PFS.
        """
        if stack is not None:
            self.stage_input(stack)

        start = time.perf_counter()
        try:
            rank_results: List[RankResult] = run_spmd(
                self.config.n_ranks,
                run_rank,
                self.config,
                self.pfs,
                volume_name=volume_name,
                name=f"ifdk-{self.config.rows}x{self.config.columns}",
            )
        finally:
            # A config-owned parallel pool must not outlive the run (it
            # restarts lazily, so repeat reconstructions still work).
            self.config.close_backend()
        wall = time.perf_counter() - start

        volume = read_volume(
            self.pfs, volume_name, voxel_pitch=self.config.geometry.voxel_pitch
        )
        problem = self.config.problem
        modelled = self.performance_model.breakdown(
            problem, self.config.rows, self.config.columns
        )
        return IFDKRunResult(
            volume=volume,
            config=self.config,
            rank_results=rank_results,
            wall_seconds=wall,
            modelled=modelled,
            problem=problem,
        )
