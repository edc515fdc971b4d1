"""The iFDK performance model (Section 4.2, Equations 8-19).

This module is the one home of every modelled second.  The model predicts
the end-to-end runtime of a distributed reconstruction from one profile of
micro-benchmark constants (Section 4.2.1), a :class:`MicroBenchmarks`:

=======================  ==============================================  =========
Field                    Meaning                                         Unit
=======================  ==============================================  =========
``bw_load``              aggregate PFS read bandwidth (``BW_load``)      bytes/s
``bw_store``             aggregate PFS write bandwidth (``BW_store``)    bytes/s
``th_flt``               filtering throughput of one node                proj/s
``th_bp``                back-projection throughput of one GPU           proj/s
``allgather_bandwidth``  per-hop bandwidth β of the ring AllGather       bytes/s
``allgather_latency``    per-message latency α of the ring AllGather     s
``th_reduce``            Reduce bandwidth within a row                   bytes/s
``th_trans``             device-side volume transpose bandwidth          bytes/s
``bw_pcie``              host<->device bandwidth of one PCIe link        bytes/s
``n_pcie``               PCIe links per node                             —
``gpus_per_node``        GPUs per node                                   —
=======================  ==============================================  =========

``ABCI_MICROBENCHMARKS`` is the only profile: the paper's testbed, each
constant with its provenance in ``ABCI_PROVENANCE``.  The individual terms
implement Equations 8-16; ``TH_AllGather`` of Eq. 10 is the α–β ring
AllGather of one projection across a column.  ``T_compute`` (Eq. 17),
``T_post`` (Eq. 18) and ``T_runtime`` (Eq. 19) combine them exactly as the
paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

from ..core.types import ReconstructionProblem

__all__ = [
    "ABCI_MICROBENCHMARKS",
    "ABCI_PROVENANCE",  # repro-lint: disable=dead-export -- the published source of each ABCI constant, as data
    "PerformanceBreakdown",
    "IFDKPerformanceModel",
]

_FLOAT_BYTES = 4


@dataclass(frozen=True)
class MicroBenchmarks:
    """The measured constants of Section 4.2.1 for one system."""

    bw_load: float
    bw_store: float
    th_flt: float
    th_bp: float
    allgather_bandwidth: float
    allgather_latency: float
    th_reduce: float
    th_trans: float
    bw_pcie: float
    n_pcie: int
    gpus_per_node: int = 4

    def __post_init__(self) -> None:
        # A NaN would vanish inside Eq. 17's max and an infinity would zero
        # its term: every constant is a finite positive number, or refused.
        for field in fields(self):
            value = getattr(self, field.name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ValueError(
                    f"{field.name} must be a finite positive number, got {value!r}"
                )

    def scaled(self, **kwargs) -> "MicroBenchmarks":
        """Return a copy with some constants replaced (what-if studies)."""
        return replace(self, **kwargs)


#: The ABCI testbed: ``field -> (value, unit, where the paper gives it)``.
_ABCI: Dict[str, Tuple[float, str, str]] = {
    "bw_load": (
        120.0e9, "bytes/s",
        "IOR aggregate read rate of ABCI's GPFS; not published (T_load is folded "
        "into T_flt in Table 5), and 120 GB/s keeps T_compute flat in the "
        "weak-scaling runs up to Np = 32k (Figure 5c)",
    ),
    "bw_store": (
        28.5e9, "bytes/s",
        "Section 5.3.3: 'The peak sequential write bandwidth of GPFS is "
        "28.5GB/s', so 256 GB are stored in ~9 s (Eq. 16)",
    ),
    "th_flt": (
        366.0, "projections/s/node",
        "Table 5: T_flt = 1.4 s for Np = 4096 on 8 nodes (Eq. 9)",
    ),
    "th_bp": (
        95.0, "projections/s/GPU",
        "Table 5: T_bp = 54.8 s at C = 1 (Eq. 12), consistent with the "
        "~190-200 GUPS of Table 4 on an 8 GB sub-volume",
    ),
    "allgather_bandwidth": (
        2.2e9, "bytes/s",
        "Table 5: T_AllGather = 31.4 s for 4096 projections on a 32-rank "
        "column, i.e. ~0.25 s per ring AllGather of one 16 MB projection (Eq. 10)",
    ),
    "allgather_latency": (
        30e-6, "s",
        "per-message latency of MPI on ABCI's dual InfiniBand EDR; negligible "
        "next to the bandwidth term at projection sizes",
    ),
    "th_reduce": (
        3.0e9, "bytes/s",
        "Section 5.3.3: an 8 GB sub-volume is reduced over dual InfiniBand in "
        "~2.7 s (Eq. 15)",
    ),
    "th_trans": (
        220.0e9, "bytes/s",
        "V100 device-memory transpose rate; Section 4.1.3 treats T_trans as "
        "negligible (Eq. 13)",
    ),
    "bw_pcie": (
        6.2e9, "bytes/s",
        "Effective per-link rate: bandwidthTest reports 11.9 GB/s one way "
        "(Section 5.3.3), but the paper's own T_D2H (32 GB over dual links in "
        "~2.6 s) implies ~6.2 GB/s once both directions and two GPUs per "
        "switch contend, which keeps Eq. 11/14 consistent with Figure 5",
    ),
    "n_pcie": (
        2, "links/node",
        "Section 5.1: two PCIe switches feed the four V100s of an ABCI node",
    ),
    "gpus_per_node": (4, "GPUs/node", "Section 5.1: four V100s per ABCI node"),
}

#: Constants of the ABCI testbed as published in the paper.
ABCI_MICROBENCHMARKS = MicroBenchmarks(**{name: v for name, (v, _, _) in _ABCI.items()})
#: ``field -> (unit, source)`` for every constant of ``ABCI_MICROBENCHMARKS``.
ABCI_PROVENANCE: Dict[str, Tuple[str, str]] = {
    name: (unit, source) for name, (_, unit, source) in _ABCI.items()
}


@dataclass(frozen=True)
class PerformanceBreakdown:
    """All terms of the model for one configuration (seconds)."""

    t_load: float
    t_flt: float
    t_allgather: float
    t_h2d: float
    t_bp: float
    t_trans: float
    t_d2h: float
    t_reduce: float
    t_store: float

    @property
    def t_compute(self) -> float:
        """Equation 17: the overlapped phase is bounded by its slowest member."""
        return max(self.t_load, self.t_flt, self.t_allgather, self.t_bp)

    @property
    def t_post(self) -> float:
        """Equation 18 (with the negligible transpose kept explicit)."""
        return self.t_trans + self.t_d2h + self.t_reduce + self.t_store

    @property
    def t_runtime(self) -> float:
        """Equation 19: end-to-end time including I/O."""
        return self.t_compute + self.t_post

    @property
    def delta(self) -> float:
        """Table 5's δ = (T_flt + T_allgather + T_bp) / T_compute."""
        compute = self.t_compute
        if compute == 0:
            return float("inf")
        return (self.t_flt + self.t_allgather + self.t_bp) / compute

    def without_filtering(self) -> "PerformanceBreakdown":
        """The breakdown of a run whose projections are already filtered (a
        cache hit): ``T_flt = 0``, so Eq. 17 is ``max(T_load, T_AllGather,
        T_bp)`` — every term is ≥ 0, so a zero never wins the max."""
        return replace(self, t_flt=0.0)

    def as_dict(self) -> Dict[str, float]:
        return {
            "t_load": self.t_load,
            "t_flt": self.t_flt,
            "t_allgather": self.t_allgather,
            "t_h2d": self.t_h2d,
            "t_bp": self.t_bp,
            "t_trans": self.t_trans,
            "t_d2h": self.t_d2h,
            "t_reduce": self.t_reduce,
            "t_store": self.t_store,
            "t_compute": self.t_compute,
            "t_post": self.t_post,
            "t_runtime": self.t_runtime,
            "delta": self.delta,
        }


class IFDKPerformanceModel:
    """Evaluate Equations 8-19 for a problem and an (R, C) rank grid."""

    def __init__(self, micro: MicroBenchmarks = ABCI_MICROBENCHMARKS):
        self.micro = micro

    # ------------------------------------------------------------------ #
    # Individual terms (Equations 8-16)
    # ------------------------------------------------------------------ #
    def t_load(self, problem: ReconstructionProblem) -> float:
        """Eq. 8: read all projections from the PFS."""
        return _FLOAT_BYTES * problem.input_pixels / self.micro.bw_load

    def t_flt(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """Eq. 9: filtering, spread over the nodes."""
        return (
            problem.np_
            * self.micro.gpus_per_node
            / (columns * rows * self.micro.th_flt)
        )

    def t_allgather(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """Eq. 10: one AllGather per projection handled by each rank.

        ``1 / TH_AllGather`` is a ring AllGather of one projection across the
        column's ``R`` ranks, ``(R - 1)·(α + m/β)``: a 256-rank column (8K
        problems) pays ~8x more per operation than a 32-rank one, and a
        one-rank column pays nothing.
        """
        operations = problem.np_ / (columns * rows)
        projection_bytes = _FLOAT_BYTES * problem.nu * problem.nv
        return operations * (
            (rows - 1)
            * (self.micro.allgather_latency + projection_bytes / self.micro.allgather_bandwidth)
        )

    def t_h2d(self, problem: ReconstructionProblem, columns: int) -> float:
        """Eq. 11: push each column's filtered projections to the GPUs."""
        return (
            _FLOAT_BYTES
            * self.micro.gpus_per_node
            * problem.nu
            * problem.nv
            * problem.np_
            / (columns * self.micro.bw_pcie * self.micro.n_pcie)
        )

    def t_bp(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """Eq. 12: back-projection time (includes the H2D staging)."""
        return self.t_h2d(problem, columns) + problem.np_ / (columns * self.micro.th_bp)

    def t_trans(self, problem: ReconstructionProblem, rows: int) -> float:
        """Eq. 13: transpose the sub-volume back to the i-major layout."""
        return _FLOAT_BYTES * problem.output_voxels / (rows * self.micro.th_trans)

    def t_d2h(self, problem: ReconstructionProblem, rows: int) -> float:
        """Eq. 14: copy every sub-volume from device to host."""
        return (
            _FLOAT_BYTES
            * self.micro.gpus_per_node
            * problem.output_voxels
            / (rows * self.micro.bw_pcie * self.micro.n_pcie)
        )

    def t_reduce(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """Eq. 15: reduce the partial sub-volumes across each row.

        With ``C = 1`` there is nothing to reduce (the paper reports "N/A").
        """
        if columns == 1:
            return 0.0
        return _FLOAT_BYTES * problem.output_voxels / (rows * self.micro.th_reduce)

    def t_store(self, problem: ReconstructionProblem) -> float:
        """Eq. 16: store the output volume to the PFS."""
        return _FLOAT_BYTES * problem.output_voxels / self.micro.bw_store

    # ------------------------------------------------------------------ #
    def breakdown(
        self, problem: ReconstructionProblem, rows: int, columns: int
    ) -> PerformanceBreakdown:
        """All model terms for an ``R x C`` grid (Equations 8-19)."""
        if rows <= 0 or columns <= 0:
            raise ValueError("rows and columns must be positive")
        return PerformanceBreakdown(
            t_load=self.t_load(problem),
            t_flt=self.t_flt(problem, rows, columns),
            t_allgather=self.t_allgather(problem, rows, columns),
            t_h2d=self.t_h2d(problem, columns),
            t_bp=self.t_bp(problem, rows, columns),
            t_trans=self.t_trans(problem, rows),
            t_d2h=self.t_d2h(problem, rows),
            t_reduce=self.t_reduce(problem, rows, columns),
            t_store=self.t_store(problem),
        )

    def runtime(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """Eq. 19 for one configuration."""
        return self.breakdown(problem, rows, columns).t_runtime

    def gups(self, problem: ReconstructionProblem, rows: int, columns: int) -> float:
        """End-to-end GUPS (the Figure 6 metric) predicted by the model."""
        return problem.gups(self.runtime(problem, rows, columns))
