"""Calibration constants: the paper's published micro-benchmark values.

Section 4.2.1 parameterizes the performance model with values measured on
ABCI (IOR for the PFS, Intel MPI benchmarks for the collectives, Nvidia's
``bandwidthTest`` for PCIe, and the kernels themselves for ``TH_flt`` /
``TH_bp``).  The numbers below are the ones the paper itself publishes or
that can be derived from its tables; each entry records where it comes from
so the benchmark harness can cite its provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CalibrationEntry", "PAPER_CALIBRATION"]


@dataclass(frozen=True)
class CalibrationEntry:
    """One calibrated constant and its provenance in the paper."""

    name: str
    value: float
    unit: str
    source: str


#: Every constant used by the at-scale projections, with provenance.
PAPER_CALIBRATION: Dict[str, CalibrationEntry] = {
    "bw_pcie": CalibrationEntry(
        name="BW_PCIe",
        value=11.9e9,
        unit="bytes/s",
        source="Section 5.3.3: 'The peak bandwidth of a single PCIe x16 is 11.9GB/s'",
    ),
    "n_pcie": CalibrationEntry(
        name="N_PCIe",
        value=2,
        unit="links/node",
        source="Section 5.1: two PCIe switches feed the four V100s of an ABCI node",
    ),
    "bw_store": CalibrationEntry(
        name="BW_store",
        value=28.5e9,
        unit="bytes/s",
        source="Section 5.3.3: 'The peak sequential write bandwidth of GPFS is 28.5GB/s'",
    ),
    "bw_load": CalibrationEntry(
        name="BW_load",
        value=120.0e9,
        unit="bytes/s",
        source="IOR aggregate read rate of ABCI's GPFS (T_load is absorbed into "
        "T_flt in Table 5; the flat weak-scaling T_compute of Figure 5c bounds "
        "it from below)",
    ),
    "t_d2h_4k": CalibrationEntry(
        name="T_D2H (4K)",
        value=2.6,
        unit="s",
        source="Section 5.3.3: projected time to copy 32 GB over dual PCIe",
    ),
    "t_reduce_8gb": CalibrationEntry(
        name="T_reduce (8 GB)",
        value=2.7,
        unit="s",
        source="Section 5.3.3: projected time to reduce 8 GB over dual InfiniBand",
    ),
    "t_store_4k": CalibrationEntry(
        name="T_store (256 GB)",
        value=9.0,
        unit="s",
        source="Section 5.3.3: projected time to store 256 GB to GPFS",
    ),
    "th_flt": CalibrationEntry(
        name="TH_flt",
        value=366.0,
        unit="projections/s/node",
        source="Derived from Table 5: T_flt = 1.4 s for Np=4096 on 8 nodes (Eq. 9)",
    ),
    "th_bp": CalibrationEntry(
        name="TH_bp",
        value=95.0,
        unit="projections/s/GPU",
        source="Derived from Table 5 (T_bp = 54.8 s at C=1) and consistent with "
        "the ~190-200 GUPS of Table 4 on an 8 GB sub-volume",
    ),
    "th_allgather": CalibrationEntry(
        name="TH_AllGather",
        value=4.07,
        unit="operations/s",
        source="Derived from Table 5: T_AllGather = 31.4 s for 4096 projections "
        "across 32 ranks (Eq. 10)",
    ),
    "gups_l1tran_1k": CalibrationEntry(
        name="L1-Tran GUPS (1k^3 output)",
        value=211.4,
        unit="GUPS",
        source="Table 4, row 512^2x1k -> 1k^3",
    ),
}
