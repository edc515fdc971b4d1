"""The iFDK distributed framework (Section 4 of the paper)."""

from .circular_buffer import BufferClosed, CircularBuffer
from .config import IFDKConfig, choose_grid, fits_device_memory, subvolume_bytes
from .decomposition import Decomposition, RankAssignment
from .ifdk import IFDKFramework, IFDKRunResult
from .perfmodel import (
    ABCI_MICROBENCHMARKS,
    IFDKPerformanceModel,
    MicroBenchmarks,
    PerformanceBreakdown,
)
from .rank_runtime import RankResult, run_rank

__all__ = [
    "ABCI_MICROBENCHMARKS",
    "BufferClosed",
    "CircularBuffer",
    "Decomposition",
    "IFDKConfig",
    "IFDKFramework",
    "IFDKPerformanceModel",
    "IFDKRunResult",
    "MicroBenchmarks",
    "PerformanceBreakdown",
    "RankAssignment",
    "RankResult",
    "choose_grid",
    "fits_device_memory",
    "run_rank",
    "subvolume_bytes",
]
