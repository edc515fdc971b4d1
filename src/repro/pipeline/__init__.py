"""The iFDK distributed framework (Section 4 of the paper)."""

from .circular_buffer import BufferClosed, CircularBuffer
from .config import IFDKConfig, choose_grid
from .decomposition import Decomposition
from .ifdk import IFDKFramework
from .perfmodel import (
    ABCI_MICROBENCHMARKS,
    IFDKPerformanceModel,
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
    "PerformanceBreakdown",
    "RankResult",
    "choose_grid",
    "run_rank",
]
