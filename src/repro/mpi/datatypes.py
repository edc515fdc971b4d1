"""Reduction operations and buffer helpers for the in-process MPI substrate.

Only the small subset of MPI semantics that iFDK relies on is modelled:
contiguous NumPy buffers, the ``SUM``/``MAX``/``MIN``/``PROD`` reduction
operators (iFDK itself only uses ``SUM``), and shape/dtype validation so
that mismatched collective calls fail loudly instead of corrupting data.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

import numpy as np

__all__ = ["ReduceOp", "validate_buffer"]


class ReduceOp(Enum):
    """Reduction operators supported by the simulated collectives."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"

    @property
    def ufunc(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The NumPy ufunc implementing this reduction."""
        return {
            ReduceOp.SUM: np.add,
            ReduceOp.PROD: np.multiply,
            ReduceOp.MAX: np.maximum,
            ReduceOp.MIN: np.minimum,
        }[self]

    def combine(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        """Reduce a sequence of equally-shaped buffers into a new array."""
        if not buffers:
            raise ValueError("cannot reduce an empty sequence of buffers")
        result = np.array(buffers[0], copy=True)
        for buf in buffers[1:]:
            self.ufunc(result, buf, out=result)
        return result


def validate_buffer(buffer: np.ndarray, name: str = "buffer") -> np.ndarray:
    """Require a NumPy array (any shape); returns it unchanged."""
    if not isinstance(buffer, np.ndarray):
        raise TypeError(f"{name} must be a numpy.ndarray, got {type(buffer).__name__}")
    return buffer
