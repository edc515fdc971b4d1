"""In-process MPI substrate for the iFDK reproduction.

Provides the SPMD programming model the paper's framework is written
against — rank grids, collectives and point-to-point messages — implemented
with one thread per rank inside a single Python process.  What the
collectives would cost at scale is modelled by Eq. 10 and Eq. 15 in
:mod:`repro.pipeline.perfmodel`.
"""

from .communicator import CommunicatorError, SimCommunicator
from .datatypes import ReduceOp
from .engine import RankFailure, SpmdError, run_spmd
from .grid import GridPosition, RankGrid2D

__all__ = [
    "CommunicatorError",
    "GridPosition",
    "RankFailure",
    "RankGrid2D",
    "ReduceOp",
    "SimCommunicator",
    "SpmdError",
    "run_spmd",
]
