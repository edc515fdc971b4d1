"""In-process MPI substrate for the iFDK reproduction.

Provides the SPMD programming model the paper's framework is written
against — an SPMD engine and the four collectives iFDK uses (``Split``,
``Allgather``, ``Reduce``, ``Barrier``) — implemented with one thread per
rank inside a single Python process.  Which rank sits where in the R×C grid
is :class:`repro.pipeline.Decomposition`'s; what the collectives would cost
at scale is modelled by Eq. 10 and Eq. 15 in :mod:`repro.pipeline.perfmodel`.
"""

from .communicator import CommunicatorError, SimCommunicator
from .engine import SpmdError, run_spmd

__all__ = [
    "CommunicatorError",
    "SimCommunicator",
    "SpmdError",
    "run_spmd",
]
