"""Pluggable compute backends for the FDK hot paths.

Every layer of the stack — the single-node driver
:class:`repro.streaming.StreamingReconstructor`, the iFDK rank runtime, the
reconstruction service and the CLI — executes its
ramp filtering and back-projection through a named
:class:`~repro.backends.base.ComputeBackend`:

``reference``
    The original paper-literal NumPy implementation (the conformance
    ground truth).
``vectorized`` / ``blocked`` / ``parallel``
    Three names of one :class:`~repro.backends.tiled.TiledBackend`: fully
    batched NumPy kernels (per-projection geometry hoisted per Theorems
    2/3, fused weight·fetch·accumulate, single-precision real-FFT filtering
    at the shortest exact transform length) run over
    (z, y) tiles under a byte budget and fixed detector-row groups, on a
    persistent worker pool.  ``vectorized`` and ``blocked`` run one worker
    inline; ``parallel`` fans out (``workers=N``).  Bit-identical at every
    byte budget and worker count, because workers own disjoint tiles of one
    preallocated volume.  Algorithm 4's voxel updates run as compiled code
    (:mod:`repro.backends.native`: ``alg4.c``, built with the system ``cc`` on
    first use and cached per user) wherever that builds, loads and reproduces
    the NumPy kernel's bits on a self-check — otherwise on the NumPy kernels,
    with one warning: same bits, slower.

Adding a backend
----------------

First ask whether it is a new *kernel* (add it to
:mod:`repro.backends.vectorized` and let the tiled backend drive it) or a
new execution strategy.  For the latter subclass
:class:`~repro.backends.base.ComputeBackend`, implement ``apply_filter``
(padded float32 row group in, final float32 rows out) and ``accumulator``
(whose :class:`~repro.backends.base.VolumeAccumulator` folds projections
into one buffer and, on ``volume()``, hands that buffer over without a copy
and is then spent), optionally set ``ramp_response`` (the ramp table, and with it the pad;
the canonical power-of-two one by default), give it a unique ``name`` and call
:func:`register_backend`.  The new backend must pass the conformance
matrix in ``tests/test_backend_conformance.py`` (≤ 1e-5 relative RMSE
against ``reference`` on every preset/dtype/slab combination) before it is
trusted anywhere; see :mod:`repro.backends.base` for the full contract.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type, Union

from .base import ComputeBackend, VolumeAccumulator
from .reference import ReferenceBackend
from .tiled import (
    TiledBackend,
    check_workers,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ComputeBackend",
    "ReferenceBackend",
    "TiledBackend",
    "VolumeAccumulator",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "validate_backend",
]

#: The backend every layer defaults to.
DEFAULT_BACKEND = "reference"

_registry: Dict[str, ComputeBackend] = {}


def register_backend(backend: Union[ComputeBackend, Type[ComputeBackend]]) -> ComputeBackend:
    """Register a backend instance (or zero-argument class) by its ``name``."""
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, ComputeBackend):
        raise TypeError(f"{backend!r} is not a ComputeBackend")
    if not instance.name:
        raise ValueError("backend must define a non-empty name")
    _registry[instance.name] = instance
    return instance


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends (sorted, ``reference`` first)."""
    names = sorted(_registry)
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0, DEFAULT_BACKEND)
    return tuple(names)


def get_backend(name: Union[str, ComputeBackend]) -> ComputeBackend:
    """Resolve a backend by name (instances pass through unchanged)."""
    if isinstance(name, ComputeBackend):
        return name
    try:
        return _registry[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def resolve_backend(
    name: Union[str, ComputeBackend], *, workers: Union[int, None] = None
) -> ComputeBackend:
    """Resolve a backend, optionally overriding the parallel worker count.

    ``workers=None`` is a plain :func:`get_backend` lookup (instances pass
    through).  An explicit worker count builds a *dedicated*
    :class:`TiledBackend` whose pool the caller owns — close it on
    teardown (``StreamingReconstructor.close`` does).  Requesting workers on any
    other backend is a :class:`ValueError`: only ``parallel`` executes on a
    worker pool.
    """
    if workers is None:
        return get_backend(name)
    validate_backend(name, workers=workers)
    return TiledBackend(workers=workers)


def validate_backend(
    name: Union[str, ComputeBackend], *, workers: Union[int, None] = None
) -> str:
    """Check a backend name / worker-count combination without resolving it.

    The single source of the resolution rules — the name must be
    registered, a worker count must be a positive integer, and an explicit
    worker count requires the ``parallel`` backend.  :func:`resolve_backend`
    enforces them by calling this; the declarative plan layer calls it
    directly because it validates long before anything executes and must
    never construct a dedicated backend or a worker pool.  Returns the
    canonical backend name.
    """
    resolved = get_backend(name).name
    if workers is not None:
        check_workers(workers)
        if resolved != "parallel":
            raise ValueError(
                f"workers={workers!r} requires the 'parallel' backend, but "
                f"backend is {resolved!r}"
            )
    return resolved


register_backend(ReferenceBackend)
register_backend(TiledBackend(workers=1, name="vectorized"))
register_backend(TiledBackend(workers=1, name="blocked"))
register_backend(TiledBackend(name="parallel"))

#: Stable tuple of the built-in backend names.
BACKEND_NAMES = available_backends()
