"""repro — reproduction of iFDK (SC'19).

``repro`` is a production-quality Python library reproducing *"iFDK: A
Scalable Framework for Instant High-resolution Image Reconstruction"*
(Chen, Wahib, Takizawa, Takano, Matsuoka — SC 2019).

Sub-packages
------------

Each loads on first touch: ``import repro`` imports none of them, and
``repro.service`` or ``from repro import Session`` imports that one (and
what it imports) when the name is first read, so a process pays only for
the layers it runs.

``repro.core``
    The FDK algorithms: geometry, phantoms, forward projection, filtering
    (Algorithm 1), the standard and proposed back-projection algorithms
    (Algorithms 2 and 4) and quality metrics.
``repro.backends``
    Pluggable compute backends for the hot paths: ``reference`` and one
    tiled backend registered as ``vectorized``, ``blocked`` and
    ``parallel``, proven interchangeable by the cross-backend conformance
    suite.
``repro.gpusim``
    A simulated GPU substrate: device model and the five back-projection
    kernel variants of Table 3 with an analytic throughput model (Table 4).
``repro.mpi``
    An in-process MPI substrate: SPMD engine and the four collectives the
    distributed framework uses (``Split``, ``Allgather``, sum ``Reduce``,
    ``Barrier``).
``repro.pfs``
    A simulated parallel file system (GPFS-like) with striping and a
    per-file write-time model.
``repro.pipeline``
    The iFDK distributed framework: problem decomposition (the one rank
    placement), Section 4.1.5's device-memory rule, the per-rank
    pipeline, the end-to-end driver and the Eq. 8–19 performance model,
    the one home of every modelled second and of the ABCI profile.
``repro.bench``
    Workload definitions and reporting helpers shared by the benchmark
    harness that regenerates every table and figure of the paper.
``repro.service``
    Reconstruction-as-a-service: multi-tenant job queue with admission
    control, SLO-aware GPU cluster scheduling over the performance model,
    and a content-keyed cache of filtered projections.
``repro.scenarios``
    Acquisition scenarios: declarative short-scan, offset-detector,
    sparse-view and noisy protocols with redundancy weighting, locked
    down by the scenario × backend conformance matrix.
``repro.streaming``
    Chunked streaming reconstruction: the ``ProjectionChunkSource``
    protocol (in-memory, PFS-backed and online circular-buffer sources)
    and the ``StreamingReconstructor`` that pipelines per-chunk filtering
    into accumulation under an explicit memory budget — bit-identical to
    the whole-stack path on every backend.
``repro.obs``
    Unified observability: the ambient span tracer and metrics registry
    the backends, pipeline and service are instrumented against, run
    reports, and the Chrome-trace / JSON-lines / summary exporters behind
    ``--trace-out`` and ``repro report``.
``repro.api``
    The public front door: the declarative, serializable
    :class:`~repro.api.ReconstructionPlan` (one canonical description of
    a reconstruction, with a stable content hash) and the
    :class:`~repro.api.Session` executor that compiles a plan onto the
    FDK, iFDK or service path and returns a unified result.
``repro.analysis``
    Static analysis and dynamic sanitizers for the project's invariants:
    the ``repro lint`` AST passes (lock discipline, spawn safety,
    determinism, dtype discipline, error contracts) and the opt-in
    lock-order sanitizer behind ``REPRO_LOCK_SANITIZER=1``.
"""

from importlib import import_module as _import_module

__version__ = "1.6.0"

__all__ = [
    "ReconstructionPlan",
    "RunResult",
    "Session",
    "analysis",
    "api",
    "backends",
    "bench",
    "core",
    "gpusim",
    "mpi",
    "obs",
    "pfs",
    "pipeline",
    "scenarios",
    "service",
    "streaming",
    "__version__",
]

#: The front-door names re-exported from :mod:`repro.api`.
_API_NAMES = ("ReconstructionPlan", "RunResult", "Session")


def __getattr__(name: str):
    # Deferred (PEP 562): a CLI call or a spawned worker imports only what it touches.
    if name in _API_NAMES:
        value = globals()[name] = getattr(_import_module(".api", __name__), name)
        return value
    if name in __all__:
        # Importing a subpackage binds it here, so this runs once per name.
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
