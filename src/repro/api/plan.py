"""The declarative reconstruction plan: one canonical description of a run.

After the service, backend and scenario layers grew around the original
single-node pipeline, the framework had four divergent parameter surfaces
for the same underlying reconstruction: ``StreamingReconstructor(geometry,
backend, scenario, workers, ...)``, ``IFDKConfig(geometry, rows, columns,
backend, workers)``, ``ReconstructionJob(problem, ramp_filter, scenario,
priority, ...)`` and the CLI flag sets that re-plumb all of them.  A
:class:`ReconstructionPlan` is the single, frozen, serializable object
those surfaces now share (each has a ``from_plan``):

* **declarative** — geometry + scenario + backend + workers + dtype +
  execution target, nothing resolved, nothing stateful;
* **canonical** — :meth:`ReconstructionPlan.key` is a content hash of the
  canonical JSON form, stable across processes, Python versions and field
  ordering, so caches, schedulers and reports all agree on identity;
* **lossless** — ``from_json(to_json(plan)) == plan`` exactly (floats
  round-trip through JSON bit-for-bit via ``repr``);
* **strict** — :meth:`ReconstructionPlan.from_dict` rejects unknown
  fields, so a typo in a plan file is an error, not a silently ignored
  knob.

The *filtering identity* of a plan — the subset of fields that determine
the filtered projections (ramp filter, detector/stack shape, scenario
protocol) — is exposed as :meth:`ReconstructionPlan.filter_key` and is
what the service's :class:`~repro.service.cache.FilteredProjectionCache`
keys on: two plans that differ only in ``workers``, ``backend``,
``target`` or output-volume knobs share filtered projections; two plans
that differ in scenario or acquisition shape never do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Dict, NamedTuple, Optional

import numpy as np

from ..core.geometry import CBCTGeometry, default_geometry_for_problem
from ..core.types import ReconstructionProblem, problem_from_string

__all__ = [
    "PLAN_VERSION",
    "TARGETS",
    "ReconstructionPlan",
    "acquisition_token",
    "filter_cache_identity",
    "plan_for_problem",
]

#: Schema version of the plan JSON document.
PLAN_VERSION = 1

#: The execution targets a plan can compile to.
TARGETS = ("fdk", "ifdk", "service")

# Field partition of CBCTGeometry used for canonical (de)serialization.
_GEOMETRY_INT_FIELDS = ("nu", "nv", "np_", "nx", "ny", "nz")
_GEOMETRY_FLOAT_FIELDS = (
    "du", "dv", "sad", "sdd", "dx", "dy", "dz",
    "angle_offset", "angular_range", "detector_offset_u",
)


#: How many parsed plan documents :meth:`ReconstructionPlan.from_json` keeps.
#: A facility submits a handful of protocol plans for many datasets, so a
#: few dozen cover every document a front door sees twice.
_PARSED_PLANS_MAX = 64

# SHA-256 of a document's text -> its plan, least recently read first.  The
# digest is the key, so a large body is hashed once and never retained.
_parsed_plans: "OrderedDict[bytes, ReconstructionPlan]" = OrderedDict()
_parsed_plans_lock = threading.Lock()


class _PlanIdentity(NamedTuple):
    """What a plan's fields determine once and for all (see ``_identity``)."""

    key: str
    acquisition: str
    problem: ReconstructionProblem


def _canonical_json(payload: Dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, no whitespace, ``repr`` floats.

    ``allow_nan=False`` so a non-finite value can never reach a plan file
    or a content hash — strict JSON parsers reject ``NaN``/``Infinity``.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _as_int(name: str, value: Any) -> int:
    """Coerce a plan-file scalar to int (ValueError -> the exit-2 path).

    Integral floats (``2.0``, a JSON artifact) canonicalize to ``2``;
    anything lossy (``2.5``) or non-numeric (booleans included) is an
    error — truncating would silently change the plan the author wrote.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"plan field {name!r} must be an integer, got {value!r}"
        )
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(
            f"plan field {name!r} must be an integer, got {value!r}"
        )
    return int(value)


def _as_float(name: str, value: Any) -> float:
    """Coerce a plan-file scalar to a finite float (ValueError -> exit 2).

    NaN/Infinity are rejected: they are not valid strict JSON, so letting
    one in would produce a plan file other parsers cannot read — and a
    NaN SLO would make every deadline comparison silently false.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"plan field {name!r} must be a number, got {value!r}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"plan field {name!r} must be finite, got {value!r}")
    return value


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def acquisition_token(geometry: CBCTGeometry) -> str:
    """Content hash of a geometry's *filtering-relevant physics*.

    Beyond the detector/stack shape (which the filtering identity carries
    explicitly), the filtering stage depends on the acquisition physics:
    the pixel pitch and source distances (the FDK pre-weighting and the
    filter tap spacing ``τ = du·d/D``), the angular span (the Riemann
    measure ``θ``) and the lateral detector offset (cosine weights and
    redundancy tables).  Two acquisitions that differ in any of these
    produce different filtered projections even from byte-identical shapes,
    so plan-derived cache keys must separate them.  The volume extent and
    voxel pitch are deliberately excluded — they only affect
    back-projection, so re-reconstructing the same acquisition at another
    output size reuses its filtering.
    """
    return _short_hash(_canonical_json({
        "du": float(geometry.du),
        "dv": float(geometry.dv),
        "sad": float(geometry.sad),
        "sdd": float(geometry.sdd),
        "angle_offset": float(geometry.angle_offset),
        "angular_range": float(geometry.angular_range),
        "detector_offset_u": float(geometry.detector_offset_u),
    }))


def filter_cache_identity(
    *, ramp_filter: str, nu: int, nv: int, np_: int, scenario: str,
    acquisition: str = "",
) -> str:
    """Content hash of one *filtering identity*.

    The filtered projections are a pure function of the raw data, the ramp
    filter, the detector/stack shape, the acquisition-scenario protocol
    (its cache token) and the acquisition physics — and of nothing else.
    ``acquisition`` is an :func:`acquisition_token` when the caller knows
    the full geometry (plans always do), or ``""`` when the physics is
    implied by the dataset identity (trace jobs, which carry only a
    problem shape).  Both :meth:`ReconstructionPlan.filter_key` and the
    service's :class:`~repro.service.cache.CacheKey` hash through this one
    function, so the plan layer and the cache layer can never drift apart.
    """
    return _short_hash(_canonical_json({
        "ramp_filter": str(ramp_filter),
        "nu": int(nu),
        "nv": int(nv),
        "np_": int(np_),
        "scenario": str(scenario),
        "acquisition": str(acquisition),
    }))


def _geometry_to_dict(geometry: CBCTGeometry) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for name in _GEOMETRY_INT_FIELDS:
        payload[name] = int(getattr(geometry, name))
    for name in _GEOMETRY_FLOAT_FIELDS:
        payload[name] = float(getattr(geometry, name))
    return payload


def _geometry_from_dict(payload: Dict[str, Any]) -> CBCTGeometry:
    if not isinstance(payload, dict):
        raise ValueError("plan 'geometry' must be a JSON object")
    known = set(_GEOMETRY_INT_FIELDS) | set(_GEOMETRY_FLOAT_FIELDS)
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown geometry field(s) in plan: {', '.join(unknown)}"
        )
    missing = sorted(
        name for name in ("nu", "nv", "np_", "du", "dv", "sad", "sdd",
                          "nx", "ny", "nz", "dx", "dy", "dz")
        if name not in payload
    )
    if missing:
        raise ValueError(
            f"plan geometry is missing required field(s): {', '.join(missing)}"
        )
    kwargs: Dict[str, Any] = {}
    for name in _GEOMETRY_INT_FIELDS:
        kwargs[name] = _as_int(f"geometry.{name}", payload[name])
    for name in _GEOMETRY_FLOAT_FIELDS:
        if name in payload:
            kwargs[name] = _as_float(f"geometry.{name}", payload[name])
    return CBCTGeometry(**kwargs)


@dataclass(frozen=True)
class ReconstructionPlan:
    """One complete, serializable description of a reconstruction.

    Parameters
    ----------
    geometry:
        The *base* acquisition geometry (detector, trajectory and output
        volume).  For non-ideal scenarios this is the ideal full-scan
        acquisition the scenario is derived from; the executed geometry is
        :meth:`scenario_geometry`.
    target:
        Execution target: ``"fdk"`` (single-node), ``"ifdk"`` (distributed
        on the simulated cluster) or ``"service"`` (submitted as a job to
        the reconstruction service).
    scenario:
        Acquisition-scenario preset *name* (plans are serializable, so
        ad-hoc scenario instances must be registered first; see
        :func:`repro.scenarios.scenario.register_scenario`).
    backend:
        Compute backend name for the filter/back-projection hot paths.
    workers:
        For ``fdk``/``ifdk`` targets: worker-thread count of a dedicated
        ``parallel`` backend pool (requires ``backend="parallel"``).  For
        the ``service`` target: the real-execution dispatcher width (any
        backend).  ``None`` disables both.
    dtype:
        Imaging dtype.  The paper's contract is single precision
        everywhere (Section 5.1), so only ``"float32"`` validates today;
        the field exists so the identity hash is future-proof.
    ramp_filter, algorithm:
        Filtering window and back-projection algorithm, as on
        :class:`~repro.streaming.StreamingReconstructor`.
    rows, columns:
        ``R`` and ``C`` of the 2-D rank grid; required when (and only
        meaningful when) ``target="ifdk"``.
    cluster_gpus, tenant, priority, slo_seconds:
        Service-target quality-of-service description, mapped onto the
        submitted :class:`~repro.service.job.ReconstructionJob`.
    tenant_weight, max_inflight:
        Fair-share hints for the ``service`` target: the submitting
        tenant's scheduling weight and in-flight job cap, adopted by the
        service's :class:`~repro.service.fairness.FairShareQueue` for
        tenants the operator's :class:`~repro.service.queue.AdmissionPolicy`
        does not configure explicitly (operator settings always win).  A
        weight is at least :data:`~repro.service.job.MIN_TENANT_WEIGHT`
        (1e-9): below it the fair-share arithmetic underflows.
    streaming, chunk_size, memory_budget_bytes:
        Chunked execution on the ``fdk`` target: ``streaming=True`` routes
        :meth:`Session.run` through a chunk source of the
        :class:`~repro.streaming.StreamingReconstructor`, filtering and
        back-projecting ``chunk_size`` projections at a time under
        ``memory_budget_bytes`` (see
        :func:`~repro.streaming.resolve_chunk_size` for how the two knobs
        combine; without them a plan runs in default chunks).  Streaming
        output is bit-identical to the whole-stack
        path, so the fields change *how* a plan executes, not what it
        computes — but they are part of :meth:`key` (execution identity),
        like ``backend`` and ``workers``, and excluded from
        :meth:`filter_key`.
    """

    geometry: CBCTGeometry
    target: str = "fdk"
    scenario: str = "full_scan"
    backend: str = "reference"
    workers: Optional[int] = None
    dtype: str = "float32"
    ramp_filter: str = "ram-lak"
    algorithm: str = "proposed"
    rows: Optional[int] = None
    columns: Optional[int] = None
    cluster_gpus: int = 16
    tenant: str = "default"
    priority: int = 1
    slo_seconds: Optional[float] = None
    tenant_weight: Optional[float] = None
    max_inflight: Optional[int] = None
    streaming: bool = False
    chunk_size: Optional[int] = None
    memory_budget_bytes: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @cached_property
    def _identity(self) -> _PlanIdentity:
        """The plan's key, acquisition token and problem, derived on first
        read and kept on the instance: every field is frozen, so they can
        never go stale, and a plan shared by many submissions (the
        :meth:`from_json` memo hands one object to every POST of the same
        document) derives them once.  Not a field, so equality, hashing
        and :func:`dataclasses.replace` ignore it."""
        return _PlanIdentity(
            key=_short_hash(_canonical_json(self.to_dict())),
            acquisition=acquisition_token(self.geometry),
            problem=self.geometry.problem(),
        )

    @property
    def problem(self) -> ReconstructionProblem:
        """The base reconstruction problem this plan describes."""
        return self._identity.problem

    @property
    def acquisition(self) -> str:
        """:func:`acquisition_token` of the plan's geometry."""
        return self._identity.acquisition

    def resolved_scenario(self):
        """The plan's :class:`~repro.scenarios.scenario.AcquisitionScenario`."""
        from ..scenarios import get_scenario  # late: scenarios import core

        return get_scenario(self.scenario)

    def scenario_geometry(self) -> CBCTGeometry:
        """The geometry the reconstruction actually executes on.

        Identical to :attr:`geometry` for the ideal full scan; the
        scenario-shaped acquisition (angular subset, cropped detector)
        otherwise.
        """
        scenario = self.resolved_scenario()
        if scenario.is_ideal:
            return self.geometry
        return scenario.apply_geometry(self.geometry)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ReconstructionPlan":
        """Check the plan against every registry and constraint it names.

        Raises :class:`ValueError` with an actionable message on the first
        violation; returns the plan itself so calls chain.  Validation
        resolves names (backend, scenario, ramp filter) against the live
        registries but never starts worker pools or allocates volumes.
        """
        from ..backends import validate_backend  # late: backends import core
        from ..core.filtering import RAMP_FILTERS

        if self.target not in TARGETS:
            raise ValueError(
                f"unknown plan target {self.target!r}; valid: {TARGETS}"
            )
        if self.ramp_filter not in RAMP_FILTERS:
            raise ValueError(
                f"unknown ramp filter {self.ramp_filter!r}; valid: {RAMP_FILTERS}"
            )
        if self.algorithm not in ("proposed", "standard"):
            raise ValueError("algorithm must be 'proposed' or 'standard'")
        try:
            dtype = np.dtype(self.dtype)
        except TypeError as exc:
            raise ValueError(f"unknown dtype {self.dtype!r}") from exc
        if dtype != np.float32:
            raise ValueError(
                f"dtype {self.dtype!r} is not supported: the pipeline runs "
                "single precision end to end (Section 5.1), use 'float32'"
            )
        # Structural integer checks: the canonical dict coerces with int(),
        # so anything that is not a true int here would survive validation
        # and then break the lossless round-trip (2.5 -> 2 silently).
        for name, minimum in (("workers", 1), ("rows", 1), ("columns", 1),
                              ("cluster_gpus", 1), ("priority", 0),
                              ("max_inflight", 1),
                              ("chunk_size", 1), ("memory_budget_bytes", 1)):
            value = getattr(self, name)
            if value is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < minimum):
                kind = "positive" if minimum == 1 else "non-negative"
                raise ValueError(
                    f"{name} must be a {kind} integer (got {value!r})"
                )
        if self.target == "service":
            # Service workers size the real-execution dispatcher, which
            # runs on any backend; only the backend name itself is checked.
            validate_backend(self.backend)
        else:
            validate_backend(self.backend, workers=self.workers)
        scenario = self.resolved_scenario()  # raises on unknown names
        if not scenario.is_ideal:
            if self.target == "ifdk":
                raise ValueError(
                    f"scenario {self.scenario!r} runs single-node; the "
                    "distributed pipeline only serves the ideal full scan"
                )
            scenario.apply_geometry(self.geometry)  # raises if infeasible
        if self.target == "ifdk":
            if self.rows is None or self.columns is None:
                raise ValueError(
                    "an ifdk-target plan must set both rows and columns"
                )
            from ..pipeline.config import IFDKConfig  # late: avoid cycles

            IFDKConfig.from_plan(self)  # raises on divisibility violations
        elif self.rows is not None or self.columns is not None:
            raise ValueError(
                f"rows/columns only apply to the ifdk target "
                f"(this plan targets {self.target!r})"
            )
        if self.target != "service":
            # QoS fields are inert outside the service target, but they
            # are hashed into key() — letting them through would give two
            # bit-identical executions different identities (the same
            # silent-no-op asymmetry the rows/columns check prevents).
            defaults = {
                f.name: f.default for f in dataclasses.fields(self)
                if f.name in ("cluster_gpus", "tenant", "priority",
                              "slo_seconds", "tenant_weight", "max_inflight")
            }
            off_target = sorted(
                name for name, default in defaults.items()
                if getattr(self, name) != default
            )
            if off_target:
                raise ValueError(
                    f"{', '.join(off_target)} only apply to the service "
                    f"target (this plan targets {self.target!r})"
                )
        if self.slo_seconds is not None and not (
            math.isfinite(self.slo_seconds) and self.slo_seconds > 0
        ):
            raise ValueError(
                "slo_seconds must be a positive finite number when given"
            )
        if self.tenant_weight is not None:
            from ..service.job import MIN_TENANT_WEIGHT  # late: service imports api

            if not (
                isinstance(self.tenant_weight, (int, float))
                and not isinstance(self.tenant_weight, bool)
                and math.isfinite(self.tenant_weight)
                and self.tenant_weight >= MIN_TENANT_WEIGHT
            ):
                raise ValueError(
                    "tenant_weight must be a finite number of at least "
                    f"{MIN_TENANT_WEIGHT:g} when given"
                )
        if not isinstance(self.streaming, bool):
            raise ValueError(
                f"streaming must be a boolean (got {self.streaming!r})"
            )
        if self.streaming:
            if self.target != "fdk":
                raise ValueError(
                    "streaming execution is only wired for the fdk target "
                    f"(this plan targets {self.target!r})"
                )
            from ..streaming import resolve_chunk_size  # late: streaming imports core

            # Fail the impossible chunk/budget combination at validation
            # time (too-small budget, chunk exceeding budget), not mid-run.
            resolve_chunk_size(
                self.scenario_geometry(), self.scenario_geometry().np_,
                chunk_size=self.chunk_size,
                memory_budget_bytes=self.memory_budget_bytes,
            )
        else:
            extras = sorted(
                name for name in ("chunk_size", "memory_budget_bytes")
                if getattr(self, name) is not None
            )
            if extras:
                raise ValueError(
                    f"{', '.join(extras)} only apply when streaming is "
                    "enabled (set streaming: true)"
                )
        for name in _GEOMETRY_FLOAT_FIELDS:
            if not math.isfinite(float(getattr(self.geometry, name))):
                raise ValueError(f"geometry.{name} must be finite")
        return self

    # ------------------------------------------------------------------ #
    # Canonical serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dictionary form (plain JSON types, coerced scalars)."""
        return {
            "version": PLAN_VERSION,
            "geometry": _geometry_to_dict(self.geometry),
            "target": str(self.target),
            "scenario": str(self.scenario),
            "backend": str(self.backend),
            "workers": None if self.workers is None else int(self.workers),
            "dtype": str(self.dtype),
            "ramp_filter": str(self.ramp_filter),
            "algorithm": str(self.algorithm),
            "rows": None if self.rows is None else int(self.rows),
            "columns": None if self.columns is None else int(self.columns),
            "cluster_gpus": int(self.cluster_gpus),
            "tenant": str(self.tenant),
            "priority": int(self.priority),
            "slo_seconds": (
                None if self.slo_seconds is None else float(self.slo_seconds)
            ),
            "tenant_weight": (
                None if self.tenant_weight is None else float(self.tenant_weight)
            ),
            "max_inflight": (
                None if self.max_inflight is None else int(self.max_inflight)
            ),
            "streaming": bool(self.streaming),
            "chunk_size": (
                None if self.chunk_size is None else int(self.chunk_size)
            ),
            "memory_budget_bytes": (
                None if self.memory_budget_bytes is None
                else int(self.memory_budget_bytes)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReconstructionPlan":
        """Parse the dictionary form, rejecting unknown fields.

        The inverse of :meth:`to_dict`.  Field *order* is irrelevant (the
        canonical form sorts keys before hashing), but field *names* are
        strict: anything not in the schema raises :class:`ValueError` so a
        misspelled knob can never be silently dropped.
        """
        if not isinstance(payload, dict):
            raise ValueError("a plan must be a JSON object")
        known = {
            "version", "geometry", "target", "scenario", "backend",
            "workers", "dtype", "ramp_filter", "algorithm", "rows",
            "columns", "cluster_gpus", "tenant", "priority", "slo_seconds",
            "tenant_weight", "max_inflight",
            "streaming", "chunk_size", "memory_budget_bytes",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown plan field(s): {', '.join(unknown)} "
                "(plans reject unrecognized keys; check for typos)"
            )
        version = payload.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {version!r}")
        if "geometry" not in payload:
            raise ValueError("a plan must carry a 'geometry' object")

        def opt_int(name: str) -> Optional[int]:
            value = payload.get(name)
            return None if value is None else _as_int(name, value)

        slo = payload.get("slo_seconds")
        weight = payload.get("tenant_weight")
        streaming = payload.get("streaming", False)
        if not isinstance(streaming, bool):
            raise ValueError(
                f"plan field 'streaming' must be a boolean, got {streaming!r}"
            )
        return cls(
            geometry=_geometry_from_dict(payload["geometry"]),
            target=str(payload.get("target", "fdk")),
            scenario=str(payload.get("scenario", "full_scan")),
            backend=str(payload.get("backend", "reference")),
            workers=opt_int("workers"),
            dtype=str(payload.get("dtype", "float32")),
            ramp_filter=str(payload.get("ramp_filter", "ram-lak")),
            algorithm=str(payload.get("algorithm", "proposed")),
            rows=opt_int("rows"),
            columns=opt_int("columns"),
            cluster_gpus=_as_int("cluster_gpus", payload.get("cluster_gpus", 16)),
            tenant=str(payload.get("tenant", "default")),
            priority=_as_int("priority", payload.get("priority", 1)),
            slo_seconds=None if slo is None else _as_float("slo_seconds", slo),
            tenant_weight=(
                None if weight is None else _as_float("tenant_weight", weight)
            ),
            max_inflight=opt_int("max_inflight"),
            streaming=streaming,
            chunk_size=opt_int("chunk_size"),
            memory_budget_bytes=opt_int("memory_budget_bytes"),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Serialize to JSON (human-readable by default, lossless always)."""
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_json(cls, text: str) -> "ReconstructionPlan":
        """Parse a plan document (strict, as :meth:`from_dict`).

        Memoised per process: the last 64 documents parsed
        (``_PARSED_PLANS_MAX``) are kept under the SHA-256 of their text,
        so the same text returns the same (frozen) plan object without a
        second parse, and its :meth:`key` is derived once.  A document
        that fails to parse raises on every call and is never stored.
        Texts that differ only in whitespace or field order are separate
        entries that hold equal plans with equal keys.
        """
        # "surrogatepass": json.loads accepts a str holding lone surrogates.
        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
        with _parsed_plans_lock:
            plan = _parsed_plans.get(digest)
            if plan is not None:
                _parsed_plans.move_to_end(digest)
                return plan
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"plan is not valid JSON: {exc}") from exc
        plan = cls.from_dict(payload)
        with _parsed_plans_lock:
            plan = _parsed_plans.setdefault(digest, plan)
            if len(_parsed_plans) > _PARSED_PLANS_MAX:
                _parsed_plans.popitem(last=False)
        return plan

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def key(self) -> str:
        """Canonical content hash of the complete plan.

        SHA-256 of the canonical JSON form (sorted keys, ``repr`` floats),
        truncated to 16 hex characters.  Stable across processes, machines
        and the order fields appear in a plan file — the identity that job
        records, reports and result caches carry.  Derived on the first
        call and kept with the plan's acquisition token and problem, so
        every later call is an attribute read.
        """
        return self._identity.key

    def filter_identity(self) -> Dict[str, Any]:
        """The fields that determine this plan's filtered projections.

        The scenario contributes its *cache token* (protocol identity) so
        two preset names describing the same protocol share filtered
        projections, and the geometry contributes its
        :func:`acquisition_token` so acquisitions differing in physics
        (pitch, distances, span, offset) never alias — exactly what the
        service cache requires.
        """
        from ..scenarios import cache_token_for  # late: scenarios import core

        g = self.geometry
        return {
            "ramp_filter": self.ramp_filter,
            "nu": g.nu,
            "nv": g.nv,
            "np_": g.np_,
            "scenario": cache_token_for(self.scenario),
            "acquisition": self.acquisition,
        }

    def filter_key(self) -> str:
        """Content hash of the filtering identity (drives the service cache).

        Deliberately *excludes* ``workers``, ``backend``, ``target``, the
        output-volume extent/voxel pitch and all QoS fields, so plans
        differing only there share a filtered-projection cache entry.  All but
        ``backend`` leave the filtered projections bit-identical; ``backend``
        leaves them the same to the conformance bound (``reference`` and the
        single-precision tiled names are ~9e-8 relative RMSE apart), so a cache
        that stores payloads holds one family's bits or keys on the family.
        """
        return filter_cache_identity(**self.filter_identity())

    # ------------------------------------------------------------------ #
    def with_updates(self, **changes: Any) -> "ReconstructionPlan":
        """A copy of the plan with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, Any]:
        """Flat summary used by ``repro plan describe`` and reports."""
        scenario = self.resolved_scenario()
        executed = self.scenario_geometry()
        summary: Dict[str, Any] = {
            "key": self.key(),
            "filter_key": self.filter_key(),
            "target": self.target,
            "problem": str(self.problem),
            "scenario": self.scenario,
            "backend": self.backend,
            "workers": self.workers,
            "dtype": self.dtype,
            "ramp_filter": self.ramp_filter,
            "algorithm": self.algorithm,
            "executed_projections": executed.np_,
            "executed_angular_range": float(executed.angular_range),
        }
        if not scenario.is_ideal:
            summary["scenario_cache_token"] = scenario.cache_token
        if self.streaming:
            from ..backends import get_backend  # late: backends import core
            from ..streaming import resolve_chunk_size  # late: streaming imports core

            summary["streaming"] = True
            summary["chunk_size"] = resolve_chunk_size(
                executed, executed.np_,
                chunk_size=self.chunk_size,
                memory_budget_bytes=self.memory_budget_bytes,
                workers=self.workers or get_backend(self.backend).workers,
            )
            summary["memory_budget_bytes"] = self.memory_budget_bytes
        if self.target == "ifdk":
            summary["rows"] = self.rows
            summary["columns"] = self.columns
        if self.target == "service":
            summary.update(
                cluster_gpus=self.cluster_gpus,
                tenant=self.tenant,
                priority=self.priority,
                slo_seconds=self.slo_seconds,
            )
            if self.tenant_weight is not None:
                summary["tenant_weight"] = self.tenant_weight
            if self.max_inflight is not None:
                summary["max_inflight"] = self.max_inflight
        return summary


def plan_for_problem(
    problem, **fields: Any
) -> ReconstructionPlan:
    """Build a plan from a problem spec with the default geometry.

    ``problem`` is a :class:`~repro.core.types.ReconstructionProblem` or a
    ``"NuxNvxNp->NxxNyxNz"`` spec string; the geometry comes from
    :func:`~repro.core.geometry.default_geometry_for_problem`, exactly as
    the CLI has always derived it — so a plan emitted from a spec string is
    canonical and reproducible.  Remaining ``fields`` are plan fields.
    """
    if isinstance(problem, str):
        problem = problem_from_string(problem)
    if not isinstance(problem, ReconstructionProblem):
        raise ValueError(
            f"problem must be a spec string or ReconstructionProblem, "
            f"got {problem!r}"
        )
    geometry = default_geometry_for_problem(
        nu=problem.nu, nv=problem.nv, np_=problem.np_,
        nx=problem.nx, ny=problem.ny, nz=problem.nz,
    )
    return ReconstructionPlan(geometry=geometry, **fields)
