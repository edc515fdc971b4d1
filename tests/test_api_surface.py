"""API-surface snapshot: the public exports of ``repro`` and ``repro.api``.

The checked-in lists below are the contract: anything importable via
``from repro import *`` (or ``from repro.api import *``) that is not in
its list — or anything in a list that stops existing — fails tier-1.  A
deliberate API change must edit this file in the same commit, which is
exactly the review speed-bump the snapshot exists to create.
"""

from __future__ import annotations

import repro
import repro.api

#: Everything `repro` exports: the sub-packages plus the plan/session
#: front door re-exported at top level.
REPRO_EXPORTS = [
    "ReconstructionPlan",
    "RunResult",
    "Session",
    "__version__",
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
]

#: The declarative plan layer's complete public surface.
REPRO_API_EXPORTS = [
    "PLAN_VERSION",
    "TARGETS",
    "ReconstructionPlan",
    "RunResult",
    "Session",
    "acquisition_token",
    "filter_cache_identity",
    "plan_for_problem",
    "run_plan",
]


def _assert_surface(module, expected):
    exported = sorted(module.__all__)
    assert exported == sorted(expected), (
        f"{module.__name__}.__all__ changed; if intentional, update the "
        f"snapshot in tests/test_api_surface.py.\n"
        f"  added:   {sorted(set(exported) - set(expected))}\n"
        f"  removed: {sorted(set(expected) - set(exported))}"
    )
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__} exports missing attributes: {missing}"


def test_repro_surface_matches_snapshot():
    _assert_surface(repro, REPRO_EXPORTS)


def test_repro_api_surface_matches_snapshot():
    _assert_surface(repro.api, REPRO_API_EXPORTS)


def test_plan_field_schema_is_pinned():
    """The plan's field set *is* its serialized schema — pin it too.

    Adding a field changes every plan's canonical key (the hash covers the
    full dict), so it must be a conscious, versioned decision.
    """
    import dataclasses

    fields = sorted(
        f.name for f in dataclasses.fields(repro.api.ReconstructionPlan)
    )
    assert fields == [
        "algorithm",
        "backend",
        "chunk_size",
        "cluster_gpus",
        "columns",
        "dtype",
        "geometry",
        "max_inflight",
        "memory_budget_bytes",
        "priority",
        "ramp_filter",
        "rows",
        "scenario",
        "slo_seconds",
        "streaming",
        "target",
        "tenant",
        "tenant_weight",
        "workers",
    ]


def test_geometry_serialization_covers_every_field():
    """A new CBCTGeometry field must be added to the plan schema (and thus
    to key()/acquisition_token) explicitly — never silently dropped."""
    import dataclasses

    from repro.api import plan as plan_module
    from repro.core.geometry import CBCTGeometry

    serialized = set(plan_module._GEOMETRY_INT_FIELDS) | set(
        plan_module._GEOMETRY_FLOAT_FIELDS
    )
    actual = {f.name for f in dataclasses.fields(CBCTGeometry)}
    assert serialized == actual, (
        "plan geometry serialization is out of sync with CBCTGeometry: "
        f"missing {sorted(actual - serialized)}, "
        f"stale {sorted(serialized - actual)}"
    )


# --------------------------------------------------------------------------- #
# Option inventory: every knob of the execution seams, by name.  A parameter
# that drifts back (or a new one) fails here and has to be argued for.
# --------------------------------------------------------------------------- #
def _parameters(function):
    import inspect

    return [name for name in inspect.signature(function).parameters if name != "self"]


def test_reconstruction_service_options_are_pinned():
    from repro.service import ReconstructionService

    assert _parameters(ReconstructionService.__init__) == [
        "cluster_gpus", "policy", "cache", "admission", "device",
        "max_gpus_per_job", "backend", "workers", "pilot_problem", "obs",
        "state_dir", "cache_dir", "dispatch_timeout_seconds",
        "dispatch_max_retries", "fault_injection",
    ]


def test_session_options_are_pinned():
    assert _parameters(repro.api.Session.__init__) == [
        "plan", "tracer", "state_dir", "cache_dir",
    ]


def test_single_node_reconstructor_options_are_pinned():
    """The one keyword surface of a single-node run."""
    from repro.streaming import StreamingReconstructor

    assert _parameters(StreamingReconstructor.__init__) == [
        "geometry", "ramp_filter", "algorithm", "z_range", "backend",
        "scenario", "workers", "chunk_size", "memory_budget_bytes", "metrics",
    ]


def test_dispatcher_options_are_pinned():
    from repro.service import ProcessDispatcher

    assert _parameters(ProcessDispatcher.__init__) == [
        "workers", "backend", "pilot_problem", "cache_dir", "timeout_seconds",
        "max_retries", "fault_injection", "on_executed", "on_failed", "obs",
    ]


def test_run_rank_options_are_pinned():
    from repro.pipeline import run_rank

    assert _parameters(run_rank) == ["comm", "config", "pfs", "volume_name"]


def test_serve_flags_are_pinned():
    from repro.cli import build_parser

    subparsers = next(
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices and "serve" in action.choices
    )
    flags = sorted(
        option
        for action in subparsers.choices["serve"]._actions
        for option in action.option_strings
        if option.startswith("--")
    )
    assert flags == [
        "--aging-seconds", "--backend", "--cache-dir", "--gpus", "--help",
        "--http", "--http-host", "--max-inflight-per-tenant",
        "--max-queue-depth", "--max-tenant-depth", "--policy", "--report",
        "--state-dir", "--tenant-weights", "--trace", "--trace-out", "--workers",
    ]


def test_the_deleted_selector_is_an_unknown_keyword():
    import pytest

    from repro.api import plan_for_problem
    from repro.cli import build_parser
    from repro.service import ReconstructionService

    with pytest.raises(TypeError, match="dispatcher"):
        ReconstructionService(8, dispatcher="process")
    plan = plan_for_problem("24x24x8->16x16x16", target="service")
    with pytest.raises(TypeError, match="dispatcher"):
        repro.api.Session(plan, dispatcher="process")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--http", "0", "--dispatcher", "process"])


# --------------------------------------------------------------------------- #
# The compiled kernel: package data, not API
# --------------------------------------------------------------------------- #
def test_the_kernel_source_ships_as_package_data_and_adds_no_export(tmp_path):
    """A built tree (what a wheel holds) carries ``alg4.c`` beside its loader,
    ``importlib.resources`` finds it there, and it names the same cached
    object a source checkout does; ``repro.backends`` exports nothing new and
    ``TiledBackend`` grew no option."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro.backends
    from repro.backends import native

    repo = Path(__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "base"),
         "--build-lib", str(tmp_path / "lib")],
        cwd=repo, check=True, capture_output=True,
    )
    shipped = tmp_path / "lib" / "repro" / "backends" / "alg4.c"
    assert shipped.read_bytes() == native.source()
    child = subprocess.run(
        [sys.executable, "-c",
         "from repro.backends import native\n"
         "print(native.__file__)\n"
         "print(native.object_name(native.source()))"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "lib")},
    )
    module_file, name = child.stdout.split()
    assert Path(module_file).parent == shipped.parent
    assert name == native.object_name(native.source())
    assert "native" not in repro.backends.__all__
    assert _parameters(repro.backends.TiledBackend.__init__) == [
        "workers", "byte_budget", "name",
    ]
