"""Command-line interface for the iFDK reproduction.

Ten subcommands cover the workflows a downstream user needs:

``reconstruct``
    Synthesize Shepp-Logan projections for a given problem size and run the
    FDK pipeline — single-node or distributed on the simulated cluster —
    writing the volume (as ``.npy``) and a JSON report.  ``--scenario``
    replays the acquisition through a non-ideal protocol (short-scan,
    offset-detector, sparse-view, noisy) before reconstructing,
    ``--stream`` (with ``--chunk-size`` / ``--memory-budget``) streams the
    stack through a chunk source under those knobs, with chunk spans and
    accounting, instead of the whole-stack path's default chunks, and
    ``--plan plan.json`` executes a declarative
    :class:`~repro.api.ReconstructionPlan` instead of explicit flags.
``plan``
    Emit, validate or describe a declarative reconstruction plan: the
    canonical JSON object every execution surface (this CLI, the library
    :class:`~repro.api.Session`, the service) shares.
``scenarios``
    List the registered acquisition-scenario presets.
``predict``
    Evaluate the Eq. 8-19 performance model for a problem / GPU count and
    print the runtime breakdown (the Figure 5 stacked bars as text).
``table4``
    Regenerate the Table 4 kernel-throughput comparison from the V100 cost
    model.
``serve``
    Replay a multi-tenant arrival trace through the reconstruction service
    (``repro.service``): SLO-aware GPU packing, admission control and the
    filtered-projection cache, reporting throughput and tail latency.
``submit``
    Run a single job through the service and print its report (also
    accepts ``--plan``).
``trace``
    Generate a synthetic multi-tenant workload trace for ``serve``.
``report``
    Render a span trace recorded with ``--trace-out`` (on ``reconstruct``,
    ``serve`` or ``submit``) as a summary tree, Chrome trace-event JSON or
    JSON-lines.
``lint``
    Run the project-invariant static analysis passes
    (:mod:`repro.analysis`) over files or packages: exit 0 when clean,
    1 on findings, 2 on a bad invocation.

The flags that describe a reconstruction (problem, backend, workers,
scenario, ramp filter, algorithm and rank grid, streaming, service cluster
size, SLO and priority) are registered once by :func:`add_plan_args` and
folded into a plan by :func:`plan_from_args`, so every subcommand speaks
the same parameter surface and new plan fields reach all of them at once.

Invoke as ``python -m repro.cli <subcommand> ...`` (or ``repro ...`` once
the package is installed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .api import TARGETS, ReconstructionPlan, Session, plan_for_problem
from .backends import DEFAULT_BACKEND, available_backends
from .bench import TABLE4_PROBLEMS, format_table, paper_reference_table4
from .core import (
    EllipsoidPhantom,
    forward_project_analytic,
    shepp_logan_ellipsoids,
)
from .core.types import problem_from_string
from .gpusim import KERNEL_VARIANTS, BackprojectionCostModel, TESLA_V100
from .obs import (
    EXPORT_FORMATS,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    jsonl_lines,
    load_trace,
    peak_rss_bytes,
    summary_tree,
    trace_format_for,
    use_tracer,
    write_trace,
)
from .pipeline import IFDKPerformanceModel, choose_grid
from .scenarios import available_scenarios, get_scenario
from .service import (
    AdmissionPolicy,
    ArrivalTrace,
    JobState,
    ReconstructionService,
    synthetic_trace,
)

__all__ = ["main"]

#: Default problem specs per subcommand (shown in help, filled by
#: :func:`plan_from_args` when the flag is omitted).
DEFAULT_RECONSTRUCT_PROBLEM = "96x96x120->64x64x64"
DEFAULT_SUBMIT_PROBLEM = "2048x2048x1024->1024x1024x1024"

#: Plan fields that can also be given as explicit flags.  When ``--plan``
#: supplies the plan, any of these being set is a conflict (exit 2) — the
#: plan file is the single source of truth.
_PLAN_FLAG_NAMES = (
    "problem", "backend", "workers", "scenario", "ramp_filter",
    "algorithm", "distributed", "rows", "columns", "gpus", "slo",
    "priority", "target", "stream", "chunk_size", "memory_budget",
)


def add_plan_args(
    parser: argparse.ArgumentParser,
    *,
    problem: Optional[str] = None,
    backend: bool = True,
    workers: bool = True,
    scenario: bool = True,
    ramp_filter: bool = False,
    grid: bool = False,
    streaming: bool = False,
    service: bool = False,
    plan_file: bool = False,
) -> None:
    """Register the shared reconstruction-plan flags on a subparser.

    Every subcommand that describes (part of) a reconstruction calls this
    once instead of re-declaring its own copies of ``--problem`` /
    ``--backend`` / ``--workers`` / ``--scenario`` — so a new plan-level
    flag lands on all of them simultaneously instead of drifting.  All
    defaults are ``None`` sentinels: :func:`plan_from_args` resolves them,
    which is what makes ``--plan`` conflict detection possible.  ``grid``
    adds ``--algorithm`` and the rank grid's ``--rows`` / ``--columns``;
    ``service`` adds the service's ``--gpus`` / ``--slo`` / ``--priority``.
    """
    if problem is not None:
        parser.add_argument(
            "--problem", default=None,
            help=f"problem spec NuxNvxNp->NxxNyxNz (default: {problem})",
        )
        parser.set_defaults(default_problem=problem)
    if backend:
        parser.add_argument(
            "--backend", choices=available_backends(), default=None,
            help="compute backend for the filter/back-projection hot paths "
                 f"(default: {DEFAULT_BACKEND})",
        )
    if workers:
        parser.add_argument(
            "--workers", type=int, default=None,
            help="workers: threads of a dedicated pool for the parallel "
                 "backend (reconstruct), or pilot worker processes of the "
                 "real-execution dispatcher (serve/submit)",
        )
    if scenario:
        parser.add_argument(
            "--scenario", choices=available_scenarios(), default=None,
            help="acquisition-scenario preset (default: full_scan; "
                 "see 'repro scenarios')",
        )
    if ramp_filter:
        parser.add_argument(
            "--ramp-filter", dest="ramp_filter", default=None,
            help="ramp-filter window (default: ram-lak)",
        )
    if grid:
        parser.add_argument(
            "--algorithm", choices=("proposed", "standard"), default=None,
            help="back-projection algorithm (default: proposed)",
        )
        parser.add_argument("--rows", type=int, default=None,
                            help="R of the rank grid")
        parser.add_argument("--columns", type=int, default=None,
                            help="C of the rank grid")
    if streaming:
        parser.add_argument(
            "--stream", action="store_true", default=False,
            help="stream the reconstruction through a chunk source under "
                 "--chunk-size / --memory-budget, with chunk spans and "
                 "accounting (fdk target only)",
        )
        parser.add_argument(
            "--chunk-size", dest="chunk_size", type=int, default=None,
            metavar="N",
            help="projections per streaming chunk (requires --stream; "
                 "default: derived from --memory-budget, else 32 per "
                 "backend worker)",
        )
        parser.add_argument(
            "--memory-budget", dest="memory_budget", default=None,
            metavar="BYTES",
            help="bound the streaming working set, e.g. 268435456, 256MiB "
                 "or 1.5G (requires --stream)",
        )
    if service:
        parser.add_argument("--gpus", type=int, default=None,
                            help="service cluster size (default: 16)")
        parser.add_argument("--slo", type=float, default=None,
                            help="service latency SLO in seconds "
                                 "(default: best effort)")
        parser.add_argument("--priority", type=int, default=None,
                            help="service priority class, 0 = most urgent "
                                 "(default: 1)")
    if plan_file:
        parser.add_argument(
            "--plan", type=Path, default=None, metavar="PLAN_JSON",
            help="load the reconstruction plan from this JSON file "
                 "(see 'repro plan'; conflicts with explicit plan flags)",
        )


def _add_trace_out(parser: argparse.ArgumentParser) -> None:
    """Register ``--trace-out`` (span recording) on a subparser."""
    parser.add_argument(
        "--trace-out", dest="trace_out", type=Path, default=None, metavar="PATH",
        help="record execution spans and write them to PATH on exit "
             "(.json = Chrome trace-event, .jsonl = JSON-lines, "
             ".txt = summary tree; inspect with 'repro report')",
    )


def _tracer_for(args: argparse.Namespace) -> Optional[Tracer]:
    """A fresh tracer when ``--trace-out`` was given, else ``None``.

    The output suffix is validated *now* (ValueError -> exit 2), so a bad
    path fails before the reconstruction runs, not after.
    """
    if getattr(args, "trace_out", None) is None:
        return None
    trace_format_for(args.trace_out)
    return Tracer()


def _write_trace_out(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is None:
        return
    path = write_trace(tracer, args.trace_out)
    print(f"{len(tracer)} spans written to {path}", file=sys.stderr)


def _explicit_plan_flags(args: argparse.Namespace) -> dict:
    """The plan-level flags the user explicitly set (name -> value)."""
    explicit = {}
    for name in _PLAN_FLAG_NAMES:
        value = getattr(args, name, None)
        # Identity checks: 0 is a legitimate explicit value (== False!).
        if value is not None and value is not False:
            explicit[name] = value
    return explicit


def _load_plan(path: Path) -> ReconstructionPlan:
    """Read and parse a plan file (ValueError -> exit code 2)."""
    if not path.exists():
        raise ValueError(f"plan file {path} does not exist")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read plan file {path}: {exc}") from exc
    return ReconstructionPlan.from_json(text)


def plan_from_args(
    args: argparse.Namespace, *, default_target: str = "fdk"
) -> ReconstructionPlan:
    """Fold parsed arguments into a validated :class:`ReconstructionPlan`.

    With ``--plan`` the file is the plan — any explicit plan-level flag
    alongside it is a conflict (``ValueError`` -> exit 2, per the CLI
    error convention).  Without it, the shared flags plus per-subcommand
    defaults build the plan.
    """
    explicit = _explicit_plan_flags(args)
    plan_path = getattr(args, "plan", None)
    if plan_path is not None:
        if explicit:
            flags = ", ".join(
                "--" + name.replace("_", "-") for name in sorted(explicit)
            )
            raise ValueError(
                f"--plan conflicts with explicit plan flags ({flags}); "
                "edit the plan file (or 'repro plan emit' a new one) instead"
            )
        return _load_plan(plan_path).validate()
    target = getattr(args, "target", None) or default_target
    if getattr(args, "distributed", False):
        target = "ifdk"
    # Explicit values always reach the plan (validate() rejects the
    # nonsensical combinations, e.g. rows on a single-node target, rather
    # than silently dropping them); omitted flags fall through to the
    # ReconstructionPlan dataclass defaults, so the CLI cannot drift from
    # the canonical definition of "a default plan".
    fields = {"target": target}
    flag_to_field = {
        "scenario": "scenario", "backend": "backend", "workers": "workers",
        "ramp_filter": "ramp_filter", "algorithm": "algorithm",
        "rows": "rows", "columns": "columns", "gpus": "cluster_gpus",
        "priority": "priority", "slo": "slo_seconds",
    }
    for flag, field in flag_to_field.items():
        value = getattr(args, flag, None)
        if value is not None:
            fields[field] = value
    if getattr(args, "stream", False):
        fields["streaming"] = True
    if getattr(args, "chunk_size", None) is not None:
        fields["chunk_size"] = args.chunk_size
    if getattr(args, "memory_budget", None) is not None:
        from .streaming import parse_byte_size

        fields["memory_budget_bytes"] = parse_byte_size(args.memory_budget)
    _validated_workers(fields.get("workers"))
    if target == "ifdk":
        fields.setdefault("rows", 2)
        fields.setdefault("columns", 2)
    plan = plan_for_problem(
        getattr(args, "problem", None) or getattr(args, "default_problem"),
        **fields,
    )
    return plan.validate()


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iFDK reproduction: FDK reconstruction and performance models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="reconstruct a synthetic Shepp-Logan scan")
    add_plan_args(
        rec, problem=DEFAULT_RECONSTRUCT_PROBLEM, ramp_filter=True, grid=True,
        streaming=True, plan_file=True,
    )
    rec.add_argument("--distributed", action="store_true",
                     help="run on the simulated cluster instead of a single node")
    rec.add_argument("--output", type=Path, default=None,
                     help="write the volume to this .npy file")
    rec.add_argument("--report", type=Path, default=None,
                     help="write a JSON run report to this file")
    _add_trace_out(rec)

    plan_p = sub.add_parser(
        "plan", help="emit, validate or describe a declarative reconstruction plan"
    )
    plan_p.add_argument("action", choices=("emit", "validate", "describe"),
                        help="emit a plan from flags, or check/describe a plan file")
    plan_p.add_argument("plan_file", nargs="?", type=Path,
                        help="plan JSON file (for validate/describe)")
    add_plan_args(
        plan_p, problem=DEFAULT_RECONSTRUCT_PROBLEM, ramp_filter=True, grid=True,
        streaming=True, service=True,
    )
    plan_p.add_argument("--target", choices=TARGETS, default=None,
                        help="execution target (default: fdk)")
    plan_p.add_argument("--output", "-o", type=Path, default=None,
                        help="write the emitted plan to this file (default: stdout)")

    pred = sub.add_parser("predict", help="evaluate the Eq. 8-19 performance model")
    pred.add_argument("--problem", default="2048x2048x4096->4096x4096x4096")
    pred.add_argument("--gpus", type=int, default=2048)
    pred.add_argument("--rows", type=int, default=None,
                      help="override R (defaults to the Section 4.1.5 rule)")

    sub.add_parser("table4", help="regenerate Table 4 from the V100 cost model")

    sub.add_parser(
        "scenarios", help="list the registered acquisition-scenario presets"
    )

    serve = sub.add_parser(
        "serve", help="replay a multi-tenant trace through the reconstruction service"
    )
    serve.add_argument("--trace", type=Path, default=None,
                       help="workload trace JSON (see 'repro trace'); optional "
                            "when --http serves requests instead")
    serve.add_argument("--gpus", type=int, default=None,
                       help="cluster size (default: the trace's cluster_gpus)")
    serve.add_argument("--policy", choices=("slo", "fifo"), default="slo",
                       help="scheduling policy (default: %(default)s)")
    serve.add_argument("--max-queue-depth", type=int, default=256)
    serve.add_argument("--tenant-weights", default=None,
                       metavar="NAME=W[,NAME=W...]",
                       help="fair-share scheduling weights per tenant, e.g. "
                            "'hospital-a=3,hospital-b=1' (enables the "
                            "weighted fair queue; unlisted tenants get "
                            "weight 1)")
    serve.add_argument("--max-inflight-per-tenant", type=int, default=None,
                       metavar="N",
                       help="cap concurrently running jobs per tenant "
                            "(fair-share throttling, never rejection)")
    serve.add_argument("--max-tenant-depth", type=int, default=None,
                       metavar="N",
                       help="cap queued jobs per tenant; excess submissions "
                            "are rejected with a Retry-After hint (HTTP 429)")
    serve.add_argument("--aging-seconds", type=float, default=None,
                       metavar="S",
                       help="starvation aging: a tenant's oldest waiting job "
                            "jumps the fair-share order after waiting this "
                            "long")
    serve.add_argument("--state-dir", type=Path, default=None,
                       help="journal job transitions here; a restarted serve "
                            "recovers its queue from the journal")
    serve.add_argument("--cache-dir", type=Path, default=None,
                       help="shared on-disk filtered-projection cache, "
                            "visible to every worker process and restart")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve an HTTP/JSON front door on this port "
                            "(0 = ephemeral; the bound port is printed)")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http (default: %(default)s)")
    add_plan_args(serve, scenario=False)
    serve.add_argument("--report", type=Path, default=None,
                       help="write the full JSON service report to this file")
    _add_trace_out(serve)

    submit = sub.add_parser("submit", help="run one job through the service")
    add_plan_args(submit, problem=DEFAULT_SUBMIT_PROBLEM, service=True, plan_file=True)
    submit.add_argument("--dataset", default="",
                        help="dataset content key (enables cache reuse)")
    _add_trace_out(submit)

    report_p = sub.add_parser(
        "report", help="render a recorded trace file (--trace-out output)"
    )
    report_p.add_argument("trace_file", type=Path,
                          help="trace file written by --trace-out "
                               "(Chrome JSON or JSON-lines)")
    report_p.add_argument("--format", default=None,
                          help="output rendering: summary (default), "
                               "chrome or jsonl")
    report_p.add_argument("--output", "-o", type=Path, default=None,
                          help="write the rendering to this file "
                               "(default: stdout)")

    trace = sub.add_parser("trace", help="generate a synthetic workload trace")
    trace.add_argument("--jobs", type=int, default=24)
    trace.add_argument("--gpus", type=int, default=16)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--heavy-fraction", type=float, default=0.25,
                       help="fraction of heavy 2K reconstructions")
    add_plan_args(trace, backend=False, workers=False)
    trace.add_argument("--scenario-mix", default=None, metavar="NAME=W[,NAME=W...]",
                       help="sample job scenarios from this weighted mix, e.g. "
                            "'full_scan=0.6,short_scan=0.3,sparse_view=0.1' "
                            "(default: every job is full_scan)")
    trace.add_argument("--output", "-o", type=Path, required=True,
                       help="write the trace JSON to this file")

    lint = sub.add_parser(
        "lint", help="run the project-invariant static analysis passes"
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint (e.g. src/repro)")
    lint.add_argument("--config", type=Path, default=None,
                      help="JSON config overriding rule scopes "
                           "(see repro.analysis.config)")
    lint.add_argument("--baseline", type=Path, default=None,
                      help="JSON baseline of accepted findings "
                           "(e.g. lint-baseline.json)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="output format (default: text)")
    return parser


def _validated_workers(workers: Optional[int]) -> Optional[int]:
    """``--workers`` must be >= 1 when given (ValueError -> exit code 2)."""
    if workers is not None and workers < 1:
        raise ValueError(
            f"--workers must be a positive integer (got {workers})"
        )
    return workers


def _parse_scenario_mix(spec: Optional[str]):
    """Parse ``name=weight,name=weight`` into a dict (None passes through)."""
    if spec is None:
        return None
    mix = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        if not weight:
            raise ValueError(
                f"scenario mix entry {part!r} must look like name=weight"
            )
        get_scenario(name.strip())  # validate the preset exists
        mix[name.strip()] = float(weight)
    if not mix:
        raise ValueError("scenario mix is empty")
    return mix


def _parse_tenant_weights(spec: Optional[str]):
    """Parse ``tenant=weight,...`` into a dict (None passes through).

    Unlike scenario mixes there is no registry to check names against —
    tenants are free-form — but weights must be positive numbers (the
    AdmissionPolicy re-validates on construction).
    """
    if spec is None:
        return None
    weights = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        if not name.strip() or not weight:
            raise ValueError(
                f"tenant weight entry {part!r} must look like tenant=weight"
            )
        weights[name.strip()] = float(weight)
    if not weights:
        raise ValueError("tenant weights spec is empty")
    return weights


_MODE_BY_TARGET = {"fdk": "single-node", "ifdk": "distributed", "service": "service"}


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    plan = plan_from_args(args)
    scenario = plan.resolved_scenario()
    phantom = EllipsoidPhantom(shepp_logan_ellipsoids())
    print(f"forward projecting {plan.problem} ...", file=sys.stderr)
    stack = forward_project_analytic(phantom, plan.geometry)
    if not scenario.is_ideal:
        print(f"applying acquisition scenario {scenario.name} ...", file=sys.stderr)

    tracer = _tracer_for(args)
    with Session(plan, tracer=tracer) as session:
        result = session.run(stack)

    report: dict = {
        "problem": str(plan.problem),
        "algorithm": plan.algorithm,
        "backend": plan.backend,
        "scenario": plan.scenario,
        "workers": plan.workers,
        "plan_key": result.plan_key,
        "projections": result.problem.np_,
        "angular_range": float(result.geometry.angular_range),
        "mode": _MODE_BY_TARGET[plan.target],
    }
    if plan.target == "ifdk":
        report.update(
            rows=plan.rows,
            columns=plan.columns,
            wall_seconds=result.wall_seconds,
            gups=result.problem.gups(result.wall_seconds),
            overlap_delta=result.details["overlap_delta"],
            modelled_runtime_at_scale=result.details["modelled_runtime_at_scale"],
        )
    else:
        report.update(
            filter_seconds=result.filter_seconds,
            backprojection_seconds=result.backprojection_seconds,
            gups=result.gups,
        )
        if plan.streaming:
            report.update(
                streaming=True,
                chunk_size=result.details["chunk_size"],
                chunks=result.details["chunks"],
                working_set_bytes=result.details["working_set_bytes"],
                memory_budget_bytes=result.details["memory_budget_bytes"],
                peak_rss_bytes=result.details["peak_rss_bytes"],
            )
        if plan.target == "service":
            report["job"] = result.details["job"]

    volume = result.volume
    report["volume_min"] = float(volume.data.min())
    report["volume_max"] = float(volume.data.max())
    if tracer is not None:
        report["stage_seconds"] = tracer.stage_totals()
        report["peak_rss_bytes"] = peak_rss_bytes()
        print(summary_tree(tracer), file=sys.stderr)
        _write_trace_out(tracer, args)
    if args.output is not None:
        np.save(args.output, volume.data)
        report["output"] = str(args.output)
        print(f"volume written to {args.output}", file=sys.stderr)
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.action == "emit":
        if args.plan_file is not None:
            raise ValueError(
                "plan emit builds a plan from flags; use 'repro plan "
                "validate <file>' to check an existing plan"
            )
        plan = plan_from_args(args)
        text = plan.to_json()
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"plan {plan.key()} written to {args.output}", file=sys.stderr)
        else:
            print(text)
            print(f"plan key: {plan.key()}", file=sys.stderr)
        return 0
    if args.plan_file is None:
        raise ValueError(f"plan {args.action} requires a plan file argument")
    stray = _explicit_plan_flags(args)
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(stray))
        raise ValueError(
            f"plan {args.action} checks the file as written and ignores no "
            f"flags; remove {flags} (plan-building flags apply to emit)"
        )
    plan = _load_plan(args.plan_file)
    plan.validate()
    if args.action == "validate":
        print(f"plan {plan.key()} is valid ({plan.target} target, "
              f"{plan.problem}, backend {plan.backend})")
        return 0
    rows = [
        {"field": name, "value": "" if value is None else value}
        for name, value in plan.describe().items()
    ]
    print(format_table(rows, ["field", "value"], title=f"plan {args.plan_file}"))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    problem = problem_from_string(args.problem)
    if args.rows is not None:
        rows = args.rows
        if rows <= 0:
            raise ValueError(f"rows must be a positive integer, got {rows}")
        if args.gpus % rows != 0:
            print(f"error: {args.gpus} GPUs not divisible by R={rows}", file=sys.stderr)
            return 2
        columns = args.gpus // rows
    else:
        rows, columns = choose_grid(problem, args.gpus)
    model = IFDKPerformanceModel()
    breakdown = model.breakdown(problem, rows, columns)
    rows_out = [
        {"term": term, "seconds": seconds}
        for term, seconds in breakdown.as_dict().items()
        if term != "delta"
    ]
    print(format_table(
        rows_out, ["term", "seconds"],
        title=f"{problem} on {args.gpus} GPUs (R={rows}, C={columns})",
        float_format="{:.2f}",
    ))
    print(f"delta = {breakdown.delta:.2f}, end-to-end GUPS = "
          f"{problem.gups(breakdown.t_runtime):.0f}")
    return 0


def _cmd_table4(_: argparse.Namespace) -> int:
    model = BackprojectionCostModel(TESLA_V100)
    rows = []
    for problem in TABLE4_PROBLEMS:
        row = {"problem": str(problem), "alpha": problem.alpha}
        for kernel in KERNEL_VARIANTS:
            row[kernel.name] = model.gups(kernel, problem)
            reference = paper_reference_table4[str(problem)][kernel.name]
            row[f"{kernel.name} (paper)"] = float("nan") if reference is None else reference
        rows.append(row)
    columns = ["problem", "alpha"]
    for kernel in KERNEL_VARIANTS:
        columns += [kernel.name, f"{kernel.name} (paper)"]
    print(format_table(rows, columns, title="Table 4 (model vs paper), GUPS"))
    return 0


def _cmd_scenarios(_: argparse.Namespace) -> int:
    rows = []
    for name in available_scenarios():
        scenario = get_scenario(name)
        rows.append({
            "name": scenario.name,
            "short-scan": "yes" if scenario.short_scan else "",
            "detector crop": (
                f"{scenario.detector_crop_fraction:.0%}"
                if scenario.detector_crop_fraction else ""
            ),
            "sparse": (
                f"1/{scenario.sparse_factor}" if scenario.sparse_factor > 1 else ""
            ),
            "noise": scenario.noise.token if scenario.noise else "",
            "description": scenario.description,
        })
    print(format_table(
        rows,
        ["name", "short-scan", "detector crop", "sparse", "noise", "description"],
        title="acquisition-scenario presets (use with --scenario)",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    workers = _validated_workers(args.workers)
    if args.trace is None and args.http is None:
        raise ValueError(
            "serve needs a workload: --trace replays one, --http accepts "
            "submissions over the network (or both)"
        )
    trace = None
    if args.trace is not None:
        if not args.trace.exists():
            print(f"error: trace file {args.trace} does not exist", file=sys.stderr)
            return 2
        trace = ArrivalTrace.load(args.trace)
    gpus = args.gpus or (trace.cluster_gpus if trace is not None else 16)
    tracer = _tracer_for(args)
    durable = args.state_dir is not None or args.cache_dir is not None
    admission = AdmissionPolicy(
        max_depth=args.max_queue_depth,
        tenant_weights=_parse_tenant_weights(args.tenant_weights),
        max_inflight_per_tenant=args.max_inflight_per_tenant,
        max_queue_depth_per_tenant=args.max_tenant_depth,
        aging_seconds=args.aging_seconds,
    )
    with ReconstructionService(
        gpus,
        policy=args.policy,
        admission=admission,
        backend=args.backend or DEFAULT_BACKEND,
        workers=workers or 0,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        obs=MetricsRegistry() if tracer is not None else None,
    ) as service:
        with use_tracer(tracer):
            if trace is not None and not durable and args.http is None:
                report = service.replay(trace)
            else:
                # Durable / HTTP mode: keep the recovered history (replay()
                # would reset it) and dedup against journaled job ids, so a
                # restarted serve never re-runs a completed trace job.
                if trace is not None:
                    for job in trace.jobs():
                        if job.job_id not in service.jobs:
                            service.submit(job, now=job.arrival_seconds)
                service.run_until_idle()
                if args.http is not None:
                    from .service.http import ServiceHTTPServer

                    front = ServiceHTTPServer(
                        service, host=args.http_host, port=args.http
                    )
                    port = front.start()
                    print(f"serving on http://{args.http_host}:{port}",
                          flush=True)
                    front.serve_forever()
                report = service.report(
                    description=trace.description if trace is not None else ""
                )
        if tracer is not None:
            for key, value in sorted(service.obs_snapshot().items()):
                print(f"{key:>32s} = {value:.3f}", file=sys.stderr)
            _write_trace_out(tracer, args)
    print(_format_service_report(report))
    if args.report is not None:
        args.report.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"report written to {args.report}", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    # No tenant override: a flag-built submission and `--plan` with an
    # emitted file must describe the same canonical plan (same key).
    plan = plan_from_args(args, default_target="service")
    if plan.target != "service":
        raise ValueError(
            f"submit runs jobs through the service, but the plan targets "
            f"{plan.target!r}; use 'repro reconstruct --plan' for direct "
            "execution or emit a service-target plan"
        )
    tracer = _tracer_for(args)
    with ReconstructionService(
        plan.cluster_gpus, policy="slo", backend=plan.backend,
        workers=plan.workers or 0,
        obs=MetricsRegistry() if tracer is not None else None,
    ) as service:
        with use_tracer(tracer):
            job = service.submit_plan(plan, dataset_id=args.dataset)
            if job.state is JobState.REJECTED:
                print(f"rejected: {job.rejection_reason}", file=sys.stderr)
                return 1
            service.run_until_idle()
        _write_trace_out(tracer, args)
    print(json.dumps(job.as_record(), indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a recorded trace file (ValueError paths -> exit code 2)."""
    format = args.format or "summary"
    if format not in EXPORT_FORMATS:
        raise ValueError(
            f"unknown export format {format!r}; expected one of "
            f"{', '.join(EXPORT_FORMATS)}"
        )
    spans = load_trace(args.trace_file)
    if args.output is not None:
        write_trace(spans, args.output, format=format)
        print(f"{len(spans)} spans written to {args.output}", file=sys.stderr)
        return 0
    if format == "summary":
        print(summary_tree(spans, title=f"trace {args.trace_file}"))
    elif format == "chrome":
        print(json.dumps(chrome_trace(spans), indent=2))
    else:
        print("\n".join(jsonl_lines(spans)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.scenario is not None and args.scenario_mix is not None:
        raise ValueError(
            "--scenario and --scenario-mix are mutually exclusive: a single "
            "preset is the mix {name: 1.0}"
        )
    mix = _parse_scenario_mix(args.scenario_mix)
    if args.scenario is not None:
        mix = {args.scenario: 1.0}
    trace = synthetic_trace(
        args.jobs,
        cluster_gpus=args.gpus,
        seed=args.seed,
        heavy_fraction=args.heavy_fraction,
        scenario_mix=mix,
    )
    trace.save(args.output)
    print(
        f"{len(trace)} jobs from {len(trace.tenants)} tenants written to {args.output}",
        file=sys.stderr,
    )
    return 0


def _format_service_report(report) -> str:
    job_columns = [
        "job_id", "tenant", "problem", "scenario", "state", "arrival_s",
        "start_s", "finish_s", "latency_s", "slo_s", "gpus", "grid",
        "cache_hit",
    ]
    rows = [
        {col: ("" if job.get(col) is None else job[col]) for col in job_columns}
        for job in report.jobs
    ]
    lines = [
        format_table(
            rows, job_columns,
            title=(f"{report.policy} policy on {report.cluster_gpus} GPUs"
                   + (f" — {report.description}" if report.description else "")),
            float_format="{:.2f}",
        ),
        "",
    ]
    summary = report.summary
    for key in sorted(summary):
        lines.append(f"{key:>24s} = {summary[key]:.3f}")
    return "\n".join(lines)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import format_json, format_text, lint_paths

    # lint_paths raises ValueError on missing paths / malformed config or
    # baseline, which main() maps to exit code 2 — distinct from exit 1
    # (findings exist).
    result = lint_paths(
        args.paths, config_file=args.config, baseline_file=args.baseline
    )
    if args.format == "json":
        print(json.dumps(format_json(result), indent=2))
    else:
        print(format_text(result))
    return result.exit_code()


_COMMANDS = {
    "reconstruct": _cmd_reconstruct,
    "plan": _cmd_plan,
    "predict": _cmd_predict,
    "table4": _cmd_table4,
    "scenarios": _cmd_scenarios,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Invalid user input (malformed problem specs, infeasible geometry,
    unreadable traces, malformed or conflicting plan files) exits with
    code 2; argparse errors also exit 2 via ``SystemExit``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse rejects first
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader closed stdout early (`repro report ... | head`): exit
        # quietly.  Re-point stdout at devnull so the interpreter's final
        # flush cannot raise the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
