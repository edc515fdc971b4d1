"""Plan execution: compile a :class:`ReconstructionPlan` once, run it many times.

A :class:`Session` is the executable form of a plan.  Construction
validates the plan and resolves everything it names — the compute backend
(including a dedicated worker pool when the plan asks for one), the
acquisition scenario and its derived geometry, and the execution engine
for the plan's target:

``fdk``
    The one single-node reconstructor,
    :meth:`StreamingReconstructor.from_plan
    <repro.streaming.StreamingReconstructor.from_plan>`: the whole stack
    (``reconstruct_stack``) in default chunks of
    :data:`~repro.streaming.chunks.DEFAULT_CHUNK_SIZE` projections per
    backend worker, or, when the plan sets ``streaming: true``, a
    :class:`~repro.streaming.StackChunkSource` chunked under the plan's
    ``chunk_size`` / memory budget (bit-identical output).
``ifdk``
    An :class:`~repro.pipeline.ifdk.IFDKFramework` over
    :meth:`IFDKConfig.from_plan <repro.pipeline.config.IFDKConfig.from_plan>`.
``service``
    A :class:`~repro.service.service.ReconstructionService` the session
    submits plan-derived jobs to, *plus* the same single-node compute path
    for the functional volume — so the returned volume is bit-identical
    across the ``fdk`` and ``service`` targets while the job record carries
    the scheduling outcome.

Every run returns a unified :class:`RunResult` regardless of target: the
one record of the run.  Its spans are in the tracer the session was given.
Sessions own the resources they resolve (worker pools, service
dispatchers); close them with :meth:`Session.close` or a ``with`` block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.geometry import CBCTGeometry
from ..core.types import ProjectionStack, ReconstructionProblem, Volume
from ..obs import NULL_TRACER, Tracer, use_tracer
from .plan import ReconstructionPlan

__all__ = ["RunResult", "Session", "run_plan"]


@dataclass
class RunResult:
    """Unified outcome of one plan execution, for every target.

    The run's only record: stage seconds, GUPS and the target's
    ``details``.  Per-span totals are the session tracer's
    :meth:`~repro.obs.Tracer.stage_totals`.
    """

    volume: Volume
    plan: ReconstructionPlan
    plan_key: str
    target: str
    geometry: CBCTGeometry
    filter_seconds: float
    backprojection_seconds: float
    wall_seconds: float
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def problem(self) -> ReconstructionProblem:
        """The *executed* problem (scenario-shaped input, full output)."""
        return self.geometry.problem()

    @property
    def gups(self) -> float:
        """Back-projection throughput of the run in giga-updates/second."""
        return self.problem.gups(max(self.backprojection_seconds, 1e-12))

    def as_record(self) -> Dict[str, Any]:
        """Flat dictionary for reports (details dict merged in)."""
        record: Dict[str, Any] = {
            "plan_key": self.plan_key,
            "target": self.target,
            "problem": str(self.problem),
            "backend": self.plan.backend,
            "scenario": self.plan.scenario,
            "workers": self.plan.workers,
            "filter_seconds": self.filter_seconds,
            "backprojection_seconds": self.backprojection_seconds,
            "wall_seconds": self.wall_seconds,
            "gups": self.gups,
        }
        record.update(self.details)
        return record


class Session:
    """A compiled plan, ready to execute projection stacks.

    Parameters
    ----------
    plan:
        The declarative plan to compile.  Validated on entry (a session
        can never hold an invalid plan).
    tracer:
        Optional :class:`repro.obs.Tracer` installed ambiently around every
        :meth:`run`, so the backend drivers, worker pool and service record
        spans into it.  ``None`` (the default) keeps the process-wide
        no-op tracer: the hot paths execute their untraced branches and
        nothing records spans.
    state_dir / cache_dir:
        Serving durability knobs, forwarded to the owned
        :class:`~repro.service.service.ReconstructionService` (service
        target only; rejected otherwise so a typo'd target cannot silently
        drop them).  ``state_dir`` journals the queue for restart recovery,
        ``cache_dir`` shares filtered projections on disk across the
        service's worker processes (the plan's ``workers``) and restarts.
    """

    def __init__(
        self,
        plan: ReconstructionPlan,
        *,
        tracer: Optional[Tracer] = None,
        state_dir=None,
        cache_dir=None,
    ):
        plan.validate()
        if plan.target != "service" and (
            state_dir is not None or cache_dir is not None
        ):
            raise ValueError(
                "state_dir/cache_dir are service-target options; "
                f"this plan targets {plan.target!r}"
            )
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.plan_key = plan.key()
        self._scenario = plan.resolved_scenario()
        self._geometry = plan.scenario_geometry()
        self._framework = None
        self._service = None
        self._driver = None
        self._streaming_metrics = None
        if plan.target == "ifdk":
            from ..pipeline.config import IFDKConfig
            from ..pipeline.ifdk import IFDKFramework

            self._framework = IFDKFramework(IFDKConfig.from_plan(plan))
        else:
            from ..obs import MetricsRegistry
            from ..streaming import StreamingReconstructor

            # Single-node compute path, shared by the fdk and service
            # targets.  For the service target the plan's workers size the
            # dispatcher, not the backend pool, so they are not forwarded.
            fdk_plan = (
                plan if plan.target == "fdk" else plan.with_updates(workers=None)
            )
            # Chunk metrics ride along with tracing, like the service's
            # lifetime instruments; untraced sessions keep the no-op
            # registry so the hot loop stays instrument-free.
            if plan.streaming and self.tracer.enabled:
                self._streaming_metrics = MetricsRegistry()
            self._driver = StreamingReconstructor.from_plan(
                fdk_plan, metrics=self._streaming_metrics
            )
            if plan.target == "service":
                from ..service.service import ReconstructionService

                self._service = ReconstructionService(
                    plan.cluster_gpus,
                    policy="slo",
                    backend=plan.backend,
                    workers=plan.workers or 0,
                    state_dir=state_dir,
                    cache_dir=cache_dir,
                    # Lifetime instruments ride along with tracing; an
                    # untraced session keeps the service's no-op registry.
                    obs=MetricsRegistry() if self.tracer.enabled else None,
                )

    # ------------------------------------------------------------------ #
    @property
    def geometry(self) -> CBCTGeometry:
        """The executed (scenario-shaped) acquisition geometry."""
        return self._geometry

    @property
    def service(self):
        """The owned :class:`ReconstructionService` (service target only)."""
        return self._service

    # ------------------------------------------------------------------ #
    def _prepare_stack(self, stack: ProjectionStack) -> ProjectionStack:
        """Apply the plan's scenario to the base acquisition when needed.

        Sessions accept the *base* stack the plan's geometry describes; a
        non-ideal scenario selects/crops/perturbs it here with
        :meth:`AcquisitionScenario.apply`, exactly as the CLI always has.
        A stack whose shape already matches the scenario geometry (and no
        longer the base) passes through untransformed.  For scenarios that
        preserve the acquisition shape (e.g. ``noisy``) the two are
        indistinguishable, so the input is *always* treated as the base
        stack — pre-applying such a scenario and running it through a
        session would apply it twice; hand a pre-transformed stack to
        :meth:`StreamingReconstructor.reconstruct_stack
        <repro.streaming.StreamingReconstructor.reconstruct_stack>` directly
        instead.
        """
        if self._scenario.is_ideal:
            return stack
        base = self.plan.geometry
        if (stack.np_, stack.nv, stack.nu) == (base.np_, base.nv, base.nu):
            _, scenario_stack = self._scenario.apply(base, stack)
            return scenario_stack
        g = self._geometry
        if (stack.np_, stack.nv, stack.nu) == (g.np_, g.nv, g.nu):
            return stack  # already scenario-shaped
        raise ValueError(
            f"projection stack {stack.np_}x{stack.nv}x{stack.nu} matches "
            f"neither the plan's base acquisition "
            f"({base.np_}x{base.nv}x{base.nu}) nor its scenario geometry "
            f"({g.np_}x{g.nv}x{g.nu})"
        )

    def run(self, stack: ProjectionStack, *, dataset_id: str = "") -> RunResult:
        """Execute the plan on one projection stack.

        ``stack`` is the raw acquisition on the plan's base geometry (a
        pre-filtered stack is accepted for ideal scans, as with
        ``StreamingReconstructor.reconstruct_stack``).  ``dataset_id`` names the
        dataset for service-target cache identity; it defaults to a
        content fingerprint of the stack.

        The session's tracer is installed ambiently for the duration: the
        whole execution sits under one ``run`` span in it.
        """
        tracer = self.tracer
        with use_tracer(tracer):
            with tracer.span(
                "run",
                target=self.plan.target,
                backend=self.plan.backend,
                scenario=self.plan.scenario,
                plan_key=self.plan_key,
            ) as root:
                root_id = root.span_id if tracer.enabled else None
                return self._execute(stack, tracer, root_id, dataset_id)

    def _execute(
        self,
        stack: ProjectionStack,
        tracer: Tracer,
        root_id: Optional[int],
        dataset_id: str,
    ) -> RunResult:
        stack = self._prepare_stack(stack)
        details: Dict[str, Any] = {}
        start = time.perf_counter()
        if self._framework is not None:
            result = self._framework.reconstruct(stack)
            stage_totals = result.stage_totals()
            wall = time.perf_counter() - start
            if tracer.enabled:
                # Adopt the rank-stage spans, at the times they happened.
                for rank_result in result.rank_results:
                    for span in rank_result.spans:
                        tracer.record(
                            span.name, span.start, span.stop, span.payload_bytes,
                            parent=root_id, **span.attrs,
                        )
            details.update(
                rows=self.plan.rows,
                columns=self.plan.columns,
                overlap_delta=result.mean_overlap_delta(),
                modelled_runtime_at_scale=result.modelled.t_runtime,
            )
            return RunResult(
                volume=result.volume,
                plan=self.plan,
                plan_key=self.plan_key,
                target=self.plan.target,
                geometry=self._geometry,
                filter_seconds=stage_totals.get("filter", 0.0),
                backprojection_seconds=stage_totals.get("backprojection", 0.0),
                wall_seconds=wall,
                details=details,
            )
        if not self.plan.streaming:
            streamed = self._driver.reconstruct_stack(stack)
        else:
            from ..streaming import StackChunkSource

            streamed = self._driver.reconstruct(StackChunkSource(stack))
            details.update(
                streaming=True,
                chunk_size=streamed.chunk_size,
                chunks=streamed.chunk_count,
                working_set_bytes=streamed.working_set_bytes,
                memory_budget_bytes=streamed.memory_budget_bytes,
                peak_rss_bytes=streamed.peak_rss_bytes,
            )
            if self._streaming_metrics is not None:
                details["streaming_obs"] = self._streaming_metrics.snapshot()
        if self._service is not None:
            from ..service.cache import fingerprint_stack
            from ..service.job import JobState

            job = self._service.submit_plan(
                self.plan, dataset_id=dataset_id or fingerprint_stack(stack)
            )
            if job.state is not JobState.REJECTED:
                self._service.run_until_idle()
            details["job"] = job.as_record()
            details["accepted"] = job.state is not JobState.REJECTED
            if tracer.enabled:
                details["service_obs"] = self._service.obs_snapshot()
        wall = time.perf_counter() - start
        return RunResult(
            volume=streamed.volume,
            plan=self.plan,
            plan_key=self.plan_key,
            target=self.plan.target,
            geometry=self._geometry,
            filter_seconds=streamed.filter_seconds,
            backprojection_seconds=streamed.backprojection_seconds,
            wall_seconds=wall,
            details=details,
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release every resource the session resolved (idempotent)."""
        if self._driver is not None:
            self._driver.close()
        if self._service is not None:
            self._service.close()
        if self._framework is not None:
            self._framework.config.close_backend()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def run_plan(
    plan: ReconstructionPlan,
    stack: ProjectionStack,
    *,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One-call plan execution: compile, run, release."""
    with Session(plan, tracer=tracer) as session:
        return session.run(stack)
