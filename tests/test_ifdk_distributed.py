"""End-to-end tests of the distributed iFDK framework.

The key invariant (Section 4.1.1): the distributed reconstruction — columns
partitioning the projections, rows partitioning the volume, AllGather within
columns, Reduce within rows — produces exactly the same volume as the
single-node FDK pipeline.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np
import pytest

from repro.api import plan_for_problem, run_plan
from repro.backends.base import VolumeAccumulator
from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_ellipsoids,
)
from repro.core.types import ProjectionStack
from repro.mpi import SimCommunicator, SpmdError
from repro.pfs import SimulatedPFS
from repro.pipeline import IFDKConfig, IFDKFramework
from repro.pipeline.rank_runtime import STAGES
from repro.streaming import StreamingReconstructor


@pytest.fixture(scope="module")
def geometry():
    return default_geometry_for_problem(nu=48, nv=48, np_=16, nx=32, ny=32, nz=32)


@pytest.fixture(scope="module")
def projections(geometry):
    return forward_project_analytic(EllipsoidPhantom(shepp_logan_ellipsoids()), geometry)


@pytest.fixture(scope="module")
def reference_volume(geometry, projections):
    return StreamingReconstructor(
        geometry, algorithm="proposed"
    ).reconstruct_stack(projections).volume


@pytest.mark.parametrize("rows,columns", [(2, 1), (1, 4), (4, 2), (2, 4)])
def test_distributed_matches_single_node(geometry, projections, reference_volume, rows, columns):
    config = IFDKConfig(geometry=geometry, rows=rows, columns=columns)
    result = IFDKFramework(config).reconstruct(projections)
    scale = np.abs(reference_volume.data).max()
    np.testing.assert_allclose(
        result.volume.data, reference_volume.data, atol=5e-6 * max(scale, 1.0)
    )


def test_rtk_kernel_also_matches(geometry, projections, reference_volume):
    config = IFDKConfig(geometry=geometry, rows=2, columns=2, kernel="RTK-32")
    result = IFDKFramework(config).reconstruct(projections)
    np.testing.assert_allclose(result.volume.data, reference_volume.data, atol=1e-4)


def test_run_result_reports_statistics(geometry, projections):
    config = IFDKConfig(geometry=geometry, rows=2, columns=2)
    result = IFDKFramework(config).reconstruct(projections)
    assert result.wall_seconds > 0
    assert result.gups > 0
    assert result.modelled.t_runtime > 0
    assert len(result.rank_results) == 4
    # Every rank filtered its share and back-projected its column's share.
    for rank_result in result.rank_results:
        assert rank_result.projections_filtered == config.projections_per_rank
        assert rank_result.projections_backprojected == config.projections_per_column
    # Exactly R ranks stored a slab (the row roots), covering the volume.
    slabs = [r.stored_slab for r in result.rank_results if r.stored_slab is not None]
    assert len(slabs) == config.rows
    assert sorted(s[0] for s in slabs) == [0, 16]
    totals = result.stage_totals()
    assert totals["backprojection"] > 0
    assert np.isfinite(result.mean_overlap_delta())


def test_stage_totals_name_the_eight_stages(geometry, projections):
    """Each stage's wall and CPU totals are its spans' sums; ``cpu_s`` is the
    thread's CPU time inside a span, so never more than the span's wall time,
    and all of it never more than the machine can give."""
    result = IFDKFramework(
        IFDKConfig(geometry=geometry, rows=2, columns=2)
    ).reconstruct(projections)
    assert list(result.stage_totals()) == [
        "load", "filter", "allgather", "h2d", "backprojection", "d2h", "reduce", "store",
    ]
    for rank_result in result.rank_results:
        by_name, cpu_by_name = {}, {}
        for span in rank_result.spans:
            cpu = span.attrs["cpu_s"]
            assert span.attrs == {"rank": rank_result.rank, "stage": span.name, "cpu_s": cpu}
            assert 0.0 <= cpu <= span.duration + 1e-3
            by_name[span.name] = by_name.get(span.name, 0.0) + span.duration
            cpu_by_name[span.name] = cpu_by_name.get(span.name, 0.0) + cpu
        for stage, seconds in rank_result.stage_seconds.items():
            assert seconds == pytest.approx(by_name.get(stage, 0.0))
        assert list(rank_result.stage_cpu_seconds) == list(STAGES)
        for stage, seconds in rank_result.stage_cpu_seconds.items():
            assert seconds == pytest.approx(cpu_by_name.get(stage, 0.0))
    cpu = sum(sum(r.stage_cpu_seconds.values()) for r in result.rank_results)
    assert cpu <= os.cpu_count() * result.wall_seconds * 1.1


def test_traced_session_adopts_rank_spans_at_their_true_times(geometry, projections):
    """Each rank's spans land in the session trace where they happened — inside
    the ``run`` span, not shifted by the rank's own start-up offset."""
    from repro.api import ReconstructionPlan, Session
    from repro.obs import Tracer

    plan = ReconstructionPlan(geometry=geometry, target="ifdk", rows=2, columns=2)
    tracer = Tracer()
    with Session(plan, tracer=tracer) as session:
        session.run(projections)
    spans = tracer.spans()
    (run,) = [span for span in spans if span.name == "run"]
    staged = [span for span in spans if "stage" in span.attrs]
    assert len(staged) == len(spans) - 1
    for span in staged:
        assert span.parent_id == run.span_id
        assert span.attrs["rank"] in range(4) and span.attrs["stage"] == span.name
        assert run.start <= span.start <= span.stop <= run.stop
    for rank in range(4):
        first = {}
        for span in sorted(staged, key=lambda span: span.start):
            if span.attrs["rank"] == rank:
                first.setdefault(span.name, span)
        # The Fig. 4a order on every rank: filtering is under way before the
        # first back-projection is done.
        assert first["filter"].start < first["backprojection"].stop


def test_stage_input_validates_shape(geometry, projections):
    other = default_geometry_for_problem(nu=32, nv=32, np_=16, nx=32, ny=32, nz=32)
    config = IFDKConfig(geometry=other, rows=2, columns=2)
    framework = IFDKFramework(config)
    with pytest.raises(ValueError):
        framework.stage_input(projections)


def test_reconstruct_from_prestaged_pfs(geometry, projections, reference_volume):
    pfs = SimulatedPFS()
    config = IFDKConfig(geometry=geometry, rows=2, columns=2)
    framework = IFDKFramework(config, pfs=pfs)
    framework.stage_input(projections)
    result = framework.reconstruct()  # no stack argument: read from the PFS
    np.testing.assert_allclose(result.volume.data, reference_volume.data, atol=1e-4)


def test_device_memory_constraint_enforced(geometry):
    from repro.gpusim import DeviceSpec

    tiny_device = DeviceSpec(
        name="tiny", global_memory_bytes=64 * 1024, dram_bandwidth=1e9,
        fp32_flops=1e9, l2_cache_bytes=1024, sm_count=1,
    )
    config = IFDKConfig(geometry=geometry, rows=2, columns=2, device=tiny_device)
    with pytest.raises(ValueError):
        IFDKFramework(config)


def test_unknown_kernel_rejected_at_construction(geometry):
    """An unknown kernel used to pass construction and fail only after the
    input was staged and every rank had been launched."""
    with pytest.raises(ValueError, match="valid kernels: .*L1-Tran"):
        IFDKConfig(geometry=geometry, rows=2, columns=2, kernel="no-such-kernel")
    plan = plan_for_problem("24x24x16->16x16x16", target="ifdk", rows=2, columns=2)
    with pytest.raises(ValueError, match="unknown kernel 'no-such-kernel'"):
        IFDKConfig.from_plan(plan, kernel="no-such-kernel")


# --------------------------------------------------------------------------- #
# Figure 3's decomposition is exact: columns back-project their own blocks,
# rows own their slabs, and the row Reduce adds the columns in order
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def decomposed_problem():
    plan = plan_for_problem("24x24x16->16x16x16")
    rng = np.random.default_rng(20190)
    stack = ProjectionStack(
        data=rng.standard_normal((16, 24, 24)).astype(np.float32),
        angles=plan.geometry.angles,
    )
    return plan.geometry, stack


@pytest.mark.parametrize("backend", ["vectorized", "reference", "parallel"])
@pytest.mark.parametrize(
    "rows,columns", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (1, 4), (2, 4)]
)
def test_fig3_decomposition_is_exact(decomposed_problem, backend, rows, columns):
    """``parallel`` runs every rank's filter and back-projection calls on one
    shared two-worker pool, concurrently, and must match ``vectorized``."""
    geometry, stack = decomposed_problem
    workers = 2 if backend == "parallel" else None
    config = IFDKConfig(
        geometry=geometry, rows=rows, columns=columns, backend=backend, workers=workers
    )
    distributed = IFDKFramework(config).reconstruct(stack).volume.data
    oracle = "vectorized" if backend == "parallel" else backend

    per_column = geometry.np_ // columns
    thickness = geometry.nz // rows
    for row in range(rows):
        slab = (row * thickness, (row + 1) * thickness)
        partials = [
            StreamingReconstructor(geometry, backend=oracle, z_range=slab)
            .reconstruct_stack(
                ProjectionStack(
                    data=stack.data[c * per_column:(c + 1) * per_column],
                    angles=stack.angles[c * per_column:(c + 1) * per_column],
                )
            )
            .volume.data
            for c in range(columns)
        ]
        expected = partials[0].copy()
        for partial in partials[1:]:
            expected += partial
        np.testing.assert_array_equal(distributed[slab[0]:slab[1]], expected)


# --------------------------------------------------------------------------- #
# Each rank works a step of AllGather rounds per call: a step of ``s`` rounds is
# one read, one filter, one Allgather and one ``add_stack`` of ``s·R``
# projections, ``s = max(1, projection_batch // R)``
# --------------------------------------------------------------------------- #
def _per_column_volume(geometry, stack, backend, rows, columns):
    """Figure 3 built by hand: each row's slab is the sum, in column order,
    of each column's own ``z_range`` reconstruction of its projection block."""
    per_column = geometry.np_ // columns
    thickness = geometry.nz // rows
    slabs = []
    for row in range(rows):
        slab = (row * thickness, (row + 1) * thickness)
        expected = None
        for c in range(columns):
            block = slice(c * per_column, (c + 1) * per_column)
            partial = (
                StreamingReconstructor(geometry, backend=backend, z_range=slab)
                .reconstruct_stack(
                    ProjectionStack(data=stack.data[block], angles=stack.angles[block])
                )
                .volume.data
            )
            expected = partial.copy() if expected is None else expected + partial
        slabs.append(expected)
    return np.concatenate(slabs)


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize(
    "problem,rows,columns,overrides,calls",
    [
        # 12 rounds of 2 projections: the whole run is one step, under the batch
        ("24x24x48->16x16x16", 2, 2, {}, [24]),
        # 6 rounds, a batch of 8 over R = 2: a full step of 4 rounds, then a
        # partial one of 2 rounds
        ("24x24x24->16x16x16", 2, 2, {"projection_batch": 8}, [8, 4]),
        # a batch of 2 cannot hold R = 4 projections: one-round steps
        ("24x24x16->16x16x16", 4, 1, {"projection_batch": 2}, [4, 4, 4, 4]),
        # 20 rounds: a full 32-projection batch of 16 rounds, then a partial
        # step of 4 rounds
        ("24x24x80->16x16x16", 2, 2, {}, [32, 8]),
        # a batch of 8 over R = 2: three full steps of 4 rounds
        ("24x24x48->16x16x16", 2, 2, {"projection_batch": 8}, [8, 8, 8]),
    ],
)
def test_each_rank_back_projects_one_step_per_call(
    monkeypatch, backend, problem, rows, columns, overrides, calls
):
    geometry = plan_for_problem(problem).geometry
    rng = np.random.default_rng(20190)
    stack = ProjectionStack(
        data=rng.standard_normal((geometry.np_, geometry.nv, geometry.nu)).astype(np.float32),
        angles=geometry.angles,
    )
    expected = _per_column_volume(geometry, stack, backend, rows, columns)

    sizes = {}  # rank thread -> projections per add_stack call, in call order
    real = VolumeAccumulator.add_stack

    def add_stack(self, stack):
        sizes.setdefault(threading.current_thread().name, []).append(stack.np_)
        return real(self, stack)

    monkeypatch.setattr(VolumeAccumulator, "add_stack", add_stack)
    config = IFDKConfig(
        geometry=geometry, rows=rows, columns=columns, backend=backend, **overrides
    )
    distributed = IFDKFramework(config).reconstruct(stack).volume.data
    assert sorted(sizes.values()) == [calls] * config.n_ranks
    np.testing.assert_array_equal(distributed, expected)


# --------------------------------------------------------------------------- #
# A failed stage must fail the run, never hang it
# --------------------------------------------------------------------------- #
def _run_with_deadline(run, seconds=30.0):
    """``run()`` on a daemon thread; its exception, or fail if it never ends."""
    outcome = []

    def target():
        try:
            outcome.append(run())
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), (
        "the iFDK run is still blocked — a rank is waiting in a collective "
        "whose other side has died"
    )
    return outcome[0]


def _long_run(rows=1, columns=1):
    """At least three steps per rank, so the injected failures below (the
    second ``add_stack``, the third ``Allgather``) strike mid-run: a rank
    that dies there leaves its siblings inside a collective or a later step."""
    plan = plan_for_problem(
        "24x24x192->16x16x16", target="ifdk", rows=rows, columns=columns
    )
    config = IFDKConfig.from_plan(plan)
    per_step = max(1, config.projection_batch // rows)
    assert -(-config.projections_per_rank // per_step) >= 3
    stack = ProjectionStack(
        data=np.ones((192, 24, 24), dtype=np.float32), angles=plan.geometry.angles
    )
    return lambda: run_plan(plan, stack)


@pytest.mark.parametrize("rows,columns", [(1, 1), (2, 2)])
def test_failed_backprojection_fails_the_run_instead_of_hanging(
    monkeypatch, rows, columns
):
    """A rank whose back-projection fails must not leave its siblings waiting
    in their column's ``Allgather`` or the final ``Barrier``."""
    calls = itertools.count(1)  # next() is atomic: exactly one call is #2
    real = VolumeAccumulator.add_stack

    def add_stack(self, stack):
        if next(calls) == 2:
            raise FloatingPointError("injected back-projection failure")
        return real(self, stack)

    monkeypatch.setattr(VolumeAccumulator, "add_stack", add_stack)
    outcome = _run_with_deadline(_long_run(rows, columns))
    assert isinstance(outcome, SpmdError)
    # The failing rank reports the failure itself; its siblings report the
    # broken barrier.
    kinds = sorted(type(f.exception).__name__ for f in outcome.failures)
    assert kinds == ["BrokenBarrierError"] * (rows * columns - 1) + [
        "FloatingPointError"
    ]


def test_failed_allgather_leaves_no_rank_thread(monkeypatch):
    """A failed collective mid-run fails the run with its own error, and every
    rank's thread has ended by the time it is raised."""
    calls = itertools.count(1)
    real = SimCommunicator.Allgather

    def allgather(self, sendbuf, recvbuf=None):
        if next(calls) == 3:
            raise ConnectionError("injected collective failure")
        return real(self, sendbuf, recvbuf)

    monkeypatch.setattr(SimCommunicator, "Allgather", allgather)
    outcome = _run_with_deadline(_long_run())
    assert isinstance(outcome, SpmdError)
    assert isinstance(outcome.failures[0].exception, ConnectionError)
    assert not [t for t in threading.enumerate() if t.name.startswith("ifdk-")]
