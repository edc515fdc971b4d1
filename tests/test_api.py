"""Tests for the declarative plan / session front door (``repro.api``).

Three layers of guarantees:

1. **Serialization** — lossless JSON round-trips and a canonical content
   hash that is stable across field ordering and across processes (the
   golden plan's key is pinned).
2. **Execution equivalence** — a plan serialized, reloaded and executed
   through a :class:`Session` produces a bit-identical volume to the
   equivalent direct :class:`StreamingReconstructor` call, for every registered
   backend and every execution target that shares the single-node compute
   path.
3. **Identity threading** — the plan's filtering identity is exactly what
   the service cache keys on, and the plan constructors
   (``StreamingReconstructor.from_plan``, ``IFDKConfig.from_plan``,
   ``ReconstructionJob.from_plan``) agree with the keyword constructors.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PLAN_VERSION,
    TARGETS,
    ReconstructionPlan,
    Session,
    acquisition_token,
    filter_cache_identity,
    plan_for_problem,
    run_plan,
)
from repro.api import plan as plan_module
from repro.backends import available_backends
from repro.core import default_geometry_for_problem
from repro.pipeline import IFDKConfig
from repro.scenarios import get_scenario
from repro.service import CacheKey, ReconstructionJob
from repro.streaming import StreamingReconstructor

GOLDEN_PLAN = Path(__file__).parent / "data" / "golden_plan.json"

#: Pinned canonical identity of the checked-in golden plan.  These values
#: must be stable across processes, machines and Python versions: if this
#: test fails, the plan hashing scheme changed and every persisted plan
#: key (service cache identities, job records) silently rotated.
GOLDEN_PLAN_KEY = "71956b86874bea67"
GOLDEN_PLAN_FILTER_KEY = "bd5d11dd272ac233"


def small_plan(**fields) -> ReconstructionPlan:
    return plan_for_problem("48x48x24->32x32x32", **fields)


# --------------------------------------------------------------------------- #
# Serialization: lossless round-trips, canonical hashing
# --------------------------------------------------------------------------- #
class TestPlanSerialization:
    def test_json_round_trip_is_lossless(self):
        plan = small_plan(backend="vectorized", scenario="short_scan",
                          slo_seconds=12.5)
        restored = ReconstructionPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.key() == plan.key()

    def test_dict_round_trip_is_lossless(self):
        plan = small_plan(target="ifdk", rows=2, columns=2, workers=None)
        assert ReconstructionPlan.from_dict(plan.to_dict()) == plan

    def test_key_is_stable_across_field_ordering(self):
        plan = small_plan(backend="blocked")
        payload = plan.to_dict()
        shuffled = {k: payload[k] for k in reversed(list(payload))}
        shuffled["geometry"] = {
            k: payload["geometry"][k] for k in reversed(list(payload["geometry"]))
        }
        restored = ReconstructionPlan.from_json(json.dumps(shuffled))
        assert restored == plan
        assert restored.key() == plan.key()

    def test_key_distinguishes_every_field(self):
        base = small_plan()
        variants = [
            base.with_updates(backend="vectorized"),
            base.with_updates(scenario="sparse_view"),
            base.with_updates(ramp_filter="hann"),
            base.with_updates(algorithm="standard"),
            base.with_updates(workers=4),
            base.with_updates(target="service"),
            base.with_updates(priority=0),
            base.with_updates(target="service", tenant_weight=2.0),
            base.with_updates(target="service", max_inflight=2),
            base.with_updates(streaming=True),
            base.with_updates(streaming=True, chunk_size=4),
            base.with_updates(streaming=True, memory_budget_bytes=1 << 26),
            base.with_updates(geometry=default_geometry_for_problem(
                nu=48, nv=48, np_=24, nx=32, ny=32, nz=16)),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_unknown_plan_field_rejected(self):
        payload = small_plan().to_dict()
        payload["worker_count"] = 4
        with pytest.raises(ValueError, match="unknown plan field.*worker_count"):
            ReconstructionPlan.from_dict(payload)

    def test_unknown_geometry_field_rejected(self):
        payload = small_plan().to_dict()
        payload["geometry"]["pitch"] = 1.0
        with pytest.raises(ValueError, match="unknown geometry field"):
            ReconstructionPlan.from_dict(payload)

    def test_missing_geometry_rejected(self):
        payload = small_plan().to_dict()
        del payload["geometry"]
        with pytest.raises(ValueError, match="geometry"):
            ReconstructionPlan.from_dict(payload)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ReconstructionPlan.from_json("{not json")

    def test_unsupported_version_rejected(self):
        payload = small_plan().to_dict()
        payload["version"] = PLAN_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            ReconstructionPlan.from_dict(payload)

    def test_golden_plan_key_is_pinned(self):
        plan = ReconstructionPlan.from_json(GOLDEN_PLAN.read_text())
        plan.validate()
        assert plan.key() == GOLDEN_PLAN_KEY
        assert plan.filter_key() == GOLDEN_PLAN_FILTER_KEY
        # The checked-in file is the canonical serialization of itself.
        assert plan.to_json() + "\n" == GOLDEN_PLAN.read_text()


# --------------------------------------------------------------------------- #
# Property tests: round-trips over the whole plan space
# --------------------------------------------------------------------------- #
def geometries():
    dims = st.integers(min_value=2, max_value=64)
    factor = st.floats(min_value=2.5, max_value=8.0,
                       allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda nu, nv, np_, nx, ny, nz, sad_factor: default_geometry_for_problem(
            nu=nu, nv=nv, np_=np_, nx=nx, ny=ny, nz=nz, sad_factor=sad_factor
        ),
        dims, dims, dims, dims, dims, dims, factor,
    )


def plans():
    return st.builds(
        ReconstructionPlan,
        geometry=geometries(),
        target=st.sampled_from(TARGETS),
        scenario=st.sampled_from(("full_scan", "short_scan", "sparse_view")),
        backend=st.sampled_from(available_backends()),
        workers=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        ramp_filter=st.sampled_from(("ram-lak", "shepp-logan", "hann")),
        algorithm=st.sampled_from(("proposed", "standard")),
        rows=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        columns=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        cluster_gpus=st.integers(min_value=1, max_value=64),
        tenant=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=12,
        ),
        priority=st.integers(min_value=0, max_value=5),
        slo_seconds=st.one_of(
            st.none(),
            st.floats(min_value=0.1, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        streaming=st.booleans(),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        memory_budget_bytes=st.one_of(
            st.none(), st.integers(min_value=1 << 20, max_value=1 << 34)
        ),
    )


class TestPlanProperties:
    @settings(max_examples=100, deadline=None)
    @given(plan=plans())
    def test_from_json_to_json_round_trip(self, plan):
        restored = ReconstructionPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.key() == plan.key()

    @settings(max_examples=50, deadline=None)
    @given(plan=plans(), data=st.data())
    def test_key_invariant_under_field_ordering(self, plan, data):
        payload = plan.to_dict()
        order = data.draw(st.permutations(list(payload)))
        shuffled = {k: payload[k] for k in order}
        assert ReconstructionPlan.from_dict(shuffled).key() == plan.key()

    @settings(max_examples=50, deadline=None)
    @given(plan=plans())
    def test_filter_key_ignores_execution_fields(self, plan):
        same = [
            plan.with_updates(workers=None),
            plan.with_updates(backend="reference"),
            plan.with_updates(target="fdk", rows=None, columns=None),
            plan.with_updates(algorithm="standard"),
            plan.with_updates(priority=0, tenant="other", slo_seconds=None),
            plan.with_updates(streaming=True, chunk_size=8,
                              memory_budget_bytes=1 << 28),
        ]
        assert {p.filter_key() for p in same} == {plan.filter_key()}

    @settings(max_examples=50, deadline=None)
    @given(plan=plans())
    def test_filter_key_tracks_acquisition_identity(self, plan):
        different = [
            plan.with_updates(ramp_filter="cosine"),
            plan.with_updates(geometry=plan.geometry.with_detector(
                plan.geometry.nu + 1, plan.geometry.nv)),
        ]
        if plan.scenario != "short_scan":
            different.append(plan.with_updates(scenario="short_scan"))
        for other in different:
            assert other.filter_key() != plan.filter_key()


# --------------------------------------------------------------------------- #
# The parse memo and the derived identity
# --------------------------------------------------------------------------- #
class TestPlanParseMemo:
    """``from_json`` keeps the plans it parsed under the SHA-256 of their
    text; a plan derives its key, acquisition token and problem once."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        plan_module._parsed_plans.clear()
        yield
        plan_module._parsed_plans.clear()

    def test_same_text_is_the_same_plan_with_a_fresh_parse_s_keys(self):
        text = small_plan(target="service", slo_seconds=30.0).to_json()
        first = ReconstructionPlan.from_json(text)
        assert ReconstructionPlan.from_json(text) is first
        key, filter_key = first.key(), first.filter_key()
        plan_module._parsed_plans.clear()
        fresh = ReconstructionPlan.from_json(text)
        assert fresh is not first
        assert (fresh.key(), fresh.filter_key()) == (key, filter_key)
        assert (first.key(), first.filter_key()) == (key, filter_key)

    def test_identity_equals_what_the_fields_derive(self):
        plan = ReconstructionPlan.from_json(GOLDEN_PLAN.read_text())
        assert plan.key() == GOLDEN_PLAN_KEY
        assert plan.acquisition == acquisition_token(plan.geometry)
        assert plan.problem == plan.geometry.problem()
        assert plan.problem is plan.problem
        # A copy with a field replaced derives its own identity.
        other = plan.with_updates(ramp_filter="hann")
        assert other.key() != plan.key()
        assert other.key() == ReconstructionPlan.from_dict(other.to_dict()).key()

    def test_whitespace_and_field_order_give_equal_plans_and_keys(self):
        plan = small_plan(backend="blocked", scenario="short_scan")
        payload = plan.to_dict()
        texts = [
            plan.to_json(),
            plan.to_json(indent=None),
            json.dumps({k: payload[k] for k in reversed(list(payload))}),
            "\n  " + json.dumps(payload, indent=7) + "\t\n",
        ]
        parsed = [ReconstructionPlan.from_json(text) for text in texts]
        assert all(p == plan for p in parsed)
        assert {p.key() for p in parsed} == {plan.key()}
        assert len(plan_module._parsed_plans) == len(texts)

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not valid JSON"),
        ('{"geometry": {}, "worker_count": 4}', "unknown plan field"),
    ])
    def test_a_bad_document_raises_every_time_and_is_never_kept(self, text, match):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                ReconstructionPlan.from_json(text)
        assert len(plan_module._parsed_plans) == 0

    def test_the_memo_holds_at_most_its_bound_and_no_text(self):
        bound = plan_module._PARSED_PLANS_MAX
        body = small_plan().to_json()
        pad = (1 << 20) - len(body)
        for index in range(bound + 6):  # distinct 1 MiB documents
            text = body + " " * (pad + index)
            assert len(text) >= 1 << 20
            assert ReconstructionPlan.from_json(text) == small_plan()
            assert len(plan_module._parsed_plans) <= bound
        assert len(plan_module._parsed_plans) == bound
        assert all(len(digest) == 32 for digest in plan_module._parsed_plans)

    def test_the_least_recently_read_document_goes_first(self):
        bound = plan_module._PARSED_PLANS_MAX
        texts = [small_plan(target="service", priority=p).to_json()
                 for p in range(bound + 1)]
        first = ReconstructionPlan.from_json(texts[0])
        for text in texts[1:bound]:
            ReconstructionPlan.from_json(text)
        assert ReconstructionPlan.from_json(texts[0]) is first  # read again
        ReconstructionPlan.from_json(texts[bound])  # evicts texts[1]
        assert ReconstructionPlan.from_json(texts[0]) is first
        assert len(plan_module._parsed_plans) == bound

    def test_eight_threads_parsing_at_once_get_equal_plans(self):
        # More documents than the bound, so threads evict while others
        # read and insert; a short switch interval interleaves them finely.
        bound = plan_module._PARSED_PLANS_MAX
        texts = [small_plan(target="service", slo_seconds=10.0 + k).to_json()
                 for k in range(bound + 16)]
        expected = [ReconstructionPlan.from_dict(json.loads(text))
                    for text in texts]
        barrier = threading.Barrier(8)

        def parse(worker):
            barrier.wait(timeout=30)
            return [(k, ReconstructionPlan.from_json(texts[k]))
                    for k in ((worker * 7 + i) % len(texts) for i in range(400))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(parse, worker) for worker in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for parsed in results:
            for k, plan in parsed:
                assert plan == expected[k]
                assert plan.key() == expected[k].key()
        assert len(plan_module._parsed_plans) == bound
        assert len(list(plan_module._parsed_plans)) == bound

    @settings(max_examples=100, deadline=None)
    @given(plan=plans())
    def test_from_json_round_trip_through_the_memo(self, plan):
        text = plan.to_json()
        restored = ReconstructionPlan.from_json(text)
        assert restored == plan
        assert ReconstructionPlan.from_json(text) is restored
        assert restored.key() == plan.key()


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
class TestPlanValidation:
    def test_valid_plan_chains(self):
        plan = small_plan()
        assert plan.validate() is plan

    @pytest.mark.parametrize("fields, match", [
        (dict(target="cloud"), "unknown plan target"),
        (dict(ramp_filter="butterworth"), "unknown ramp filter"),
        (dict(algorithm="fancy"), "proposed"),
        (dict(dtype="float64"), "float32"),
        (dict(backend="cuda"), "unknown backend"),
        (dict(workers=2), "parallel"),
        (dict(backend="parallel", workers=0), "positive"),
        (dict(target="ifdk", rows=2), "rows and columns"),
        (dict(rows=2, columns=2), "only apply to the ifdk target"),
        (dict(target="ifdk", rows=5, columns=5), "divisible"),
        (dict(target="ifdk", rows=2, columns=2, scenario="short_scan"),
         "single-node"),
        (dict(target="service", cluster_gpus=0), "cluster_gpus"),
        (dict(target="service", priority=-1), "priority"),
        (dict(target="service", slo_seconds=0.0), "slo_seconds"),
        (dict(scenario="helical"), "unknown scenario"),
    ])
    def test_invalid_plans_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            small_plan(**fields).validate()

    def test_service_target_allows_workers_on_any_backend(self):
        # Service workers size the dispatcher, not a backend pool.
        small_plan(target="service", workers=2).validate()

    def test_plan_for_problem_rejects_non_problems(self):
        with pytest.raises(ValueError, match="problem"):
            plan_for_problem(42)


# --------------------------------------------------------------------------- #
# Execution equivalence (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestSessionExecution:
    @pytest.mark.parametrize("backend", available_backends())
    def test_serialized_plan_matches_direct_fdk_bit_for_bit(
        self, backend, small_geometry, small_projections
    ):
        """JSON round-trip + Session == direct StreamingReconstructor, exactly."""
        plan = ReconstructionPlan(geometry=small_geometry, backend=backend)
        reloaded = ReconstructionPlan.from_json(plan.to_json())
        with Session(reloaded) as session:
            result = session.run(small_projections)
        direct = StreamingReconstructor(
            small_geometry, backend=backend
        ).reconstruct_stack(small_projections)
        np.testing.assert_array_equal(result.volume.data, direct.volume.data)
        assert result.plan_key == plan.key()
        assert result.target == "fdk"

    def test_scenario_plan_matches_direct_scenario_path(
        self, small_geometry, small_projections
    ):
        plan = ReconstructionPlan(
            geometry=small_geometry, scenario="short_scan", backend="vectorized"
        )
        result = run_plan(plan, small_projections)
        scenario = get_scenario("short_scan")
        geometry, scenario_stack = scenario.apply(small_geometry, small_projections)
        direct = StreamingReconstructor(
            geometry, backend="vectorized", scenario=scenario
        ).reconstruct_stack(scenario_stack)
        np.testing.assert_array_equal(result.volume.data, direct.volume.data)
        assert result.problem.np_ < small_geometry.np_

    def test_scenario_session_accepts_pre_transformed_stack(
        self, small_geometry, small_projections
    ):
        scenario = get_scenario("sparse_view")
        _, scenario_stack = scenario.apply(small_geometry, small_projections)
        plan = ReconstructionPlan(geometry=small_geometry, scenario="sparse_view")
        with Session(plan) as session:
            via_base = session.run(small_projections)
            via_transformed = session.run(scenario_stack)
        np.testing.assert_array_equal(
            via_base.volume.data, via_transformed.volume.data
        )

    def test_session_rejects_mismatched_stack(self, small_geometry, small_projections):
        plan = ReconstructionPlan(
            geometry=small_geometry.with_detector(
                small_geometry.nu - 8, small_geometry.nv
            ),
            scenario="short_scan",
        )
        with Session(plan) as session, pytest.raises(ValueError, match="matches"):
            session.run(small_projections)

    def test_ifdk_target_runs_and_matches_single_node(
        self, small_geometry, small_projections
    ):
        plan = ReconstructionPlan(
            geometry=small_geometry, target="ifdk", rows=2, columns=2,
            backend="vectorized",
        )
        result = run_plan(plan, small_projections)
        single = run_plan(
            ReconstructionPlan(geometry=small_geometry, backend="vectorized"),
            small_projections,
        )
        assert result.details["rows"] == 2 and result.details["columns"] == 2
        np.testing.assert_allclose(
            result.volume.data, single.volume.data, atol=1e-4
        )

    def test_service_target_returns_volume_and_job_record(
        self, small_geometry, small_projections
    ):
        plan = ReconstructionPlan(
            geometry=small_geometry, target="service", cluster_gpus=8,
            slo_seconds=120.0, tenant="api-test",
        )
        result = run_plan(plan, small_projections)
        fdk = run_plan(
            ReconstructionPlan(geometry=small_geometry), small_projections
        )
        np.testing.assert_array_equal(result.volume.data, fdk.volume.data)
        job = result.details["job"]
        assert result.details["accepted"]
        assert job["state"] == "completed"
        assert job["tenant"] == "api-test"
        assert job["plan_key"] == plan.key()

    def test_run_result_record_is_flat_and_keyed(self, small_geometry, small_projections):
        plan = ReconstructionPlan(geometry=small_geometry)
        record = run_plan(plan, small_projections).as_record()
        assert record["plan_key"] == plan.key()
        assert record["gups"] > 0
        assert record["target"] == "fdk"

    def test_session_rejects_invalid_plan(self, small_geometry):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(ReconstructionPlan(geometry=small_geometry, backend="cuda"))


# --------------------------------------------------------------------------- #
# Constructor shims and identity threading
# --------------------------------------------------------------------------- #
class TestPlanShims:
    def test_reconstructor_from_plan(self, small_geometry, small_projections):
        plan = ReconstructionPlan(geometry=small_geometry, backend="blocked")
        with StreamingReconstructor.from_plan(plan) as via_plan:
            a = via_plan.reconstruct_stack(small_projections).volume
        b = StreamingReconstructor(
            small_geometry, backend="blocked"
        ).reconstruct_stack(small_projections).volume
        np.testing.assert_array_equal(a.data, b.data)

    def test_reconstructor_from_plan_resolves_scenario_geometry(self, small_geometry):
        plan = ReconstructionPlan(geometry=small_geometry, scenario="short_scan")
        reconstructor = StreamingReconstructor.from_plan(plan)
        assert reconstructor.geometry.np_ < small_geometry.np_
        assert reconstructor.scenario is not None

    def test_ifdk_config_from_plan(self, small_geometry):
        plan = ReconstructionPlan(
            geometry=small_geometry, target="ifdk", rows=2, columns=2,
            ramp_filter="hann", backend="vectorized",
        )
        config = IFDKConfig.from_plan(plan)
        assert config.rows == 2 and config.columns == 2
        assert config.ramp_filter == "hann"
        assert config.backend == "vectorized"
        assert config.geometry == small_geometry

    def test_ifdk_config_from_plan_requires_grid(self, small_geometry):
        plan = ReconstructionPlan(geometry=small_geometry)
        with pytest.raises(ValueError, match="rows and columns"):
            IFDKConfig.from_plan(plan)

    def test_ifdk_config_from_plan_rejects_non_ideal_scenario(self, small_geometry):
        # A scenario plan must never silently become a full-scan config.
        plan = ReconstructionPlan(
            geometry=small_geometry, scenario="short_scan", rows=2, columns=2
        )
        with pytest.raises(ValueError, match="full scan"):
            IFDKConfig.from_plan(plan)

    def test_job_from_plan_carries_identity_and_qos(self, small_geometry):
        plan = ReconstructionPlan(
            geometry=small_geometry, target="service", scenario="sparse_view",
            backend="vectorized", priority=0, slo_seconds=30.0, tenant="t-9",
        )
        job = ReconstructionJob.from_plan(plan, dataset_id="ds-7")
        assert job.plan_key == plan.key()
        assert job.problem == plan.problem
        assert job.scenario == "sparse_view"
        assert job.backend == "vectorized"
        assert (job.tenant, job.priority, job.slo_seconds) == ("t-9", 0, 30.0)
        overridden = ReconstructionJob.from_plan(plan, priority=3)
        assert overridden.priority == 3

    def test_cache_key_from_plan_equals_for_job(self, small_geometry):
        plan = ReconstructionPlan(
            geometry=small_geometry, target="service", scenario="short_scan"
        )
        job = ReconstructionJob.from_plan(plan, dataset_id="ds-1")
        assert CacheKey.for_job(job) == CacheKey.from_plan(plan, "ds-1")
        assert CacheKey.from_plan(plan, "ds-1").filter_key == plan.filter_key()

    def test_filter_cache_identity_is_shared(self):
        direct = filter_cache_identity(
            ramp_filter="ram-lak", nu=48, nv=48, np_=24, scenario="full"
        )
        key = CacheKey(dataset_id="x", ramp_filter="ram-lak", nu=48, nv=48, np_=24)
        assert key.filter_key == direct


class TestPlanFieldTypes:
    """Wrong-typed plan-file fields are ValueErrors (the CLI exit-2 path),
    and validate() rejects non-integers that the canonical dict would
    silently truncate (protecting the lossless round-trip)."""

    @pytest.mark.parametrize("field, value", [
        ("priority", [1]),
        ("workers", [4]),
        ("cluster_gpus", "many"),
        ("slo_seconds", [1.0]),
    ])
    def test_wrong_typed_plan_field_is_value_error(self, field, value):
        payload = small_plan().to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            ReconstructionPlan.from_dict(payload)

    def test_wrong_typed_geometry_field_is_value_error(self):
        payload = small_plan().to_dict()
        payload["geometry"]["nu"] = None
        with pytest.raises(ValueError, match="geometry.nu"):
            ReconstructionPlan.from_dict(payload)

    @pytest.mark.parametrize("fields", [
        dict(target="service", workers=2.5),
        dict(target="service", priority=1.5),
        dict(cluster_gpus=16.0),
        dict(target="ifdk", rows=2.0, columns=2),
    ])
    def test_validate_rejects_non_integer_scalars(self, fields):
        with pytest.raises(ValueError, match="integer"):
            small_plan(**fields).validate()


class TestPlanFieldTypeStrictness:
    """from_dict must never reinterpret what the author wrote."""

    @pytest.mark.parametrize("field, value", [
        ("workers", 2.5),
        ("priority", 1.5),
        ("workers", True),
        ("cluster_gpus", False),
    ])
    def test_lossy_numerics_rejected_at_parse_time(self, field, value):
        payload = small_plan().to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            ReconstructionPlan.from_dict(payload)

    def test_integral_float_canonicalizes(self):
        # "workers": 2.0 is a JSON artifact, not a different plan.
        payload = small_plan(backend="parallel", workers=2).to_dict()
        reference_key = ReconstructionPlan.from_dict(dict(payload)).key()
        payload["workers"] = 2.0
        plan = ReconstructionPlan.from_dict(payload)
        assert plan.workers == 2
        assert plan.key() == reference_key


class TestQoSFieldScoping:
    """QoS fields are service-only: inert-but-hashed fields must not give
    two identical executions different plan keys."""

    @pytest.mark.parametrize("fields", [
        dict(slo_seconds=45.0),
        dict(cluster_gpus=8),
        dict(priority=0),
        dict(tenant="x"),
    ])
    def test_qos_on_non_service_target_rejected(self, fields):
        with pytest.raises(ValueError, match="service"):
            small_plan(**fields).validate()

    def test_qos_on_service_target_accepted(self):
        small_plan(target="service", slo_seconds=45.0, cluster_gpus=8,
                   priority=0, tenant="x").validate()


class TestStreamingFieldScoping:
    """Streaming fields are fdk-only execution knobs: valid combinations
    validate, impossible or off-target ones are loud ValueErrors."""

    def test_streaming_fdk_plan_validates(self):
        small_plan(streaming=True).validate()
        small_plan(streaming=True, chunk_size=4).validate()
        small_plan(streaming=True, memory_budget_bytes=1 << 26).validate()

    @pytest.mark.parametrize("fields, match", [
        (dict(streaming=True, target="service", cluster_gpus=8),
         "only wired for the fdk target"),
        (dict(streaming=True, target="ifdk", rows=2, columns=2),
         "only wired for the fdk target"),
        (dict(chunk_size=4), "streaming"),
        (dict(memory_budget_bytes=1 << 26), "streaming"),
        (dict(streaming=True, chunk_size=0), "positive"),
        (dict(streaming=True, memory_budget_bytes=-1), "positive"),
        (dict(streaming=True, memory_budget_bytes=16), "cannot stream"),
    ])
    def test_invalid_streaming_plans_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            small_plan(**fields).validate()

    def test_streaming_must_be_boolean(self):
        payload = small_plan().to_dict()
        payload["streaming"] = 1
        with pytest.raises(ValueError, match="streaming.*boolean"):
            ReconstructionPlan.from_dict(payload)

    def test_streaming_budget_exceeded_by_chunk_rejected(self):
        from repro.streaming.chunks import per_projection_working_set_bytes

        plan = small_plan(streaming=True, chunk_size=16)
        budget = 2 * per_projection_working_set_bytes(plan.geometry)
        with pytest.raises(ValueError, match="largest chunk that fits"):
            plan.with_updates(memory_budget_bytes=budget).validate()

    def test_streaming_fields_reach_describe(self):
        summary = small_plan(streaming=True, chunk_size=4).describe()
        assert summary["streaming"] is True
        assert summary["chunk_size"] == 4


class TestNonFiniteRejection:
    """NaN/Infinity never reach a plan file, a key, or a validated plan."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_slo_rejected_everywhere(self, bad):
        payload = small_plan(target="service").to_dict()
        payload["slo_seconds"] = bad
        with pytest.raises(ValueError, match="finite"):
            ReconstructionPlan.from_dict(payload)
        plan = small_plan(target="service", slo_seconds=bad)
        with pytest.raises(ValueError, match="finite"):
            plan.validate()
        with pytest.raises(ValueError):
            plan.to_json()  # never emits invalid strict JSON
        with pytest.raises(ValueError):
            plan.key()

    def test_non_finite_geometry_rejected(self):
        import dataclasses as dc

        geometry = small_plan().geometry
        plan = ReconstructionPlan(
            geometry=dc.replace(geometry, angle_offset=float("nan"))
        )
        with pytest.raises(ValueError, match="angle_offset must be finite"):
            plan.validate()
