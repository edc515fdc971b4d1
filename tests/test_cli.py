"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ReconstructionPlan
from repro.cli import build_parser, main
from repro.obs import load_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_option_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_reconstruct_defaults(self):
        # Parser defaults are None sentinels (so --plan conflicts are
        # detectable); plan_from_args resolves them to the real defaults.
        from repro.cli import plan_from_args

        args = build_parser().parse_args(["reconstruct"])
        assert args.algorithm is None
        assert not args.distributed
        plan = plan_from_args(args)
        assert plan.algorithm == "proposed"
        assert plan.backend == "reference"
        assert plan.scenario == "full_scan"
        assert plan.target == "fdk"
        assert str(plan.problem) == "96x96x120->64x64x64"

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "--gpus", "128"])
        assert args.gpus == 128


class TestReconstructCommand:
    def test_single_node_reconstruction(self, tmp_path, capsys):
        out = tmp_path / "volume.npy"
        report = tmp_path / "report.json"
        code = main([
            "reconstruct",
            "--problem", "32x32x12->16x16x16",
            "--output", str(out),
            "--report", str(report),
        ])
        assert code == 0
        volume = np.load(out)
        assert volume.shape == (16, 16, 16)
        data = json.loads(report.read_text())
        assert data["mode"] == "single-node"
        assert data["gups"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["problem"] == "32x32x12->16x16x16"

    def test_distributed_reconstruction(self, tmp_path, capsys):
        code = main([
            "reconstruct",
            "--problem", "32x32x8->16x16x16",
            "--distributed", "--rows", "2", "--columns", "2",
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mode"] == "distributed"
        assert printed["rows"] == 2 and printed["columns"] == 2

    def test_standard_algorithm_selectable(self, capsys):
        code = main(["reconstruct", "--problem", "24x24x6->12x12x12",
                     "--algorithm", "standard"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "standard"

    def test_backend_selectable_and_conformant(self, capsys):
        """--backend threads through and changes nothing observable."""
        volumes = {}
        for backend in ("reference", "vectorized", "blocked"):
            code = main(["reconstruct", "--problem", "24x24x6->12x12x12",
                         "--backend", backend])
            assert code == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["backend"] == backend
            volumes[backend] = (printed["volume_min"], printed["volume_max"])
        ref_min, ref_max = volumes["reference"]
        for backend in ("vectorized", "blocked"):
            assert volumes[backend][0] == pytest.approx(ref_min, abs=1e-5)
            assert volumes[backend][1] == pytest.approx(ref_max, abs=1e-5)

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reconstruct", "--backend", "cuda"])

    def test_malformed_problem_spec_exits_2(self, capsys):
        assert main(["reconstruct", "--problem", "not-a-problem"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_distributed_geometry_exits_2(self, capsys):
        # Np = 6 is not divisible by R*C = 4, so IFDKConfig must refuse.
        code = main(["reconstruct", "--problem", "24x24x6->12x12x12",
                     "--distributed", "--rows", "2", "--columns", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parallel
class TestWorkersFlag:
    """The --workers error paths follow the ValueError -> exit-2 convention."""

    @pytest.mark.parametrize("command", [
        ["reconstruct", "--backend", "parallel"],
        ["submit", "--problem", "512x512x1024->256x256x256", "--gpus", "4"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_workers_exits_2(self, command, workers, capsys):
        assert main(command + ["--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "--workers must be a positive integer" in err

    def test_serve_non_positive_workers_exits_2(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "--jobs", "2", "-o", str(trace_path)]) == 0
        assert main(["serve", "--trace", str(trace_path), "--workers", "0"]) == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_workers_require_parallel_backend(self, capsys):
        assert main(["reconstruct", "--workers", "2"]) == 2
        assert "parallel" in capsys.readouterr().err

    def test_reconstruct_with_workers_matches_blocked(self, capsys):
        code = main(["reconstruct", "--problem", "24x24x6->12x12x12",
                     "--backend", "blocked"])
        assert code == 0
        blocked = json.loads(capsys.readouterr().out)
        code = main(["reconstruct", "--problem", "24x24x6->12x12x12",
                     "--backend", "parallel", "--workers", "2"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["backend"] == "parallel" and printed["workers"] == 2
        # Bit-identical family: the extrema agree exactly, not approximately.
        assert printed["volume_min"] == blocked["volume_min"]
        assert printed["volume_max"] == blocked["volume_max"]

    @pytest.mark.serving
    def test_submit_with_workers_reports_real_execution(self, capsys):
        assert main(["submit", "--problem", "512x512x1024->256x256x256",
                     "--gpus", "4", "--workers", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "completed"
        assert record["workers"] >= 1
        assert record["executed_wall_s"] > 0


class TestPredictCommand:
    def test_default_4k_problem(self, capsys):
        assert main(["predict", "--gpus", "2048"]) == 0
        out = capsys.readouterr().out
        assert "R=32" in out and "t_runtime" in out

    def test_explicit_rows(self, capsys):
        assert main(["predict", "--gpus", "256", "--rows", "256"]) == 0
        assert "C=1" in capsys.readouterr().out

    def test_invalid_rows_returns_error_code(self, capsys):
        assert main(["predict", "--gpus", "100", "--rows", "64"]) == 2

    @pytest.mark.parametrize("rows", ["0", "-4"])
    def test_non_positive_rows_exit_2(self, capsys, rows):
        assert main(["predict", "--gpus", "128", "--rows", rows]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_problem_spec_exits_2(self, capsys):
        assert main(["predict", "--problem", "64x64", "--gpus", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_infeasible_geometry_exits_2(self, capsys):
        # A 64k^3 output cannot fit 4 V100s even with R = 4.
        code = main(["predict", "--problem", "2048x2048x4096->64kx64kx64k",
                     "--gpus", "4"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTable4Command:
    def test_prints_all_kernels(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        for name in ("RTK-32", "Bp-Tex", "Tex-Tran", "Bp-L1", "L1-Tran"):
            assert name in out
        assert "512x512x1024->128x128x128" in out


class TestScenariosCommand:
    def test_lists_at_least_four_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for preset in ("full_scan", "short_scan", "offset_detector",
                       "sparse_view", "noisy"):
            assert preset in out

    def test_reconstruct_with_scenario(self, capsys):
        code = main(["reconstruct", "--problem", "32x32x16->16x16x16",
                     "--scenario", "short_scan", "--backend", "vectorized"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["scenario"] == "short_scan"
        # The short scan keeps only the pi + 2*delta prefix of the sweep.
        assert printed["projections"] < 16
        assert printed["angular_range"] < 2 * np.pi

    def test_reconstruct_with_scenario_matches_direct_api(self, capsys):
        """--scenario output agrees with the library path (same min/max)."""
        from repro.core import (
            EllipsoidPhantom,
            default_geometry_for_problem,
            forward_project_analytic,
            shepp_logan_ellipsoids,
        )
        from repro.scenarios import get_scenario
        from repro.streaming import StreamingReconstructor

        code = main(["reconstruct", "--problem", "32x32x16->16x16x16",
                     "--scenario", "sparse_view"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        geometry = default_geometry_for_problem(
            nu=32, nv=32, np_=16, nx=16, ny=16, nz=16
        )
        stack = forward_project_analytic(
            EllipsoidPhantom(shepp_logan_ellipsoids()), geometry
        )
        scenario = get_scenario("sparse_view")
        sparse_geometry, sparse = scenario.apply(geometry, stack)
        result = StreamingReconstructor(
            sparse_geometry, scenario=scenario
        ).reconstruct_stack(sparse)
        assert printed["volume_min"] == pytest.approx(
            float(result.volume.data.min())
        )
        assert printed["volume_max"] == pytest.approx(
            float(result.volume.data.max())
        )

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reconstruct", "--scenario", "helical"])

    def test_distributed_scenario_exits_2(self, capsys):
        code = main(["reconstruct", "--problem", "32x32x8->16x16x16",
                     "--scenario", "short_scan", "--distributed"])
        assert code == 2
        assert "single-node" in capsys.readouterr().err

    def test_submit_with_scenario(self, capsys):
        code = main(["submit", "--problem", "512x512x1024->256x256x256",
                     "--gpus", "4", "--scenario", "noisy"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scenario"] == "noisy"
        assert record["state"] == "completed"

    def test_trace_scenario_mix(self, tmp_path):
        path = tmp_path / "trace.json"
        code = main(["trace", "--jobs", "12", "--seed", "1",
                     "--scenario-mix", "full_scan=0.5,short_scan=0.5",
                     "-o", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        scenarios = {job["scenario"] for job in payload["jobs"]}
        assert scenarios == {"full_scan", "short_scan"}

    def test_trace_bad_scenario_mix_exits_2(self, tmp_path, capsys):
        code = main(["trace", "--jobs", "4", "--scenario-mix", "helical=1",
                     "-o", str(tmp_path / "t.json")])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestPlanCommand:
    """The ``repro plan`` subcommand: emit, validate, describe."""

    def test_emit_validate_describe_round_trip(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", "--problem", "48x48x24->32x32x32",
                     "--backend", "vectorized", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["plan", "validate", str(path)]) == 0
        assert "is valid" in capsys.readouterr().out
        assert main(["plan", "describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out
        assert "48x48x24->32x32x32" in out

    def test_emit_to_stdout_is_loadable_and_keyed(self, capsys):
        from repro.api import ReconstructionPlan

        assert main(["plan", "emit"]) == 0
        captured = capsys.readouterr()
        plan = ReconstructionPlan.from_json(captured.out)
        assert plan.target == "fdk"
        assert plan.key() in captured.err

    def test_emit_service_target_carries_qos(self, capsys):
        from repro.api import ReconstructionPlan

        assert main(["plan", "emit", "--target", "service", "--gpus", "8",
                     "--slo", "45", "--priority", "0"]) == 0
        plan = ReconstructionPlan.from_json(capsys.readouterr().out)
        assert plan.target == "service"
        assert (plan.cluster_gpus, plan.slo_seconds, plan.priority) == (8, 45.0, 0)

    def test_emit_rejects_plan_file_argument(self, tmp_path, capsys):
        assert main(["plan", "emit", str(tmp_path / "x.json")]) == 2
        assert "emit builds a plan from flags" in capsys.readouterr().err

    def test_validate_requires_file_argument(self, capsys):
        assert main(["plan", "validate"]) == 2
        assert "requires a plan file" in capsys.readouterr().err

    def test_validate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["plan", "validate", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_validate_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", "validate", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_validate_unknown_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        payload["wokers"] = 4  # the typo the strict schema exists to catch
        path.write_text(json.dumps(payload))
        assert main(["plan", "validate", str(path)]) == 2
        assert "unknown plan field" in capsys.readouterr().err

    def test_validate_semantically_invalid_plan_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        payload["backend"] = "cuda"
        path.write_text(json.dumps(payload))
        assert main(["plan", "validate", str(path)]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestPlanFlag:
    """``--plan plan.json`` on reconstruct and submit."""

    def emit(self, tmp_path, *flags):
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", *flags, "-o", str(path)]) == 0
        return path

    def test_reconstruct_with_plan_matches_explicit_flags(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--problem", "24x24x6->12x12x12",
                         "--backend", "vectorized")
        assert main(["reconstruct", "--problem", "24x24x6->12x12x12",
                     "--backend", "vectorized"]) == 0
        by_flags = json.loads(capsys.readouterr().out)
        assert main(["reconstruct", "--plan", str(path)]) == 0
        by_plan = json.loads(capsys.readouterr().out)
        # One canonical description -> bit-identical execution.
        assert by_plan["volume_min"] == by_flags["volume_min"]
        assert by_plan["volume_max"] == by_flags["volume_max"]
        assert by_plan["plan_key"] == by_flags["plan_key"]
        assert by_plan["backend"] == "vectorized"

    def test_reconstruct_plan_conflicts_with_flags_exit_2(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--problem", "24x24x6->12x12x12")
        assert main(["reconstruct", "--plan", str(path),
                     "--backend", "vectorized"]) == 2
        err = capsys.readouterr().err
        assert "--plan conflicts" in err and "--backend" in err

    def test_reconstruct_plan_conflicts_with_distributed_exit_2(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--problem", "32x32x8->16x16x16")
        assert main(["reconstruct", "--plan", str(path), "--distributed"]) == 2
        assert "--distributed" in capsys.readouterr().err

    def test_reconstruct_missing_plan_file_exits_2(self, tmp_path, capsys):
        assert main(["reconstruct", "--plan", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_reconstruct_malformed_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"geometry": "not-an-object"}')
        assert main(["reconstruct", "--plan", str(bad)]) == 2
        assert "geometry" in capsys.readouterr().err

    def test_submit_with_service_plan(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--target", "service",
                         "--problem", "512x512x1024->256x256x256",
                         "--gpus", "4", "--slo", "1000")
        assert main(["submit", "--plan", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "completed"
        assert record["met_slo"] is True
        assert record["plan_key"]

    def test_submit_plan_conflicts_with_flags_exit_2(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--target", "service")
        assert main(["submit", "--plan", str(path), "--priority", "0"]) == 2
        assert "--priority" in capsys.readouterr().err

    def test_submit_rejects_non_service_plan(self, tmp_path, capsys):
        path = self.emit(tmp_path, "--problem", "512x512x1024->256x256x256")
        assert main(["submit", "--plan", str(path)]) == 2
        assert "targets 'fdk'" in capsys.readouterr().err


class TestTraceScenarioFlag:
    """The shared --scenario flag reaches trace (single-preset traces)."""

    def test_trace_single_scenario(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--jobs", "6", "--scenario", "short_scan",
                     "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert {job["scenario"] for job in payload["jobs"]} == {"short_scan"}

    def test_scenario_and_mix_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(["trace", "--jobs", "4", "--scenario", "short_scan",
                     "--scenario-mix", "full_scan=1",
                     "-o", str(tmp_path / "t.json")])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestPlanFlagStrictness:
    """Explicit flag values always reach validation — never silently drop."""

    def test_rows_without_ifdk_target_exit_2(self, capsys):
        # Forgetting --target ifdk must not emit a single-node plan.
        assert main(["plan", "emit", "--rows", "4", "--columns", "4"]) == 2
        assert "only apply to the ifdk target" in capsys.readouterr().err

    def test_zero_gpus_exit_2(self, capsys):
        assert main(["plan", "emit", "--target", "service", "--gpus", "0"]) == 2
        assert "cluster_gpus" in capsys.readouterr().err

    def test_zero_rows_exit_2(self, capsys):
        assert main(["reconstruct", "--problem", "32x32x8->16x16x16",
                     "--distributed", "--rows", "0", "--columns", "2"]) == 2
        assert "rows must be a positive integer" in capsys.readouterr().err


class TestSubmitPlanKeyParity:
    """Flag-built and file-built submissions share one canonical identity."""

    def test_submit_by_flags_matches_emitted_plan_key(self, tmp_path, capsys):
        flags = ["--problem", "512x512x1024->256x256x256", "--gpus", "4",
                 "--slo", "1000"]
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", "--target", "service", *flags,
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["submit", *flags]) == 0
        by_flags = json.loads(capsys.readouterr().out)
        assert main(["submit", "--plan", str(path)]) == 0
        by_plan = json.loads(capsys.readouterr().out)
        assert by_flags["plan_key"] == by_plan["plan_key"]
        assert by_flags["tenant"] == by_plan["tenant"]

    @pytest.mark.parametrize("flags, key", [
        ([], "8eccfa4a0d4930d5"),
        (["--target", "ifdk", "--problem", "64x64x32->32x32x32", "--rows", "2",
          "--columns", "4", "--algorithm", "standard"], "13b95cf00e8f9e94"),
        (["--target", "service", "--problem", "512x512x1024->256x256x256",
          "--gpus", "4", "--slo", "1000", "--priority", "0"], "8f2c3c3eb55e82d0"),
    ])
    def test_emitted_and_submitted_plan_keys_are_pinned(self, tmp_path, capsys, flags, key):
        # The keys the plan flags gave before add_plan_args registered the
        # rank-grid and service flags once for every subcommand.
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", *flags, "-o", str(path)]) == 0
        assert ReconstructionPlan.from_json(path.read_text()).key() == key
        if "service" in flags:
            capsys.readouterr()
            assert main(["submit", "--plan", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["plan_key"] == key


@pytest.mark.obs
class TestObservabilityCLI:
    """``--trace-out`` on the run commands and the ``repro report`` viewer."""

    SMALL = "24x24x6->12x12x12"

    def reconstruct_trace(self, tmp_path, capsys, suffix=".json"):
        path = tmp_path / f"trace{suffix}"
        assert main(["reconstruct", "--problem", self.SMALL,
                     "--trace-out", str(path)]) == 0
        return path, capsys.readouterr()

    def test_reconstruct_trace_out_writes_trace_and_report(self, tmp_path, capsys):
        path, captured = self.reconstruct_trace(tmp_path, capsys)
        payload = json.loads(captured.out)
        assert {"run", "filter", "backproject"} <= set(payload["stage_seconds"])
        assert payload["peak_rss_bytes"] > 0
        assert "spans written to" in captured.err
        assert "trace summary" in captured.err  # the summary tree
        document = json.loads(path.read_text())
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert {"run", "filter", "backproject"} <= names

    def test_reconstruct_stage_seconds_are_the_traces_to_the_bit(
        self, tmp_path, capsys
    ):
        """The JSON's ``stage_seconds`` is the written trace's stage totals:
        one source, and JSON-lines keeps every float exactly."""
        path, captured = self.reconstruct_trace(tmp_path, capsys, ".jsonl")
        totals = {}
        for span in load_trace(path):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        stage_seconds = json.loads(captured.out)["stage_seconds"]
        assert {name: seconds.hex() for name, seconds in stage_seconds.items()} == {
            name: seconds.hex() for name, seconds in totals.items()
        }

    def test_trace_out_bad_suffix_exits_2_before_running(self, tmp_path, capsys):
        assert main(["reconstruct", "--problem", self.SMALL,
                     "--trace-out", str(tmp_path / "trace.xml")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # failed up front, no reconstruction ran
        assert "error:" in captured.err and ".xml" in captured.err

    def test_report_renders_summary(self, tmp_path, capsys):
        path, _ = self.reconstruct_trace(tmp_path, capsys)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "backproject" in out and "filter" in out

    def test_report_converts_between_formats(self, tmp_path, capsys):
        path, _ = self.reconstruct_trace(tmp_path, capsys)
        jsonl = tmp_path / "trace.jsonl"
        assert main(["report", str(path), "--format", "jsonl",
                     "-o", str(jsonl)]) == 0
        capsys.readouterr()
        # The converted file is itself a loadable report input.
        assert main(["report", str(jsonl)]) == 0
        assert "run" in capsys.readouterr().out

    def test_report_unknown_format_exits_2(self, tmp_path, capsys):
        path, _ = self.reconstruct_trace(tmp_path, capsys)
        assert main(["report", str(path), "--format", "protobuf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "protobuf" in err
        assert len(err.strip().splitlines()) == 1  # one-line error

    def test_report_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not a trace")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_report_wrong_json_shape_exits_2(self, tmp_path, capsys):
        not_a_trace = tmp_path / "plan.json"
        assert main(["plan", "emit", "-o", str(not_a_trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(not_a_trace)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_submit_trace_out_records_service_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert main(["submit", "--problem", "512x512x1024->256x256x256",
                     "--gpus", "4", "--slo", "1000",
                     "--trace-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["state"] == "completed"
        assert "service.schedule" in path.read_text()  # summary format


class TestPlanValidateFlagStrictness:
    """plan validate/describe never silently ignore plan-building flags."""

    def test_validate_rejects_stray_flags(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "emit", "-o", str(path)]) == 0
        assert main(["plan", "validate", str(path),
                     "--backend", "vectorized"]) == 2
        err = capsys.readouterr().err
        assert "--backend" in err and "emit" in err
        assert main(["plan", "describe", str(path), "--workers", "4"]) == 2
        assert "--workers" in capsys.readouterr().err
