"""The bench trajectory: schema of the tracked record + the regression gate.

``BENCH_backend_speed.json`` is no longer a single overwritten snapshot —
every benchmark run appends a history entry (git sha, UTC date, host cpu
count, per-backend GUPS).  This suite is the tier-1 tripwire over that
trajectory: the checked-in record must validate, and its newest entry must
not have regressed more than 25% against the most recent earlier entry
measured on the same host profile.  Unit tests pin the comparison
semantics (profile gating, threshold edges, short histories) against
synthetic histories so the tripwire itself cannot rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.trajectory import (
    REGRESSION_THRESHOLD,
    check_regression,
    format_trajectory,
    load_record,
    trajectory_entry,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_backend_speed.json"


def _entry(sha, gups, *, cpus=4, date="2026-08-08", executor=None, isa=None):
    entry = {"sha": sha, "date": date, "cpus": cpus, "gups": gups}
    if executor is not None:
        entry["executor"] = executor
    if isa is not None:
        entry["isa"] = isa
    return entry


# --------------------------------------------------------------------- #
# The checked-in record: schema + the actual regression gate.
# --------------------------------------------------------------------- #

def test_checked_in_record_validates():
    record = load_record(RESULT_FILE)
    history = record["history"]
    assert history, "BENCH_backend_speed.json must carry a trajectory"
    latest = history[-1]
    assert set(latest["gups"]) == set(record["backends"]), (
        "the newest history entry must cover exactly the recorded backends"
    )
    for entry in history:
        assert isinstance(entry["sha"], str) and entry["sha"]
        assert isinstance(entry["date"], str) and entry["date"]
        assert isinstance(entry["cpus"], int) and entry["cpus"] >= 1
        assert all(g > 0 for g in entry["gups"].values())


def test_checked_in_record_has_not_regressed():
    """The tier-1 gate: >25% GUPS drop vs the previous same-host entry fails."""
    record = load_record(RESULT_FILE)
    regressions = check_regression(record["history"])
    assert not regressions, "benchmark trajectory regressed:\n" + "\n".join(
        regressions
    )


def test_filter_throughput_is_tracked_and_has_not_regressed():
    """The filter layer's figure (Mpix/s per backend) rides in the same
    history — entries from before it was recorded simply lack the key —
    and is held to the same same-host 25% gate."""
    record = load_record(RESULT_FILE)
    tracked = [
        dict(entry, gups=entry["filter_mpix_per_s"])
        for entry in record["history"] if "filter_mpix_per_s" in entry
    ]
    assert tracked, "no history entry records filter_mpix_per_s"
    assert tracked[-1]["sha"] == record["history"][-1]["sha"]
    assert tracked[-1]["gups"] == pytest.approx(record["filter_mpix_per_s"])
    assert set(record["filter_mpix_per_s"]) == set(record["backends"])
    assert all(rate > 0 for entry in tracked for rate in entry["gups"].values())
    regressions = check_regression(tracked)
    assert not regressions, "filter throughput regressed:\n" + "\n".join(regressions)


def test_latest_history_entry_matches_flat_record():
    """The newest entry is the flat record's own numbers, not a stale copy."""
    record = load_record(RESULT_FILE)
    latest = record["history"][-1]
    for name, result in record["backends"].items():
        assert latest["gups"][name] == pytest.approx(result["gups"])
    assert latest["cpus"] == record["cpus"]


# --------------------------------------------------------------------- #
# Comparison semantics on synthetic histories.
# --------------------------------------------------------------------- #

def test_regression_detected_beyond_threshold():
    history = [
        _entry("aaaa", {"vectorized": 1.0, "blocked": 0.9}),
        _entry("bbbb", {"vectorized": 0.70, "blocked": 0.89}),
    ]
    regressions = check_regression(history)
    assert len(regressions) == 1
    assert regressions[0].startswith("vectorized:")
    assert "aaaa -> bbbb" in regressions[0]


def test_drop_at_threshold_is_not_a_regression():
    history = [
        _entry("aaaa", {"vectorized": 1.0}),
        _entry("bbbb", {"vectorized": 1.0 - REGRESSION_THRESHOLD}),
    ]
    assert check_regression(history) == []


def test_comparison_is_gated_on_host_profile():
    # The 1-cpu entry in the middle must not be compared against: the
    # newest 4-cpu entry compares to the older 4-cpu one and passes.
    history = [
        _entry("aaaa", {"vectorized": 1.0}, cpus=4),
        _entry("bbbb", {"vectorized": 0.2}, cpus=1),
        _entry("cccc", {"vectorized": 0.95}, cpus=4),
    ]
    assert check_regression(history) == []
    # ... and a genuine same-profile regression is still caught.
    history.append(_entry("dddd", {"vectorized": 0.5}, cpus=4))
    assert len(check_regression(history)) == 1


def test_comparison_is_gated_on_the_kernel_executor():
    """A host without a compiler runs the NumPy kernels: half the GUPS of the
    compiled entry before it, and not a regression — it is held to the last
    NumPy entry (one from before the field existed counts as one)."""
    history = [
        _entry("aaaa", {"vectorized": 0.09}),
        _entry("bbbb", {"vectorized": 0.17}, executor="native"),
        _entry("cccc", {"vectorized": 0.085}, executor="numpy"),
    ]
    assert check_regression(history) == []
    history.append(_entry("dddd", {"vectorized": 0.10}, executor="native"))
    (regression,) = check_regression(history)
    assert "bbbb -> dddd" in regression and "executor=native" in regression
    history.append(_entry("eeee", {"vectorized": 0.05}))
    (regression,) = check_regression(history)
    assert "cccc -> eeee" in regression and "executor=numpy" in regression


def test_comparison_is_gated_on_the_compiled_kernels_loop():
    """A host without AVX2 runs the scalar loop at half the lane loop's GUPS:
    not a regression against an ``avx2`` entry, but held to the last scalar
    one (a native entry from before ``isa`` was recorded counts as one)."""
    history = [
        _entry("aaaa", {"vectorized": 0.15}, executor="native"),
        _entry("bbbb", {"vectorized": 0.30}, executor="native", isa="avx2"),
        _entry("cccc", {"vectorized": 0.14}, executor="native", isa="scalar"),
    ]
    assert check_regression(history) == []
    history.append(_entry("dddd", {"vectorized": 0.20}, executor="native", isa="avx2"))
    (regression,) = check_regression(history)
    assert "bbbb -> dddd" in regression and "executor=native/avx2" in regression
    history.append(_entry("eeee", {"vectorized": 0.05}, executor="numpy", isa="avx2"))
    assert check_regression(history) == []  # the NumPy executor has no loop
    assert "native/avx2" in format_trajectory({"history": history})


def test_no_comparison_cases_pass():
    assert check_regression([]) == []
    assert check_regression([_entry("aaaa", {"vectorized": 1.0})]) == []
    # No prior entry on this host profile at all.
    assert (
        check_regression(
            [
                _entry("aaaa", {"vectorized": 1.0}, cpus=1),
                _entry("bbbb", {"vectorized": 0.1}, cpus=8),
            ]
        )
        == []
    )


def test_new_backend_without_baseline_is_skipped():
    history = [
        _entry("aaaa", {"vectorized": 1.0}),
        _entry("bbbb", {"vectorized": 0.99, "blocked": 0.5}),
    ]
    assert check_regression(history) == []


def test_bad_threshold_rejected():
    with pytest.raises(ValueError):
        check_regression([], threshold=0.0)
    with pytest.raises(ValueError):
        check_regression([], threshold=1.5)


# --------------------------------------------------------------------- #
# Entry construction and record loading.
# --------------------------------------------------------------------- #

def test_trajectory_entry_from_record():
    record = {
        "cpus": 8,
        "backends": {
            "reference": {"seconds": 2.0, "gups": 0.01},
            "vectorized": {"seconds": 0.5, "gups": 0.04},
        },
    }
    entry = trajectory_entry(record, sha="abc1234", date="2026-08-08")
    assert entry == {
        "sha": "abc1234",
        "date": "2026-08-08",
        "cpus": 8,
        "gups": {"reference": 0.01, "vectorized": 0.04},
    }


def test_trajectory_entry_carries_the_executor_when_recorded():
    record = {"cpus": 2, "executor": "native", "backends": {"vectorized": {"gups": 0.2}}}
    assert trajectory_entry(record, sha="a", date="d")["executor"] == "native"
    assert trajectory_entry({**record, "isa": "avx2"}, sha="a", date="d")["isa"] == "avx2"
    assert "isa" not in trajectory_entry({**record, "isa": None}, sha="a", date="d")
    assert "native" in format_trajectory(
        {"history": [trajectory_entry(record, sha="a", date="d")]}
    )


def test_trajectory_entry_rejects_malformed_records():
    with pytest.raises(ValueError):
        trajectory_entry({"cpus": 1}, sha="a", date="d")
    with pytest.raises(ValueError):
        trajectory_entry(
            {"cpus": 1, "backends": {"reference": {"seconds": 1.0}}},
            sha="a",
            date="d",
        )


def test_load_record_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValueError):
        load_record(bad)
    bad.write_text(json.dumps({"no_backends": True}))
    with pytest.raises(ValueError):
        load_record(bad)
    bad.write_text(json.dumps({"backends": {}, "history": {"not": "a list"}}))
    with pytest.raises(ValueError):
        load_record(bad)
    bad.write_text(json.dumps({"backends": {}, "history": [{"sha": "x"}]}))
    with pytest.raises(ValueError):
        load_record(bad)


def test_format_trajectory_reports_regressions():
    record = {
        "benchmark": "hot path",
        "backends": {},
        "history": [
            _entry("aaaa", {"vectorized": 1.0}),
            _entry("bbbb", {"vectorized": 0.5}),
        ],
    }
    report = format_trajectory(record)
    assert "REGRESSION vectorized:" in report
    record["history"][-1]["gups"]["vectorized"] = 0.99
    assert "no regression" in format_trajectory(record)
