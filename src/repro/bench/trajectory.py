"""Bench trajectory: the tracked history behind ``BENCH_backend_speed.json``.

The backend speed benchmark used to overwrite its result file on every run,
so the repo only ever knew the *latest* hot-path number.  This module turns
that file into a trajectory: each benchmark run appends one history entry
(git sha, UTC date, host cpu count, per-backend GUPS) and the tier-1 suite
compares the newest entry against the most recent *prior* entry measured on
the same host profile, failing on a throughput regression larger than
:data:`REGRESSION_THRESHOLD`.

Numbers measured on different hosts are not comparable — a 1-cpu CI runner
is not a 16-core workstation, and a host without a C compiler runs the
NumPy kernels where another runs the compiled one, and a host without AVX2
runs its scalar loop where another takes eight columns per step — so
comparisons are gated on the host profile: the cpu count, the kernel
``executor`` (entries from before it was recorded ran ``numpy``) and, on the
compiled one, its ``isa`` (entries from before it was recorded ran
``scalar``).  Entries from other profiles are kept in the history but never
compared against.

Run ``python -m repro.bench.trajectory`` for the report-only view used by
CI: it prints the trajectory and any detected regressions but exits 0
unless ``--strict`` is given.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "HISTORY_LIMIT",
    "git_sha",
    "trajectory_entry",
]

#: Largest allowed GUPS drop vs the previous same-profile entry (fractional).
REGRESSION_THRESHOLD = 0.25

#: History entries kept per record; the oldest are dropped beyond this.
HISTORY_LIMIT = 50

_REQUIRED_ENTRY_KEYS = ("sha", "date", "cpus", "gups")


def git_sha(repo_root: Optional[Path] = None) -> str:
    """Short git sha of ``repo_root`` (``"unknown"`` outside a checkout).

    A ``+`` suffix marks a dirty working tree, so numbers measured before a
    change is committed are never attributed to the parent commit.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--abbrev=7", "--dirty=+", "--exclude=*"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def trajectory_entry(record: Dict, *, sha: str, date: str) -> Dict:
    """One history entry derived from a fresh benchmark ``record``.

    ``record`` is the flat document the speed benchmark builds (``cpus``
    plus a ``backends`` mapping whose values carry ``gups``); ``date`` is
    an ISO-8601 UTC date string supplied by the caller so the entry stays
    reproducible from the outside.
    """
    backends = record.get("backends")
    if not isinstance(backends, dict) or not backends:
        raise ValueError("benchmark record has no 'backends' mapping")
    gups = {}
    for name, result in backends.items():
        if "gups" not in result:
            raise ValueError(f"backend {name!r} result has no 'gups' field")
        gups[name] = float(result["gups"])
    entry = {
        "sha": str(sha),
        "date": str(date),
        "cpus": int(record.get("cpus") or 1),
        "gups": gups,
    }
    for key in ("executor", "isa"):
        if record.get(key) is not None:
            entry[key] = str(record[key])
    return entry


def _host_profile(entry: Dict) -> tuple:
    """What must match for two entries' numbers to be comparable:
    ``(cpus, executor, isa)``, ``isa`` ``None`` on the NumPy executor."""
    executor = entry.get("executor", "numpy")
    isa = entry.get("isa", "scalar") if executor == "native" else None
    return entry.get("cpus"), executor, isa


def _kernel(entry: Dict) -> str:
    """The profile's kernel as a report shows it: ``numpy`` or ``native/avx2``."""
    _, executor, isa = _host_profile(entry)
    return executor if isa is None else f"{executor}/{isa}"


def load_record(path) -> Dict:
    """Load and validate a benchmark record file (history may be absent)."""
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read benchmark record {path}: {exc}") from exc
    if not isinstance(record, dict) or "backends" not in record:
        raise ValueError(
            f"{path} is not a benchmark record (no 'backends' mapping)"
        )
    history = record.get("history", [])
    if not isinstance(history, list):
        raise ValueError(f"{path}: 'history' must be a list")
    for index, entry in enumerate(history):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: history[{index}] is not an object")
        missing = [key for key in _REQUIRED_ENTRY_KEYS if key not in entry]
        if missing:
            raise ValueError(
                f"{path}: history[{index}] is missing {missing}"
            )
    return record


def check_regression(
    history: List[Dict], *, threshold: float = REGRESSION_THRESHOLD
) -> List[str]:
    """Regressions of the newest entry vs its same-profile predecessor.

    Returns one human-readable line per backend whose latest GUPS fell more
    than ``threshold`` (fractional) below the most recent earlier entry
    with the same host profile (``cpus``, kernel ``executor`` and ``isa``).  An empty list means no regression —
    including the no-comparison cases (fewer than two entries, or no prior
    entry on this host profile).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if len(history) < 2:
        return []
    latest = history[-1]
    previous = next(
        (
            entry
            for entry in reversed(history[:-1])
            if _host_profile(entry) == _host_profile(latest)
        ),
        None,
    )
    if previous is None:
        return []
    regressions = []
    for name, new_gups in sorted(latest.get("gups", {}).items()):
        old_gups = previous.get("gups", {}).get(name)
        if old_gups is None or old_gups <= 0:
            continue
        drop = 1.0 - float(new_gups) / float(old_gups)
        if drop > threshold:
            regressions.append(
                f"{name}: {old_gups:.4f} -> {float(new_gups):.4f} GUPS "
                f"({drop:.0%} drop > {threshold:.0%} allowed; "
                f"{previous['sha']} -> {latest['sha']}, cpus={latest['cpus']}, "
                f"executor={_kernel(latest)})"
            )
    return regressions


def format_trajectory(record: Dict) -> str:
    """Human-readable trajectory report for one benchmark record."""
    history = record.get("history", [])
    lines = [f"bench trajectory: {record.get('benchmark', '?')}"]
    if not history:
        lines.append("  (no history entries yet)")
        return "\n".join(lines)
    backends = sorted({name for entry in history for name in entry["gups"]})
    for entry in history:
        gups = "  ".join(
            f"{name}={entry['gups'].get(name, float('nan')):.4f}"
            for name in backends
        )
        lines.append(
            f"  {entry['date']}  {entry['sha']:>9}  cpus={entry['cpus']:<3} "
            f"{_kernel(entry):<13} {gups}"
        )
    regressions = check_regression(history)
    if regressions:
        lines.append("regressions (latest vs previous same-host entry):")
        lines.extend(f"  REGRESSION {line}" for line in regressions)
    else:
        lines.append("no regression vs previous same-host entry")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Report-only CLI: ``python -m repro.bench.trajectory [record.json]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Report the tracked benchmark trajectory.",
    )
    parser.add_argument(
        "record",
        nargs="?",
        default=str(
            Path(__file__).resolve().parents[3] / "BENCH_backend_speed.json"
        ),
        help="benchmark record file (default: repo BENCH_backend_speed.json)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on a detected regression (default: report only)",
    )
    args = parser.parse_args(argv)
    try:
        record = load_record(args.record)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(format_trajectory(record))
    if args.strict and check_regression(record.get("history", [])):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
