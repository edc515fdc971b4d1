#!/usr/bin/env python
"""Run the project-invariant linter programmatically and render a report.

The ``repro.analysis`` passes encode the invariants the serving stack
depends on — lock discipline, spawn safety, determinism, float32 dtype
discipline, the CLI/HTTP error contracts and a reader for every exported
name.  This example runs them
three ways:

1. over the installed ``repro`` package (the self-clean check CI runs),
2. over the known-bad fixture corpus with every rule unscoped, showing
   what each rule's findings look like,
3. grouped per rule, as a maintainer would triage them.

Run:  PYTHONPATH=src python examples/lint_report.py
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import repro
from repro.analysis import LintConfig, format_json, lint_paths

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    # 1. The package itself must be clean (this is the CI gate).
    package_dir = Path(repro.__file__).parent
    result = lint_paths([package_dir])
    print(f"repro package: {len(result.findings)} finding(s) "
          f"in {result.files_checked} files")
    assert not result.findings, "the shipped tree must lint clean"

    # 2. The fixture corpus, with every rule applied everywhere.
    config = LintConfig.default()
    for rule in config.rules.values():
        rule.include = []  # unscope: fixtures live outside src/repro
    corpus = REPO / "tests" / "data" / "lint"
    result = lint_paths([corpus], config=config)
    print(f"\nfixture corpus: {len(result.findings)} finding(s) "
          f"in {result.files_checked} files")
    for finding in result.findings:
        print(f"  {finding.render()}")

    # 3. Triage view: counts per rule, plus the JSON form tooling consumes.
    by_rule = Counter(finding.rule for finding in result.findings)
    print("\nfindings per rule:")
    for rule, count in sorted(by_rule.items()):
        print(f"  {rule:<20s} {count}")

    payload = format_json(result)
    print(f"\nmachine-readable keys: {sorted(payload)}")
    print(json.dumps(payload["findings"][0], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
