"""Static analysis and dynamic sanitizers for the project's invariants.

The repo's core guarantees — lock-guarded service state, spawn-safe
process dispatch, deterministic seeded noise, a float32 hot path, the
CLI/HTTP error contracts — were previously enforced only by runtime
tests.  This package checks them statically (an AST lint framework with
six project-specific passes reporting seven rules) and dynamically (an
opt-in lock-order sanitizer), so invariant-breaking edits fail loudly at
review time.

Entry points:

* ``repro lint <paths>`` / ``python -m repro.analysis <paths>`` — run
  the lint passes; exit 0 clean, 1 findings, 2 bad invocation.
* ``REPRO_LOCK_SANITIZER=1`` — ``tests/conftest.py`` installs
  :class:`~repro.analysis.locksan.LockOrderSanitizer` for the test run.

This package deliberately depends only on the standard library (``ast``,
``json``, ``threading``) so importing :mod:`repro` never pays for it.
"""

from __future__ import annotations

from .config import LintConfig, load_baseline
from .engine import format_json, format_text, lint_paths
from .findings import Finding, Suppression
from .locksan import LockOrderSanitizer
from .passes import ALL_PASSES, RULES

__all__ = [
    "ALL_PASSES",
    "Finding",
    "LintConfig",
    "LockOrderSanitizer",
    "RULES",
    "Suppression",
    "format_json",
    "format_text",
    "lint_paths",
    "load_baseline",
]
