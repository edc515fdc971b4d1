"""The project-specific lint passes.

Each pass module exposes two names consumed by the engine:

``RULES``
    The rule ids the pass reports in findings, used in scopes,
    suppressions and the baseline.  One per pass, except ``determinism``,
    which also reports ``float-sum`` under a scope of its own.

``run(source: SourceFile) -> List[Finding]``
    Analyze one parsed file and return its findings; the engine keeps
    those whose rule is in scope for the file.  Passes are pure
    functions of the source text + AST; all filtering (scope,
    suppression, baseline) happens in the engine.  The one exception
    is ``dead-export``: it also reads the project tree around the file,
    because whether an exported name has a reader is a fact about the
    other files, not this one.
"""

from __future__ import annotations

from . import (
    dead_export,
    determinism,
    dtype_discipline,
    error_contract,
    lock_discipline,
    spawn_safety,
)

#: Engine dispatch order (stable so output ordering is deterministic).
ALL_PASSES = (
    lock_discipline,
    spawn_safety,
    determinism,
    dtype_discipline,
    error_contract,
    dead_export,
)

RULES = tuple(rule for p in ALL_PASSES for rule in p.RULES)

__all__ = ["ALL_PASSES", "RULES"]
