"""Finding and suppression primitives shared by every lint pass.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: passes yield them, the engine filters them through
inline suppressions and the baseline, the CLI renders them.  Everything is
deterministic and sortable so lint output is stable across runs — the
self-clean gate diffs against an exact expectation.

Inline suppressions use the project syntax::

    something_flagged()  # repro-lint: disable=<rule>[,<rule>] -- <reason>

The reason after ``--`` is **required**: a suppression without one is
itself a finding (rule ``suppression``), so "silenced because why?" can
never land unreviewed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set

__all__ = [
    "Finding",
    "Suppression",
    "apply_suppressions",
    "parse_suppressions",
]

#: The meta-rule reported for malformed suppression comments.
SUPPRESSION_RULE = "suppression"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s-]+?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}: {self.message}{symbol}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
        }

    def baseline_key(self) -> Dict[str, str]:
        """The line-number-free identity used by baseline matching.

        Baselines deliberately exclude line numbers so an unrelated edit
        above a baselined finding does not resurrect it.
        """
        return {"rule": self.rule, "path": self.path, "message": self.message}


@dataclass
class Suppression:
    """One inline ``repro-lint: disable=`` comment."""

    line: int
    rules: Set[str] = field(default_factory=set)
    reason: str = ""

    def matches(self, finding: Finding) -> bool:
        return finding.line == self.line and (
            "all" in self.rules or finding.rule in self.rules
        )


def parse_suppressions(source_lines: List[str], path: str) -> "tuple":
    """Extract suppressions from source lines.

    Returns ``(suppressions, findings)``: the usable suppressions plus a
    ``suppression`` finding for each comment that omits the required
    ``-- <reason>`` trailer (such comments suppress nothing).
    """
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = {
            rule.strip() for rule in match.group("rules").split(",") if rule.strip()
        }
        reason = (match.group("reason") or "").strip()
        if not reason:
            findings.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    path=path,
                    line=lineno,
                    message=(
                        "suppression is missing its reason; write "
                        "'# repro-lint: disable=<rule> -- <why>'"
                    ),
                )
            )
            continue
        suppressions.append(Suppression(line=lineno, rules=rules, reason=reason))
    return suppressions, findings


def apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression]
) -> List[Finding]:
    """Drop findings covered by a same-line suppression for their rule."""
    return [
        finding for finding in findings
        if not any(suppression.matches(finding) for suppression in suppressions)
    ]
