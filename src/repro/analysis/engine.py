"""The lint engine: file discovery, pass dispatch, suppressions, baseline.

The engine is deliberately small: it turns paths into parsed
:class:`SourceFile` objects, hands each to every in-scope pass, and
filters the yielded findings through the inline suppressions and the
baseline.  All project knowledge lives in the passes
(:mod:`repro.analysis.passes`); all policy about *where* passes run lives
in :class:`~repro.analysis.config.LintConfig`.

Exit-code contract (shared by ``repro lint`` and ``python -m
repro.analysis``):

* ``0`` — no unsuppressed, non-baselined findings;
* ``1`` — findings exist;
* ``2`` — the *invocation* is broken: missing paths, malformed config or
  baseline, unparseable source (raised as :class:`ValueError` and mapped
  by the CLI convention).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .config import LintConfig, load_baseline
from .findings import Finding, Suppression, apply_suppressions, parse_suppressions

__all__ = ["lint_paths", "format_text"]


@dataclass
class SourceFile:
    """One parsed source file handed to every pass."""

    path: str
    lines: List[str]
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)
    #: Every tree parsed for the same lint run, by resolved path: a pass
    #: that reads the files around this one (``dead-export``) takes these
    #: instead of parsing them again.  Empty outside the engine.
    run_trees: Dict[Path, ast.Module] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, text: str) -> "tuple":
        """Parse source text; returns ``(source_file, suppression_findings)``."""
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
        lines = text.splitlines()
        suppressions, findings = parse_suppressions(lines, path)
        return cls(path=path, lines=lines, tree=tree, suppressions=suppressions), findings

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1


def _discover(paths: Sequence) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    if not paths:
        raise ValueError("no paths given; point the linter at files or packages")
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            raise ValueError(f"lint path {path} does not exist")
    # Stable order, no duplicates: output must be diffable run to run.
    seen = set()
    unique: List[Path] = []
    for path in files:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def lint_sources(
    sources: Iterable[SourceFile],
    config: LintConfig,
    *,
    extra_findings: Optional[List[Finding]] = None,
) -> LintResult:
    """Run every configured pass over already-parsed sources."""
    from .passes import ALL_PASSES  # late: passes import this module's types

    result = LintResult()
    all_findings: List[Finding] = list(extra_findings or [])
    sources = list(sources)
    run_trees = {Path(source.path).resolve(): source.tree for source in sources}
    for source in sources:
        source.run_trees = run_trees
        result.files_checked += 1
        findings: List[Finding] = []
        for lint_pass in ALL_PASSES:
            if config.rule(lint_pass.RULE).applies_to(source.path):
                findings.extend(lint_pass.run(source))
        all_findings.extend(apply_suppressions(findings, source.suppressions))
    baseline_keys = [dict(entry) for entry in config.baseline]
    for finding in sorted(all_findings, key=Finding.sort_key):
        if finding.baseline_key() in baseline_keys:
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result


def lint_paths(
    paths: Sequence,
    *,
    config: Optional[LintConfig] = None,
    config_file=None,
    baseline_file=None,
) -> LintResult:
    """Lint files/directories; the library entry behind ``repro lint``."""
    if config is None:
        config = (
            LintConfig.from_file(config_file)
            if config_file is not None
            else LintConfig.default()
        )
    if baseline_file is not None:
        config.baseline = load_baseline(baseline_file)
    sources: List[SourceFile] = []
    extra: List[Finding] = []
    for path in _discover(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        source, suppression_findings = SourceFile.parse(str(path), text)
        sources.append(source)
        extra.extend(suppression_findings)
    return lint_sources(sources, config, extra_findings=extra)


def format_text(result: LintResult) -> str:
    """Human-readable rendering: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    if result.baselined:
        lines.append(f"{len(result.baselined)} baselined finding(s) not shown")
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> Dict[str, object]:
    """Machine-readable rendering for tooling and the example script."""
    return {
        "findings": [finding.as_dict() for finding in result.findings],
        "baselined": [finding.as_dict() for finding in result.baselined],
        "files_checked": result.files_checked,
    }
