"""Configuration for the lint engine: rule scopes and the baseline.

The defaults below encode the project's invariants — which layers each
pass patrols — and an external JSON config can narrow, widen or disable
any of them (``repro lint --config lint.json``)::

    {
      "rules": {
        "determinism": {"enabled": true, "include": ["*/backends/*.py"]},
        "dtype-discipline": {"enabled": false}
      }
    }

Scopes are ``fnmatch`` globs matched against the POSIX form of each
file's path, so configs work identically for absolute paths, relative
paths and fixture trees.  A malformed config (bad JSON, unknown rule,
wrong types) raises :class:`ValueError` — the CLI convention maps that to
exit code 2, distinct from "findings exist" (exit 1).

The baseline file is a JSON list of line-number-free finding identities
(see :meth:`~repro.analysis.findings.Finding.baseline_key`): findings
matching an entry are reported as baselined, not as failures.  The
checked-in ``lint-baseline.json`` is empty — every genuine finding on the
tree was fixed, and the file exists so future unavoidable debt has an
audited place to live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import PurePath
from typing import Dict, List

__all__ = ["LintConfig", "load_baseline"]

#: Default file scopes per rule: fnmatch globs over POSIX-style paths.
#: An empty include list means "every analyzed file".
DEFAULT_SCOPES: Dict[str, List[str]] = {
    # Annotation-driven: only files carrying `# guarded-by:` comments
    # produce obligations, so the pass safely runs everywhere.
    "lock-discipline": [],
    # Pools live in the dispatcher (service/process_dispatch.py: spawned
    # processes) and the tiled backend (backends/tiled.py: threads).
    "spawn-safety": ["*/service/*.py", "*/backends/*.py"],
    # Numeric paths that must replay bit-identically.
    "determinism": [
        "*/backends/*.py",
        "*/scenarios/*.py",
        "*/streaming/*.py",
    ],
    # Builtin float sum()s: anywhere in the package (Python 3.12 moved them).
    "float-sum": ["*src/repro/*"],
    # The float32 hot paths: backend kernels and the filter/backproject
    # drivers.
    "dtype-discipline": [
        "*/backends/*.py",
        "*/core/filtering.py",
        "*/core/backprojection.py",
    ],
    # The CLI's ValueError -> exit 2 contract and the HTTP handler boundary.
    "error-contract": ["*/cli.py", "*/service/http.py"],
    # Exported names need a reader; the tree it reads is the project's.
    # fnmatch's `*` crosses `/` and matches the empty string, so one glob
    # takes relative, absolute and fixture-tree paths alike.
    "dead-export": ["*src/repro/*"],
}

_KNOWN_RULES = tuple(DEFAULT_SCOPES)


@dataclass
class RuleConfig:
    """One pass's switch and file scope."""

    enabled: bool = True
    include: List[str] = field(default_factory=list)

    def applies_to(self, path: str) -> bool:
        if not self.enabled:
            return False
        if not self.include:
            return True
        posix = PurePath(path).as_posix()
        return any(fnmatch(posix, pattern) for pattern in self.include)


@dataclass
class LintConfig:
    """Resolved configuration: per-rule scopes plus the baseline entries."""

    rules: Dict[str, RuleConfig] = field(default_factory=dict)
    baseline: List[Dict[str, str]] = field(default_factory=list)

    @classmethod
    def default(cls) -> "LintConfig":
        return cls(
            rules={
                name: RuleConfig(enabled=True, include=list(scope))
                for name, scope in DEFAULT_SCOPES.items()
            }
        )

    @classmethod
    def from_file(cls, path) -> "LintConfig":
        """Defaults overlaid with a JSON config file (ValueError on junk)."""
        try:
            text = open(path, "r", encoding="utf-8").read()
        except OSError as exc:
            raise ValueError(f"cannot read lint config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed lint config {path}: {exc}") from exc
        return cls.default().overlay(data, origin=str(path))

    def overlay(self, data, *, origin: str = "<config>") -> "LintConfig":
        """Apply a parsed config dict on top of this configuration."""
        if not isinstance(data, dict):
            raise ValueError(f"{origin}: lint config must be a JSON object")
        unknown = set(data) - {"rules"}
        if unknown:
            raise ValueError(
                f"{origin}: unknown config keys {sorted(unknown)}; "
                "expected 'rules'"
            )
        rules = data.get("rules", {})
        if not isinstance(rules, dict):
            raise ValueError(f"{origin}: 'rules' must be an object")
        for name, spec in rules.items():
            if name not in _KNOWN_RULES:
                raise ValueError(
                    f"{origin}: unknown rule {name!r}; known rules: "
                    f"{', '.join(_KNOWN_RULES)}"
                )
            if not isinstance(spec, dict):
                raise ValueError(f"{origin}: rule {name!r} must be an object")
            bad = set(spec) - {"enabled", "include"}
            if bad:
                raise ValueError(
                    f"{origin}: rule {name!r} has unknown keys {sorted(bad)}"
                )
            current = self.rules.setdefault(name, RuleConfig())
            if "enabled" in spec:
                if not isinstance(spec["enabled"], bool):
                    raise ValueError(f"{origin}: {name}.enabled must be a boolean")
                current.enabled = spec["enabled"]
            if "include" in spec:
                include = spec["include"]
                if not isinstance(include, list) or not all(
                    isinstance(pattern, str) for pattern in include
                ):
                    raise ValueError(
                        f"{origin}: {name}.include must be a list of glob strings"
                    )
                current.include = list(include)
        return self

    def rule(self, name: str) -> RuleConfig:
        return self.rules.setdefault(name, RuleConfig())


def load_baseline(path) -> List[Dict[str, str]]:
    """Load a baseline file: a JSON list of finding identities."""
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise ValueError(f"cannot read lint baseline {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed lint baseline {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"lint baseline {path} must be a JSON list")
    entries: List[Dict[str, str]] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not {"rule", "path", "message"} <= set(entry):
            raise ValueError(
                f"lint baseline {path} entry {i} must be an object with "
                "'rule', 'path' and 'message' keys"
            )
        entries.append(
            {
                "rule": str(entry["rule"]),
                "path": str(entry["path"]),
                "message": str(entry["message"]),
            }
        )
    return entries
