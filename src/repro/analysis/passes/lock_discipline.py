"""lock-discipline: guarded attributes must be touched under their lock.

An instance attribute whose assignment in ``__init__`` (or whose
dataclass field declaration) carries a trailing ``# guarded-by: <lock>``
comment may only be read or written:

* lexically inside ``with self.<lock>:`` in the same method, or
* in ``__init__`` itself (the object is not yet shared), or
* in a method whose ``def`` line carries ``# caller-locked`` — the
  documented contract that the caller already holds the lock.

The special guard name ``caller`` declares "this whole object is
serialized by its owner's lock" (queues, fairness state, metric structs
owned by the service).  It is documentation: the pass records it but
enforces nothing, because the owning object's discipline is what keeps it
safe.

Nested ``def``s are analyzed with an *empty* held-lock set: a closure
defined under ``with self._lock:`` typically runs later, on another
thread, when the lock is no longer held.  Lambdas inherit the enclosing
held set — they are overwhelmingly called inline (sort keys, defaults).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional

from ..findings import Finding

RULE = "lock-discipline"
RULES = (RULE,)

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")
_CALLER_LOCKED_RE = re.compile(r"#\s*caller-locked\b")

#: Guard name meaning "serialized by the owning object" — documented, not
#: enforced here.
CALLER_GUARD = "caller"

_EMPTY: FrozenSet[str] = frozenset()


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guard_on_line(source, lineno: int) -> Optional[str]:
    match = _GUARDED_BY_RE.search(source.line_text(lineno))
    return match.group("lock") if match else None


def _collect_guarded(source, cls: ast.ClassDef) -> Dict[str, str]:
    """Map attribute name -> guard lock name for one class."""
    guarded: Dict[str, str] = {}
    # Class-level declarations (dataclass fields and class attributes).
    for stmt in cls.body:
        target = None
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target = stmt.target.id
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target = stmt.targets[0].id
        if target is not None:
            guard = _guard_on_line(source, stmt.lineno)
            if guard:
                guarded[target] = guard
    # `self.X = ...` annotations inside __init__.
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for tgt in targets:
                    name = _self_attr(tgt)
                    if name is None:
                        continue
                    guard = _guard_on_line(source, node.lineno)
                    if guard:
                        guarded[name] = guard
    return guarded


class _MethodScanner:
    """Lexically track held ``with self.<lock>`` blocks through one method."""

    def __init__(self, source, cls_name: str, method: ast.FunctionDef, guarded):
        self.source = source
        self.cls_name = cls_name
        self.method = method
        self.guarded = guarded
        self.findings: List[Finding] = []
        self._flagged: set = set()

    def scan(self) -> List[Finding]:
        for stmt in self.method.body:
            self._visit(stmt, _EMPTY)
        return self.findings

    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def usually escapes the lock scope (runs later on a
            # worker thread), so it gets no credit for enclosing `with`s.
            for child in node.body:
                self._visit(child, _EMPTY)
            return
        if isinstance(node, ast.With):
            acquired = set(held)
            for item in node.items:
                self._visit(item.context_expr, held)
                name = _self_attr(item.context_expr)
                if name is not None:
                    acquired.add(name)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
            inner = frozenset(acquired)
            for child in node.body:
                self._visit(child, inner)
            return
        name = _self_attr(node)
        if name is not None:
            guard = self.guarded.get(name)
            if guard is not None and guard != CALLER_GUARD and guard not in held:
                self._flag(node, name, guard)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _flag(self, node: ast.AST, attr: str, guard: str) -> None:
        key = (node.lineno, attr)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.findings.append(
            Finding(
                rule=RULE,
                path=self.source.path,
                line=node.lineno,
                message=(
                    f"self.{attr} is guarded by self.{guard} but accessed "
                    f"without holding it"
                ),
                symbol=f"{self.cls_name}.{self.method.name}",
            )
        )


def run(source) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = _collect_guarded(source, node)
        if not guarded:
            continue
        enforced = {k: v for k, v in guarded.items() if v != CALLER_GUARD}
        if not enforced:
            continue
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                continue
            if _CALLER_LOCKED_RE.search(source.line_text(stmt.lineno)):
                continue
            scanner = _MethodScanner(source, node.name, stmt, enforced)
            findings.extend(scanner.scan())
    return findings
