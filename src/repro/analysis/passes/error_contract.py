"""error-contract: the two failure boundaries must stay sealed.

Two contracts, one per scoped file:

* ``cli.py`` — ``main()`` must keep the ``except ValueError`` handler
  that returns exit code 2.  Every subcommand signals bad input by
  raising ``ValueError``; if the central handler disappears, bad input
  becomes a traceback and scripts keying on exit codes break.
* ``service/http.py`` — every ``do_*`` HTTP handler must not let an
  exception escape the handler boundary: either the handler body is
  itself a ``try`` with a broad ``except``, or it consists solely of
  calls to a same-class guard method (one level of indirection, e.g.
  ``self._guard(self._route_get)``) that contains one.  An escaping
  exception kills the connection mid-response instead of producing a
  well-formed 4xx/5xx.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..findings import Finding

RULE = "error-contract"
RULES = (RULE,)


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for t in types:
        if isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"):
            return True
    return False


def _contains_broad_try(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and any(
            _is_broad_handler(h) for h in node.handlers
        ):
            return True
    return False


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return False
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(isinstance(t, ast.Name) and t.id == "ValueError" for t in types)


def _returns_two(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 2
        ):
            return True
    return False


def _check_cli_main(source, findings: List[Finding]) -> None:
    main = None
    for stmt in source.tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "main":
            main = stmt
            break
    if main is None:
        return
    for node in ast.walk(main):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if _catches_value_error(handler) and _returns_two(handler):
                return
    findings.append(
        Finding(
            rule=RULE,
            path=source.path,
            line=main.lineno,
            message=(
                "main() must map ValueError to exit code 2 (an "
                "'except ValueError' handler returning 2); subcommands "
                "signal bad input by raising ValueError"
            ),
            symbol="main",
        )
    )


def _strip_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _guard_call_target(stmt: ast.stmt) -> Optional[str]:
    """``self._guard(...)`` as a bare statement or return -> ``"_guard"``."""
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Return):
        value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and isinstance(value.func.value, ast.Name)
        and value.func.value.id == "self"
    ):
        return value.func.attr
    return None


def _check_http_handlers(source, findings: List[Finding]) -> None:
    for cls in ast.walk(source.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        for name, method in methods.items():
            if not name.startswith("do_"):
                continue
            if _handler_is_sealed(method, methods):
                continue
            findings.append(
                Finding(
                    rule=RULE,
                    path=source.path,
                    line=method.lineno,
                    message=(
                        f"HTTP handler {name} may let exceptions escape the "
                        f"handler boundary; wrap the body in a broad "
                        f"try/except or route through a guard method that "
                        f"has one"
                    ),
                    symbol=f"{cls.name}.{name}",
                )
            )


def _handler_is_sealed(
    method: ast.FunctionDef, methods: Dict[str, ast.FunctionDef]
) -> bool:
    body = _strip_docstring(method.body)
    if not body:
        return False
    # Direct form: the whole body is one broad try/except.
    if len(body) == 1 and isinstance(body[0], ast.Try):
        return any(_is_broad_handler(h) for h in body[0].handlers)
    # Indirect form: every statement routes through a guard method that
    # contains a broad try/except.
    for stmt in body:
        target = _guard_call_target(stmt)
        if target is None:
            return False
        guard = methods.get(target)
        if guard is None or not _contains_broad_try(guard):
            return False
    return True


def run(source) -> List[Finding]:
    findings: List[Finding] = []
    posix = source.path.replace("\\", "/")
    if posix.endswith("cli.py"):
        _check_cli_main(source, findings)
    if posix.endswith("http.py"):
        _check_http_handlers(source, findings)
    return findings
