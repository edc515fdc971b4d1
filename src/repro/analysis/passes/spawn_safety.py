"""spawn-safety: work shipped across a process boundary must pickle.

Callables handed to a ``ProcessPoolExecutor`` (as ``submit(fn, ...)``
targets or as the pool's ``initializer=``) are pickled by reference: they
must be module-level, closure-free functions.  Lambdas, nested ``def``s
and bound methods either fail to pickle or silently capture the parent's
state at fork time.  The pass flags:

* ``submit`` first arguments that are lambdas, ``self.<method>`` bound
  methods, or names bound to a def nested inside the calling function;
* the same shapes passed as ``initializer=`` when constructing a pool;
* ``multiprocessing.get_context("fork")`` / ``set_start_method("fork")``
  — the project contract is spawn-safe code, and fork start hides
  pickling bugs until the method changes.

A receiver counts as a process pool when it *provably* is one: a direct
``ProcessPoolExecutor(...)`` call, a local assigned from one (or from a
same-class helper annotated ``-> ProcessPoolExecutor``), or a ``self``
attribute whose annotation names ``ProcessPoolExecutor``.  Thread pools
(``WorkerPool``, ``ThreadPoolExecutor``) are deliberately exempt: their
closures never cross a process boundary, and the parallel backend relies
on that.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..findings import Finding

RULE = "spawn-safety"
RULES = (RULE,)

_POOL_NAME = "ProcessPoolExecutor"
_FORK_SETTERS = {"get_context", "set_start_method"}


def _annotation_names_pool(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == _POOL_NAME:
            return True
        if isinstance(node, ast.Attribute) and node.attr == _POOL_NAME:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _POOL_NAME in node.value:
                return True
    return False


def _is_pool_constructor(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == _POOL_NAME)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == _POOL_NAME)
        )
    )


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassInfo:
    """What one class statically reveals about its process pools."""

    def __init__(self, cls: ast.ClassDef):
        self.pool_attrs: Set[str] = set()
        self.pool_methods: Set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _annotation_names_pool(stmt.returns):
                    self.pool_methods.add(stmt.name)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.AnnAssign):
                        name = _self_attr(node.target)
                        if name and _annotation_names_pool(node.annotation):
                            self.pool_attrs.add(name)
                    elif isinstance(node, ast.Assign) and _is_pool_constructor(
                        node.value
                    ):
                        for tgt in node.targets:
                            name = _self_attr(tgt)
                            if name:
                                self.pool_attrs.add(name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if _annotation_names_pool(stmt.annotation):
                    self.pool_attrs.add(stmt.target.id)


def _collect_module_defs(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
    return names


class _FunctionContext:
    """Local bindings inside the function owning a submit call."""

    def __init__(self, func: ast.AST, cls_info: Optional[_ClassInfo]):
        self.pool_locals: Set[str] = set()
        self.nested_defs: Set[str] = set()
        self.lambda_locals: Set[str] = set()
        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nested_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                value = node.value
                is_pool = _is_pool_constructor(value)
                if not is_pool and cls_info and isinstance(value, ast.Call):
                    method = _self_attr(value.func)
                    is_pool = method in cls_info.pool_methods
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        if is_pool:
                            self.pool_locals.add(tgt.id)
                        if isinstance(value, ast.Lambda):
                            self.lambda_locals.add(tgt.id)


def _receiver_is_pool(
    receiver: ast.AST, cls_info: Optional[_ClassInfo], ctx: _FunctionContext
) -> bool:
    if _is_pool_constructor(receiver):
        return True
    if isinstance(receiver, ast.Name) and receiver.id in ctx.pool_locals:
        return True
    name = _self_attr(receiver)
    if name is not None and cls_info is not None and name in cls_info.pool_attrs:
        return True
    if isinstance(receiver, ast.Call) and cls_info is not None:
        method = _self_attr(receiver.func)
        if method in cls_info.pool_methods:
            return True
    return False


def _callable_problem(
    arg: ast.AST, module_defs: Set[str], ctx: _FunctionContext
) -> Optional[str]:
    """Return a description when ``arg`` cannot cross a process boundary."""
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    name = _self_attr(arg)
    if name is not None:
        return f"the bound method self.{name}"
    if isinstance(arg, ast.Name):
        if arg.id in ctx.nested_defs:
            return f"the nested function {arg.id!r}"
        if arg.id in ctx.lambda_locals:
            return f"{arg.id!r}, a local bound to a lambda"
        # Module-level defs and imported names pickle by reference; an
        # unknown name gets the benefit of the doubt.
        return None
    if isinstance(arg, ast.Call):
        func = arg.func
        is_partial = (isinstance(func, ast.Name) and func.id == "partial") or (
            isinstance(func, ast.Attribute) and func.attr == "partial"
        )
        if is_partial and arg.args:
            return _callable_problem(arg.args[0], module_defs, ctx)
    return None


def _check_submit(
    call: ast.Call,
    source,
    symbol: str,
    module_defs: Set[str],
    ctx: _FunctionContext,
    findings: List[Finding],
) -> None:
    if not call.args:
        return
    problem = _callable_problem(call.args[0], module_defs, ctx)
    if problem:
        findings.append(
            Finding(
                rule=RULE,
                path=source.path,
                line=call.lineno,
                message=(
                    f"process-pool submit target is {problem}; only "
                    f"module-level functions pickle across the process "
                    f"boundary"
                ),
                symbol=symbol,
            )
        )


def _check_constructor(
    call: ast.Call,
    source,
    symbol: str,
    module_defs: Set[str],
    ctx: _FunctionContext,
    findings: List[Finding],
) -> None:
    for kw in call.keywords:
        if kw.arg == "initializer":
            problem = _callable_problem(kw.value, module_defs, ctx)
            if problem:
                findings.append(
                    Finding(
                        rule=RULE,
                        path=source.path,
                        line=call.lineno,
                        message=(
                            f"process-pool initializer is {problem}; only "
                            f"module-level functions pickle across the "
                            f"process boundary"
                        ),
                        symbol=symbol,
                    )
                )


def _check_fork(call: ast.Call, source, symbol: str, findings: List[Finding]) -> None:
    func = call.func
    fname = None
    if isinstance(func, ast.Attribute):
        fname = func.attr
    elif isinstance(func, ast.Name):
        fname = func.id
    if fname not in _FORK_SETTERS or not call.args:
        return
    first = call.args[0]
    if isinstance(first, ast.Constant) and first.value == "fork":
        findings.append(
            Finding(
                rule=RULE,
                path=source.path,
                line=call.lineno,
                message=(
                    f"{fname}('fork') breaks the spawn-safety contract; "
                    f"fork start masks pickling bugs and is unsafe with "
                    f"threads"
                ),
                symbol=symbol,
            )
        )


def run(source) -> List[Finding]:
    findings: List[Finding] = []
    module_defs = _collect_module_defs(source.tree)

    def scan_function(func: ast.AST, cls_info: Optional[_ClassInfo], symbol: str):
        ctx = _FunctionContext(func, cls_info)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            _check_fork(node, source, symbol, findings)
            if _is_pool_constructor(node):
                _check_constructor(node, source, symbol, module_defs, ctx, findings)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
                if _receiver_is_pool(node.func.value, cls_info, ctx):
                    _check_submit(node, source, symbol, module_defs, ctx, findings)

    for stmt in source.tree.body:
        if isinstance(stmt, ast.ClassDef):
            info = _ClassInfo(stmt)
            for method in stmt.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(method, info, f"{stmt.name}.{method.name}")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(stmt, None, stmt.name)
    return findings
