"""determinism: numeric paths must replay bit-identically.

The reconstruction contract (backends, scenarios, streaming) is that the
same inputs produce the same float32 volume, byte for byte — the
conformance suite and the golden hashes depend on it.  Three constructs
silently break that:

* legacy ``np.random.*`` global-state calls (``seed``, ``rand``,
  ``normal``, ...) — hidden global state shared across call sites; the
  project uses explicitly seeded ``np.random.default_rng`` /
  ``Generator`` objects instead;
* the stdlib ``random`` module's global functions — same problem, plus
  thread-unsafe state (explicit ``random.Random(seed)`` instances pass);
* wall-clock reads (``time.time``, ``time.time_ns``, ``datetime.now``,
  ``utcnow``, ``date.today``) — results must not depend on when the run
  happened.  Monotonic duration clocks (``perf_counter``,
  ``monotonic``) are fine: they time work, they never enter the data.

The same pass reports a second rule, ``float-sum``, over the whole
package: a builtin ``sum()`` whose items are not provably integers.  From
Python 3.12 ``sum()`` adds exact ``float`` items with Neumaier
compensation, so a float total — and every pinned replay digest it feeds
— would move with the interpreter; ``repro.obs.metrics.plain_sum`` folds
left to right on every version.  Items are provably integer when they are
int literals, comparisons, ``len()``/``int()`` calls, names read as counts
(``updates``, ``nbytes``, ``itemsize``, ``*_bytes``, ``*_count``, ``n_*``)
or integer arithmetic over those; anything else is flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..findings import Finding

RULE = "determinism"
FLOAT_SUM = "float-sum"
RULES = (RULE, FLOAT_SUM)

#: np.random attributes that construct explicitly seeded state — allowed.
_SEEDED_FACTORIES = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

#: stdlib random attributes that construct isolated state — allowed.
_RANDOM_FACTORIES = {"Random", "SystemRandom"}

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "localtime"),
    ("time", "gmtime"),
    ("time", "ctime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``np.random.seed`` -> ["np", "random", "seed"]; None if not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _enclosing_symbol(tree: ast.Module, lineno: int) -> str:
    symbol = ""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= lineno <= end:
                symbol = node.name if not symbol else f"{symbol}.{node.name}"
    return symbol


#: Identifiers read as integer counts (the last name of a chain).
_COUNT_NAMES = {"updates", "nbytes", "itemsize"}
_COUNT_SUFFIXES = ("_bytes", "_count")
_INT_CALLS = {"len", "int"}
_INT_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
    ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor,
)


def _is_count_name(name: str) -> bool:
    return (
        name in _COUNT_NAMES
        or name.endswith(_COUNT_SUFFIXES)
        or name.startswith("n_")
    )


def _provably_int(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to an int (or bool) by its syntax alone."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, bool)
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.Not) or _provably_int(node.operand)
    if isinstance(node, ast.BinOp):
        return (
            isinstance(node.op, _INT_OPS)
            and _provably_int(node.left)
            and _provably_int(node.right)
        )
    if isinstance(node, ast.IfExp):
        return _provably_int(node.body) and _provably_int(node.orelse)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in _INT_CALLS
    if isinstance(node, ast.Name):
        return _is_count_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_count_name(node.attr)
    return False


def _sums_ints(call: ast.Call) -> bool:
    """Whether a builtin ``sum(items, ...)`` call provably adds ints."""
    if not call.args:
        return True  # a TypeError, not a float total
    items = call.args[0]
    if isinstance(items, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return _provably_int(items.elt)
    if isinstance(items, (ast.List, ast.Tuple, ast.Set)):
        return all(_provably_int(item) for item in items.elts)
    return False


def run(source) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            if not _sums_ints(node):
                findings.append(Finding(
                    rule=FLOAT_SUM,
                    path=source.path,
                    line=node.lineno,
                    message=(
                        "builtin sum() over items not provably int: Python "
                        "3.12+ compensates float items, so the total's bits "
                        "depend on the interpreter; fold with "
                        "repro.obs.metrics.plain_sum"
                    ),
                    symbol=_enclosing_symbol(source.tree, node.lineno),
                ))
            continue
        chain = _attr_chain(node.func)
        if not chain:
            continue
        message = None
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if (
            len(chain) >= 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
            and chain[2] not in _SEEDED_FACTORIES
        ):
            message = (
                f"np.random.{chain[2]} uses hidden global RNG state; use an "
                f"explicitly seeded np.random.default_rng(...) generator"
            )
        # random.<fn>(...) from the stdlib global instance.
        elif (
            len(chain) == 2
            and chain[0] == "random"
            and chain[1] not in _RANDOM_FACTORIES
        ):
            message = (
                f"random.{chain[1]} uses the global stdlib RNG; use an "
                f"explicitly seeded random.Random(seed) instance"
            )
        # Wall-clock reads.
        elif len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK:
            message = (
                f"wall-clock read {'.'.join(chain)}() makes numeric output "
                f"depend on when the run happened; thread a timestamp in "
                f"from the caller"
            )
        if message:
            findings.append(
                Finding(
                    rule=RULE,
                    path=source.path,
                    line=node.lineno,
                    message=message,
                    symbol=_enclosing_symbol(source.tree, node.lineno),
                )
            )
    return findings
