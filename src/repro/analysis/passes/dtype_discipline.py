"""dtype-discipline: the float32 hot path must not silently promote.

The iFDK pipeline carries projections and volumes as float32; a stray
float64 intermediate doubles memory traffic and breaks the golden
bit-identity hashes.  The pass flags, in the kernel/driver scope:

* dtype-less array constructors — ``np.arange``, ``np.zeros``,
  ``np.ones``, ``np.empty``, ``np.full``, ``np.linspace`` default to
  float64 (or a platform-dependent integer type); every constructor on
  the hot path must state its dtype.  An explicit ``dtype=np.float64``
  is *allowed*: stated intent is not silent promotion.
* ``np.float64(...)`` scalars used as arithmetic operands — unlike bare
  Python floats (which are weak-typed and preserve a float32 array's
  dtype), a NumPy float64 scalar is strongly typed and promotes the
  whole expression.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..findings import Finding
from .determinism import _enclosing_symbol

RULE = "dtype-discipline"
RULES = (RULE,)

_CONSTRUCTORS = {"arange", "zeros", "ones", "empty", "full", "linspace"}


def _np_attr(node: ast.AST) -> Optional[str]:
    """``np.arange`` / ``numpy.arange`` -> ``"arange"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def run(source) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            attr = _np_attr(node.func)
            if attr in _CONSTRUCTORS:
                has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
                if not has_dtype:
                    findings.append(
                        Finding(
                            rule=RULE,
                            path=source.path,
                            line=node.lineno,
                            message=(
                                f"np.{attr} without an explicit dtype defaults "
                                f"to float64 on the float32 hot path; pass "
                                f"dtype= explicitly"
                            ),
                            symbol=_enclosing_symbol(source.tree, node.lineno),
                        )
                    )
        elif isinstance(node, ast.BinOp):
            for operand in (node.left, node.right):
                if (
                    isinstance(operand, ast.Call)
                    and _np_attr(operand.func) == "float64"
                ):
                    findings.append(
                        Finding(
                            rule=RULE,
                            path=source.path,
                            line=operand.lineno,
                            message=(
                                "np.float64 scalar operand promotes float32 "
                                "arrays to float64; use a bare Python float "
                                "(weak-typed) or np.float32"
                            ),
                            symbol=_enclosing_symbol(source.tree, operand.lineno),
                        )
                    )
    return findings
