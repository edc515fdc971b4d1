"""dead-export: every name a module exports needs a reader outside it.

A name in the ``__all__`` of a non-``__init__`` module is a promise that
some other code uses it.  When nothing does, the name is dead weight: it
is kept working, documented and tested for no caller.  The pass flags
each such name unless one of these reads it:

* an identifier in any ``.py`` file under the project's ``src/``,
  ``examples/``, ``benchmarks/`` or ``perfbench/`` other than the
  exporting module itself — a loaded ``Name``, a loaded ``Attribute`` or
  an ``import`` / ``from ... import`` alias;
* the roots: ``repro.__all__`` and ``repro.api.__all__``, the public
  surface the API snapshot pins.

A package ``__init__``'s relative ``from .mod import name`` is not a read
(re-exporting is not using); real uses in an ``__init__`` are.  Tests are
not readers: a name only its own tests call is dead.  Matching is by
name, so a homonym elsewhere hides a dead name — a false negative, never
a false positive.

Unlike the other passes this one reads the project tree around the file:
the project root is the nearest ancestor holding ``pyproject.toml``, and
its reader index is built once per root and rebuilt when a reader file is
added, removed or modified (path, mtime and size are the cache key).  A
reader the engine parsed for the same run is taken from
``SourceFile.run_trees``, not parsed again.  A file outside any project has
no readers to judge against and yields nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..findings import Finding

RULE = "dead-export"
RULES = (RULE,)

_READER_DIRS = ("src", "examples", "benchmarks", "perfbench")
_ROOT_MODULES = ("src/repro/__init__.py", "src/repro/api/__init__.py")

#: Per project root: the reader files' ``(path, mtime, size)`` and the index
#: built from them, name -> the files that read it.
_INDEXES: Dict[Path, Tuple[tuple, Dict[str, Set[Path]]]] = {}


def _exports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Yield ``(name, line)`` for each string in a module-level ``__all__``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for item in node.value.elts:
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value, item.lineno


def _reads(tree: ast.Module, is_init: bool) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom) and not (is_init and node.level):
            yield from (alias.name for alias in node.names)


def _parse(path: Path) -> ast.Module:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        # Skipping it would flag what it reads: a bad invocation (exit 2).
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _index(root: Path, parsed: Mapping[Path, ast.Module]) -> Dict[str, Set[Path]]:
    readers = [
        path for folder in _READER_DIRS for path in sorted((root / folder).rglob("*.py"))
    ]
    stamp = tuple(
        (path, stat.st_mtime_ns, stat.st_size)
        for path, stat in ((path, path.stat()) for path in readers)
    )
    cached = _INDEXES.get(root)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    index: Dict[str, Set[Path]] = {}
    for path in readers:
        for name in _reads(parsed.get(path) or _parse(path), path.name == "__init__.py"):
            index.setdefault(name, set()).add(path)
    for path in (root / relative for relative in _ROOT_MODULES):
        if path.is_file():
            for name, _ in _exports(parsed.get(path) or _parse(path)):
                index.setdefault(name, set()).add(path)
    _INDEXES[root] = (stamp, index)
    return index


def _project_root(path: Path) -> Optional[Path]:
    for parent in path.parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return None


def run(source) -> List[Finding]:
    path = Path(source.path).resolve()
    if path.name == "__init__.py":
        return []
    exports = list(_exports(source.tree))
    root = _project_root(path) if exports else None
    if root is None:
        return []
    index = _index(root, source.run_trees)
    return [
        Finding(
            rule=RULE,
            path=source.path,
            line=line,
            message=(
                f"{name!r} is in __all__ but nothing outside this module reads "
                f"it; delete it, drop it from __all__, or suppress with a reason"
            ),
            symbol=name,
        )
        for name, line in exports
        if not index.get(name, set()) - {path}
    ]
