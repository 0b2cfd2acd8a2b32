"""No module under ``src/repro`` keeps a module-level import it never
uses, or a private module-level name it never reads.

A fold that deletes the last use of a name tends to leave its import,
or the private counter, alias or helper it read, behind; either then
costs load time and misleads the reader about what a module depends on
or keeps.  The check is a stdlib ``ast`` walk, so it needs no linter
installed:

* a module-level import binds a name (``import a.b`` binds ``a``,
  ``from m import x as y`` binds ``y``); so do a module-level
  assignment, function and class, and such a name is private when it
  starts with one underscore;
* the name is used when it is read as a ``Name`` anywhere in the
  module, inside a string annotation (``Optional["Cpu"]``), or in the
  module's ``__all__``; a private name other modules read instead is
  listed in ``READ_ELSEWHERE``;
* for imports, package ``__init__`` modules (whose imports are the
  re-exports), ``from __future__`` imports and imports under
  ``if TYPE_CHECKING:`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")

#: private module-level names that only other modules read
READ_ELSEWHERE = {
    # imported by perfbench's serve workload
    ("experiments/scale.py", "_StageAggregator"),
}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every import at module level, walking into
    top-level ``try``/``if`` blocks but not ``if TYPE_CHECKING:``."""
    bound: dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.If) and not _is_type_checking(node.test):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
    return bound


def _annotation_names(annotation: ast.expr) -> set[str]:
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(
                    ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every unused module-level import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return sorted((line, name) for name, line in _module_imports(tree).items()
                  if name not in used)


def unread_private_names(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every private module-level assignment,
    function or class in ``path`` that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in used)


def test_no_unused_module_level_import():
    found = {str(path.relative_to(SRC)): unused for path in MODULES
             if (unused := unused_imports(path))}
    assert found == {}


def test_check_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from dataclasses import dataclass, field\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: Optional['Path']) -> None:\n"
        "    return os.sep\n")
    assert unused_imports(module) == [(3, "json"), (5, "dataclass"),
                                      (5, "field")]


def test_no_unread_private_module_level_name():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        unread = [(line, name) for line, name in unread_private_names(path)
                  if (module, name) not in READ_ELSEWHERE]
        if unread:
            found[module] = unread
    assert found == {}


def test_check_flags_an_unread_private_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import itertools\n"
        "_ids = itertools.count(1)\n"
        "_LIMIT: int = 4\n"
        "_alias = _LIMIT\n"
        "_cache = None\n"
        "__all__ = ['_Exported']\n"
        "class _Exported:\n"
        "    pass\n"
        "def _helper():\n"
        "    global _cache\n"
        "    _cache = 1\n"
        "def run(x: '_Hint') -> None:\n"
        "    pass\n"
        "class _Hint:\n"
        "    pass\n")
    assert unread_private_names(module) == [(2, "_ids"), (4, "_alias"),
                                            (5, "_cache"), (9, "_helper")]
