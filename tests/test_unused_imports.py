"""No module under ``src/repro`` keeps a module-level import it never uses.

A fold that deletes the last use of a name tends to leave its import
behind, and the import then costs load time and misleads the reader
about what a module depends on.  The check is a stdlib ``ast`` walk, so
it needs no linter installed:

* a module-level import binds a name (``import a.b`` binds ``a``,
  ``from m import x as y`` binds ``y``);
* the name is used when it appears as a ``Name`` anywhere in the
  module, inside a string annotation (``Optional["Cpu"]``), or in the
  module's ``__all__``;
* package ``__init__`` modules (whose imports are the re-exports),
  ``from __future__`` imports and imports under ``if TYPE_CHECKING:``
  are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


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
        if isinstance(node, ast.Name):
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
