"""Static lint for the classic generator-coroutine misuse.

In a generator-based discrete-event simulation, calling a generator
method as a plain statement::

    self._charge(cost)          # creates a generator, runs NOTHING

is a silent no-op: the body never executes because nobody iterates the
generator.  The correct form is ``yield from self._charge(cost)`` (or
driving it via ``env.process``).  This bug class compiles, passes type
checks, and skews results quietly — exactly what a lint is for.

Two passes over the AST of every file:

1. **registry** — collect every ``def``; a function is a *generator*
   when its own body (nested defs/lambdas excluded) contains ``yield``
   or ``yield from``, or when it is annotated ``-> Generator``: a
   forwarder that returns the inner generator instead of stacking a
   ``yield from`` layer is just as silent when called bare.  Names are
   recorded globally and per class.
2. **check** — flag every expression statement that is a bare call
   whose callee resolves *unambiguously* to a generator:
   ``self.name(...)`` resolves through the enclosing class first, then
   the global registry; ``name(...)`` / ``obj.name(...)`` resolve
   through the global registry only.  If any same-named def is a
   non-generator the name is ambiguous and skipped (no false
   positives by construction).

Intentional handle-returning calls can be exempted with the in-source
pragma ``# audit: allow-bare-call`` on the offending line, or with
``--allow NAME`` on the command line.

Usage::

    python -m repro.audit.lint src tests examples [--allow NAME]...

Exit status 1 when violations are found, with ``path:line:`` messages.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["LintViolation", "lint_paths", "main"]

PRAGMA = "audit: allow-bare-call"


class LintViolation:
    __slots__ = ("path", "line", "name", "message")

    def __init__(self, path: Path, line: int, name: str):
        self.path = path
        self.line = line
        self.name = name
        self.message = (
            f"{path}:{line}: generator '{name}' called without "
            f"'yield from' — the call is a silent no-op "
            f"(exempt with '# {PRAGMA}')")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LintViolation({self.message!r})"


def _is_generator(fn: ast.FunctionDef) -> bool:
    """True when fn's own body yields (nested defs/lambdas excluded) or
    fn is annotated to return a ``Generator``."""
    ann = fn.returns
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Attribute):
        ann = ast.Name(ann.attr)
    if isinstance(ann, ast.Name) and ann.id == "Generator":
        return True
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


class _Registry:
    """Generator-ness of every collected def, global and per class."""

    def __init__(self) -> None:
        # name -> list of is_generator across every def with that name
        self.globals: dict[str, list[bool]] = {}
        # class name -> {method name -> is_generator | None (ambiguous)}
        self.methods: dict[str, dict[str, Optional[bool]]] = {}

    def add(self, class_name: Optional[str], fn: ast.FunctionDef) -> None:
        is_gen = _is_generator(fn)
        self.globals.setdefault(fn.name, []).append(is_gen)
        if class_name is not None:
            table = self.methods.setdefault(class_name, {})
            if fn.name in table and table[fn.name] != is_gen:
                table[fn.name] = None
            else:
                table.setdefault(fn.name, is_gen)

    def resolve(self, name: str, class_name: Optional[str],
                via_self: bool) -> Optional[bool]:
        """Best-effort generator-ness; None when unknown/ambiguous."""
        if via_self and class_name is not None:
            verdict = self.methods.get(class_name, {}).get(name)
            if verdict is not None:
                return verdict
        flags = self.globals.get(name)
        if not flags:
            return None
        if all(flags):
            return True
        if not any(flags):
            return False
        return None  # mixed: some defs yield, some don't


def _local_bindings(fn: ast.FunctionDef) -> set[str]:
    """Names bound as parameters or assignments in ``fn``'s own body.

    These shadow module-level defs, so a bare call through one is not
    resolvable by name (``def expect(name, fn): fn()`` must not match
    unrelated generators that happen to be called ``fn``).  Nested def
    names are *not* included: those are collected by the registry and
    stay resolvable.
    """
    args = fn.args
    names = {a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                add_target(elt)

    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            add_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    add_target(item.optional_vars)
        stack.extend(ast.iter_child_nodes(node))
    return names


class _DefCollector(ast.NodeVisitor):
    def __init__(self, registry: _Registry):
        self.registry = registry
        self._class_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        owner = self._class_stack[-1] if self._class_stack else None
        self.registry.add(owner, node)
        self.generic_visit(node)


class _CallChecker(ast.NodeVisitor):
    def __init__(self, registry: _Registry, path: Path,
                 source_lines: list[str], allow: frozenset):
        self.registry = registry
        self.path = path
        self.lines = source_lines
        self.allow = allow
        self.violations: list[LintViolation] = []
        self._class_stack: list[str] = []
        self._locals_stack: list[set[str]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._locals_stack.append(_local_bindings(node))
        self.generic_visit(node)
        self._locals_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _callee(func: ast.expr) -> tuple[Optional[str], bool]:
        """(callee name, reached via ``self.``) or (None, False)."""
        if isinstance(func, ast.Name):
            return func.id, False
        if isinstance(func, ast.Attribute):
            via_self = (isinstance(func.value, ast.Name)
                        and func.value.id == "self")
            return func.attr, via_self
        return None, False

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            name, via_self = self._callee(call.func)
            shadowed = (isinstance(call.func, ast.Name)
                        and any(name in scope
                                for scope in self._locals_stack))
            if (name is not None and not shadowed
                    and name not in self.allow
                    and not self._pragma(node.lineno)):
                owner = (self._class_stack[-1]
                         if self._class_stack else None)
                if self.registry.resolve(name, owner, via_self):
                    self.violations.append(
                        LintViolation(self.path, node.lineno, name))
        self.generic_visit(node)

    def _pragma(self, lineno: int) -> bool:
        if 0 < lineno <= len(self.lines):
            return PRAGMA in self.lines[lineno - 1]
        return False


def _collect_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[str],
               allow: Iterable[str] = ()) -> list[LintViolation]:
    """Lint every ``.py`` file under ``paths``; return violations."""
    files = _collect_files(paths)
    parsed: list[tuple[Path, ast.Module, list[str]]] = []
    registry = _Registry()
    for path in files:
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            print(f"{path}: skipped ({exc.__class__.__name__})",
                  file=sys.stderr)
            continue
        parsed.append((path, tree, source.splitlines()))
        _DefCollector(registry).visit(tree)
    allow_set = frozenset(allow)
    violations: list[LintViolation] = []
    for path, tree, lines in parsed:
        checker = _CallChecker(registry, path, lines, allow_set)
        checker.visit(tree)
        violations.extend(checker.violations)
    return violations


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit.lint",
        description="Flag generator methods called without 'yield from'.")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="NAME",
                        help="exempt calls to NAME (repeatable)")
    args = parser.parse_args(argv)
    violations = lint_paths(args.paths, allow=args.allow)
    for violation in violations:
        print(violation.message)
    if violations:
        print(f"{len(violations)} generator-misuse violation(s)",
              file=sys.stderr)
        return 1
    files = len(_collect_files(args.paths))
    print(f"repro.audit.lint: {files} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
