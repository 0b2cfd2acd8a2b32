#!/usr/bin/env python
"""Line-coverage gate with no third-party dependencies.

``pytest-cov`` is not part of the baked toolchain, so this implements
the minimum needed for a CI floor from the stdlib alone:

* executable lines come from compiling every module under ``src/repro``
  and walking the code objects' ``co_lines()`` tables (recursively
  through nested functions/classes/comprehensions);
* executed lines come from ``sys.monitoring`` (PEP 669, Python >= 3.12
  — near-zero overhead) or ``sys.settrace`` as the fallback;
* the suite runs in-process via ``pytest.main`` so the tracer sees it.

Usage::

    python ci/coverage_gate.py [--floor PCT] [--report N] [--] [pytest args]

With no pytest args the full tier-1 suite runs.  The floor defaults to
the recorded value in ``ci/coverage_floor.txt``; the gate fails (exit
1) if total line coverage of ``repro`` drops below it.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
FLOOR_FILE = os.path.join(ROOT, "ci", "coverage_floor.txt")


def executable_lines(path: str) -> set[int]:
    """All line numbers the compiler can attribute code to."""
    with open(path, "rb") as fh:
        source = fh.read()
    try:
        top = compile(source, path, "exec")
    except SyntaxError:
        return set()
    lines: set[int] = set()
    stack = [top]
    while stack:
        code = stack.pop()
        for _start, _end, line in code.co_lines():
            if line is not None:
                lines.add(line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # module docstrings/constant folding produce a phantom line-1 entry
    # even for pure-comment prologues; keep it, it's executed anyway.
    return lines


def collect_targets() -> dict[str, set[int]]:
    targets: dict[str, set[int]] = {}
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                targets[os.path.abspath(path)] = executable_lines(path)
    return targets


class Collector:
    """Executed-line recorder over a fixed set of target files."""

    def __init__(self, targets: dict[str, set[int]]):
        self.targets = targets
        self.hits: dict[str, set[int]] = {path: set() for path in targets}
        self._use_monitoring = hasattr(sys, "monitoring")
        # One bound method for every settrace hook and return: reading
        # ``self._trace`` builds a fresh GC-tracked object each time, so
        # returning it per event allocates inside the traced code.  A
        # collection could then start in the return event of
        # ``Environment.run`` right after it re-enables the collector,
        # while ``run`` is still on the stack.
        self._tracer = self._trace

    # ---------------------------------------------- sys.monitoring path
    def _start_monitoring(self) -> None:
        mon = sys.monitoring
        self._tool = mon.COVERAGE_ID
        mon.use_tool_id(self._tool, "repro-coverage-gate")
        mon.set_events(self._tool, mon.events.LINE)

        def on_line(code, line):
            hits = self.hits.get(code.co_filename)
            if hits is None:
                return mon.DISABLE      # never look at this code again
            hits.add(line)
            return None

        mon.register_callback(self._tool, mon.events.LINE, on_line)

    def _stop_monitoring(self) -> None:
        mon = sys.monitoring
        mon.set_events(self._tool, 0)
        mon.register_callback(self._tool, mon.events.LINE, None)
        mon.free_tool_id(self._tool)

    # ------------------------------------------------- sys.settrace path
    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if event == "call":
            if filename not in self.hits:
                return None             # don't trace lines in this frame
            return self._tracer
        if event == "line":
            self.hits[filename].add(frame.f_lineno)
        return self._tracer

    def start(self) -> None:
        if self._use_monitoring:
            self._start_monitoring()
        else:
            import threading
            threading.settrace(self._tracer)
            sys.settrace(self._tracer)

    def stop(self) -> None:
        if self._use_monitoring:
            self._stop_monitoring()
        else:
            import threading
            sys.settrace(None)
            threading.settrace(None)


def read_floor() -> float:
    with open(FLOOR_FILE, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                return float(line)
    raise SystemExit(f"no floor recorded in {FLOOR_FILE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=float, default=None,
                        help="minimum total line coverage in percent "
                             f"(default: recorded in {FLOOR_FILE})")
    parser.add_argument("--report", type=int, default=15, metavar="N",
                        help="list the N least-covered modules")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments forwarded to pytest "
                             "(default: -q -p no:cacheprovider)")
    args = parser.parse_args(argv)
    floor = args.floor if args.floor is not None else read_floor()

    sys.path.insert(0, SRC)
    # Subprocess-spawning tests (examples smoke) need the path too.
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (SRC if not existing
                                else SRC + os.pathsep + existing)
    targets = collect_targets()
    total_lines = sum(len(lines) for lines in targets.values())
    print(f"coverage gate: {len(targets)} modules, "
          f"{total_lines} executable lines, floor {floor:.1f}%")

    import pytest
    collector = Collector(targets)
    pytest_args = args.pytest_args or ["-q", "-x"]
    collector.start()
    try:
        status = pytest.main(pytest_args)
    finally:
        collector.stop()
    if status != 0:
        print(f"coverage gate: pytest failed (exit {status})",
              file=sys.stderr)
        return int(status) or 1

    per_module = []
    covered_total = 0
    for path, lines in targets.items():
        if not lines:
            continue
        covered = len(collector.hits[path] & lines)
        covered_total += covered
        rel = os.path.relpath(path, SRC)
        per_module.append((covered / len(lines), covered, len(lines), rel))
    percent = 100.0 * covered_total / total_lines if total_lines else 100.0

    per_module.sort()
    if args.report:
        print(f"\nleast-covered modules (bottom {args.report}):")
        for frac, covered, n_lines, rel in per_module[:args.report]:
            print(f"  {100 * frac:5.1f}%  {covered:4d}/{n_lines:<4d}  {rel}")
    print(f"\ncoverage gate: total {percent:.2f}% "
          f"({covered_total}/{total_lines} lines), floor {floor:.1f}%")
    if percent < floor:
        print("coverage gate: FAIL — coverage fell below the recorded "
              "floor", file=sys.stderr)
        return 1
    print("coverage gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
