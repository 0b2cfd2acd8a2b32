"""The generator-misuse lint: bare calls to generator functions are
silent no-ops in a coroutine simulation; the lint flags them."""

import subprocess
import sys
from pathlib import Path

from repro.audit.lint import lint_paths, main

REPO = Path(__file__).resolve().parent.parent


BAD_SOURCE = '''\
class Endpoint:
    def _charge(self, n):
        yield from range(n)

    def plain(self):
        return 1

    def send(self):
        self._charge(3)          # BUG: generator discarded
        self.plain()             # fine: not a generator
        yield from self._charge(1)
        self._forward()          # BUG: returned generator discarded
        self._cost(0)            # BUG: returns () here, a charge otherwise

    def _forward(self) -> Generator:
        return self._charge(2)

    def _cost(self, n) -> Generator:
        if n <= 0:
            return ()
        return self._charge(n)


def helper():
    yield 1


def toplevel():
    helper()                     # BUG: generator discarded
    x = helper()                 # fine: handle kept
    for _ in helper():           # fine: iterated
        pass
    helper()  # audit: allow-bare-call


def expect(helper):
    helper()                     # fine: parameter shadows the generator
'''


def test_source_tree_is_clean():
    violations = lint_paths([str(REPO / "src")])
    assert violations == [], "\n".join(v.message for v in violations)


def test_flags_bare_generator_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    violations = lint_paths([str(bad)])
    assert [(v.name, v.line) for v in violations] == [
        ("_charge", 9), ("_forward", 12), ("_cost", 13),
        ("helper", 29)]
    assert "yield from" in violations[0].message


def test_pragma_and_allowlist(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    # The pragma'd call on the last line is already exempt; --allow
    # silences the rest by name.
    violations = lint_paths([str(bad)], allow=["_charge", "_forward",
                                                 "_cost", "helper"])
    assert violations == []


def test_seeded_ci_violation_is_caught():
    """ci/lint_seed_violation.py exists to prove the CI lint job fails
    when a violation is present."""
    violations = lint_paths([str(REPO / "ci" / "lint_seed_violation.py")])
    assert len(violations) == 1
    assert violations[0].name == "_charge"


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main([str(bad)]) == 1
    out = capsys.readouterr()
    assert "generator '_charge'" in out.out
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 2\n")
    assert main([str(clean)]) == 0


def test_module_entry_point(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    result = subprocess.run(
        [sys.executable, "-m", "repro.audit.lint", str(bad)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 1
    assert "_charge" in result.stdout
