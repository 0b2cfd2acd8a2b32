"""The perf gate's memory checks on the scale and serve suites.

A point shared with the baseline may grow its ``retained_kib`` by at
most 1 %, and only when both runs used the same Python ``major.minor``
(object sizes differ between interpreters).  It may grow its
``page_kib`` (bytes stored by the physical memories, a model figure)
by at most 1 % on any interpreter.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINE_DIR = ROOT / "benchmarks" / "perf" / "baseline"
SUITES = ("BENCH_scale.json", "BENCH_serve.json")


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "ci" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate_grown(perf_gate, tmp_path, artifact: str, factor: float,
                python: str | None = None,
                key: str = "retained_kib") -> tuple[int, str]:
    """Gate a copy of the baseline whose first row with a nonzero
    ``key`` grew by ``factor``; returns the exit code and the grown
    row's name."""
    baseline = BASELINE_DIR / artifact
    doc = copy.deepcopy(json.loads(baseline.read_text()))
    point = next(r for r in doc["results"] if r.get(key))
    point[key] = round(point[key] * factor, 1)
    if python is not None:
        doc["meta"]["python"] = python
    fresh = tmp_path / artifact
    fresh.write_text(json.dumps(doc))
    return perf_gate.main([str(fresh), "--baseline", str(baseline)]), \
        point["name"]


@pytest.mark.parametrize("artifact", SUITES)
def test_grown_row_fails_naming_the_point(perf_gate, tmp_path, capsys,
                                          artifact):
    code, name = _gate_grown(perf_gate, tmp_path, artifact, 1.02)
    assert code == 1
    assert f"retained memory growth in {name}" in capsys.readouterr().err


@pytest.mark.parametrize("artifact", SUITES)
def test_growth_within_one_percent_passes(perf_gate, tmp_path, capsys,
                                          artifact):
    code, name = _gate_grown(perf_gate, tmp_path, artifact, 1.005)
    assert code == 0
    assert f"ok: {name}: retained" in capsys.readouterr().out


@pytest.mark.parametrize("artifact", SUITES)
def test_other_python_skips_the_census_check(perf_gate, tmp_path, capsys,
                                             artifact):
    code, _ = _gate_grown(perf_gate, tmp_path, artifact, 1.5,
                          python="2.7.18")
    assert code == 0
    assert "skipping the retained_kib comparison" in capsys.readouterr().out


@pytest.mark.parametrize("artifact", SUITES)
@pytest.mark.parametrize("python", [None, "2.7.18"])
def test_grown_page_row_fails_on_any_python(perf_gate, tmp_path, capsys,
                                            artifact, python):
    code, name = _gate_grown(perf_gate, tmp_path, artifact, 1.02,
                             python=python, key="page_kib")
    assert code == 1
    assert f"page memory growth in {name}" in capsys.readouterr().err


@pytest.mark.parametrize("artifact", SUITES)
def test_page_growth_within_one_percent_passes(perf_gate, tmp_path, capsys,
                                              artifact):
    code, name = _gate_grown(perf_gate, tmp_path, artifact, 1.005,
                             key="page_kib")
    assert code == 0
    assert f"ok: {name}: page" in capsys.readouterr().out
