"""Regression attribution: `repro diff` names the stage that moved.

The acceptance test for the differ is synthetic-regression shaped:
slow exactly one kernel cost knob (the pin-down page-table hit),
ledger both runs, and the diff must name that stage — and only that
stage — as the top contributor.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import Cluster, enabled
from repro.config import DAWNING_3000
from repro.instrument.measure import measure_one_way
from repro.telemetry.diff import diff_runs
from repro.telemetry.ledger import BENCH_SCHEMA, write_ledger


def _ledger(cfg, nbytes: int = 4096):
    cluster = Cluster(n_nodes=2, cfg=cfg, observers=enabled() | {"telemetry"})
    sample = measure_one_way(cluster, nbytes, repeats=3, warmup=1)
    assert sample.received_payloads_ok
    return cluster.telemetry.to_ledger("observe", seed=1)


@pytest.fixture(scope="module")
def regression_pair():
    """Baseline vs a run with a 50x slower pin-down lookup."""
    baseline = _ledger(DAWNING_3000)
    slowed = _ledger(DAWNING_3000.replace(
        pindown_lookup_us=DAWNING_3000.pindown_lookup_us * 50))
    return baseline, slowed


# ---------------------------------------------------- stage attribution
def test_synthetic_regression_names_the_slowed_stage(regression_pair):
    baseline, slowed = regression_pair
    diff = diff_runs(baseline, slowed)
    assert diff.top_stage == "translate/pin"
    top = next(d for d in diff.stage_deltas
               if d.stage == "translate/pin")
    assert top.delta_ns > 0
    # The slowed stage dominates every other *causal* stage by a wide
    # margin (the 'wait' catch-all grows too — concurrent messages
    # queue behind the slow pin-down — which is exactly why top_stage
    # must rank causal stages first).
    base = diff.a.total_stage_ns
    others = max((abs(d.growth_pct(base)) for d in diff.stage_deltas
                  if d.stage not in ("translate/pin", "wait")),
                 default=0.0)
    assert top.growth_pct(base) > 10 * max(others, 0.1)


def test_attribution_line_reads_like_a_gate_message(regression_pair):
    baseline, slowed = regression_pair
    diff = diff_runs(baseline, slowed)
    line = diff.attribution(metric="p99")
    assert "regression: +" in line
    assert "driven by 'translate/pin'" in line
    # The two runs deliberately use different cost models, and the
    # attribution must say so rather than present the delta as drift.
    assert not diff.comparable
    assert "config digests differ" in line
    assert "config digests differ" not in diff_runs(
        baseline, baseline).attribution()


def test_identical_runs_show_no_drift(regression_pair):
    baseline, _ = regression_pair
    diff = diff_runs(baseline, baseline)
    assert diff.top_stage is None
    assert diff.max_stage_drift_pct == 0.0
    assert all(d.delta == 0 for d in diff.metric_deltas)
    assert "no stage-time movement" in diff.render()


# ----------------------------------------------------------- BENCH diff
def _bench_doc(churn_eps: float, wire_us: float):
    return {
        "schema": BENCH_SCHEMA, "suite": "engine", "meta": {},
        "results": [{"name": "churn", "events_per_sec": churn_eps,
                     "events": 1000,
                     "stage_table": [["wire", wire_us], ["trap", 2.0]]}],
        "calendar_vs_reference": {"churn": 0.65},
    }


def test_bench_artifacts_diff_like_ledgers():
    diff = diff_runs(_bench_doc(1e6, 10.0), _bench_doc(8e5, 14.0))
    delta = diff.metric("churn/events_per_sec")
    assert delta is not None and delta.pct == pytest.approx(-20.0)
    assert diff.top_stage == "wire"
    assert diff.stage_deltas[0].delta_ns == 4_000
    line = diff.attribution(metric="events_per_sec")
    assert "churn/events_per_sec" in line and "'wire'" in line


# ------------------------------------------------------------------ CLI
def test_cli_diff_exit_codes(regression_pair, tmp_path, capsys):
    baseline, slowed = regression_pair
    a = write_ledger(tmp_path / "a.json", baseline)
    b = write_ledger(tmp_path / "b.json", slowed)

    assert main(["diff", a, a, "--max-stage-drift", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "ok: max stage drift" in out

    assert main(["diff", a, b, "--metric", "p99",
                 "--max-stage-drift", "5.0"]) == 1
    captured = capsys.readouterr()
    assert "translate/pin" in captured.out
    assert "FAIL: stage drift" in captured.err

    assert main(["diff", a, str(tmp_path / "missing.json")]) == 2


def test_cli_diff_renders_the_stage_table(regression_pair, tmp_path,
                                          capsys):
    baseline, slowed = regression_pair
    a = write_ledger(tmp_path / "a.json", baseline)
    b = write_ledger(tmp_path / "b.json", slowed)
    assert main(["diff", a, b]) == 0
    out = capsys.readouterr().out
    assert "stage" in out and "growth" in out
    assert "bounding-stage attribution:" in out
    assert "warning: config digests differ" in out


def test_cli_diff_explains_the_kernel_level_premium(tmp_path, capsys):
    """Two 0-byte ``observe`` ledgers, semi-user against kernel-level:
    the header names each architecture, the socket path's security
    checks are the stage that grew most, and p50 moves from the
    semi-user to the kernel-level one-way latency."""
    paths = {}
    for arch in ("semi_user", "kernel_level"):
        paths[arch] = str(tmp_path / f"{arch}.json")
        assert main(["observe", "--architecture", arch,
                     "--ledger-out", paths[arch]]) == 0
    capsys.readouterr()
    with open(paths["kernel_level"], encoding="utf-8") as fh:
        assert json.load(fh)["extra"] == {
            "architecture": "kernel_level", "nbytes": 0, "messages": 4,
            "intra_node": False}
    assert main(["diff", paths["semi_user"], paths["kernel_level"],
                 "--metric", "p50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("run A: semi_user.json  [observe, semi_user,")
    assert lines[1].startswith(
        "run B: kernel_level.json  [observe, kernel_level,")
    assert "stage-time delta driven by 'check'" in lines[-1]
    assert "p50 regression: +51.1% (18327 -> 27696)" in lines[-1]
