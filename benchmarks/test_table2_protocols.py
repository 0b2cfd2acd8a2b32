"""Benchmark: regenerate Table 2 (BCL vs GM vs AM-II vs BIP)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_table2(benchmark):
    result, = run_once(benchmark, run_all, only=["table2"])
    print()
    print(result.format())

    bcl = result.row(protocol="BCL")
    gm = result.row(protocol="GM")
    am2 = result.row(protocol="AM-II")
    bip = result.row(protocol="BIP")

    # BCL matches its own paper row.
    assert bcl["intra_latency_us"] == pytest.approx(
        PAPER["oneway_0b_intra_us"], rel=0.03)
    assert bcl["inter_latency_us"] == pytest.approx(
        PAPER["oneway_0b_inter_us"], rel=0.03)
    assert bcl["inter_bandwidth_mb_s"] == pytest.approx(
        PAPER["peak_bw_inter_mb_s"], rel=0.05)

    # GM: latency in the paper's 11-21 us window, bandwidth ~BCL class.
    lo, hi = PAPER["gm_latency_us"]
    assert lo <= gm["inter_latency_us"] <= hi
    assert gm["inter_bandwidth_mb_s"] >= PAPER["gm_bw_mb_s"]
    # "BCL reaches almost the same performance" as GM on bandwidth.
    assert bcl["inter_bandwidth_mb_s"] == pytest.approx(
        gm["inter_bandwidth_mb_s"], rel=0.05)

    # "Compared with AM-II, BCL has a better latency."
    assert bcl["inter_latency_us"] < am2["inter_latency_us"]
    # AM-II's extra copy costs it bandwidth.
    assert am2["inter_bandwidth_mb_s"] < bcl["inter_bandwidth_mb_s"]

    # BIP: "a very low latency" but "bandwidth is lower than BCL's".
    assert bip["inter_latency_us"] < gm["inter_latency_us"]
    assert bip["inter_latency_us"] < bcl["inter_latency_us"]
    assert bip["inter_bandwidth_mb_s"] < bcl["inter_bandwidth_mb_s"]

    # Only BCL provides the SMP intra-node path.
    assert bcl["intra_latency_us"] is not None
    assert gm["intra_latency_us"] is None
    assert bip["intra_latency_us"] is None
