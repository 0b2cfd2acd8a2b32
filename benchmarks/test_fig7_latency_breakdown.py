"""Benchmark: regenerate Figure 7 (one-way 0-byte latency timeline)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER, measure_architecture_latency
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_fig7_one_way_timeline(benchmark):
    result, = run_once(benchmark, run_all, only=["fig7"])
    print()
    print(result.format())
    total = result.row(stage="TOTAL one-way")["duration_us"]
    assert total == pytest.approx(PAPER["oneway_0b_inter_us"], rel=0.03)

    # The semi-user-only stages together are the architecture's tax.
    semi_only = sum(r["duration_us"] for r in result.rows
                    if r["semi_user_only"] == "yes")
    assert semi_only > 0
    # And the NIC reliable-protocol time is its own documented share.
    mcp = sum(r["duration_us"] for r in result.rows
              if r["stage"] in ("mcp_send_processing",
                                "mcp_recv_processing"))
    assert mcp == pytest.approx(PAPER["reliability_nic_us"], rel=0.02)


def test_fig7_semi_user_extra_vs_user_level(benchmark):
    def measure():
        bcl = measure_architecture_latency("semi_user", 0)
        ul = measure_architecture_latency("user_level", 0)
        return bcl, ul

    bcl, ul = run_once(benchmark, measure)
    extra = bcl - ul
    print(f"\nsemi-user {bcl:.2f} us vs user-level {ul:.2f} us "
          f"-> extra {extra:.2f} us ({extra / bcl:.1%})")
    assert extra == pytest.approx(PAPER["semi_user_extra_us"], abs=0.4)
    assert 0.18 <= extra / bcl <= 0.28     # "about 22%"
