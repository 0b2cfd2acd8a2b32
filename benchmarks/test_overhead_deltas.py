"""Benchmark: the Section 5 overhead decomposition and deltas."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_section5_overheads(benchmark):
    result, = run_once(benchmark, run_all, only=["overheads"])
    print()
    print(result.format())

    def measured(metric):
        return result.row(metric=metric)["measured"]

    assert measured("send processor overhead (us)") == pytest.approx(
        PAPER["send_overhead_us"], rel=0.02)
    assert measured("send completion overhead (us)") == pytest.approx(
        PAPER["send_complete_us"], rel=0.05)
    assert measured("recv processor overhead (us)") == pytest.approx(
        PAPER["recv_overhead_us"], rel=0.02)
    assert measured("one-way 0-byte latency (us)") == pytest.approx(
        PAPER["oneway_0b_inter_us"], rel=0.03)
    assert measured("NIC reliable-protocol time (us)") == pytest.approx(
        PAPER["reliability_nic_us"], rel=0.02)
    assert measured("semi-user extra vs user-level (us)") == pytest.approx(
        PAPER["semi_user_extra_us"], abs=0.4)
    assert 0.18 <= measured("semi-user extra fraction of latency") <= 0.28
    assert measured("128 KB transfer time (us)") == pytest.approx(
        PAPER["transfer_128k_us"], rel=0.05)
    # "This extra overhead won't affect bandwidth": the extra at 128 KB
    # stays a sub-percent effect.
    assert abs(measured("extra fraction at 128 KB")) < 0.01
