"""Benchmarks: regenerate Figures 5 and 6 (send/recv timelines)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_fig5_transmission_timeline(benchmark):
    result, = run_once(benchmark, run_all, only=["fig5"])
    print()
    print(result.format())
    push = result.row(stage="TOTAL push into network")["duration_us"]
    fill = result.row(stage="fill_send_descriptor")["duration_us"]
    complete = result.row(
        stage="complete_send (reap send event)")["duration_us"]
    # 7.04 us push, PIO fill more than half of it, 0.82 us completion.
    assert push == pytest.approx(PAPER["send_overhead_us"], rel=0.02)
    assert fill > push / 2
    assert complete == pytest.approx(PAPER["send_complete_us"], rel=0.05)


def test_fig6_reception_timeline(benchmark):
    result, = run_once(benchmark, run_all, only=["fig6"])
    print()
    print(result.format())
    total = result.row(stage="TOTAL reception overhead")["duration_us"]
    assert total == pytest.approx(PAPER["recv_overhead_us"], rel=0.02)
    # Reception must be far cheaper than transmission (no trap).
    assert total < PAPER["send_overhead_us"] / 4
