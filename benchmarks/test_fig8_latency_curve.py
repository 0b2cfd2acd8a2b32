"""Benchmark: regenerate Figure 8 (latency vs message size)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_fig8_latency_curve(benchmark):
    result, = run_once(benchmark, run_all, only=["fig8"])
    print()
    print(result.format())

    by_size = {r["bytes"]: r for r in result.rows}
    # Anchor points.
    assert by_size[0]["latency_us"] == pytest.approx(
        PAPER["oneway_0b_inter_us"], rel=0.03)
    assert by_size[0]["intra_latency_us"] == pytest.approx(
        PAPER["oneway_0b_intra_us"], rel=0.03)
    assert by_size[131072]["latency_us"] == pytest.approx(
        PAPER["transfer_128k_us"], rel=0.05)

    # Monotonic growth with size, on both curves.
    sizes = sorted(by_size)
    for a, b in zip(sizes, sizes[1:]):
        assert by_size[b]["latency_us"] > by_size[a]["latency_us"]
        assert by_size[b]["intra_latency_us"] >= \
            by_size[a]["intra_latency_us"]

    # Intra-node is faster than inter-node at every size.
    for size in sizes:
        assert by_size[size]["intra_latency_us"] < \
            by_size[size]["latency_us"]
