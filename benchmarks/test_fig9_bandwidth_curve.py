"""Benchmark: regenerate Figure 9 (bandwidth vs message size)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_fig9_bandwidth_curve(benchmark):
    result, = run_once(benchmark, run_all, only=["fig9"])
    print()
    print(result.format())

    by_size = {r["bytes"]: r for r in result.rows}
    peak_inter = max(r["bandwidth_mb_s"] for r in result.rows)
    peak_intra = max(r["intra_bandwidth_mb_s"] for r in result.rows)

    # Peaks near the paper's 146 / 391 MB/s.
    assert peak_inter == pytest.approx(PAPER["peak_bw_inter_mb_s"],
                                       rel=0.05)
    assert peak_intra == pytest.approx(PAPER["peak_bw_intra_mb_s"],
                                       rel=0.05)
    # Inter-node peak is ~91 % of the 160 MB/s wire.
    assert 0.85 <= peak_inter / PAPER["wire_peak_mb_s"] <= 0.95

    # Half-bandwidth reached by 4 KB (the paper: "less than 4KB").
    assert by_size[4096]["bandwidth_mb_s"] >= peak_inter / 2
    assert by_size[1024]["bandwidth_mb_s"] < peak_inter / 2

    # Bandwidth grows monotonically with size.
    sizes = sorted(by_size)
    for a, b in zip(sizes[1:], sizes[2:]):
        assert by_size[b]["bandwidth_mb_s"] >= by_size[a]["bandwidth_mb_s"]

    # Intra-node beats inter-node everywhere (memcpy >> wire).
    for size in sizes[1:]:
        assert by_size[size]["intra_bandwidth_mb_s"] > \
            by_size[size]["bandwidth_mb_s"]
