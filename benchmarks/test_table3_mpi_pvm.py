"""Benchmark: regenerate Table 3 (BCL and MPI/PVM over BCL)."""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER
from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_table3(benchmark):
    result, = run_once(benchmark, run_all, only=["table3"])
    print()
    print(result.format())

    bcl = result.row(layer="BCL")
    mpi = result.row(layer="MPI over BCL")
    pvm = result.row(layer="PVM over BCL")

    # Raw BCL anchors.
    assert bcl["inter_latency_us"] == pytest.approx(
        PAPER["oneway_0b_inter_us"], rel=0.03)
    assert bcl["intra_latency_us"] == pytest.approx(
        PAPER["oneway_0b_intra_us"], rel=0.03)

    # MPI/PVM land near the paper's rows (within 10 %).
    assert mpi["intra_latency_us"] == pytest.approx(
        PAPER["mpi_latency_intra_us"], rel=0.10)
    assert mpi["inter_latency_us"] == pytest.approx(
        PAPER["mpi_latency_inter_us"], rel=0.10)
    assert mpi["intra_bandwidth_mb_s"] == pytest.approx(
        PAPER["mpi_bw_intra_mb_s"], rel=0.10)
    assert mpi["inter_bandwidth_mb_s"] == pytest.approx(
        PAPER["mpi_bw_inter_mb_s"], rel=0.10)
    assert pvm["intra_latency_us"] == pytest.approx(
        PAPER["pvm_latency_intra_us"], rel=0.10)
    assert pvm["inter_latency_us"] == pytest.approx(
        PAPER["pvm_latency_inter_us"], rel=0.10)
    assert pvm["intra_bandwidth_mb_s"] == pytest.approx(
        PAPER["pvm_bw_intra_mb_s"], rel=0.10)
    assert pvm["inter_bandwidth_mb_s"] == pytest.approx(
        PAPER["pvm_bw_inter_mb_s"], rel=0.10)

    # Shape: the upper layers cost latency and bandwidth over raw BCL...
    for layered in (mpi, pvm):
        assert layered["inter_latency_us"] > bcl["inter_latency_us"]
        assert layered["intra_latency_us"] > bcl["intra_latency_us"]
        assert layered["inter_bandwidth_mb_s"] < \
            bcl["inter_bandwidth_mb_s"]
        assert layered["intra_bandwidth_mb_s"] < \
            bcl["intra_bandwidth_mb_s"]
    # ...and the paper's MPI/PVM orderings hold.
    assert pvm["intra_latency_us"] > mpi["intra_latency_us"]
    assert pvm["inter_latency_us"] < mpi["inter_latency_us"]
    assert pvm["intra_bandwidth_mb_s"] < mpi["intra_bandwidth_mb_s"]
