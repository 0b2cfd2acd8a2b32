"""Benchmarks: extension experiments beyond the paper's evaluation."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_smp_scaling(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-smp-scaling"])
    print()
    print(result.format())
    rows = {r["pairs"]: r for r in result.rows}
    # Two pairs on four CPUs scale almost linearly...
    assert rows[2]["aggregate_mb_s"] > rows[1]["aggregate_mb_s"] * 1.7
    # ...a third pair oversubscribes the CPUs and loses per-pair rate.
    assert rows[3]["per_pair_mb_s"] < rows[2]["per_pair_mb_s"] * 0.8


def test_bidirectional(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-bidirectional"])
    print()
    print(result.format())
    one_way = result.row(pattern="one-way")
    both = result.row(pattern="simultaneous exchange")
    # Full duplex: the aggregate clearly exceeds one direction...
    assert both["aggregate_mb_s"] > one_way["per_direction_mb_s"] * 1.5
    # ...but per-direction rate dips below the uncontended one-way.
    assert both["per_direction_mb_s"] < one_way["per_direction_mb_s"]


def test_topology_comparison(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-topologies"])
    print()
    print(result.format())
    rows = {r["topology"]: r for r in result.rows}
    # Latency grows with hop count; cut-through keeps bandwidth flat.
    assert rows["single_switch"]["latency_0b_us"] < \
        rows["switch_tree"]["latency_0b_us"] < \
        rows["mesh2d"]["latency_0b_us"]
    bws = [r["bw_64k_mb_s"] for r in result.rows]
    assert max(bws) - min(bws) < max(bws) * 0.03
    # Per-hop latency delta matches switch + link costs.
    per_hop = (rows["mesh2d"]["latency_0b_us"]
               - rows["single_switch"]["latency_0b_us"]) \
        / (rows["mesh2d"]["hops"] - rows["single_switch"]["hops"])
    assert per_hop == pytest.approx(0.55 + 0.75, rel=0.1)


def test_send_window(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-send-window"])
    print()
    print(result.format())
    by_window = {r["window"]: r["bandwidth_mb_s"] for r in result.rows}
    # Window 1 stalls on the ack round trip...
    assert by_window[1] < by_window[2] * 0.85
    # ...window >= 2 hides it completely (flat from there on).
    assert by_window[2] == pytest.approx(by_window[8], rel=0.02)


def test_dnet_vs_myrinet(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-dnet"])
    print()
    print(result.format())
    myri = result.row(san="Myrinet")
    dnet = result.row(san="Dnet (nwrc mesh)")
    # The Dnet variant is usable but strictly slower on both axes:
    # slower co-processor + more hops (latency), narrower PCI (bw).
    assert dnet["latency_0b_us"] > myri["latency_0b_us"]
    assert dnet["bw_128k_mb_s"] < myri["bw_128k_mb_s"]
    assert dnet["bw_128k_mb_s"] > 100.0   # still a usable SAN


def test_collective_scaling(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-collective-scaling"])
    print()
    print(result.format())
    lat = {r["ranks"]: r["latency_us"] for r in result.rows}
    # Latency grows with rank count, but logarithmically: doubling the
    # ranks costs roughly one extra tree level, not a doubling.
    assert lat[2] < lat[4] < lat[8]
    assert lat[16] < lat[8] * 1.6
    assert lat[8] < lat[2] * 4


def test_allreduce_algorithms(benchmark):
    result, = run_once(benchmark, run_all, only=["ext-allreduce-algorithms"])
    print()
    print(result.format())
    rows = {r["elements"]: r for r in result.rows}
    # The classic crossover: tree wins tiny, ring wins big.
    assert rows[8]["winner"] == "tree"
    assert rows[131072]["winner"] == "ring"
    # And the ring's advantage grows with size.
    assert rows[131072]["tree_us"] / rows[131072]["ring_us"] > \
        rows[16384]["tree_us"] / rows[16384]["ring_us"] * 0.9
