"""Benchmarks: ablations of the design choices the paper argues for."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_pindown_thrashing(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-pindown"])
    print()
    print(result.format())
    warm = result.rows[0]["latency_us"]
    thrash = result.rows[-1]["latency_us"]
    assert thrash > warm + 5.0   # pin+translate+insert per page shows up


def test_pio_cost_sensitivity(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-pio"])
    print()
    print(result.format())
    # "A good motherboard can improve the I/O performance heavily":
    # halving PIO word cost cuts the descriptor fill in half and takes
    # ~1.8 us off the 0-byte latency.
    lats = [r["oneway_0b_us"] for r in result.rows]
    assert lats[0] > lats[1] > lats[2]
    assert lats[0] - lats[1] == pytest.approx(
        result.rows[0]["descriptor_fill_us"] / 2, rel=0.05)


def test_cpu_frequency_sensitivity(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-cpu"])
    print()
    print(result.format())
    lats = [r["oneway_0b_us"] for r in result.rows]
    # Faster CPU -> lower latency, but with diminishing returns: the
    # NIC/wire stages do not scale with the host clock.
    assert lats[0] > lats[1] > lats[2]
    first_gain = lats[0] - lats[1]
    second_gain = lats[1] - lats[2]
    assert second_gain < first_gain
    intra = [r["intra_0b_us"] for r in result.rows]
    # The intra-node path is pure host software: it scales ~linearly.
    assert intra[1] == pytest.approx(intra[0] / 2, rel=0.05)


def test_nic_tlb_thrashing(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-nic-tlb"])
    print()
    print(result.format())
    ul = [r for r in result.rows if r["architecture"] == "user_level"]
    su = [r for r in result.rows if r["architecture"] == "semi_user"]
    # User-level latency degrades once the working set exceeds the NIC
    # TLB; BCL's kernel-side translation does not care.
    assert ul[-1]["latency_us"] > ul[0]["latency_us"] + 2.0
    assert su[-1]["latency_us"] == pytest.approx(su[0]["latency_us"],
                                                 abs=0.5)


def test_shm_chunk_size(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-shm-chunk"])
    print()
    print(result.format())
    by_chunk = {r["chunk_bytes"]: r["bandwidth_mb_s"] for r in result.rows}
    best = max(by_chunk.values())
    # The default (8 KB) sits at/near the optimum; both extremes lose.
    assert by_chunk[8192] == pytest.approx(best, rel=0.03)
    assert by_chunk[1024] < best
    assert by_chunk[32768] < best
    # Latency of a 0-byte message is chunk-size independent.
    lats = {r["chunk_bytes"]: r["latency_0b_us"] for r in result.rows}
    assert len(set(lats.values())) == 1


def test_reliability_cost(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-reliability"])
    print()
    print(result.format())
    reliable = result.row(config="reliable (BCL)")
    bip = result.row(config="unreliable (BIP-style)")
    # Dropping the reliable protocol buys ~3.4 us of latency...
    assert reliable["oneway_0b_us"] - bip["oneway_0b_us"] > 2.0
    # ...but at 128 KB the bandwidth difference is marginal.
    assert bip["bw_128k_mb_s"] == pytest.approx(
        reliable["bw_128k_mb_s"], rel=0.03)


def test_nack_fast_retransmit(benchmark):
    result, = run_once(benchmark, run_all, only=["abl-nack"])
    print()
    print(result.format())
    fast = result.row(config="NACK fast retransmit")["transfer_us"]
    slow = result.row(config="timeout only")["transfer_us"]
    assert slow > 5000.0          # paid the full retransmission timer
    assert fast < slow / 5        # the NACK repaired it promptly
