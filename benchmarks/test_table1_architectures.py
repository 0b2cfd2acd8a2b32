"""Benchmark: regenerate Table 1 (architecture comparison counters)."""

from __future__ import annotations

from repro.experiments.runner import run_all

from benchmarks.conftest import run_once


def test_table1(benchmark):
    result, = run_once(benchmark, run_all, only=["table1"])
    print()
    print(result.format())

    kl = result.row(architecture="kernel-level")
    ul = result.row(architecture="user-level")
    su = result.row(architecture="semi-user-level")

    # Kernel-level: traps both sides, interrupts, copies at both ends.
    assert kl["os_trappings"] >= 2
    assert kl["send_traps"] >= 1 and kl["recv_traps"] >= 1
    assert kl["interrupts"] >= 1
    assert kl["host_copies"] >= 2
    assert kl["nic_accessed_from"] == "kernel"

    # User-level: nothing on the critical path touches the OS.
    assert ul["os_trappings"] == 0
    assert ul["interrupts"] == 0
    assert ul["nic_accessed_from"] == "user space"

    # Semi-user-level: exactly one trap, on the send path; no
    # interrupts; the NIC only ever touched from the kernel.
    assert su["os_trappings"] == 1
    assert su["send_traps"] == 1 and su["recv_traps"] == 0
    assert su["interrupts"] == 0
    assert su["host_copies"] == 0
    assert su["nic_accessed_from"] == "kernel"
