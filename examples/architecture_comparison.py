#!/usr/bin/env python
"""The paper's core argument, live: three architectures on one wire.

Runs a 0-byte message across the kernel-level, user-level and
semi-user-level stacks on identical simulated hardware, through one
harness and the same port calls for all three, and prints the
trap/interrupt/copy counts (Table 1) alongside the measured one-way
latencies — showing the semi-user-level design sitting between the
baselines: ~22 % slower than user-level, far safer, and much faster
than the kernel path.

Usage::

    python examples/architecture_comparison.py
"""

from repro.experiments.common import measure_architecture_latency
from repro.experiments.runner import run_all


def main() -> None:
    print("counting critical-path events for one message per "
          "architecture...\n")
    table1, = run_all(only=["table1"])
    print(table1.format())

    print("\nmeasuring 0-byte one-way latency per architecture...")
    kernel = measure_architecture_latency("kernel_level", 0)
    user = measure_architecture_latency("user_level", 0)
    semi = measure_architecture_latency("semi_user", 0)
    print(f"  kernel-level     : {kernel:6.2f} us   (traps both sides, "
          "interrupts, 2 copies)")
    print(f"  user-level       : {user:6.2f} us   (no kernel anywhere; "
          "no protection)")
    print(f"  semi-user-level  : {semi:6.2f} us   (one trap on send; "
          "trap-free receive)")
    extra = semi - user
    print(f"\nsemi-user-level premium over user-level: {extra:.2f} us "
          f"= {extra / semi:.0%} of latency (paper: 4.17 us ~ 22 %),")
    print("bought: kernel-checked transfers, host-side translation, "
          "portability without mmap.")


if __name__ == "__main__":
    main()
