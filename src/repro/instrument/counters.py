"""Critical-path event counters (the data behind the paper's Table 1).

Table 1 compares the three communication architectures by the number of
OS trappings, the number of interrupt-handling episodes, and where the
NIC is accessed from on the critical path.  Rather than asserting those
properties, we *count* them: the kernel increments ``traps`` on every
syscall, the interrupt controller increments ``interrupts``, and every
NIC register/queue access records whether it was issued from user space
or kernel space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PathCounters", "ReliabilityCounters"]


@dataclass
class PathCounters:
    """Mutable tally of architecture-relevant events."""

    traps: int = 0
    traps_send_path: int = 0
    traps_recv_path: int = 0
    interrupts: int = 0
    nic_accesses_from_user: int = 0
    nic_accesses_from_kernel: int = 0
    data_copies: int = 0          # host-CPU payload copies (not DMA)
    pio_words: int = 0
    syscalls_by_name: dict[str, int] = field(default_factory=dict)

    def record_trap(self, name: str, path: str = "other") -> None:
        self.traps += 1
        if path == "send":
            self.traps_send_path += 1
        elif path == "recv":
            self.traps_recv_path += 1
        self.syscalls_by_name[name] = self.syscalls_by_name.get(name, 0) + 1

    def record_interrupt(self) -> None:
        self.interrupts += 1

    def record_nic_access(self, from_kernel: bool, words: int = 1) -> None:
        if from_kernel:
            self.nic_accesses_from_kernel += 1
        else:
            self.nic_accesses_from_user += 1
        self.pio_words += words

    def record_copy(self) -> None:
        self.data_copies += 1

    def register_into(self, registry, **labels) -> None:
        """Expose these counters as callback-backed registry instruments.

        The fields stay the source of truth (nothing about this class
        changes); the :class:`~repro.telemetry.metrics.MetricsRegistry`
        samples them at collection time.
        """
        series = {
            "repro_traps_total": lambda: self.traps,
            "repro_traps_send_path_total": lambda: self.traps_send_path,
            "repro_traps_recv_path_total": lambda: self.traps_recv_path,
            "repro_interrupts_total": lambda: self.interrupts,
            "repro_data_copies_total": lambda: self.data_copies,
            "repro_pio_words_total": lambda: self.pio_words,
        }
        for name, fn in series.items():
            registry.register_callback(name, fn, kind="counter", **labels)
        registry.register_callback(
            "repro_nic_accesses_total",
            lambda: self.nic_accesses_from_user,
            "NIC register/queue accesses on the critical path",
            kind="counter", space="user", **labels)
        registry.register_callback(
            "repro_nic_accesses_total",
            lambda: self.nic_accesses_from_kernel,
            kind="counter", space="kernel", **labels)

    def snapshot(self) -> "PathCounters":
        return PathCounters(
            traps=self.traps,
            traps_send_path=self.traps_send_path,
            traps_recv_path=self.traps_recv_path,
            interrupts=self.interrupts,
            nic_accesses_from_user=self.nic_accesses_from_user,
            nic_accesses_from_kernel=self.nic_accesses_from_kernel,
            data_copies=self.data_copies,
            pio_words=self.pio_words,
            syscalls_by_name=dict(self.syscalls_by_name),
        )

    def delta(self, before: "PathCounters") -> "PathCounters":
        """Counters accumulated since ``before`` (a snapshot)."""
        return PathCounters(
            traps=self.traps - before.traps,
            traps_send_path=self.traps_send_path - before.traps_send_path,
            traps_recv_path=self.traps_recv_path - before.traps_recv_path,
            interrupts=self.interrupts - before.interrupts,
            nic_accesses_from_user=(self.nic_accesses_from_user
                                    - before.nic_accesses_from_user),
            nic_accesses_from_kernel=(self.nic_accesses_from_kernel
                                      - before.nic_accesses_from_kernel),
            data_copies=self.data_copies - before.data_copies,
            pio_words=self.pio_words - before.pio_words,
            syscalls_by_name={
                k: v - before.syscalls_by_name.get(k, 0)
                for k, v in self.syscalls_by_name.items()
                if v - before.syscalls_by_name.get(k, 0)
            },
        )


@dataclass
class ReliabilityCounters:
    """Per-NIC tally of the go-back-N protocol's recovery work.

    Aggregated over every sender and receiver flow of one MCP: how many
    wire packets were resent, which mechanism triggered the resend
    (NACK fast retransmit vs. timer expiry), and what the receive
    discipline discarded.  The fault-injection campaigns read these to
    compute retransmission amplification and to regression-guard the
    recovery behaviour.
    """

    data_packets: int = 0          # unique sequenced packets originated
    retransmissions: int = 0       # wire resends (go-back-N rounds)
    fast_retransmits: int = 0      # NACK-triggered resend rounds
    retransmit_timeouts: int = 0   # timer-triggered resend rounds
    duplicate_drops: int = 0       # receiver: seq below expected
    out_of_order_drops: int = 0    # receiver: gap ahead of expected
    corrupt_drops: int = 0         # receiver: CRC failures

    @classmethod
    def from_mcp(cls, mcp) -> "ReliabilityCounters":
        """Collect one NIC's flow counters (``mcp`` is a firmware Mcp)."""
        counters = cls()
        for sender in mcp._senders.values():
            counters.data_packets += sender.next_seq
            counters.retransmissions += sender.retransmissions
            counters.fast_retransmits += sender.fast_retransmits
            counters.retransmit_timeouts += sender.timeouts
        for receiver in mcp._receivers.values():
            counters.duplicate_drops += receiver.duplicates
            counters.out_of_order_drops += receiver.out_of_order_drops
            counters.corrupt_drops += receiver.corrupt_drops
        return counters

    @classmethod
    def register_mcp(cls, registry, mcp, **labels) -> None:
        """Register one NIC's recovery tallies as live instruments.

        Each callback snapshots the MCP's flows through
        :meth:`from_mcp`, so the series track the go-back-N state as it
        evolves rather than a frozen copy.
        """
        fields = {
            "repro_wire_data_packets_total": "data_packets",
            "repro_retransmissions_total": "retransmissions",
            "repro_fast_retransmits_total": "fast_retransmits",
            "repro_retransmit_timeouts_total": "retransmit_timeouts",
        }
        for name, attr in fields.items():
            registry.register_callback(
                name, lambda a=attr: getattr(cls.from_mcp(mcp), a),
                kind="counter", **labels)
        for reason, attr in (("duplicate", "duplicate_drops"),
                             ("out_of_order", "out_of_order_drops"),
                             ("corrupt", "corrupt_drops")):
            registry.register_callback(
                "repro_recv_drops_total",
                lambda a=attr: getattr(cls.from_mcp(mcp), a),
                "receive-discipline discards by reason",
                kind="counter", reason=reason, **labels)
        registry.register_callback(
            "repro_retx_amplification",
            lambda: cls.from_mcp(mcp).retx_amplification,
            "wire DATA packets per unique DATA packet (1.0 = loss-free)",
            kind="gauge", **labels)

    @property
    def retx_amplification(self) -> float:
        """Wire DATA packets per unique DATA packet (1.0 = loss-free)."""
        if not self.data_packets:
            return 1.0
        return (self.data_packets + self.retransmissions) / self.data_packets
