"""Go-back-N reliability, as run by the MCP on the NIC.

BCL "performs data checking and guarantees reliable transmission in the
on-card control program" — unlike BIP, which the paper criticises for
lacking flow control and error correction.  Each ordered NIC pair is a
*flow* with its own sequence space.  The sender keeps a window of
unacknowledged packets and retransmits the whole window on timeout
(go-back-N); the receiver delivers strictly in sequence, drops
out-of-order or corrupt packets, and acks cumulatively.

The processing costs of this layer (``mcp_send_proc_us`` /
``mcp_recv_proc_us``) are charged by the MCP engines in
:mod:`repro.firmware.mcp`; this module implements the protocol state
machines only, so they can be unit- and property-tested in isolation.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.config import CostModel
from repro.firmware.packet import SEQUENCED_TYPES, Packet
from repro.sim import Environment, Event

__all__ = ["GoBackNSender", "GoBackNReceiver", "retx_amplification"]


def retx_amplification(data_packets: int, retransmissions: int) -> float:
    """Wire DATA packets per unique DATA packet (1.0 = loss-free)."""
    if not data_packets:
        return 1.0
    return (data_packets + retransmissions) / data_packets


class GoBackNSender:
    """Sender half of one flow (this NIC -> one destination NIC)."""

    def __init__(self, env: Environment, cfg: CostModel,
                 retransmit: Callable[[Packet], None], name: str,
                 flow: Optional[tuple[int, int]] = None):
        self.env = env
        self.cfg = cfg
        self.name = name
        #: (src_nic, dst_nic) identity, for recovery-metric attribution
        self.flow = flow
        #: callback that re-injects a packet onto the wire
        self._retransmit = retransmit
        #: optional observer called as (sender, old_base, new_base) each
        #: time a cumulative ack advances the window base — the signal
        #: recovery trackers use to close a loss episode
        self.on_base_advance: Optional[
            Callable[["GoBackNSender", int, int], None]] = None
        self.next_seq = 0
        self.base = 0
        self._unacked: dict[int, Packet] = {}
        self._base_sent_at: int = 0
        self._window_free: Optional[Event] = None
        self._timer: Optional[object] = None
        self._last_nacked_base = -1
        self._last_fast_retx_at: Optional[int] = None
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        #: payload-byte ledger, audited against the receiver's at quiesce
        self.bytes_registered = 0
        self.bytes_retransmitted = 0

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    @property
    def window_full(self) -> bool:
        return self.in_flight >= self.cfg.send_window

    def wait_for_window(self) -> Generator:
        """Block until the send window has room."""
        while self.window_full:
            if self._window_free is None:
                self._window_free = Event(self.env)
            yield self._window_free

    def register(self, packet: Packet) -> Packet:
        """Stamp a sequence number and remember the packet for retransmit.

        Must be called with window room (see :meth:`wait_for_window`).
        """
        if self.window_full:
            raise RuntimeError(f"{self.name}: register() with a full window")
        seq = self.next_seq
        self.next_seq += 1
        stamped = packet.copy(seq=seq)
        self._unacked[seq] = stamped
        self.bytes_registered += len(stamped.payload)
        if seq == self.base:
            self._base_sent_at = self.env.now
            self._arm_timer()
        return stamped

    def on_ack(self, ack_seq: int) -> None:
        """Cumulative ack: everything with seq < ack_seq is delivered."""
        old_base = self.base
        while self.base < ack_seq:
            self._unacked.pop(self.base, None)
            self.base += 1
        if self.base != old_base:
            self._base_sent_at = self.env.now
            if self._window_free is not None and not self.window_full:
                self._window_free.succeed()
                self._window_free = None
            if self.on_base_advance is not None:
                self.on_base_advance(self, old_base, self.base)

    def on_nack(self, nack_seq: int) -> None:
        """Fast retransmit: the receiver saw a gap at ``nack_seq``.

        Resends the outstanding window immediately instead of waiting
        for the timer.  Deduplicated per base value so a burst of NACKs
        (one per out-of-order arrival) triggers one resend round — but
        the dedup re-arms after a retransmit-timeout interval, so if a
        fast-retransmit round is itself lost a fresh NACK for the same
        base is honoured instead of degrading to timeout-only recovery.
        """
        if nack_seq != self.base or not self._unacked:
            return  # stale: the gap was already repaired
        if self._last_nacked_base == self.base:
            rearm_ns = self.cfg.ns.retransmit_timeout
            if (self._last_fast_retx_at is None
                    or self.env.now - self._last_fast_retx_at < rearm_ns):
                return  # this window is already being fast-retransmitted
        self._last_nacked_base = self.base
        self._last_fast_retx_at = self.env.now
        self.fast_retransmits += 1
        self._base_sent_at = self.env.now   # back the timer off
        for seq in sorted(self._unacked):
            self.retransmissions += 1
            self.bytes_retransmitted += len(self._unacked[seq].payload)
            self._retransmit(self._unacked[seq])

    def _arm_timer(self) -> None:
        if self._timer is None:
            self._timer = self.env.process(self._watchdog())

    def _watchdog(self) -> Generator:
        timeout_ns = self.cfg.ns.retransmit_timeout
        while self._unacked:
            deadline = self._base_sent_at + timeout_ns
            if self.env.now < deadline:
                yield self.env.timeout(deadline - self.env.now)
                continue
            # Base packet unacked past the deadline: go-back-N resend of
            # the entire outstanding window, in sequence order.
            self.timeouts += 1
            self._base_sent_at = self.env.now
            for seq in sorted(self._unacked):
                self.retransmissions += 1
                self.bytes_retransmitted += len(self._unacked[seq].payload)
                self._retransmit(self._unacked[seq])
            yield self.env.timeout(timeout_ns)
        self._timer = None


class GoBackNReceiver:
    """Receiver half of one flow (one source NIC -> this NIC).

    ``rearm_ns`` (optional) bounds NACK suppression in time: after that
    long without progress the receiver signals the same gap again (the
    first fast-retransmit round may itself have been lost).  Without it
    the dedup is purely per ``expected_seq``, as before.
    """

    def __init__(self, name: str, rearm_ns: Optional[int] = None):
        self.name = name
        self.rearm_ns = rearm_ns
        self.expected_seq = 0
        self.duplicates = 0
        self.out_of_order_drops = 0
        self.corrupt_drops = 0
        #: arrival/delivery ledger, audited against the sender's at quiesce
        self.packets_arrived = 0
        self.bytes_arrived = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self._nacked_at = -1
        self._nacked_time: Optional[int] = None
        self._gap_seen = False

    def accept(self, packet: Packet) -> tuple[bool, int]:
        """Classify an arriving DATA packet.

        Returns ``(deliver, ack_seq)``: whether to deliver the payload
        upward, and the cumulative ack to send back (the next expected
        sequence number — also correct as a re-ack for drops and dups).
        Call :meth:`should_nack` afterwards to decide on fast-retransmit
        signalling.
        """
        if packet.ptype not in SEQUENCED_TYPES:
            raise ValueError(f"{self.name}: accept() got {packet.ptype}")
        self.packets_arrived += 1
        self.bytes_arrived += len(packet.payload)
        self._gap_seen = False
        if not packet.crc_ok():
            self.corrupt_drops += 1
            self._gap_seen = True
            return False, self.expected_seq
        if packet.seq == self.expected_seq:
            self.expected_seq += 1
            self.packets_delivered += 1
            self.bytes_delivered += len(packet.payload)
            return True, self.expected_seq
        if packet.seq < self.expected_seq:
            self.duplicates += 1
        else:
            self.out_of_order_drops += 1
            self._gap_seen = True
        return False, self.expected_seq

    def should_nack(self, now: Optional[int] = None) -> bool:
        """True when the last accept() revealed a *new* gap: the first
        out-of-order (or corrupt) arrival at this expected_seq.  The
        sender deduplicates too, but suppressing repeats here avoids
        flooding the reverse path.

        When both ``now`` and ``rearm_ns`` are available, suppression of
        a repeated gap expires after ``rearm_ns`` without progress, so a
        lost fast-retransmit round gets a second NACK instead of being
        left to timeout-only recovery.
        """
        if not self._gap_seen:
            return False
        if self._nacked_at == self.expected_seq:
            if (now is None or self.rearm_ns is None
                    or self._nacked_time is None
                    or now - self._nacked_time < self.rearm_ns):
                return False
        self._nacked_at = self.expected_seq
        self._nacked_time = now
        return True
