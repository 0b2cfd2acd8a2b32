"""The runtime invariant auditor.

One :class:`Auditor` attaches to an :class:`~repro.sim.Environment`
(``env._audit``) and carries four pluggable layer checkers.  The
instrumented modules (sim core, resources, firmware, kernel, EADI)
look the auditor up with ``getattr(env, "_audit", None)`` and notify it
at the relevant points; with no auditor attached the hooks cost one
attribute read.

Checkers are *pure observers*: they read counters and queue state but
never schedule events, consume randomness or mutate protocol state, so
audited runs produce byte-identical results to unaudited ones.  Two
kinds of checks exist:

* **runtime checks** fire the instant an invariant breaks (an event
  processed before the clock, a non-monotonic sequence number, a
  credit balance above the initial grant) and name the offending
  event/packet;
* **quiesce checks** fire when :meth:`Environment.run` drains the queue
  dry — the only instant where conservation equations must balance
  (per-flow byte conservation, orphaned waiters, reassembly residue,
  pin-down table consistency).

Custom checkers can be appended to ``auditor.checkers``; anything with
a ``quiesce(auditor) -> list[Violation]`` method participates.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.firmware.packet import SEQUENCED_TYPES

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster import Cluster
    from repro.firmware.mcp import Mcp
    from repro.firmware.reliability import GoBackNReceiver, GoBackNSender
    from repro.sim import Environment

__all__ = [
    "AuditError",
    "Auditor",
    "BclChecker",
    "FirmwareChecker",
    "KernelChecker",
    "SimChecker",
    "Violation",
    "attach",
    "disable",
    "enable",
    "enabled",
]


# ------------------------------------------------------------- enablement
_ENABLED = False


def enable() -> None:
    """Turn auditing on globally: every :class:`~repro.cluster.Cluster`
    built afterwards attaches an auditor.  Also exported through the
    ``REPRO_AUDIT`` environment variable so ``--jobs N`` worker
    processes inherit the setting."""
    global _ENABLED
    _ENABLED = True
    os.environ["REPRO_AUDIT"] = "1"


def disable() -> None:
    global _ENABLED
    _ENABLED = False
    os.environ.pop("REPRO_AUDIT", None)


def enabled() -> bool:
    """True when auditing is globally enabled (module flag or env var)."""
    return _ENABLED or os.environ.get("REPRO_AUDIT", "") not in ("", "0")


def attach(cluster: "Cluster") -> "Auditor":
    """Attach an auditor to ``cluster`` (creating one on its environment
    if needed) and bind the cluster for quiesce-time checks."""
    env = cluster.env
    auditor = getattr(env, "_audit", None)
    if auditor is None:
        auditor = Auditor(env)
    auditor.bind_cluster(cluster)
    return auditor


# ------------------------------------------------------------ violations
@dataclass(frozen=True)
class Violation:
    """One broken invariant, locatable by layer, rule and flow."""

    layer: str                      # sim | firmware | kernel | bcl
    rule: str                       # e.g. "byte-conservation"
    detail: str                     # human-readable accounting
    flow: Optional[tuple[int, int]] = None   # (src_nic, dst_nic)
    event: str = ""                 # offending event/packet, if known
    t_ns: int = 0

    def format(self) -> str:
        where = f" flow {self.flow[0]}->{self.flow[1]}" if self.flow else ""
        ev = f" [event: {self.event}]" if self.event else ""
        return (f"[{self.layer}/{self.rule}]{where} at t={self.t_ns} ns: "
                f"{self.detail}{ev}")


class AuditError(RuntimeError):
    """Raised by the auditor; carries the structured violation list."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        lines = [f"{len(self.violations)} audit violation(s):"]
        lines += ["  " + v.format() for v in self.violations]
        super().__init__("\n".join(lines))


# --------------------------------------------------------------- checkers
class SimChecker:
    """Sim core: events never run in the past; no orphaned waiters.

    Stores and Resources self-register at construction (when the
    environment carries an auditor).  At quiesce every queued waiter
    event must still have at least one callback — a queued event with
    no callbacks can never resume anyone, so a later hand-off would be
    silently lost.
    """

    layer = "sim"

    def __init__(self) -> None:
        self._stores: list[weakref.ref] = []
        self._resources: list[weakref.ref] = []

    def register_store(self, store) -> None:
        self._stores.append(weakref.ref(store))

    def register_resource(self, resource) -> None:
        self._resources.append(weakref.ref(resource))

    @staticmethod
    def _orphaned(event) -> bool:
        if event.triggered:
            return False
        callbacks = event._callbacks
        return callbacks is None or not callbacks

    def quiesce(self, auditor: "Auditor") -> list[Violation]:
        now = auditor.env.now
        violations: list[Violation] = []
        live_stores = []
        for ref in self._stores:
            store = ref()
            if store is None:
                continue
            live_stores.append(ref)
            for queue_name in ("_getters", "_putters"):
                for ev in getattr(store, queue_name):
                    if self._orphaned(ev):
                        violations.append(Violation(
                            self.layer, "orphaned-waiter",
                            f"store waiter in {queue_name} has no "
                            "callbacks; a hand-off would be lost",
                            event=repr(ev), t_ns=now))
        self._stores = live_stores
        live_resources = []
        for ref in self._resources:
            resource = ref()
            if resource is None:
                continue
            live_resources.append(ref)
            for ev in resource._queue:
                if self._orphaned(ev):
                    violations.append(Violation(
                        self.layer, "orphaned-waiter",
                        "resource request queued with no callbacks; a "
                        "later grant would go to a dead requester",
                        event=repr(ev), t_ns=now))
        self._resources = live_resources
        return violations


class FirmwareChecker:
    """NIC/firmware: per-flow byte conservation and sequencing.

    Conservation, checked at quiesce for every go-back-N flow::

        registered + retransmitted + injector-duplicates
            == arrived-at-receiver + injector-drops

    in both packets and payload bytes — every wire copy is either
    adjudicated away with a fault record or classified by the
    receiver (delivered, duplicate, out-of-order or corrupt).  On top
    of that, exactly-once delivery (``delivered == registered``, the
    retransmit/dedup closure) and reassembly-map emptiness.

    Sequence monotonicity is checked at runtime by wrapping each
    receiver's ``accept``: ``expected_seq`` never decreases and every
    delivery carries exactly the previously expected sequence number.
    """

    layer = "firmware"

    def __init__(self) -> None:
        #: flow (src_nic, dst_nic) -> (sender, owning mcp)
        self.senders: dict[tuple[int, int], tuple] = {}
        #: flow (src_nic, dst_nic) -> (receiver, owning mcp)
        self.receivers: dict[tuple[int, int], tuple] = {}

    # -- registration (called by Mcp when flows are lazily created)
    def register_sender(self, mcp: "Mcp", sender: "GoBackNSender") -> None:
        self.senders[sender.flow] = (sender, mcp)

    def register_receiver(self, auditor: "Auditor", mcp: "Mcp",
                          src_nic: int,
                          receiver: "GoBackNReceiver") -> None:
        flow = (src_nic, mcp.nic.node_id)
        self.receivers[flow] = (receiver, mcp)
        inner = receiver.accept

        def audited_accept(packet, _inner=inner, _recv=receiver, _flow=flow):
            before = _recv.expected_seq
            deliver, ack_seq = _inner(packet)
            self._check_accept(auditor, _flow, _recv, packet, before,
                               deliver)
            return deliver, ack_seq

        receiver.accept = audited_accept

    def _check_accept(self, auditor, flow, receiver, packet, before,
                      deliver) -> None:
        now = auditor.env.now
        violations = []
        if receiver.expected_seq < before:
            violations.append(Violation(
                self.layer, "sequence-monotonicity",
                f"expected_seq went backwards: {before} -> "
                f"{receiver.expected_seq}", flow=flow,
                event=f"seq={packet.seq} {packet.ptype.value}", t_ns=now))
        if deliver and packet.seq != before:
            violations.append(Violation(
                self.layer, "in-order-delivery",
                f"delivered seq {packet.seq} while expecting {before}",
                flow=flow,
                event=f"seq={packet.seq} msg={packet.message_id}", t_ns=now))
        if violations:
            auditor._raise(violations)

    # -- quiesce accounting
    @staticmethod
    def _iter_injectors(clusters) -> list:
        injectors, seen = [], set()
        for cluster in clusters:
            candidates = list(cluster.fault_injectors)
            candidates += [link.injector for link in cluster.network.links]
            for mcp in cluster.mcps:
                candidates.append(mcp.egress_injector)
                candidates.append(mcp.nic.rx_injector)
            for injector in candidates:
                if injector is not None and id(injector) not in seen:
                    seen.add(id(injector))
                    injectors.append(injector)
        return injectors

    def quiesce(self, auditor: "Auditor") -> list[Violation]:
        now = auditor.env.now
        violations: list[Violation] = []
        injectors = self._iter_injectors(auditor.clusters)

        def injected(counter: str, flow) -> int:
            return sum(getattr(inj, counter, {}).get(flow, 0)
                       for inj in injectors)

        for flow, (sender, _mcp) in self.senders.items():
            receiver_entry = self.receivers.get(flow)
            receiver = receiver_entry[0] if receiver_entry else None
            dst_mcp = receiver_entry[1] if receiver_entry else None
            if dst_mcp is not None and not dst_mcp.reliable:
                continue  # BIP-style mode keeps no delivery promise
            wire_packets = (sender.next_seq + sender.retransmissions
                            + injected("flow_dup_packets", flow))
            wire_bytes = (sender.bytes_registered
                          + sender.bytes_retransmitted
                          + injected("flow_dup_bytes", flow))
            arrived_packets = getattr(receiver, "packets_arrived", 0)
            arrived_bytes = getattr(receiver, "bytes_arrived", 0)
            dropped_packets = injected("flow_drop_packets", flow)
            dropped_bytes = injected("flow_drop_bytes", flow)
            if (arrived_packets + dropped_packets != wire_packets
                    or arrived_bytes + dropped_bytes != wire_bytes):
                violations.append(Violation(
                    self.layer, "byte-conservation",
                    f"on-wire {wire_packets} pkts/{wire_bytes} B "
                    f"(registered {sender.next_seq}/"
                    f"{sender.bytes_registered} + retx "
                    f"{sender.retransmissions}/"
                    f"{sender.bytes_retransmitted} + dup "
                    f"{injected('flow_dup_packets', flow)}/"
                    f"{injected('flow_dup_bytes', flow)}) != arrived "
                    f"{arrived_packets}/{arrived_bytes} + dropped "
                    f"{dropped_packets}/{dropped_bytes}",
                    flow=flow, t_ns=now))
            if sender.in_flight:
                violations.append(Violation(
                    self.layer, "window-not-drained",
                    f"{sender.in_flight} packets unacknowledged at "
                    "quiesce with no retransmit timer pending",
                    flow=flow, t_ns=now))
            elif receiver is not None:
                delivered_p = getattr(receiver, "packets_delivered", 0)
                delivered_b = getattr(receiver, "bytes_delivered", 0)
                if (delivered_p != sender.next_seq
                        or delivered_b != sender.bytes_registered):
                    violations.append(Violation(
                        self.layer, "exactly-once-delivery",
                        f"registered {sender.next_seq} pkts/"
                        f"{sender.bytes_registered} B but delivered "
                        f"{delivered_p}/{delivered_b} after dedup",
                        flow=flow, t_ns=now))
            elif sender.next_seq:
                violations.append(Violation(
                    self.layer, "exactly-once-delivery",
                    f"{sender.next_seq} packets registered but the "
                    "destination never instantiated a receiver flow",
                    flow=flow, t_ns=now))

        for cluster in auditor.clusters:
            for mcp in cluster.mcps:
                if not mcp.reliable:
                    continue
                if mcp._inflight_pool:
                    violations.append(Violation(
                        self.layer, "reassembly-residue",
                        f"{mcp.name}: {len(mcp._inflight_pool)} "
                        "system-pool buffers still claimed by in-flight "
                        f"messages {sorted(mcp._inflight_pool)}",
                        t_ns=now))
                for port in mcp.nic.ports.values():
                    if port.reassembly:
                        violations.append(Violation(
                            self.layer, "reassembly-residue",
                            f"{mcp.name} port {port.port_id}: partial "
                            f"messages {sorted(port.reassembly)} never "
                            "completed", t_ns=now))
        return violations


class KernelChecker:
    """Kernel: pin-down pages released at process exit; table entries
    always backed by a live pin (a desynced entry means some path
    unpinned a page behind the table's back — the double-unpin class).
    """

    layer = "kernel"

    def on_process_exit(self, auditor: "Auditor", node, proc) -> None:
        now = auditor.env.now
        violations = []
        if proc.space.pinned_pages:
            violations.append(Violation(
                self.layer, "pin-leak-at-exit",
                f"{node.name} pid {proc.pid} exited with "
                f"{proc.space.pinned_pages} pages still pinned",
                event=f"pid={proc.pid}", t_ns=now))
        if node.kernel is not None:
            stale = [key for key in node.kernel.pindown._entries
                     if key[0] == proc.pid]
            if stale:
                violations.append(Violation(
                    self.layer, "pindown-entries-at-exit",
                    f"{node.name} pid {proc.pid} exited leaving "
                    f"{len(stale)} pin-down table entries",
                    event=f"pid={proc.pid}", t_ns=now))
        if violations:
            auditor._raise(violations)

    def quiesce(self, auditor: "Auditor") -> list[Violation]:
        now = auditor.env.now
        violations: list[Violation] = []
        for cluster in auditor.clusters:
            for node in cluster.nodes:
                if node.kernel is None:
                    continue
                for (pid, vpage), space in \
                        node.kernel.pindown._entries.items():
                    if not space.is_pinned(vpage):
                        violations.append(Violation(
                            self.layer, "pindown-desync",
                            f"{node.name}: table entry (pid {pid}, page "
                            f"{vpage:#x}) is not pinned in the address "
                            "space (double unpin?)", t_ns=now))
        return violations


class BclChecker:
    """BCL/EADI: credit balance bounded by the initial grant; no
    credit/channel waiter survives endpoint teardown."""

    layer = "bcl"

    def __init__(self) -> None:
        self._endpoints: list[weakref.ref] = []

    def register_endpoint(self, endpoint) -> None:
        self._endpoints.append(weakref.ref(endpoint))

    def check_credits(self, auditor: "Auditor", endpoint,
                      peer_rank: int) -> None:
        balance = endpoint._credits.get(peer_rank, 0)
        if balance > endpoint._credits_initial:
            auditor._raise([Violation(
                self.layer, "credit-overflow",
                f"rank {endpoint.rank}: credit balance toward peer "
                f"{peer_rank} is {balance}, above the initial grant of "
                f"{endpoint._credits_initial} (double credit return?)",
                event=f"peer={peer_rank}", t_ns=auditor.env.now)])

    def on_teardown(self, auditor: "Auditor", endpoint) -> None:
        violations = self._teardown_violations(auditor.env.now, endpoint)
        if violations:
            auditor._raise(violations)

    def _teardown_violations(self, now: int, endpoint) -> list[Violation]:
        violations = []
        leaked = sum(len(w) for w in endpoint._credit_waiters.values())
        if leaked:
            violations.append(Violation(
                self.layer, "waiter-survived-teardown",
                f"rank {endpoint.rank}: {leaked} credit waiters still "
                "parked after endpoint teardown", t_ns=now))
        if endpoint._channel_waiters:
            violations.append(Violation(
                self.layer, "waiter-survived-teardown",
                f"rank {endpoint.rank}: "
                f"{len(endpoint._channel_waiters)} channel waiters "
                "still parked after endpoint teardown", t_ns=now))
        return violations

    def quiesce(self, auditor: "Auditor") -> list[Violation]:
        now = auditor.env.now
        violations: list[Violation] = []
        live = []
        for ref in self._endpoints:
            endpoint = ref()
            if endpoint is None:
                continue
            live.append(ref)
            if endpoint.closed:
                violations.extend(
                    self._teardown_violations(now, endpoint))
                continue
            for rank, waiters in endpoint._credit_waiters.items():
                for gate in waiters:
                    if not gate.triggered and not gate._callbacks:
                        violations.append(Violation(
                            self.layer, "orphaned-credit-waiter",
                            f"rank {endpoint.rank}: credit waiter "
                            f"toward peer {rank} has no callbacks; a "
                            "credit return would be lost",
                            event=repr(gate), t_ns=now))
        self._endpoints = live
        return violations


# ---------------------------------------------------------------- auditor
class Auditor:
    """Facade owning the layer checkers; installed as ``env._audit``."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.clusters: list = []
        self.sim = SimChecker()
        self.firmware = FirmwareChecker()
        self.kernel = KernelChecker()
        self.bcl = BclChecker()
        #: quiesce participants; extend with anything exposing
        #: ``quiesce(auditor) -> list[Violation]``
        self.checkers: list = [self.sim, self.firmware, self.kernel,
                               self.bcl]
        self.quiesce_checks = 0
        self.violations_raised = 0
        env._audit = self

    def bind_cluster(self, cluster: "Cluster") -> None:
        if cluster not in self.clusters:
            self.clusters.append(cluster)

    # ------------------------------------------------------ engine hooks
    def on_past_event(self, event, when: int, now: int) -> None:
        self._raise([Violation(
            "sim", "past-event",
            f"event scheduled for t={when} ns processed at t={now} ns",
            event=repr(event), t_ns=now)])

    def on_quiesce(self, env: "Environment") -> None:
        """The queue ran dry: every conservation equation must balance."""
        self.quiesce_checks += 1
        violations: list[Violation] = []
        for checker in self.checkers:
            violations.extend(checker.quiesce(self))
        if violations:
            self._raise(violations)

    def check_quiesce(self) -> None:
        """Run the quiesce checks explicitly (CLI/test entry point)."""
        self.on_quiesce(self.env)

    def _raise(self, violations: list[Violation]) -> None:
        self.violations_raised += len(violations)
        # Give the flight recorder (when riding along) its postmortem
        # before the violation propagates.  dump() is exception-safe by
        # contract, but guard anyway: a postmortem failure must never
        # mask the audit violation it documents.
        recorder = getattr(self.env, "_recorder", None)
        if recorder is not None:
            try:
                recorder.dump(
                    "audit: " + "; ".join(
                        f"{v.layer}/{v.rule}" for v in violations),
                    note="\n".join(v.format() for v in violations))
            except Exception:
                pass
        raise AuditError(violations)

    # --------------------------------------- instrumented-module hooks
    def register_store(self, store) -> None:
        self.sim.register_store(store)

    def register_resource(self, resource) -> None:
        self.sim.register_resource(resource)

    def register_sender(self, mcp, sender) -> None:
        self.firmware.register_sender(mcp, sender)

    def register_receiver(self, mcp, src_nic: int, receiver) -> None:
        self.firmware.register_receiver(self, mcp, src_nic, receiver)

    def register_eadi(self, endpoint) -> None:
        self.bcl.register_endpoint(endpoint)

    def on_process_exit(self, node, proc) -> None:
        self.kernel.on_process_exit(self, node, proc)

    def on_eadi_teardown(self, endpoint) -> None:
        self.bcl.on_teardown(self, endpoint)

    def check_credits(self, endpoint, peer_rank: int) -> None:
        self.bcl.check_credits(self, endpoint, peer_rank)

    # ------------------------------------------------------------ report
    def report(self) -> dict:
        """Summary counters for the CLI."""
        flows = sorted(self.firmware.senders)
        arrived = sum(getattr(r, "packets_arrived", 0)
                      for r, _ in self.firmware.receivers.values())
        delivered = sum(getattr(r, "packets_delivered", 0)
                        for r, _ in self.firmware.receivers.values())
        return {
            "flows_audited": len(flows),
            "packets_arrived": arrived,
            "packets_delivered": delivered,
            "stores_tracked": sum(1 for ref in self.sim._stores
                                  if ref() is not None),
            "resources_tracked": sum(1 for ref in self.sim._resources
                                     if ref() is not None),
            "eadi_endpoints": sum(1 for ref in self.bcl._endpoints
                                  if ref() is not None),
            "quiesce_checks": self.quiesce_checks,
            "violations": self.violations_raised,
        }
