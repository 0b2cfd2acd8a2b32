"""Deterministic fault-injection campaigns.

The paper's reliability claim — BCL "performs data checking and
guarantees reliable transmission in the on-card control program" — is
reproduced by the go-back-N state machines in
:mod:`repro.firmware.reliability`.  This module provides the adversary:
a seeded, fully deterministic fault model that sits on the fabric's
:class:`~repro.hw.link.Link` objects and exercises every recovery
branch of the protocol.  :func:`install_plan` (what
``Cluster(fault_plan=...)`` calls) is the one place that puts it there.

Two objects make up a campaign:

* :class:`FaultPlan` — a frozen, declarative description of the faults
  to inject: i.i.d. drop/corrupt/duplicate/reorder rates, a
  Gilbert–Elliott two-state burst-loss model, timed link *brownouts*
  (windows in which the link drops at an elevated rate), and a
  scripted ``drop_seqs`` list for hand-computable single-loss
  scenarios.  Plans are plain data: picklable, hashable, comparable —
  the same plan and seed always produce the same packet-level fate
  sequence, serial or under ``--jobs N``.
* :class:`FaultInjector` — the per-link runtime.  Each injector
  derives its PRNG stream from ``(plan.seed, scope name)``, so a
  cluster-wide installation is deterministic regardless of how
  many links exist or in which order packets interleave across links.

Injectors speak the *adjudication protocol*: ``adjudicate(packet)``
returns a list of ``(extra_delay_ns, packet)`` deliveries — ``[]``
drops the packet, one zero-delay entry passes it through, a corrupted
copy models wire bit errors (caught by the packet CRC), two entries
duplicate, and a delayed single entry reorders the packet past its
successors.  A test that needs an adversary no plan can express sets
``link.injector`` to a subclass that overrides :meth:`adjudicate`;
calling :meth:`FaultInjector._account_drop` keeps its drops on the
per-flow ledger the invariant auditor balances.

Every fault is recorded as a :class:`FaultEvent` (and, when a tracer
is attached, as a zero-duration ``fault`` trace record that the Chrome
trace export renders as an instant marker, so a Perfetto timeline
shows the fault alongside the go-back-N recovery).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.firmware.packet import SEQUENCED_TYPES, Packet, PacketType
from repro.sim import Environment, Tracer, us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster import Cluster

__all__ = [
    "Brownout",
    "FaultEvent",
    "FaultInjector",
    "FAULT_KINDS",
    "FaultPlan",
    "GilbertElliott",
    "derive_seed",
    "install_plan",
]

#: the injector's tally of each kind of fault, by attribute name
FAULT_KINDS = ("drops", "burst_drops", "brownout_drops", "scripted_drops",
               "corruptions", "duplicates", "reorders")

#: fault kinds that remove a DATA packet from the wire (open a loss
#: episode for time-to-recover accounting)
LOSS_KINDS = frozenset({"drop", "burst_drop", "brownout_drop", "corrupt",
                        "scripted_drop"})

#: Adjudication result: each entry is (extra_delay_ns, packet).
Outcome = List[Tuple[int, Packet]]


def derive_seed(base_seed: int, scope: str) -> int:
    """Stable per-scope PRNG seed: ``base_seed`` mixed with the scope name.

    Uses CRC-32 of the scope string (not :func:`hash`, which is
    randomised per process) so worker processes in a ``--jobs N`` run
    derive identical streams.
    """
    return (base_seed * 0x9E3779B1 + zlib.crc32(scope.encode())) & 0xFFFF_FFFF


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss model (Gilbert–Elliott).

    The channel is in a *good* or *bad* state; each adjudicated packet
    first transitions the state (``p_good_bad`` / ``p_bad_good``), then
    is lost with the state's loss rate.  The classic parametrisation
    for bursty links: low ``loss_good``, high ``loss_bad``, and mean
    burst length ``1 / p_bad_good`` packets.
    """

    p_good_bad: float = 0.01
    p_bad_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def validate(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"GilbertElliott.{name} must be a "
                                 f"probability, got {value}")


@dataclass(frozen=True)
class Brownout:
    """A timed degradation window: between ``start_us`` and ``end_us``
    (simulation time) the link drops packets at
    ``drop_rate`` (default: everything — a full link outage)."""

    start_us: float
    end_us: float
    drop_rate: float = 1.0

    def validate(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(
                f"brownout ends ({self.end_us}) before it starts "
                f"({self.start_us})")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(
                f"brownout drop_rate must be a probability, "
                f"got {self.drop_rate}")

    def covers(self, now_ns: int) -> bool:
        return us(self.start_us) <= now_ns < us(self.end_us)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of a fault campaign.

    All ``*_rate`` fields are independent per-packet probabilities,
    applied in order: brownout, burst model, drop, corrupt, duplicate,
    reorder.  ``drop_seqs`` deterministically drops the *first* wire
    copy of the listed go-back-N sequence numbers (per flow), for
    hand-computable recovery scenarios.  A plan with no faults
    configured (:meth:`is_null`) is behaviourally byte-identical to
    running with no injector installed at all.
    """

    seed: int = 1
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    #: extra in-flight delay applied to a reordered packet; it arrives
    #: after packets injected behind it, exercising the receiver's
    #: out-of-order handling
    reorder_delay_us: float = 40.0
    #: lag of the second copy of a duplicated packet
    duplicate_delay_us: float = 5.0
    burst: Optional[GilbertElliott] = None
    brownouts: Tuple[Brownout, ...] = ()
    #: deterministically drop the first copy of these DATA sequence
    #: numbers (per flow) — the scripted single-loss scenario
    drop_seqs: Tuple[int, ...] = ()
    #: leave ACK/NACK traffic untouched (the usual setting: the paper's
    #: reliability layer protects the data path; ack loss is exercised
    #: by dedicated tests)
    spare_acks: bool = True
    #: adjudicate a packet only while its source route is non-empty —
    #: on a single-switch fabric that judges each traversal exactly
    #: once, at the first hop.  With ``False`` every link on the path
    #: judges independently (per-hop loss).
    first_hop_only: bool = True

    def validate(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "duplicate_rate",
                     "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"FaultPlan.{name} must be a probability, got {value}")
        for name in ("reorder_delay_us", "duplicate_delay_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"FaultPlan.{name} must be non-negative")
        if self.burst is not None:
            self.burst.validate()
        for brownout in self.brownouts:
            brownout.validate()
        for seq in self.drop_seqs:
            if seq < 0:
                raise ValueError(f"drop_seqs entries must be >= 0, got {seq}")

    def is_null(self) -> bool:
        """True when the plan injects nothing (pass-through)."""
        return (self.drop_rate == 0.0 and self.corrupt_rate == 0.0
                and self.duplicate_rate == 0.0 and self.reorder_rate == 0.0
                and self.burst is None and not self.brownouts
                and not self.drop_seqs)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name in ("drop_rate", "corrupt_rate", "duplicate_rate",
                     "reorder_rate"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:g}")
        if self.burst is not None:
            parts.append(f"burst(p_gb={self.burst.p_good_bad:g}, "
                         f"p_bg={self.burst.p_bad_good:g})")
        if self.brownouts:
            parts.append(f"{len(self.brownouts)} brownout(s)")
        if self.drop_seqs:
            parts.append(f"drop_seqs={list(self.drop_seqs)}")
        return "FaultPlan(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for metrics and trace annotation."""

    t_ns: int
    kind: str          # drop | burst_drop | brownout_drop | scripted_drop
                       # | corrupt | duplicate | reorder
    scope: str         # link name
    ptype: str         # packet type value ("data", "ack", ...)
    seq: int
    message_id: int
    src_nic: int
    dst_nic: int
    packet_id: int


class FaultInjector:
    """Runtime fault adjudicator for one link.

    :func:`install_plan` sets one on every fabric link as
    ``link.injector``; ``scope`` is the link's name.

    Deterministic: the PRNG stream depends only on ``(plan.seed,
    scope)`` and the order of adjudicated packets, which the simulator
    fixes.  A null plan consumes no randomness and passes every packet
    through unchanged, making the installed-but-idle case byte-identical
    to no injector at all.
    """

    def __init__(self, env: Environment, plan: FaultPlan, scope: str,
                 tracer: Optional[Tracer] = None):
        plan.validate()
        self.env = env
        self.plan = plan
        self.scope = scope
        self.tracer = tracer
        self.rng = Random(derive_seed(plan.seed, scope))
        self._ge_bad = False
        #: flows for which a scripted drop_seqs entry already fired:
        #: {(src, dst, seq)} — only the first wire copy is dropped
        self._scripted_done: set = set()
        self.drops = 0
        self.burst_drops = 0
        self.brownout_drops = 0
        self.scripted_drops = 0
        self.corruptions = 0
        self.duplicates = 0
        self.reorders = 0
        self.events: list[FaultEvent] = []
        self.listeners: list[Callable[[FaultEvent], None]] = []
        # Per-flow ledger of removed/added wire copies of *sequenced*
        # packets, keyed (src_nic, dst_nic).  The audit layer balances
        # these against the go-back-N sender/receiver byte counters.
        self.flow_drop_packets: dict[tuple[int, int], int] = {}
        self.flow_drop_bytes: dict[tuple[int, int], int] = {}
        self.flow_dup_packets: dict[tuple[int, int], int] = {}
        self.flow_dup_bytes: dict[tuple[int, int], int] = {}

    def _account_drop(self, packet: Packet) -> None:
        if packet.ptype in SEQUENCED_TYPES:
            flow = (packet.src_nic, packet.dst_nic)
            self.flow_drop_packets[flow] = \
                self.flow_drop_packets.get(flow, 0) + 1
            self.flow_drop_bytes[flow] = \
                self.flow_drop_bytes.get(flow, 0) + len(packet.payload)

    def _account_dup(self, packet: Packet) -> None:
        if packet.ptype in SEQUENCED_TYPES:
            flow = (packet.src_nic, packet.dst_nic)
            self.flow_dup_packets[flow] = \
                self.flow_dup_packets.get(flow, 0) + 1
            self.flow_dup_bytes[flow] = \
                self.flow_dup_bytes.get(flow, 0) + len(packet.payload)

    # ------------------------------------------------------------- events
    def _record(self, kind: str, packet: Packet) -> None:
        event = FaultEvent(self.env.now, kind, self.scope,
                           packet.ptype.value, packet.seq, packet.message_id,
                           packet.src_nic, packet.dst_nic, packet.packet_id)
        self.events.append(event)
        for listener in self.listeners:
            listener(event)
        if self.tracer is not None and self.tracer.enabled:
            # Zero-duration span: the Chrome export renders category
            # "fault" records as instant markers on the scope's row.
            self.tracer.record(self.env.now, self.env.now, "fault", kind,
                               self.scope, packet.message_id or None,
                               seq=packet.seq, ptype=packet.ptype.value)

    # -------------------------------------------------------- adjudication
    def eligible(self, packet: Packet) -> bool:
        if self.plan.spare_acks and packet.ptype in (PacketType.ACK,
                                                     PacketType.NACK):
            return False
        if self.plan.first_hop_only and not packet.route:
            return False
        return True

    def adjudicate(self, packet: Packet) -> Outcome:
        """Decide the fate of ``packet``: a list of deliveries.

        ``[]`` means dropped; otherwise each ``(extra_delay_ns, pkt)``
        entry is delivered after the link's propagation delay plus the
        extra delay.
        """
        plan = self.plan
        if not self.eligible(packet):
            return [(0, packet)]

        # 1. Timed brownouts (deterministic windows, seeded rate inside).
        for brownout in plan.brownouts:
            if brownout.covers(self.env.now):
                if brownout.drop_rate >= 1.0 or \
                        self.rng.random() < brownout.drop_rate:
                    self.brownout_drops += 1
                    self._account_drop(packet)
                    self._record("brownout_drop", packet)
                    return []

        # 2. Scripted single drops (first wire copy of the listed seqs).
        if plan.drop_seqs and packet.ptype is PacketType.DATA:
            key = (packet.src_nic, packet.dst_nic, packet.seq)
            if packet.seq in plan.drop_seqs and \
                    key not in self._scripted_done:
                self._scripted_done.add(key)
                self.scripted_drops += 1
                self._account_drop(packet)
                self._record("scripted_drop", packet)
                return []

        # 3. Gilbert–Elliott burst state machine.
        if plan.burst is not None:
            ge = plan.burst
            if self._ge_bad:
                if self.rng.random() < ge.p_bad_good:
                    self._ge_bad = False
            else:
                if self.rng.random() < ge.p_good_bad:
                    self._ge_bad = True
            loss = ge.loss_bad if self._ge_bad else ge.loss_good
            if loss and self.rng.random() < loss:
                self.burst_drops += 1
                self._account_drop(packet)
                self._record("burst_drop", packet)
                return []

        # 4. Independent per-packet faults, in fixed order.
        if plan.drop_rate and self.rng.random() < plan.drop_rate:
            self.drops += 1
            self._account_drop(packet)
            self._record("drop", packet)
            return []
        if plan.corrupt_rate and self.rng.random() < plan.corrupt_rate:
            self.corruptions += 1
            self._record("corrupt", packet)
            return [(0, packet.copy(corrupted=True))]
        if plan.duplicate_rate and self.rng.random() < plan.duplicate_rate:
            self.duplicates += 1
            self._account_dup(packet)
            self._record("duplicate", packet)
            return [(0, packet), (us(plan.duplicate_delay_us),
                                  packet.copy())]
        if plan.reorder_rate and self.rng.random() < plan.reorder_rate:
            self.reorders += 1
            self._record("reorder", packet)
            return [(us(plan.reorder_delay_us), packet)]
        return [(0, packet)]

    @property
    def total_losses(self) -> int:
        return (self.drops + self.burst_drops + self.brownout_drops
                + self.scripted_drops)

    def register_metrics(self, registry) -> None:
        """Expose the faults injected on this link, one series per
        kind; together they count :attr:`events`."""
        for fault in FAULT_KINDS:
            registry.register_callback(
                "repro_faults_injected_total",
                lambda f=fault: getattr(self, f),
                "faults injected on the link, by kind", kind="counter",
                link=self.scope, fault=fault)


def install_plan(cluster: "Cluster", plan: FaultPlan) -> list[FaultInjector]:
    """Attach one seeded injector per fabric link.

    Each link's injector derives its PRNG stream from the link name, so
    the installation is independent of link construction order and
    identical across worker processes.  Returns the injectors (also
    recorded on ``cluster.fault_injectors``).
    """
    plan.validate()
    injectors = []
    for link in cluster.network.links:
        injector = FaultInjector(cluster.env, plan, link.name,
                                 cluster.tracer)
        link.injector = injector
        injectors.append(injector)
    return injectors
