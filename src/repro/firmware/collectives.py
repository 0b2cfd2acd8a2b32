"""NIC-offloaded collectives: barrier/bcast/allreduce in MCP firmware.

The Quadrics/Myrinet NIC-based collective protocol, reproduced on the
BCL stack: each participating node's MCP joins a fan-in/fan-out tree
over the job's nodes.  Local ranks post a compact collective descriptor
(one kernel trap + a few PIO words — no per-peer message traffic); the
firmware counts local arrivals and per-child completions, combines
contributions NIC-side, sends one ``COLL_UP`` packet to its parent when
its subtree is complete, and releases everyone on the ``COLL_DOWN``
wave from the root.  The host never runs protocol code between the post
and the completion event, so the per-hop constant is the firmware's
``mcp_coll_proc_us`` + wire time instead of a full host send path.

Collective packets ride the same go-back-N reliable channel as DATA
(they are SEQUENCED), so a dropped fan-in packet retransmits instead of
deadlocking the tree.

Operation encodings (``Packet.coll_op``):

* ``"barrier"`` — fan-in counting, empty payload;
* ``"bcast"`` — no fan-in accounting: the payload-carrying node routes
  the data up to the tree root, which starts the fan-out wave;
* ``"red:<op>:<dtype>"`` — allreduce: contributions are reduced
  elementwise in firmware on the way up; the root's final array fans
  out as the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.firmware.packet import Packet, PacketType
from repro.sim import Event

if TYPE_CHECKING:  # annotation-only: the reduce branch imports numpy
    import numpy as np

__all__ = ["CollGroup", "NicCollectives", "build_node_tree",
           "next_group_id"]

_group_ids = itertools.count(1)


def next_group_id() -> int:
    """A cluster-unique NIC collective group id."""
    return next(_group_ids)


def build_node_tree(nodes: list[int], fanout: int) -> dict[int, tuple]:
    """A k-ary fan-in/fan-out tree over ``nodes`` (first node = root).

    Returns ``{node: (parent | None, (children...))}`` using heap
    indexing over the given order, so the tree is deterministic for a
    deterministic placement.
    """
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    out: dict[int, tuple] = {}
    n = len(nodes)
    for i, node in enumerate(nodes):
        parent = None if i == 0 else nodes[(i - 1) // fanout]
        children = tuple(nodes[c] for c in range(i * fanout + 1,
                                                 min(n, i * fanout + fanout + 1)))
        out[node] = (parent, children)
    return out


@dataclass(frozen=True)
class CollGroup:
    """One node's membership in a NIC collective tree."""

    group_id: int
    node: int
    parent: Optional[int]          # None at the tree root
    children: tuple[int, ...]
    n_local: int                   # ranks of the job placed on this node


@dataclass
class _Pending:
    """Firmware state of one in-flight collective (group, seq)."""

    local_arrived: int = 0
    #: per-child completion accounting: child node -> contributions seen
    child_done: dict[int, int] = field(default_factory=dict)
    acc: Optional[np.ndarray] = None    # partial reduction (allreduce)
    payload: bytes = b""                # bcast data seen so far
    waiters: list = field(default_factory=list)   # local completion Events
    up_sent: bool = False
    released: bool = False
    result: bytes = b""


class NicCollectives:
    """The collective engine of one NIC's MCP firmware."""

    def __init__(self, mcp):
        self.mcp = mcp
        self.env = mcp.env
        self.cfg = mcp.cfg
        self.groups: dict[int, CollGroup] = {}
        self._pending: dict[tuple[int, int], _Pending] = {}
        self.posts = 0            # local descriptors handled
        self.packets = 0          # COLL_UP/COLL_DOWN handled
        self.completions = 0      # completion events delivered

    # ------------------------------------------------------------ wiring
    def register_group(self, group: CollGroup) -> None:
        self.groups[group.group_id] = group

    def register_metrics(self, registry) -> None:
        nic = str(self.mcp.nic.node_id)
        for name, attr in (("repro_nic_coll_posts_total", "posts"),
                           ("repro_nic_coll_packets_total", "packets"),
                           ("repro_nic_coll_completions_total",
                            "completions")):
            registry.register_callback(
                name, lambda a=attr: getattr(self, a),
                kind="counter", nic=nic)

    # ----------------------------------------------------- host interface
    def post_local(self, group_id: int, seq: int, op: str,
                   payload: bytes) -> Event:
        """One local rank's contribution; returns its completion event.

        The caller has already paid the host-side descriptor post (trap
        + PIO); the firmware handling runs asynchronously from here.
        """
        done = Event(self.env)
        self.env.process(self._on_local_post(group_id, seq, op, payload,
                                             done))
        return done

    # ------------------------------------------------------ firmware side
    def _proc(self, seq: int) -> Generator:
        env = self.env
        start = env.now
        yield env.timeout(self.cfg.ns.mcp_coll_proc)
        tracer = self.mcp.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(start, env.now, "mcp", "mcp_coll_processing",
                          self.mcp.name, None, coll_seq=seq)

    def _state(self, group_id: int, seq: int) -> _Pending:
        return self._pending.setdefault((group_id, seq), _Pending())

    def _on_local_post(self, group_id: int, seq: int, op: str,
                       payload: bytes, done: Event) -> Generator:
        group = self.groups.get(group_id)
        if group is None:
            raise ValueError(
                f"{self.mcp.name}: collective post for unknown group "
                f"{group_id}")
        self.posts += 1
        yield from self._proc(seq)
        st = self._state(group_id, seq)
        st.waiters.append(done)
        st.local_arrived += 1
        self._combine(st, op, payload)
        if st.released:
            # The fan-out wave already passed (bcast can release before
            # every local rank has posted); complete this rank now.
            yield from self._complete_waiters(st)
            self._gc(group_id, seq, group, st)
            return
        if op == "bcast":
            # No fan-in accounting: only the payload carrier moves data
            # toward the root; everyone else just parks a waiter.
            if payload:
                if group.parent is None:
                    yield from self._release(group, seq, op, st)
                else:
                    yield from self._send_coll(PacketType.COLL_UP,
                                               group, group.parent, seq,
                                               op, payload)
            return
        yield from self._check_subtree(group, seq, op, st)

    def on_packet(self, packet: Packet) -> Generator:
        """Entry from the MCP receive engine (reliability already done)."""
        group = self.groups.get(packet.coll_group)
        if group is None:
            return  # stale packet for a finished job's group
        self.packets += 1
        yield from self._proc(packet.coll_seq)
        seq, op = packet.coll_seq, packet.coll_op
        st = self._state(group.group_id, seq)
        payload = bytes(packet.payload) if packet.payload else b""
        if packet.ptype is PacketType.COLL_UP:
            if op == "bcast":
                # Forward the carrier's data straight up; the root turns
                # it around into the fan-out wave.
                if group.parent is None:
                    st.payload = payload
                    yield from self._release(group, seq, op, st)
                else:
                    yield from self._send_coll(PacketType.COLL_UP, group,
                                               group.parent, seq, op,
                                               payload)
                return
            st.child_done[packet.src_nic] = \
                st.child_done.get(packet.src_nic, 0) + 1
            self._combine(st, op, payload)
            yield from self._check_subtree(group, seq, op, st)
        else:  # COLL_DOWN
            st.result = payload
            st.released = True
            for child in group.children:
                yield from self._send_coll(PacketType.COLL_DOWN, group,
                                           child, seq, op, payload)
            yield from self._complete_waiters(st)
            self._gc(group.group_id, seq, group, st)

    # ------------------------------------------------------- state machine
    def _combine(self, st: _Pending, op: str, payload: bytes) -> None:
        if op.startswith("red:") and payload:
            import numpy as np

            from repro.upper.collectives import REDUCE_OPS
            _, red, dtype = op.split(":")
            arr = np.frombuffer(payload, dtype=dtype)
            st.acc = arr.copy() if st.acc is None \
                else REDUCE_OPS[red](st.acc, arr)
        elif op == "bcast" and payload:
            st.payload = payload

    def _check_subtree(self, group: CollGroup, seq: int, op: str,
                       st: _Pending) -> Generator:
        """Fan-in: act once every local rank and every child subtree is
        accounted for (the per-child completion bookkeeping)."""
        if st.up_sent or st.released:
            return
        if st.local_arrived < group.n_local:
            return
        if any(st.child_done.get(c, 0) < 1 for c in group.children):
            return
        if group.parent is None:
            yield from self._release(group, seq, op, st)
        else:
            st.up_sent = True
            payload = st.acc.tobytes() if st.acc is not None else b""
            yield from self._send_coll(PacketType.COLL_UP, group,
                                       group.parent, seq, op, payload)

    def _release(self, group: CollGroup, seq: int, op: str,
                 st: _Pending) -> Generator:
        """Tree root: start the fan-out wave and complete local ranks."""
        if st.released:
            return
        st.released = True
        st.result = st.acc.tobytes() if st.acc is not None else st.payload
        for child in group.children:
            yield from self._send_coll(PacketType.COLL_DOWN, group, child,
                                       seq, op, st.result)
        yield from self._complete_waiters(st)
        self._gc(group.group_id, seq, group, st)

    def _send_coll(self, ptype: PacketType, group: CollGroup,
                   dst_node: int, seq: int, op: str,
                   payload: bytes) -> Generator:
        route = self.mcp.nic.network.route(group.node, dst_node)
        packet = Packet(
            ptype=ptype, src_nic=group.node, dst_nic=dst_node,
            route=route, coll_group=group.group_id, coll_seq=seq,
            coll_op=op, payload=payload, total_length=len(payload))
        yield from self.mcp._ship(packet, dst_node, [])

    def _complete_waiters(self, st: _Pending) -> Generator:
        """Completion-event DMA + wakeup for every parked local rank."""
        waiters, st.waiters = st.waiters, []
        for done in waiters:
            yield from self.mcp.nic.pci.dma(
                self.cfg.event_record_bytes, stage="dma_completion_event")
            self.completions += 1
            done.succeed(st.result)

    def _gc(self, group_id: int, seq: int, group: CollGroup,
            st: _Pending) -> None:
        """Drop the per-collective state once nothing more can arrive."""
        if st.released and not st.waiters \
                and st.local_arrived >= group.n_local:
            self._pending.pop((group_id, seq), None)
