"""EADI-2: the Extended Abstract Device Interface over BCL.

"DAWNING-3000 implements PVM on a middle-level form communication
library EADI-2.  ADI is a standard defined to support the
implementation of MPI.  EADI-2 extends ADI-2 to fulfil the requirements
of PVM implementation." (paper section 2.1)

What the layer provides on top of raw BCL:

* **matched messaging** — (source rank, tag) matching with wildcards,
  a posted-receive queue and an unexpected-message queue;
* **eager protocol** — payloads up to ``eadi_eager_threshold`` travel
  through the destination's *system channel* with a 48-byte envelope
  prepended (one sender-side staging copy, one receiver-side copy out
  of the pool buffer);
* **segmented rendezvous** — larger payloads are announced with an RTS
  envelope; the receiver grants one ``eadi_segment_bytes`` segment at a
  time by posting a *normal channel* descriptor that points directly
  into the application buffer (zero-copy) and answering with a CTS;
* **a progress engine** — any blocked operation drains the port's
  completion queues and dispatches protocol events, so sends progress
  while the process waits in a receive and vice versa.

The layer itself charges only the copies it genuinely performs; the
per-operation and per-segment library costs that differentiate MPI from
PVM are injected by those wrappers (``per_op_*``/``per_segment_us``).
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.bcl.address import BclAddress
from repro.bcl.api import BclPort
from repro.firmware.descriptors import BclEvent, EventKind
from repro.firmware.packet import ChannelKind
from repro.kernel.errors import BclError
from repro.sim import Event, Resource

__all__ = ["ANY_SOURCE", "ANY_TAG", "EadiEndpoint", "RecvStatus"]

ANY_SOURCE = -1
ANY_TAG = -1

#: envelope layout: kind, src_rank, tag, seq, total_length, op_id,
#: channel_index, segment_offset  (+ padding to a fixed 48 bytes)
_ENVELOPE = struct.Struct("<BiiIQQiQ")
ENVELOPE_BYTES = 48

_K_EAGER = 1
_K_RTS = 2
_K_CTS = 3
_K_CREDIT = 4

_op_ids = itertools.count(1)


def _pack_envelope(kind: int, src_rank: int, tag: int, seq: int,
                   total_length: int, op_id: int, channel_index: int = 0,
                   segment_offset: int = 0) -> bytes:
    raw = _ENVELOPE.pack(kind, src_rank, tag, seq, total_length, op_id,
                         channel_index, segment_offset)
    return raw.ljust(ENVELOPE_BYTES, b"\0")


def _unpack_envelope(data: bytes):
    return _ENVELOPE.unpack(data[:_ENVELOPE.size])


@dataclass
class RecvStatus:
    """Completion record of a matched receive."""

    src_rank: int
    tag: int
    length: int


@dataclass
class _SendOp:
    op_id: int
    dst_rank: int
    vaddr: int
    nbytes: int
    tag: int
    done: Event
    granted: deque = field(default_factory=deque)  # (offset, channel)
    segments_sent: int = 0
    segments_total: int = 0


@dataclass
class _PostedRecv:
    src_rank: int
    tag: int
    vaddr: int
    capacity: int
    done: Event
    status: Optional[RecvStatus] = None


@dataclass
class _Unexpected:
    """An eager payload or RTS that arrived before its receive."""

    kind: int
    src_rank: int
    tag: int
    total_length: int
    op_id: int
    data: bytes = b""            # eager only: buffered payload
    src_address: Optional[BclAddress] = None


@dataclass
class _RendezvousIn:
    """Receiver-side state of one in-progress rendezvous."""

    posted: _PostedRecv
    src_rank: int
    tag: int
    total_length: int
    op_id: int
    received: int = 0
    channel: int = -1


class _CreditGate(Event):
    """A parked credit waiter that withdraws itself when orphaned.

    If the waiting process is interrupted while parked (the engine
    strips the last callback off the untriggered gate), the gate leaves
    its endpoint's ``_credit_waiters`` list instead of lingering there —
    the same discipline Store/Resource waiters follow.
    """

    __slots__ = ("endpoint", "dst_rank")

    def __init__(self, endpoint: "EadiEndpoint", dst_rank: int):
        super().__init__(endpoint.env)
        self.endpoint = endpoint
        self.dst_rank = dst_rank

    def _on_orphaned(self) -> None:
        waiters = self.endpoint._credit_waiters.get(self.dst_rank)
        if waiters and self in waiters:
            waiters.remove(self)
            self.endpoint.withdrawn_waiters += 1
            if not waiters:
                del self.endpoint._credit_waiters[self.dst_rank]


class EadiEndpoint:
    """One rank's EADI instance, layered on a BCL (or user-level) port."""

    # ``__weakref__``: the auditor tracks endpoints through weak refs.
    __slots__ = ("rank", "port", "lib", "env", "cfg", "addresses",
                 "per_op_send_us", "per_op_recv_us", "per_op_match_us",
                 "inter_node_extra_us", "per_segment_us", "_send_seq",
                 "_posted", "_unexpected", "_send_ops", "_rndv_by_channel",
                 "_staging", "_staging_lock", "_free_channels",
                 "_channel_waiters", "_credits_initial", "_credit_batch",
                 "_credits", "_credit_waiters", "_owed", "credit_stalls",
                 "_stall_hist", "eager_sends", "rendezvous_sends",
                 "unexpected_count", "withdrawn_waiters", "closed",
                 "_audit", "__weakref__")

    def __init__(self, rank: int, port: BclPort,
                 rank_addresses: dict[int, BclAddress],
                 per_op_send_us: float = 0.0,
                 per_op_recv_us: float = 0.0,
                 per_op_match_us: float = 0.0,
                 inter_node_extra_us: float = 0.0,
                 per_segment_us: float = 0.0):
        self.rank = rank
        self.port = port
        self.lib = port.lib
        self.env = port.env
        self.cfg = port.cfg
        self.addresses = rank_addresses
        self.per_op_send_us = per_op_send_us
        self.per_op_recv_us = per_op_recv_us
        self.per_op_match_us = per_op_match_us
        self.inter_node_extra_us = inter_node_extra_us
        self.per_segment_us = per_segment_us
        self._send_seq: dict[int, int] = {}
        self._posted: list[_PostedRecv] = []
        self._unexpected: list[_Unexpected] = []
        self._send_ops: dict[int, _SendOp] = {}
        self._rndv_by_channel: dict[int, _RendezvousIn] = {}
        proc = self.lib.proc
        self._staging = proc.alloc(self.cfg.eadi_eager_threshold
                                   + ENVELOPE_BYTES)
        self._staging_lock = Resource(self.env)
        n_channels = len(port.state.normal)
        self._free_channels: list[int] = list(range(n_channels))
        self._channel_waiters: list[tuple[Event, "_RendezvousIn"]] = []
        # Credit-based eager flow control: the destination's system-pool
        # buffers are finite and drop on overflow (BCL semantics), so
        # each peer may only have a bounded number of envelopes in
        # flight toward us.  Reverse control traffic (CTS/CREDIT) rides
        # on a reserved margin.
        pool_size = len(port.state.system_pool_all)
        n_peers = max(len(rank_addresses) - 1, 1)
        self._credits_initial = max(
            1, (pool_size - n_peers - 2) // n_peers)
        self._credit_batch = max(1, self._credits_initial // 2)
        self._credits: dict[int, int] = {}
        self._credit_waiters: dict[int, list[Event]] = {}
        self._owed: dict[int, int] = {}
        self.credit_stalls = 0
        #: set by TelemetrySession.register_eadi — histogram of sim-ns
        #: spent parked per credit stall
        self._stall_hist = None
        self.eager_sends = 0
        self.rendezvous_sends = 0
        self.unexpected_count = 0
        #: waiters removed because their process was interrupted or the
        #: endpoint was torn down
        self.withdrawn_waiters = 0
        self.closed = False
        self._audit = getattr(self.env, "_audit", None)
        if self._audit is not None:
            self._audit.register_eadi(self)
        telemetry = getattr(self.env, "_telemetry", None)
        if telemetry is not None:
            telemetry.register_eadi(self)

    # ------------------------------------------------------------- helpers
    def _charge(self, cost_us: float, stage: str) -> Generator:
        # Not a generator itself (it returns the CPU charge, or () for
        # no cost); the annotation keeps the bare-call lint covering it.
        if cost_us <= 0:
            return ()
        return self.lib.proc.cpu.execute(cost_us, category="upper",
                                         stage=stage)

    def _copy_cost(self, nbytes: int) -> float:
        return self.cfg.memcpy_setup_us + nbytes / self.cfg.memcpy_mb_s

    def _address_of(self, rank: int) -> BclAddress:
        try:
            return self.addresses[rank]
        except KeyError:
            raise BclError(f"rank {rank} is not part of this job") from None

    def _is_remote(self, rank: int) -> bool:
        return self._address_of(rank).node != self.lib.proc.node.node_id

    def _next_seq(self, dst_rank: int) -> int:
        seq = self._send_seq.get(dst_rank, 0)
        self._send_seq[dst_rank] = seq + 1
        return seq

    # --------------------------------------------------- eager credits
    def _acquire_credit(self, dst_rank: int) -> Generator:
        """Block until an eager credit toward ``dst_rank`` is free.

        While stalled, the endpoint keeps making protocol progress so
        the peer's CREDIT envelopes (and everything else) are handled —
        otherwise two mutually-stalled endpoints would deadlock.
        """
        self._credits.setdefault(dst_rank, self._credits_initial)
        while self._credits[dst_rank] <= 0:
            # Each park is a distinct stall: a waiter woken by a
            # recv-queue event (not its gate) that finds the balance
            # still empty re-parks, and that re-park must count.
            self.credit_stalls += 1
            stalled_at = self.env.now
            gate = _CreditGate(self, dst_rank)
            self._credit_waiters.setdefault(dst_rank, []).append(gate)
            yield self.env.any_of([gate,
                                   self.port.recv_queue.wakeup_event(),
                                   self.port._shm_wakeup_event()])
            if not gate.triggered:
                # Woken by the recv queue, not the gate: withdraw the
                # stale gate so it cannot absorb a future wake slot
                # that a genuinely-parked waiter needs.
                waiters = self._credit_waiters.get(dst_rank)
                if waiters is not None and gate in waiters:
                    waiters.remove(gate)
                    if not waiters:
                        del self._credit_waiters[dst_rank]
            if self._stall_hist is not None:
                self._stall_hist.observe(self.env.now - stalled_at)
            yield from self.progress()
        self._credits[dst_rank] -= 1

    def _release_credits(self, src_rank: int, count: int) -> None:
        self._credits[src_rank] = \
            self._credits.setdefault(src_rank, self._credits_initial) + count
        if self._audit is not None:
            self._audit.check_credits(self, src_rank)
        # Wake at most ``count`` waiters, oldest first; the remainder
        # stay parked.  Waking everyone makes N waiters re-contend for
        # ``count`` credits and N-count of them re-park on every
        # release — a thundering herd under serving-style fan-in.
        waiters = self._credit_waiters.get(src_rank)
        if not waiters:
            return
        for _ in range(min(count, len(waiters))):
            gate = waiters.pop(0)
            if not gate.triggered:
                gate.succeed()
        if not waiters:
            del self._credit_waiters[src_rank]

    def _account_envelope_received(self, src_rank: int) -> Generator:
        """A credit-consuming envelope was drained from the pool: owe
        the sender a credit, returned in batches."""
        owed = self._owed.get(src_rank, 0) + 1
        if owed >= self._credit_batch:
            self._owed[src_rank] = 0
            yield from self._send_envelope(
                src_rank, _pack_envelope(_K_CREDIT, self.rank, 0, 0,
                                         owed, 0),
                consume_credit=False)
        else:
            self._owed[src_rank] = owed

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Tear down the endpoint: withdraw every parked credit and
        channel waiter so none survives into a dead endpoint.

        Deliberately *not* a generator — teardown must be callable from
        plain (non-process) cleanup paths and costs nothing.  Idempotent.
        """
        if self.closed:
            return
        for waiters in self._credit_waiters.values():
            self.withdrawn_waiters += len(waiters)
        self._credit_waiters.clear()
        self.withdrawn_waiters += len(self._channel_waiters)
        self._channel_waiters.clear()
        self.closed = True
        if self._audit is not None:
            self._audit.on_eadi_teardown(self)

    # -------------------------------------------------------------- sending
    def isend(self, dst_rank: int, vaddr: int, nbytes: int,
              tag: int = 0) -> Generator:
        """Start a send; returns a :class:`_SendOp` whose ``done`` event
        fires at local completion."""
        yield from self._charge(self.per_op_send_us, "eadi_send")
        if self._is_remote(dst_rank):
            yield from self._charge(self.inter_node_extra_us,
                                    "eadi_inter_extra")
        # Opportunistic progress: drain any pending protocol events
        # (notably CREDIT returns) before spending our own credits.
        # The emptiness check is free; costs are charged only when
        # there is actually something to dispatch.
        if len(self.port.recv_queue) or self.port._shm_pending:
            yield from self.progress()
        op = _SendOp(op_id=next(_op_ids), dst_rank=dst_rank, vaddr=vaddr,
                     nbytes=nbytes, tag=tag, done=Event(self.env))
        if nbytes <= self.cfg.eadi_eager_threshold:
            self.eager_sends += 1
            yield from self._send_eager(op)
        else:
            self.rendezvous_sends += 1
            self._send_ops[op.op_id] = op
            segment = self.cfg.eadi_segment_bytes
            op.segments_total = -(-nbytes // segment)
            yield from self._send_envelope(
                dst_rank, _pack_envelope(_K_RTS, self.rank, tag,
                                         self._next_seq(dst_rank), nbytes,
                                         op.op_id))
        return op

    def send(self, dst_rank: int, vaddr: int, nbytes: int,
             tag: int = 0) -> Generator:
        """Blocking send (returns at local completion)."""
        op = yield from self.isend(dst_rank, vaddr, nbytes, tag)
        yield from self._progress_until(op.done)

    def _send_envelope(self, dst_rank: int, envelope: bytes,
                       payload_vaddr: Optional[int] = None,
                       payload_len: int = 0,
                       consume_credit: bool = True) -> Generator:
        """Ship an envelope (+ optional eager payload) via the system
        channel, through the shared staging buffer.

        ``consume_credit``: EAGER and RTS envelopes consume one of the
        destination pool's credits; reverse control traffic (CTS,
        CREDIT) rides the reserved margin instead.
        """
        proc = self.lib.proc
        if consume_credit:
            yield from self._acquire_credit(dst_rank)
        with self._staging_lock.request() as lock:
            yield lock
            proc.write(self._staging, envelope)
            if payload_len:
                yield from self._charge(self._copy_cost(payload_len),
                                        "eager_staging_copy")
                proc.write(self._staging + ENVELOPE_BYTES,
                           proc.read(payload_vaddr, payload_len))
            dest = self._address_of(dst_rank)
            yield from self.port.send_system(dest, self._staging,
                                             ENVELOPE_BYTES + payload_len)
            # Local completion of the system-channel send frees staging.
            yield from self._reap_send_completion()

    def _send_eager(self, op: _SendOp) -> Generator:
        envelope = _pack_envelope(_K_EAGER, self.rank, op.tag,
                                  self._next_seq(op.dst_rank), op.nbytes,
                                  op.op_id)
        yield from self._send_envelope(op.dst_rank, envelope, op.vaddr,
                                       op.nbytes)
        op.done.succeed()

    def _reap_send_completion(self) -> Generator:
        """Wait for the next SEND_DONE on the port (ours: the port is
        driven only through this endpoint, and sends are serialised by
        the staging/segment flow)."""
        while True:
            event = yield from self.port.poll_send()
            if event is not None:
                return event
            yield self.port.send_queue.wakeup_event()

    # ------------------------------------------------------------ receiving
    def irecv(self, src_rank: int, tag: int, vaddr: int,
              capacity: int) -> Generator:
        """Post a receive; returns a :class:`_PostedRecv`."""
        yield from self._charge(self.per_op_recv_us, "eadi_recv")
        posted = _PostedRecv(src_rank=src_rank, tag=tag, vaddr=vaddr,
                             capacity=capacity, done=Event(self.env))
        match = self._match_unexpected(posted)
        if match is not None:
            yield from self._charge(self.per_op_match_us, "eadi_match")
            yield from self._consume_unexpected(posted, match)
        else:
            self._posted.append(posted)
        return posted

    def recv(self, src_rank: int, tag: int, vaddr: int,
             capacity: int) -> Generator:
        """Blocking receive; returns a :class:`RecvStatus`."""
        posted = yield from self.irecv(src_rank, tag, vaddr, capacity)
        yield from self._progress_until(posted.done)
        return posted.status

    def wait(self, op) -> Generator:
        """Wait on a handle returned by isend/irecv."""
        yield from self._progress_until(op.done)
        return getattr(op, "status", None)

    def waitall(self, ops) -> Generator:
        """Wait on several handles; returns their statuses in order."""
        statuses = []
        for op in ops:
            status = yield from self.wait(op)
            statuses.append(status)
        return statuses

    def iprobe(self, src_rank: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Generator:
        """Non-blocking probe: drain pending events, then report whether
        a matching message is waiting.  Returns (src, tag, length) or
        None."""
        yield from self.progress()
        yield from self._charge(self.per_op_match_us, "eadi_probe")
        for msg in self._unexpected:
            if self._matches(src_rank, tag, msg.src_rank, msg.tag):
                return (msg.src_rank, msg.tag, msg.total_length)
        return None

    def probe(self, src_rank: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator:
        """Blocking probe; returns (src, tag, length) once a matching
        message is queued (without receiving it)."""
        while True:
            found = yield from self.iprobe(src_rank, tag)
            if found is not None:
                return found
            yield self.env.any_of([self.port.recv_queue.wakeup_event(),
                                   self.port._shm_wakeup_event()])

    # ------------------------------------------------------------- matching
    @staticmethod
    def _matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
        return (want_src in (ANY_SOURCE, src)) and (want_tag in (ANY_TAG, tag))

    def _match_unexpected(self, posted: _PostedRecv) -> Optional[_Unexpected]:
        for msg in self._unexpected:
            if self._matches(posted.src_rank, posted.tag, msg.src_rank,
                             msg.tag):
                self._unexpected.remove(msg)
                return msg
        return None

    def _match_posted(self, src_rank: int, tag: int) -> Optional[_PostedRecv]:
        for posted in self._posted:
            if self._matches(posted.src_rank, posted.tag, src_rank, tag):
                self._posted.remove(posted)
                return posted
        return None

    def _consume_unexpected(self, posted: _PostedRecv,
                            msg: _Unexpected) -> Generator:
        if msg.kind == _K_EAGER:
            if msg.total_length > posted.capacity:
                raise BclError(
                    f"message of {msg.total_length} bytes overflows the "
                    f"{posted.capacity}-byte receive buffer")
            if msg.total_length:
                yield from self._charge(self._copy_cost(msg.total_length),
                                        "unexpected_copy_out")
                self.lib.proc.write(posted.vaddr, msg.data)
            self._complete_recv(posted, msg.src_rank, msg.tag,
                                msg.total_length)
        else:  # RTS arrived before the receive was posted
            yield from self._start_rendezvous(posted, msg.src_rank, msg.tag,
                                              msg.total_length, msg.op_id)

    def _complete_recv(self, posted: _PostedRecv, src_rank: int, tag: int,
                       length: int) -> None:
        posted.status = RecvStatus(src_rank=src_rank, tag=tag, length=length)
        posted.done.succeed()

    # ------------------------------------------------------------ rendezvous
    def _start_rendezvous(self, posted: _PostedRecv, src_rank: int,
                          tag: int, total_length: int,
                          op_id: int) -> Generator:
        if total_length > posted.capacity:
            raise BclError(
                f"message of {total_length} bytes overflows the "
                f"{posted.capacity}-byte receive buffer")
        rndv = _RendezvousIn(posted=posted, src_rank=src_rank, tag=tag,
                             total_length=total_length, op_id=op_id)
        yield from self._grant_next_segment(rndv)

    def _grant_next_segment(self, rndv: _RendezvousIn) -> Generator:
        """Post the next segment's buffer and send the CTS."""
        yield from self._charge(self.per_segment_us, "eadi_segment")
        if not self._free_channels:
            gate = Event(self.env)
            self._channel_waiters.append((gate, rndv))
            return
        channel = self._free_channels.pop(0)
        rndv.channel = channel
        offset = rndv.received
        seg_len = min(self.cfg.eadi_segment_bytes,
                      rndv.total_length - offset)
        yield from self.port.post_recv(channel,
                                       rndv.posted.vaddr + offset, seg_len)
        self._rndv_by_channel[channel] = rndv
        yield from self._send_envelope(
            rndv.src_rank,
            _pack_envelope(_K_CTS, self.rank, rndv.tag, 0,
                           rndv.total_length, rndv.op_id,
                           channel_index=channel, segment_offset=offset),
            consume_credit=False)

    def _segment_arrived(self, event: BclEvent) -> Generator:
        rndv = self._rndv_by_channel.pop(event.channel_index, None)
        if rndv is None:
            raise BclError(
                f"rank {self.rank}: rendezvous data on unknown channel "
                f"{event.channel_index}")
        rndv.received += event.length
        self._release_channel(event.channel_index)
        if rndv.received >= rndv.total_length:
            yield from self._charge(self.per_op_match_us, "eadi_match")
            self._complete_recv(rndv.posted, rndv.src_rank, rndv.tag,
                                rndv.total_length)
        else:
            yield from self._grant_next_segment(rndv)

    def _release_channel(self, channel: int) -> None:
        self._free_channels.append(channel)
        if self._channel_waiters:
            gate, rndv = self._channel_waiters.pop(0)
            self.env.process(self._grant_next_segment(rndv))
            gate.succeed()

    def _cts_received(self, op_id: int, channel: int,
                      offset: int) -> Generator:
        op = self._send_ops.get(op_id)
        if op is None:
            raise BclError(f"rank {self.rank}: CTS for unknown op {op_id}")
        yield from self._charge(self.per_segment_us, "eadi_segment")
        seg_len = min(self.cfg.eadi_segment_bytes, op.nbytes - offset)
        dest = self._address_of(op.dst_rank).with_channel(
            ChannelKind.NORMAL, channel)
        yield from self.port.send(dest, op.vaddr + offset, seg_len)
        yield from self._reap_send_completion()
        op.segments_sent += 1
        if op.segments_sent >= op.segments_total:
            del self._send_ops[op.op_id]
            op.done.succeed()

    # -------------------------------------------------------------- progress
    def _progress_until(self, done: Event) -> Generator:
        while not done.triggered:
            event = yield from self.port.poll_recv()
            if event is not None:
                yield from self._dispatch(event)
                continue
            if done.triggered:
                break
            yield self.env.any_of([done,
                                   self.port.recv_queue.wakeup_event(),
                                   self.port._shm_wakeup_event()])

    def progress(self) -> Generator:
        """Drain any pending protocol events without blocking."""
        while True:
            event = yield from self.port.poll_recv()
            if event is None:
                return
            yield from self._dispatch(event)

    def _dispatch(self, event: BclEvent) -> Generator:
        if event.kind is EventKind.RECV_DONE and \
                event.channel_kind is ChannelKind.SYSTEM:
            raw = yield from self.port.recv_system(event)
            yield from self._handle_envelope(raw, event)
        elif event.kind is EventKind.RECV_DONE and \
                event.channel_kind is ChannelKind.NORMAL:
            yield from self._segment_arrived(event)
        # other kinds (RMA events) are not EADI traffic; ignore

    def _handle_envelope(self, raw: bytes, event: BclEvent) -> Generator:
        kind, src_rank, tag, _seq, total, op_id, channel, offset = \
            _unpack_envelope(raw)
        if kind == _K_CREDIT:
            self._release_credits(src_rank, total)
            return
        if kind == _K_CTS:
            yield from self._cts_received(op_id, channel, offset)
            return
        # EAGER and RTS consumed one of our pool credits: owe it back.
        yield from self._account_envelope_received(src_rank)
        posted = self._match_posted(src_rank, tag)
        if kind == _K_EAGER:
            data = raw[ENVELOPE_BYTES:ENVELOPE_BYTES + total]
            if posted is None:
                self.unexpected_count += 1
                # Buffer the payload: a real ADI copies it to an
                # unexpected-queue buffer; charge that copy.
                yield from self._charge(self._copy_cost(total),
                                        "unexpected_buffering")
                self._unexpected.append(_Unexpected(
                    kind=_K_EAGER, src_rank=src_rank, tag=tag,
                    total_length=total, op_id=op_id, data=data))
                return
            yield from self._charge(self.per_op_match_us, "eadi_match")
            if total > posted.capacity:
                raise BclError(
                    f"message of {total} bytes overflows the "
                    f"{posted.capacity}-byte receive buffer")
            if total:
                yield from self._charge(self._copy_cost(total),
                                        "eager_copy_out")
                self.lib.proc.write(posted.vaddr, data)
            self._complete_recv(posted, src_rank, tag, total)
        elif kind == _K_RTS:
            if posted is None:
                self.unexpected_count += 1
                self._unexpected.append(_Unexpected(
                    kind=_K_RTS, src_rank=src_rank, tag=tag,
                    total_length=total, op_id=op_id))
                return
            yield from self._charge(self.per_op_match_us, "eadi_match")
            yield from self._start_rendezvous(posted, src_rank, tag, total,
                                              op_id)
        else:
            raise BclError(f"corrupt envelope kind {kind}")
