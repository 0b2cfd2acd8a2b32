"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import DAWNING_3000
from repro.firmware.packet import (
    Packet,
    PacketType,
    compute_crc,
    fragment_offsets,
    segment_message,
)
from repro.firmware.mcp import slice_segments
from repro.firmware.reliability import GoBackNReceiver
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.kernel.pindown import PinDownTable
from repro.kernel.vm import AddressSpace
from repro.sim import Environment, Store


# ----------------------------------------------------------- segmentation
@given(payload=st.binary(max_size=50000),
       mtu=st.integers(min_value=1, max_value=8192))
def test_segmentation_reassembles_exactly(payload, mtu):
    frags = segment_message(payload, mtu)
    assert b"".join(p for _, p in frags) == payload
    # offsets are contiguous and fragments within the MTU
    cursor = 0
    for offset, frag in frags:
        assert offset == cursor
        assert len(frag) <= mtu
        cursor += len(frag)
    # a zero-length message still has exactly one fragment
    if not payload:
        assert len(frags) == 1


@given(total=st.integers(min_value=0, max_value=200000),
       mtu=st.integers(min_value=1, max_value=8192))
def test_fragment_offsets_consistent_with_segmentation(total, mtu):
    offsets = fragment_offsets(total, mtu)
    assert offsets == [o for o, _ in segment_message(b"\0" * total, mtu)]


# -------------------------------------------------------- scatter slicing
@st.composite
def segment_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    segments = []
    base = 0
    for _ in range(n):
        base += draw(st.integers(min_value=0, max_value=100))
        length = draw(st.integers(min_value=1, max_value=500))
        segments.append((base, length))
        base += length
    return segments


@given(segments=segment_lists(), data=st.data())
def test_slice_segments_matches_byte_slicing(segments, data):
    total = sum(length for _, length in segments)
    offset = data.draw(st.integers(min_value=0, max_value=total))
    length = data.draw(st.integers(min_value=0, max_value=total - offset))
    sliced = slice_segments(segments, offset, length)
    assert sum(seg_len for _, seg_len in sliced) == length
    # Simulate addressed bytes: each physical byte index appears in the
    # slice exactly when its logical index falls in [offset, offset+len).
    logical = []
    for paddr, seg_len in segments:
        logical.extend(range(paddr, paddr + seg_len))
    expected = logical[offset:offset + length]
    actual = []
    for paddr, seg_len in sliced:
        actual.extend(range(paddr, paddr + seg_len))
    assert actual == expected


# --------------------------------------------------------------------- CRC
@given(payload=st.binary(min_size=1, max_size=2048), data=st.data())
def test_crc_detects_any_single_byte_mutation(payload, data):
    index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    delta = data.draw(st.integers(min_value=1, max_value=255))
    mutated = bytearray(payload)
    mutated[index] = (mutated[index] + delta) % 256
    pkt = Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1, route=(0,),
                 payload=payload, total_length=len(payload))
    tampered = dataclasses.replace(pkt, payload=bytes(mutated))
    assert pkt.crc_ok()
    assert not tampered.crc_ok()


# -------------------------------------------------- go-back-N state machine
@given(deliveries=st.lists(st.integers(min_value=0, max_value=15),
                           max_size=60))
def test_receiver_delivers_in_order_exactly_once(deliveries):
    """Whatever (possibly duplicated, reordered) sequence numbers arrive,
    the receiver delivers each sequence number at most once, in order."""
    recv = GoBackNReceiver("prop")
    delivered = []
    for seq in deliveries:
        pkt = Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1,
                     route=(0,), payload=b"x", total_length=1)
        pkt = dataclasses.replace(pkt, seq=seq)
        ok, ack = recv.accept(pkt)
        if ok:
            delivered.append(seq)
        assert ack == recv.expected_seq
    assert delivered == sorted(set(delivered))
    assert delivered == list(range(len(delivered)))


# -------------------------------------------------------------- page tables
@given(sizes=st.lists(st.integers(min_value=1, max_value=5 * 4096),
                      min_size=1, max_size=6),
       data=st.data())
def test_address_space_segments_cover_requested_ranges(sizes, data):
    memory = PhysicalMemory(1 << 21)
    space = AddressSpace(FrameAllocator(memory), pid=1)
    regions = [space.alloc(size) for size in sizes]
    idx = data.draw(st.integers(min_value=0, max_value=len(sizes) - 1))
    vaddr, size = regions[idx], sizes[idx]
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    length = data.draw(st.integers(min_value=0, max_value=size - offset))
    segments = space.segments(vaddr + offset, length)
    assert sum(seg_len for _, seg_len in segments) == length
    # byte-accurate translation agreement
    if length:
        assert segments[0][0] == space.translate(vaddr + offset)
        last_paddr = segments[-1][0] + segments[-1][1] - 1
        assert last_paddr == space.translate(vaddr + offset + length - 1)


@given(payload=st.binary(min_size=1, max_size=3 * 4096), data=st.data())
def test_address_space_write_read_roundtrip(payload, data):
    memory = PhysicalMemory(1 << 20)
    space = AddressSpace(FrameAllocator(memory), pid=1)
    region = space.alloc(4 * 4096)
    offset = data.draw(st.integers(min_value=0,
                                   max_value=4 * 4096 - len(payload)))
    space.write(region + offset, payload)
    assert space.read(region + offset, len(payload)) == payload


@given(ops=st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=1, max_value=3)),
                    max_size=40))
def test_pindown_table_invariants(ops):
    """After any lookup sequence: table <= capacity, every tabled page is
    pinned, every evicted page is unpinned."""
    cfg = DAWNING_3000.replace(pindown_capacity_pages=4)
    table = PinDownTable(cfg)
    memory = PhysicalMemory(1 << 20)
    space = AddressSpace(FrameAllocator(memory), pid=1)
    buffers = [space.alloc(3 * 4096) for _ in range(8)]
    for buf_idx, pages in ops:
        nbytes = pages * 4096
        if pages > cfg.pindown_capacity_pages:
            continue
        table.lookup(space, buffers[buf_idx], nbytes)
        assert len(table) <= cfg.pindown_capacity_pages
    tabled = {vpage for (_pid, vpage) in table._entries}
    for buf in buffers:
        for vpage in space.pages_of(buf, 3 * 4096):
            if space.is_pinned(vpage):
                assert vpage in tabled
    for (_pid, vpage) in table._entries:
        assert space.is_pinned(vpage)


# ------------------------------------------------------------------- store
@given(script=st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers()),
    st.tuples(st.just("get"), st.just(0))), max_size=50))
def test_store_is_fifo_under_any_script(script):
    env = Environment()
    store = Store(env)
    pushed, popped = [], []
    for op, value in script:
        if op == "put":
            store.try_put(value)
            pushed.append(value)
        else:
            ok, item = store.try_get()
            if ok:
                popped.append(item)
    assert popped == pushed[:len(popped)]


# ------------------------------------------------------------ eadi envelope
@given(kind=st.integers(min_value=1, max_value=3),
       src=st.integers(min_value=0, max_value=2**15),
       tag=st.integers(min_value=-1, max_value=2**20),
       seq=st.integers(min_value=0, max_value=2**30),
       total=st.integers(min_value=0, max_value=2**40),
       op_id=st.integers(min_value=0, max_value=2**40),
       channel=st.integers(min_value=0, max_value=255),
       offset=st.integers(min_value=0, max_value=2**40))
def test_envelope_pack_unpack_roundtrip(kind, src, tag, seq, total, op_id,
                                        channel, offset):
    from repro.upper.eadi import ENVELOPE_BYTES, _pack_envelope, \
        _unpack_envelope
    raw = _pack_envelope(kind, src, tag, seq, total, op_id, channel, offset)
    assert len(raw) == ENVELOPE_BYTES
    assert _unpack_envelope(raw) == (kind, src, tag, seq, total, op_id,
                                     channel, offset)


# ----------------------------------------------- end-to-end payload fuzzing
@settings(max_examples=12, deadline=None)
@given(payload=st.binary(min_size=0, max_size=20000),
       seed_offset=st.integers(min_value=0, max_value=3))
def test_end_to_end_payload_integrity_random(payload, seed_offset):
    """Any payload crosses the full simulated stack bit-exactly."""
    from repro.cluster import Cluster
    from repro.bcl.api import BclLibrary
    from repro.firmware.packet import ChannelKind

    cluster = Cluster(n_nodes=2)
    env = cluster.env
    got = {}

    def receiver():
        proc = cluster.spawn(1)
        port = yield from BclLibrary(proc).create_port(2)
        buf = proc.alloc(max(len(payload), 1))
        yield from port.post_recv(0, buf, len(payload))
        got["addr"] = port.address
        yield from port.wait_recv()
        got["data"] = proc.read(buf, len(payload))

    def sender():
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port(1)
        while "addr" not in got:
            yield env.timeout(1000)
        buf = proc.alloc(max(len(payload), 1))
        proc.write(buf, payload)
        dest = got["addr"].with_channel(ChannelKind.NORMAL, 0)
        yield from port.send(dest, buf, len(payload))

    done = env.process(receiver())
    env.process(sender())
    env.run(until=done)
    assert got["data"] == payload


# ------------------------------------------------------------------ routing
@settings(max_examples=25, deadline=None)
@given(topology=st.sampled_from(["single_switch", "switch_tree", "mesh2d"]),
       n_nodes=st.integers(min_value=2, max_value=16),
       data=st.data())
def test_any_route_delivers_to_its_destination(topology, n_nodes, data):
    """Walking any precomputed source route through the actual fabric
    lands the packet at exactly the addressed node."""
    from repro.config import DAWNING_3000
    from repro.hw.network import build_network
    from repro.firmware.packet import Packet, PacketType

    env = Environment()
    net = build_network(env, DAWNING_3000, n_nodes, topology)
    src = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    if src == dst:
        return
    arrivals = []
    for node, endpoint in net.nic_endpoints.items():
        endpoint.attach(lambda pkt, node=node:
                        arrivals.append((node, pkt)))
    packet = Packet(ptype=PacketType.DATA, src_nic=src, dst_nic=dst,
                    route=net.route(src, dst), payload=b"r",
                    total_length=1)

    def inject():
        yield net.nic_endpoints[src].send(packet)

    env.process(inject())
    env.run()
    assert len(arrivals) == 1
    node, delivered = arrivals[0]
    assert node == dst
    assert delivered.route == ()
    assert delivered.payload == b"r"
