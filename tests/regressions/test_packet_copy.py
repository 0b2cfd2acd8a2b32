"""Packet copies keep every field and never restamp the CRC; trace
records are immutable.

A packet is copied on every switch hop (``Packet.hop``), when go-back-N
stamps its sequence number (``GoBackNSender.register``) and when the
fault injector corrupts or duplicates it.  Each copy is field for field:
it keeps ``packet_id`` and ``corrupted``, shares the payload object,
leaves the original untouched and does not recompute ``crc`` — the CRC
is stamped once, when the packet is created, so a copy made after the
payload changed must still carry the stale CRC for ``crc_ok`` to catch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DAWNING_3000
from repro.faults import FaultInjector, FaultPlan
from repro.firmware.packet import (
    ChannelKind,
    Packet,
    PacketType,
    compute_crc,
)
from repro.firmware.reliability import GoBackNSender
from repro.sim import Environment, TraceRecord, Tracer

_ORIGINAL = b"original payload"
_TAMPERED = b"tampered payload"


def _source_packet(*, crc: str, corrupted: bool) -> Packet:
    """A packet with every field off its default and a stale CRC."""
    pkt = Packet(ptype=PacketType.DATA, src_nic=3, dst_nic=5,
                 route=(4, 1, 7), seq=9, message_id=11, src_port=2,
                 dst_port=6, channel_kind=ChannelKind.NORMAL,
                 channel_index=1, offset=4096, total_length=8192,
                 payload=_ORIGINAL, ack_seq=13, rma_offset=64,
                 rma_length=128, rma_token=17, coll_group=19, coll_seq=23,
                 coll_op="sum:float64", corrupted=corrupted)
    assert pkt.crc == compute_crc(_ORIGINAL)
    pkt.payload = _TAMPERED
    if crc == "zero":
        # A zero CRC on a sequenced packet is what __post_init__ would
        # restamp; a copy must not run it.
        pkt.crc = 0
    return pkt


def _hop(pkt):
    port, copy = pkt.hop()
    assert port == 4
    return copy, {"route": (1, 7)}


def _register(pkt):
    sender = GoBackNSender(Environment(), DAWNING_3000,
                           retransmit=lambda p: None, name="s")
    copy = sender.register(pkt)
    assert sender._unacked[0] is copy
    return copy, {"seq": 0}


def _corrupt(pkt):
    injector = FaultInjector(Environment(), FaultPlan(corrupt_rate=1.0),
                             "link.test")
    [(delay, copy)] = injector.adjudicate(pkt)
    assert delay == 0
    return copy, {"corrupted": True}


def _duplicate(pkt):
    injector = FaultInjector(Environment(), FaultPlan(duplicate_rate=1.0),
                             "link.test")
    [(_, first), (delay, copy)] = injector.adjudicate(pkt)
    assert first is pkt and delay > 0
    return copy, {}


COPIERS = {"hop": _hop, "register": _register, "corrupt": _corrupt,
           "duplicate": _duplicate}


@pytest.mark.parametrize("crc", ["stale", "zero"])
@pytest.mark.parametrize("how", sorted(COPIERS))
def test_copy_keeps_every_field_and_the_stamped_crc(how, crc):
    pkt = _source_packet(crc=crc, corrupted=(how != "corrupt"))
    before = dict(vars(pkt))
    copy, changed = COPIERS[how](pkt)

    assert type(copy) is Packet and copy is not pkt
    for f in dataclasses.fields(Packet):
        expected = changed.get(f.name, before[f.name])
        assert getattr(copy, f.name) == expected, f.name
    assert copy.packet_id == pkt.packet_id
    assert copy.payload is pkt.payload
    assert copy.crc == before["crc"] != compute_crc(copy.payload)
    assert not copy.crc_ok()
    # The original is unchanged, field by field and object by object.
    assert vars(pkt) == before
    assert all(vars(pkt)[name] is value for name, value in before.items())


def test_copy_rejects_unknown_fields():
    pkt = _source_packet(crc="stale", corrupted=False)
    with pytest.raises(TypeError):
        pkt.copy(rout=())


def test_hop_on_empty_route_raises():
    pkt = Packet(ptype=PacketType.ACK, src_nic=0, dst_nic=1, route=())
    with pytest.raises(ValueError):
        pkt.hop()


def test_trace_record_is_immutable():
    rec = TraceRecord(100, 1600, "dma", "host_to_nic", "node0.nic", 7,
                      {"nbytes": 64})
    with pytest.raises(AttributeError):
        rec.end_ns = 0
    with pytest.raises(AttributeError):
        rec.data = {}
    assert rec.duration_ns == 1500
    assert rec.duration_us == 1.5


def test_default_trace_data_is_not_a_shared_mutable_dict():
    a = TraceRecord(0, 1, "pio", "fill", "node0.nic")
    b = TraceRecord(2, 5, "pio", "fill", "node0.nic")
    assert a.message_id is None and len(a.data) == 0
    for rec in (a, b):
        with pytest.raises(TypeError):
            rec.data["leak"] = True
    assert len(b.data) == 0
    assert (a.duration_ns, b.duration_ns) == (1, 3)


def test_tracer_records_get_their_own_data():
    tracer = Tracer()
    tracer.record(0, 10, "mcp", "send", "node0.nic", 1, seq=1)
    tracer.record(10, 30, "mcp", "send", "node0.nic", 1, seq=2)
    first, second = tracer.records
    assert first.data == {"seq": 1} and second.data == {"seq": 2}
    assert first.data is not second.data
    assert (first.duration_ns, second.duration_ns) == (10, 20)
