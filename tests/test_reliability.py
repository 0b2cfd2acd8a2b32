"""Go-back-N protocol state machine tests (no full stack needed)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DAWNING_3000
from repro.firmware.packet import Packet, PacketType
from repro.firmware.reliability import GoBackNReceiver, GoBackNSender
from repro.sim import Environment, us


def data_packet(seq=0, payload=b"p"):
    pkt = Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1, route=(1,),
                 payload=payload, total_length=len(payload))
    return dataclasses.replace(pkt, seq=seq)


def make_sender(env, window=4, timeout_us=100.0):
    cfg = DAWNING_3000.replace(send_window=window,
                               retransmit_timeout_us=timeout_us)
    sent = []
    sender = GoBackNSender(env, cfg, retransmit=sent.append, name="s")
    return sender, sent


def test_register_stamps_increasing_seqs(env):
    sender, _ = make_sender(env)
    seqs = [sender.register(data_packet()).seq for _ in range(3)]
    assert seqs == [0, 1, 2]


def test_window_limits_in_flight(env):
    sender, _ = make_sender(env, window=2)
    sender.register(data_packet())
    sender.register(data_packet())
    assert sender.window_full
    with pytest.raises(RuntimeError):
        sender.register(data_packet())


def test_cumulative_ack_advances_base(env):
    sender, _ = make_sender(env, window=4)
    for _ in range(4):
        sender.register(data_packet())
    sender.on_ack(3)
    assert sender.base == 3
    assert sender.in_flight == 1
    assert not sender.window_full


def test_wait_for_window_unblocks_on_ack(env):
    sender, _ = make_sender(env, window=1)
    sender.register(data_packet())
    progressed = []

    def blocked_sender():
        yield from sender.wait_for_window()
        progressed.append(env.now)

    env.process(blocked_sender())

    def acker():
        yield env.timeout(500)
        sender.on_ack(1)

    env.process(acker())
    env.run()
    assert progressed == [500]


def test_timeout_retransmits_whole_window_in_order(env):
    sender, sent = make_sender(env, window=4, timeout_us=100.0)
    packets = [sender.register(data_packet()) for _ in range(3)]
    env.run(until=us(150))
    assert [p.seq for p in sent] == [0, 1, 2]
    assert sender.timeouts == 1
    assert sender.retransmissions == 3
    _ = packets


def test_ack_before_timeout_prevents_retransmission(env):
    sender, sent = make_sender(env, window=4, timeout_us=100.0)
    sender.register(data_packet())
    sender.on_ack(1)
    env.run(until=us(1000))
    assert sent == []
    assert sender.timeouts == 0


def test_partial_ack_then_timeout_resends_remainder(env):
    sender, sent = make_sender(env, window=4, timeout_us=100.0)
    for _ in range(3):
        sender.register(data_packet())
    sender.on_ack(2)               # 0 and 1 delivered
    env.run(until=us(150))
    assert [p.seq for p in sent] == [2]
    # ... and the watchdog keeps retrying every interval until acked
    env.run(until=us(250))
    assert [p.seq for p in sent] == [2, 2]
    sender.on_ack(3)
    env.run(until=us(1000))
    assert [p.seq for p in sent] == [2, 2]


def test_stale_ack_is_ignored(env):
    sender, _ = make_sender(env)
    sender.register(data_packet())
    sender.register(data_packet())
    sender.on_ack(2)
    sender.on_ack(1)               # stale duplicate ack
    assert sender.base == 2


# ----------------------------------------------------------------- receiver
def test_receiver_in_order_delivery():
    recv = GoBackNReceiver("r")
    deliver, ack = recv.accept(data_packet(seq=0))
    assert deliver and ack == 1
    deliver, ack = recv.accept(data_packet(seq=1))
    assert deliver and ack == 2


def test_receiver_drops_out_of_order_and_reacks():
    recv = GoBackNReceiver("r")
    recv.accept(data_packet(seq=0))
    deliver, ack = recv.accept(data_packet(seq=2))
    assert not deliver and ack == 1
    assert recv.out_of_order_drops == 1


def test_receiver_drops_duplicates():
    recv = GoBackNReceiver("r")
    recv.accept(data_packet(seq=0))
    deliver, ack = recv.accept(data_packet(seq=0))
    assert not deliver and ack == 1
    assert recv.duplicates == 1


def test_receiver_drops_corrupt_packets():
    recv = GoBackNReceiver("r")
    bad = dataclasses.replace(data_packet(seq=0), corrupted=True)
    deliver, ack = recv.accept(bad)
    assert not deliver and ack == 0
    assert recv.corrupt_drops == 1
    # retransmission with good CRC is then accepted
    deliver, _ = recv.accept(data_packet(seq=0))
    assert deliver


def test_receiver_rejects_unsequenced_types():
    recv = GoBackNReceiver("r")
    ack = Packet(ptype=PacketType.ACK, src_nic=0, dst_nic=1, route=(1,))
    with pytest.raises(ValueError):
        recv.accept(ack)


# -------------------------------------------------------- NACK fast retransmit
def test_nack_triggers_immediate_window_resend(env):
    sender, sent = make_sender(env, window=4, timeout_us=10_000.0)
    for _ in range(3):
        sender.register(data_packet())
    sender.on_nack(0)
    assert [p.seq for p in sent] == [0, 1, 2]   # no timeout wait
    assert sender.fast_retransmits == 1
    env.run(until=us(100))
    assert sender.timeouts == 0


def test_nack_deduplicated_per_base(env):
    sender, sent = make_sender(env, window=4, timeout_us=10_000.0)
    sender.register(data_packet())
    sender.register(data_packet())
    sender.on_nack(0)
    sender.on_nack(0)           # duplicate gap report
    assert sender.fast_retransmits == 1
    sender.on_ack(1)            # base advances to 1
    sender.on_nack(1)           # new gap at the new base
    assert sender.fast_retransmits == 2


def test_stale_nack_ignored(env):
    sender, sent = make_sender(env, window=4, timeout_us=10_000.0)
    sender.register(data_packet())
    sender.on_ack(1)
    sender.on_nack(0)           # refers to an already-acked base
    assert sender.fast_retransmits == 0
    assert sent == []


def test_receiver_should_nack_once_per_gap():
    recv = GoBackNReceiver("r")
    recv.accept(data_packet(seq=0))
    deliver, _ = recv.accept(data_packet(seq=2))      # gap
    assert not deliver and recv.should_nack()
    recv.accept(data_packet(seq=3))                   # same gap
    assert not recv.should_nack()
    deliver, _ = recv.accept(data_packet(seq=1))      # gap repaired
    assert deliver and not recv.should_nack()


def test_receiver_in_order_never_nacks():
    recv = GoBackNReceiver("r")
    for seq in range(5):
        recv.accept(data_packet(seq=seq))
        assert not recv.should_nack()


def test_nack_recovers_faster_than_timeout():
    """End to end: with NACK, a dropped mid-message packet is repaired
    long before the (long) retransmission timeout."""
    from repro.cluster import Cluster
    from repro.config import DAWNING_3000
    from repro.faults import FaultPlan

    def run_transfer(nack_enabled):
        cfg = DAWNING_3000.replace(retransmit_timeout_us=5000.0,
                                   nack_enabled=nack_enabled)
        # drops the first wire copy of DATA seq 1, once
        cluster = Cluster(n_nodes=2, cfg=cfg,
                          fault_plan=FaultPlan(drop_seqs=(1,)))
        from tests.test_bcl_channels import setup_pair
        from tests.test_fault_injection import transfer
        ctx = setup_pair(cluster)
        payload = bytes(i % 256 for i in range(20000))  # 5 packets
        t0 = cluster.env.now
        assert transfer(cluster, ctx, payload) == payload
        assert sum(inj.scripted_drops
                   for inj in cluster.fault_injectors) == 1
        return (cluster.env.now - t0) / 1000  # us

    with_nack = run_transfer(True)
    without = run_transfer(False)
    assert without >= 5000.0           # waited out the timer
    assert with_nack < 1000.0          # repaired by fast retransmit


# --------------------------------------------------- NACK dedup re-arm
def test_sender_nack_rearm_after_timeout_interval(env):
    """Regression: the per-base NACK dedup never expired, so when a
    fast-retransmit round was itself lost, later NACKs for the same
    base were ignored forever and recovery degraded to timeout-only."""
    sender, sent = make_sender(env, window=4, timeout_us=100.0)
    sender.register(data_packet())
    sender.register(data_packet())
    sender.on_nack(0)
    sender.on_nack(0)                     # inside the re-arm interval
    assert sender.fast_retransmits == 1

    env.run(until=us(150.0))              # past one retransmit timeout
    sender.on_nack(0)                     # dedup has re-armed
    assert sender.fast_retransmits == 2


def test_sender_nack_dedup_holds_within_interval(env):
    sender, _ = make_sender(env, window=4, timeout_us=1000.0)
    sender.register(data_packet())
    sender.on_nack(0)
    env.run(until=us(50.0))               # well inside the interval
    sender.on_nack(0)
    assert sender.fast_retransmits == 1


def test_receiver_renacks_after_rearm_interval():
    """Regression: receiver-side suppression was purely per
    expected_seq; with a rearm horizon a stuck gap is signalled again."""
    rearm = us(100.0)
    recv = GoBackNReceiver("r", rearm_ns=rearm)
    recv.accept(data_packet(seq=0))
    recv.accept(data_packet(seq=2))                   # gap at seq 1
    assert recv.should_nack(now=0)
    recv.accept(data_packet(seq=3))
    assert not recv.should_nack(now=us(10.0))         # suppressed
    recv.accept(data_packet(seq=4))
    assert recv.should_nack(now=us(150.0))            # re-armed
    recv.accept(data_packet(seq=5))
    assert not recv.should_nack(now=us(160.0))        # suppressed again


def test_receiver_without_clock_keeps_legacy_suppression():
    """No rearm horizon / no clock: the old once-per-gap behaviour."""
    recv = GoBackNReceiver("r", rearm_ns=us(100.0))
    recv.accept(data_packet(seq=0))
    recv.accept(data_packet(seq=2))
    assert recv.should_nack()
    recv.accept(data_packet(seq=3))
    assert not recv.should_nack()         # clockless call never re-arms


def test_lost_fast_retransmit_round_recovers_before_second_timeout():
    """End to end: drop the first three copies of seq 1 (original, the
    NACK-triggered round, and the first watchdog round).  The re-armed
    NACK path repairs the gap around one timeout plus an RTT; without
    re-arming, recovery waited for the *second* watchdog firing at
    roughly two timeouts."""
    from repro.cluster import Cluster
    from repro.config import DAWNING_3000
    from tests.test_bcl_channels import setup_pair
    from tests.test_fault_injection import FirstHopDropper, transfer

    class DropThree(FirstHopDropper):
        """Drop the first three wire copies of DATA seq 1 — a plan's
        ``drop_seqs`` drops only the first."""

        def pick(self, packet):
            return (packet.ptype is PacketType.DATA and packet.seq == 1
                    and self.scripted_drops < 3)

    cfg = DAWNING_3000.replace(retransmit_timeout_us=5000.0)
    cluster = Cluster(n_nodes=2, cfg=cfg)
    injector = DropThree(cluster, node=0)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))  # 5 packets
    t0 = cluster.env.now
    assert transfer(cluster, ctx, payload) == payload
    elapsed_us = (cluster.env.now - t0) / 1000
    assert injector.scripted_drops == 3
    assert elapsed_us >= 5000.0            # the watchdog had to fire
    assert elapsed_us < 7500.0             # but not a second time
