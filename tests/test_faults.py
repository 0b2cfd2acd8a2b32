"""The repro.faults subsystem: deterministic fault plans, injectors,
recovery metrics, and the resilience experiment's determinism."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.faults import (
    Brownout,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    derive_seed,
    install_plan,
)
from repro.firmware.packet import ChannelKind, Packet, PacketType
from repro.instrument.measure import measure_one_way
from repro.instrument.recovery import RecoveryTracker, recovery_summary
from repro.sim import Environment, us
from repro.sim.time import transfer_time_ns
from repro.telemetry.metrics import MetricsRegistry

from tests.conftest import run_procs
from tests.test_bcl_channels import setup_pair
from tests.test_fault_injection import transfer

LOSSY = DAWNING_3000.replace(retransmit_timeout_us=200.0)


def data_packet(nbytes: int = 256, seq: int = 0) -> Packet:
    return Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1, route=(1,),
                  seq=seq, payload=bytes(nbytes), total_length=nbytes)


# ------------------------------------------------------------ plan basics
def test_derive_seed_stable_and_scope_dependent():
    assert derive_seed(7, "link.a") == derive_seed(7, "link.a")
    assert derive_seed(7, "link.a") != derive_seed(7, "link.b")
    assert derive_seed(7, "link.a") != derive_seed(8, "link.a")


def test_plan_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.5).validate()
    with pytest.raises(ValueError):
        FaultPlan(reorder_delay_us=-1.0).validate()
    with pytest.raises(ValueError):
        FaultPlan(burst=GilbertElliott(p_good_bad=2.0)).validate()
    with pytest.raises(ValueError):
        FaultPlan(brownouts=(Brownout(20.0, 10.0),)).validate()
    with pytest.raises(ValueError):
        FaultPlan(drop_seqs=(-1,)).validate()


def test_null_plan_passes_through_and_consumes_no_rng():
    env = Environment()
    injector = FaultInjector(env, FaultPlan(), "link.test")
    packet = data_packet()
    state = injector.rng.getstate()
    for _ in range(50):
        assert injector.adjudicate(packet) == [(0, packet)]
    assert injector.rng.getstate() == state
    assert injector.events == []
    assert FaultPlan().is_null()
    assert not FaultPlan(drop_rate=0.01).is_null()


def test_spare_acks_and_first_hop_only():
    env = Environment()
    injector = FaultInjector(env, FaultPlan(drop_rate=1.0), "link.test")
    ack = Packet(ptype=PacketType.ACK, src_nic=1, dst_nic=0, route=(0,))
    assert injector.adjudicate(ack) == [(0, ack)]       # acks spared
    routed_out = data_packet()
    last_hop = Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1,
                      route=(), payload=b"x", total_length=1)
    assert injector.adjudicate(last_hop) == [(0, last_hop)]  # judged once
    assert injector.adjudicate(routed_out) == []
    assert injector.drops == 1


def test_scripted_drop_fires_once_per_flow_seq():
    env = Environment()
    injector = FaultInjector(env, FaultPlan(drop_seqs=(1,)), "link.test")
    seq0, seq1 = data_packet(seq=0), data_packet(seq=1)
    assert injector.adjudicate(seq0) == [(0, seq0)]
    assert injector.adjudicate(seq1) == []              # first copy dropped
    assert injector.adjudicate(seq1) == [(0, seq1)]     # retransmit passes
    assert injector.scripted_drops == 1


def test_gilbert_elliott_drops_in_bursts():
    env = Environment()
    plan = FaultPlan(seed=5, burst=GilbertElliott(
        p_good_bad=0.1, p_bad_good=0.3, loss_good=0.0, loss_bad=1.0))
    injector = FaultInjector(env, plan, "link.test")
    fates = [bool(injector.adjudicate(data_packet(seq=i)))
             for i in range(400)]                       # True = survived
    assert injector.burst_drops > 0
    # Bursty, not i.i.d.: at least one run of >= 2 consecutive drops.
    runs = max(len(chunk) for chunk in
               "".join("x" if not ok else "." for ok in fates).split(".")
               if chunk) if injector.burst_drops else 0
    assert runs >= 2
    # Determinism: an identically-seeded injector replays the same fates.
    replay = FaultInjector(Environment(), plan, "link.test")
    assert [bool(replay.adjudicate(data_packet(seq=i)))
            for i in range(400)] == fates


def test_brownout_window_is_timed():
    env = Environment()
    plan = FaultPlan(brownouts=(Brownout(10.0, 20.0),))
    injector = FaultInjector(env, plan, "link.test")
    packet = data_packet()
    assert injector.adjudicate(packet) == [(0, packet)]  # before the window

    def driver():
        yield env.timeout(us(15.0))
        assert injector.adjudicate(packet) == []         # inside
        yield env.timeout(us(10.0))
        assert injector.adjudicate(packet) == [(0, packet)]  # after

    run_procs(env, driver())
    assert injector.brownout_drops == 1


def test_duplicate_and_reorder_outcomes():
    env = Environment()
    dup = FaultInjector(env, FaultPlan(duplicate_rate=1.0), "link.test")
    outcome = dup.adjudicate(data_packet())
    assert len(outcome) == 2
    assert outcome[0][0] == 0 and outcome[1][0] == us(5.0)
    assert outcome[0][1].seq == outcome[1][1].seq
    reorder = FaultInjector(env, FaultPlan(reorder_rate=1.0), "link.test")
    [(delay, _)] = reorder.adjudicate(data_packet())
    assert delay == us(40.0)


def test_install_plan_one_injector_per_link():
    cluster = Cluster(n_nodes=2, fault_plan=FaultPlan(drop_rate=0.1))
    assert len(cluster.fault_injectors) == len(cluster.network.links)
    scopes = [inj.scope for inj in cluster.fault_injectors]
    assert len(set(scopes)) == len(scopes)
    for link in cluster.network.links:
        assert isinstance(link.injector, FaultInjector)


# --------------------------------------------------- satellite: occupancy
def test_dropped_packets_still_charge_link_occupancy():
    """Regression: a faulted packet's bits crossed the wire, so the link
    direction must be held for the serialization window (before the fix
    dropped packets charged zero occupancy and congestion vanished
    under loss)."""
    from repro.hw.link import Link

    env = Environment()
    link = Link(env, DAWNING_3000, "L")
    link.injector = FaultInjector(env, FaultPlan(drop_rate=1.0), link.name)
    delivered = []
    link.b.attach(delivered.append)
    packet = data_packet(4096)

    def sender():
        yield link.a.send(packet)

    env.process(sender(), name="sender")
    env.run(until=us(1000.0))
    assert delivered == []
    assert link.packets_dropped == 1
    assert link.injector.drops == 1
    expected = transfer_time_ns(
        packet.wire_bytes(DAWNING_3000.wire_header_bytes),
        DAWNING_3000.wire_mb_s)
    assert link.a.busy_ns == expected


def test_duplicate_copies_charge_one_window():
    """Regression: a duplicated packet is ONE physical wire crossing
    adjudicated into two deliveries.  The old accounting multiplied the
    serialization window by the outcome count, overcounting busy_ns
    (and artificially throttling the pump) versus actual wire time."""
    from repro.hw.link import Link

    env = Environment()
    cluster_plan = FaultPlan(duplicate_rate=1.0)
    link = Link(env, DAWNING_3000, "L")
    link.injector = FaultInjector(env, cluster_plan, link.name)
    delivered = []
    link.b.attach(delivered.append)
    packet = data_packet(4096)

    def sender():
        yield link.a.send(packet)

    env.process(sender(), name="sender")
    env.run(until=us(1000.0))
    assert len(delivered) == 2
    one_window = transfer_time_ns(
        packet.wire_bytes(DAWNING_3000.wire_header_bytes),
        DAWNING_3000.wire_mb_s)
    assert link.a.busy_ns == one_window


@pytest.mark.parametrize("plan,landed", [
    (FaultPlan(drop_seqs=(0,)), [1]),
    (FaultPlan(duplicate_rate=1.0), [0, 0, 1, 1]),
], ids=["drop", "duplicate"])
def test_faulted_packet_holds_its_direction_one_window(plan, landed):
    """A dropped or duplicated packet holds the link direction for
    exactly one serialization window: the packet queued behind it is
    taken one window after it and lands one propagation delay later."""
    from repro.hw.link import Link

    env = Environment()
    link = Link(env, DAWNING_3000, "L")
    link.injector = FaultInjector(env, plan, link.name)
    arrivals = []
    link.b.attach(lambda pkt: arrivals.append((pkt.seq, env.now)))
    first, second = data_packet(4096, seq=0), data_packet(256, seq=1)

    def sender():
        yield link.a.send(first)
        yield link.a.send(second)

    env.process(sender(), name="sender")
    env.run(until=us(1000.0))
    window = transfer_time_ns(
        first.wire_bytes(DAWNING_3000.wire_header_bytes),
        DAWNING_3000.wire_mb_s)
    assert sorted(seq for seq, _ in arrivals) == landed
    assert min(t for seq, t in arrivals if seq == 1) == \
        window + DAWNING_3000.ns.link_propagation


# ------------------------------------------------- end-to-end recovery
def test_duplicated_data_never_delivered_twice():
    """Regression for the go-back-N duplicate-delivery exposure: with
    every data packet duplicated on the wire, the user buffer sees each
    message exactly once and intact."""
    cluster = Cluster(n_nodes=2, cfg=LOSSY,
                      fault_plan=FaultPlan(duplicate_rate=1.0))
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))      # 5 packets
    assert transfer(cluster, ctx, payload) == payload
    cluster.env.run(until=cluster.env.now + 2_000_000)
    assert sum(inj.duplicates for inj in cluster.fault_injectors) > 0
    assert sum(r.duplicates for mcp in cluster.mcps
               for r in mcp._receivers.values()) > 0
    assert len(ctx["port1"].recv_queue) == 0            # no ghost message


def test_reordered_data_recovers_intact():
    cluster = Cluster(n_nodes=2, cfg=LOSSY,
                      fault_plan=FaultPlan(seed=3, reorder_rate=0.3))
    ctx = setup_pair(cluster)
    payload = bytes((i * 7) % 256 for i in range(40000))  # 10 packets
    assert transfer(cluster, ctx, payload) == payload
    assert sum(inj.reorders for inj in cluster.fault_injectors) > 0


def test_corruption_recovers_intact():
    cluster = Cluster(n_nodes=2, cfg=LOSSY,
                      fault_plan=FaultPlan(seed=9, corrupt_rate=0.2))
    ctx = setup_pair(cluster)
    payload = bytes((i * 3) % 256 for i in range(40000))
    assert transfer(cluster, ctx, payload) == payload
    assert sum(inj.corruptions for inj in cluster.fault_injectors) > 0
    assert sum(r.corrupt_drops for mcp in cluster.mcps
               for r in mcp._receivers.values()) > 0


def test_brownout_outage_recovers_after_window():
    plan = FaultPlan(brownouts=(Brownout(30.0, 250.0),))
    cluster = Cluster(n_nodes=2, cfg=LOSSY, fault_plan=plan)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(40000))
    assert transfer(cluster, ctx, payload) == payload
    assert sum(inj.brownout_drops for inj in cluster.fault_injectors) > 0
    assert cluster.total_retransmissions > 0


# -------------------------------------------------- recovery metrics
def test_time_to_recover_hand_computable_single_loss():
    """Scripted drop of DATA seq 1 in a 5-packet message: the receiver
    NACKs on the seq-2 arrival, the sender fast-retransmits its
    outstanding window (seqs 1-4), and the episode closes when the
    retransmitted seq 1 is cumulatively acked — long before the 200 us
    retransmit timer."""
    plan = FaultPlan(drop_seqs=(1,))
    cluster = Cluster(n_nodes=2, cfg=LOSSY, fault_plan=plan)
    tracker = RecoveryTracker(cluster)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))      # 5 packets
    assert transfer(cluster, ctx, payload) == payload
    summary = recovery_summary(cluster, tracker)
    assert summary["injected_scripted_drops"] == 1
    assert summary["injected_losses"] == 1
    assert summary["fast_retransmits"] == 1
    assert summary["retransmit_timeouts"] == 0
    # go-back-N resends the whole outstanding window: seqs 1, 2, 3, 4
    assert summary["retransmissions"] == 4
    assert summary["data_packets"] == 5
    assert summary["retx_amplification"] == pytest.approx((5 + 4) / 5)
    assert summary["out_of_order_drops"] == 3           # first 2, 3, 4
    assert summary["loss_episodes"] == 1
    assert summary["recovered_episodes"] == 1
    assert summary["unrecovered_episodes"] == 0
    assert 0 < summary["ttr_mean_us"] < LOSSY.retransmit_timeout_us
    assert summary["ttr_mean_us"] == summary["ttr_max_us"]


def test_time_to_recover_timeout_path_without_nack():
    """Same scripted loss with NACK disabled: recovery must wait for
    the retransmit timer, so time-to-recover exceeds the timeout."""
    cfg = LOSSY.replace(nack_enabled=False)
    cluster = Cluster(n_nodes=2, cfg=cfg, fault_plan=FaultPlan(drop_seqs=(1,)))
    tracker = RecoveryTracker(cluster)
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))
    assert transfer(cluster, ctx, payload) == payload
    summary = recovery_summary(cluster, tracker)
    assert summary["fast_retransmits"] == 0
    assert summary["retransmit_timeouts"] >= 1
    assert summary["recovered_episodes"] == 1
    assert summary["ttr_mean_us"] >= cfg.retransmit_timeout_us


def test_null_plan_byte_identical_to_no_injector():
    """Determinism guard: an installed-but-null FaultPlan must not
    perturb the simulation at all."""
    plain = Cluster(n_nodes=2, cfg=LOSSY)
    sample_plain = measure_one_way(plain, 20000, repeats=3, warmup=1)
    nulled = Cluster(n_nodes=2, cfg=LOSSY, fault_plan=FaultPlan())
    sample_nulled = measure_one_way(nulled, 20000, repeats=3, warmup=1)
    assert sample_plain.samples_us == sample_nulled.samples_us
    assert plain.env.now == nulled.env.now
    assert nulled.total_injected_faults == 0
    assert recovery_summary(plain) == recovery_summary(nulled)


def test_injected_fault_series_count_every_fault_event():
    """A link's seven per-kind series sum to the events it injected."""
    plan = FaultPlan(seed=5, drop_rate=0.05, corrupt_rate=0.05,
                     duplicate_rate=0.05, reorder_rate=0.05)
    cluster = Cluster(n_nodes=2, cfg=LOSSY, fault_plan=plan)
    assert measure_one_way(cluster, 20000, repeats=3,
                           warmup=1).received_payloads_ok
    registry = MetricsRegistry()
    cluster.register_metrics(registry)
    kinds = {e.kind for i in cluster.fault_injectors for e in i.events}
    assert {"drop", "corrupt", "duplicate", "reorder"} <= kinds
    for injector in cluster.fault_injectors:
        assert registry.total("repro_faults_injected_total",
                              link=injector.scope) == len(injector.events)


# ----------------------------------------------- trace + experiment wiring
def test_fault_events_export_as_instant_markers():
    from repro.telemetry.spans import chrome_trace_events

    cluster = Cluster(n_nodes=2, cfg=LOSSY, trace=True,
                      fault_plan=FaultPlan(drop_seqs=(1,)))
    ctx = setup_pair(cluster)
    payload = bytes(i % 256 for i in range(20000))
    assert transfer(cluster, ctx, payload) == payload
    events = chrome_trace_events(cluster.tracer)
    markers = [e for e in events if e.get("ph") == "i"]
    assert len(markers) == 1
    assert markers[0]["cat"] == "fault"
    assert markers[0]["name"] == "scripted_drop"
    assert markers[0]["args"]["seq"] == 1
    assert "dur" not in markers[0]


def test_resilience_serial_vs_jobs2_byte_identical(monkeypatch):
    from repro.experiments.runner import run_all

    monkeypatch.setenv("REPRO_RESILIENCE_LOSSES", "0,5")
    monkeypatch.setenv("REPRO_RESILIENCE_SIZES", "16384")
    serial = run_all(only=["resilience"], jobs=1, cache=None)
    parallel = run_all(only=["resilience"], jobs=2, cache=None)
    assert [r.format() for r in serial] == [r.format() for r in parallel]
    [result] = serial
    lossy_rows = [r for r in result.rows
                  if r["path"] == "inter" and r["loss_pct"] == 5.0]
    assert lossy_rows and all(r["retx_amp"] > 1.0 for r in lossy_rows)
    control = [r for r in result.rows if r["path"] == "intra"]
    assert control and all(r["episodes"] == 0 for r in control)
