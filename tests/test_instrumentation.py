"""Tracer, one-way harness, component tallies in the metrics registry,
and completion-queue overflow."""

from __future__ import annotations

import pytest

from repro.bcl.events import CompletionQueue
from repro.cluster import Cluster, enabled
from repro.config import DAWNING_3000
from repro.firmware.descriptors import BclEvent, EventKind
from repro.firmware.packet import ChannelKind
from repro.instrument.measure import measure_intra_node, measure_one_way
from repro.sim import Environment
from repro.sim.time import ns_to_us
from repro.sim.trace import Tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.observe import render_report

from tests.conftest import run_procs
from tests.test_bcl_channels import setup_pair


# ------------------------------------------------------------------ tracer
def test_tracer_disabled_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.record(0, 10, "cpu", "work", "c0")
    assert tracer.records == []


def test_tracer_rejects_negative_span():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.record(100, 50, "cpu", "work", "c0")


def test_tracer_listener_invoked():
    tracer = Tracer()
    seen = []
    tracer.add_listener(seen.append)
    tracer.record(0, 10, "cpu", "work", "c0")
    assert len(seen) == 1 and seen[0].duration_ns == 10


def test_tracer_remove_listener():
    tracer = Tracer()
    seen = []
    tracer.add_listener(seen.append)
    tracer.remove_listener(seen.append)
    tracer.remove_listener(seen.append)    # unknown listener: no error
    tracer.record(0, 10, "cpu", "work", "c0")
    assert seen == []


def test_raising_span_listener_is_detached():
    """A raw-span subscriber gets the same isolation as a listener: its
    first failure is recorded, it is detached, tracing goes on."""
    tracer = Tracer()
    calls = []

    def broken(*span):
        calls.append(span)
        raise RuntimeError("fold bug")

    tracer.add_span_listener(broken)
    tracer.record(0, 10, "cpu", "work", "c0", 7)
    tracer.record(10, 20, "cpu", "work", "c0")
    assert calls == [(0, 10, "cpu", "work", "c0", 7)]
    assert [fn for fn, _ in tracer.listener_errors] == [broken]
    assert len(tracer.records) == 2


# -------------------------------------------------------- one-way harness
def test_one_way_drives_the_user_level_library():
    """A user_level cluster is measured through its own library, and
    the difference to BCL is the paper's 4.17 us semi-user tax."""
    ul = measure_one_way(Cluster(n_nodes=2, architecture="user_level"), 0)
    bcl = measure_one_way(Cluster(n_nodes=2), 0)
    assert ul.received_payloads_ok
    assert ul.samples_us == [14.157] * 5
    assert bcl.samples_us == [18.327] * 5
    big = measure_one_way(Cluster(n_nodes=2, architecture="user_level"),
                          4096, repeats=2, warmup=1)
    assert big.received_payloads_ok and big.latency_us > ul.latency_us


def test_one_way_drives_kernel_level_sockets():
    """Multi-datagram messages land whole (each datagram is written
    after the last, not over it), and a route sockets cannot carry
    fails before anything is simulated."""
    for nbytes in (10000, 65536):
        cluster = Cluster(n_nodes=2, architecture="kernel_level")
        sample = measure_one_way(cluster, nbytes, repeats=2, warmup=1)
        assert sample.received_payloads_ok and len(sample.samples_us) == 2
    for n_nodes, kwargs, reason in (
            (1, {}, "no intra-node path"),
            (2, {"receiver_node": 0}, "no intra-node path"),
            (2, {"channel_kind": ChannelKind.SYSTEM}, "no system channel")):
        cluster = Cluster(n_nodes=n_nodes, architecture="kernel_level")
        with pytest.raises(ValueError, match=reason):
            measure_one_way(cluster, 0, **kwargs)
        assert cluster.env.now == 0


@pytest.mark.parametrize("nbytes", [0, 4096])
def test_one_node_cluster_measures_intra_node(nbytes):
    one_node = measure_one_way(Cluster(n_nodes=1), nbytes)
    assert one_node.received_payloads_ok
    assert one_node.samples_us == \
        measure_intra_node(Cluster(n_nodes=1), nbytes).samples_us


# -------------------------------------------------- tallies in the registry
def _totals(cluster):
    registry = MetricsRegistry()
    cluster.register_metrics(registry)
    return registry.total


def test_registry_tallies_after_traffic():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"})
    measure_one_way(cluster, 8192, repeats=2, warmup=1)
    total = _totals(cluster)
    elapsed_us = ns_to_us(cluster.env.now)
    assert elapsed_us > 0
    assert total("repro_traps_send_path_total", node="0") >= 3
    assert total("repro_traps_recv_path_total", node="1") >= 3
    assert total("repro_mcp_messages_sent_total", nic="0") == 3
    assert total("repro_mcp_messages_delivered_total", nic="1") == 3
    assert total("repro_pci_pio_words_total", bus="node0.pci",
                  op="write") > 0
    assert total("repro_pci_dma_bytes_total", bus="node1.pci") > 0
    assert total("repro_pindown_hits_total", node="0") \
        + total("repro_pindown_misses_total", node="0") >= 3
    assert total("repro_retransmissions_total") == 0
    links = [link.name for link in cluster.network.links]
    assert any(total("repro_link_packets_total", link=link,
                     outcome="carried") > 0 for link in links)
    busiest = max(links, key=lambda link: total("repro_link_busy_ns",
                                                link=link))
    busy_ns = max(total("repro_link_direction_busy_ns", link=busiest,
                        direction=direction)
                  for direction in ("a_to_b", "b_to_a"))
    assert 0 < ns_to_us(busy_ns) / elapsed_us <= 1.0
    cpus = cluster.nodes[0].cpus
    cpu_busy_us = sum(ns_to_us(total("repro_cpu_busy_ns", cpu=cpu.name))
                      for cpu in cpus)
    assert 0 < cpu_busy_us / (len(cpus) * elapsed_us) < 1.0
    text = render_report(cluster.telemetry)
    assert "node0" in text and "busiest link" in text


def test_registry_counts_unready_drops():
    cluster = Cluster(n_nodes=2)
    ctx = setup_pair(cluster)

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(64)
        proc.write(buf, b"x" * 64)
        from repro.firmware.packet import ChannelKind
        dest = ctx["port1"].address.with_channel(ChannelKind.NORMAL, 3)
        yield from ctx["port0"].send(dest, buf, 64)   # unposted channel

    run_procs(cluster, sender())
    cluster.env.run()
    assert _totals(cluster)("repro_nic_unready_drops_total", nic="1") == 1


# --------------------------------------------------- completion queue depth
def test_completion_queue_overflow_drops_events():
    env = Environment()
    cq = CompletionQueue(env, "cq", capacity=2)
    ev = BclEvent(kind=EventKind.RECV_DONE, message_id=1, length=0)
    assert cq.push(ev) and cq.push(ev)
    assert not cq.push(ev)
    assert cq.overflows == 1
    assert len(cq) == 2
    cq.try_pop()
    assert cq.push(ev)


def test_completion_queue_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        CompletionQueue(env, "cq", capacity=0)


def test_port_event_ring_overflow_end_to_end():
    """More undrained messages than the event ring holds: the extras
    are dropped at the ring, like a hardware event queue overrun."""
    cfg = DAWNING_3000.replace(completion_queue_entries=4)
    cluster = Cluster(n_nodes=2, cfg=cfg)
    ctx = setup_pair(cluster)
    n_sent = 8

    def sender():
        proc = ctx["p0"]
        buf = proc.alloc(16)
        proc.write(buf, b"o" * 16)
        for _ in range(n_sent):   # receiver never polls
            yield from ctx["port0"].send_system(ctx["port1"].address,
                                                buf, 16)

    run_procs(cluster, sender())
    cluster.env.run()
    assert len(ctx["port1"].recv_queue) == 4
    assert ctx["port1"].recv_queue.overflows == 4


def test_wakeup_event_fires_immediately_when_nonempty():
    env = Environment()
    cq = CompletionQueue(env, "cq")
    cq.push(BclEvent(kind=EventKind.RECV_DONE, message_id=1, length=0))
    ev = cq.wakeup_event()
    assert ev.triggered
