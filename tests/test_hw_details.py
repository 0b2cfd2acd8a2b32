"""Hardware-model detail tests: switch parallelism, link accounting,
NIC wiring, interrupt steering, trap cost accounting."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.firmware.packet import Packet, PacketType
from repro.hw.link import Link
from repro.hw.switch import Switch
from repro.sim import Environment, us

from tests.conftest import run_procs


def data_packet(route, payload=b"", src=0, dst=1):
    return Packet(ptype=PacketType.DATA, src_nic=src, dst_nic=dst,
                  route=tuple(route), payload=payload,
                  total_length=len(payload))


def test_switch_disjoint_flows_are_parallel(env, cfg):
    """A crossbar: 0->2 and 1->3 forward concurrently, not serially."""
    sw = Switch(env, cfg, "sw", n_ports=4)
    links = [Link(env, cfg, f"l{i}") for i in range(4)]
    arrivals = {}
    for i, link in enumerate(links):
        sw.connect(i, link.b)
        link.a.attach(lambda pkt, i=i: arrivals.setdefault(i, env.now))

    def inject(port, out_port):
        yield links[port].a.send(data_packet(route=(out_port,),
                                             payload=b"x" * 4096))

    run_procs(env, inject(0, 2), inject(1, 3))
    env.run()
    assert set(arrivals) == {2, 3}
    # Both arrive at the same instant: no crossbar serialisation.
    assert arrivals[2] == arrivals[3]


def test_switch_same_output_serialises(env, cfg):
    """Two inputs to one output: the output link's serialization
    window separates the deliveries."""
    sw = Switch(env, cfg, "sw", n_ports=4)
    links = [Link(env, cfg, f"l{i}") for i in range(4)]
    arrivals = []
    for i, link in enumerate(links):
        sw.connect(i, link.b)
        link.a.attach(lambda pkt: arrivals.append(env.now))

    payload = b"y" * 4096

    def inject(port):
        yield links[port].a.send(data_packet(route=(2,), payload=payload))

    run_procs(env, inject(0), inject(1))
    env.run()
    assert len(arrivals) == 2
    gap = arrivals[1] - arrivals[0]
    serialization = round((cfg.wire_header_bytes + 4096)
                          * 1e3 / cfg.wire_mb_s)
    assert gap >= serialization * 0.95


def test_link_busy_accounting(env, cfg):
    link = Link(env, cfg, "l")
    link.b.attach(lambda pkt: None)
    link.a.attach(lambda pkt: None)

    def sender():
        yield link.a.send(data_packet(route=(), payload=b"z" * 1000))

    run_procs(env, sender())
    env.run()
    expected = round((cfg.wire_header_bytes + 1000) * 1e3 / cfg.wire_mb_s)
    assert link.a.busy_ns == expected
    assert link.b.busy_ns == 0
    assert link.packets_carried == 1


def test_nic_double_attach_mcp_rejected():
    cluster = Cluster(n_nodes=2)
    from repro.firmware.mcp import Mcp
    with pytest.raises(RuntimeError):
        Mcp(cluster.env, cluster.cfg, cluster.node(0).nic)


def test_nic_port_state_errors():
    cluster = Cluster(n_nodes=2)
    nic = cluster.node(0).nic
    with pytest.raises(ValueError):
        nic.port_state(999)
    with pytest.raises(ValueError):
        nic.destroy_port(999)
    with pytest.raises(ValueError):
        nic.fetch_translation(12345, 0)


def test_interrupts_round_robin_across_cpus():
    cluster = Cluster(n_nodes=1, architecture="kernel_level")
    node = cluster.node(0)
    serviced = []
    for i in range(6):
        node.kernel.interrupts.raise_irq(
            lambda _e, i=i: serviced.append(i), None)
    cluster.env.run()
    # The first four run in parallel on the four CPUs (simultaneous
    # completion; intra-instant ordering is an engine detail), the two
    # overflow IRQs queue behind them.
    assert set(serviced[:4]) == {0, 1, 2, 3}
    assert serviced[4:] == [4, 5]
    busy = [cpu.busy_ns for cpu in node.cpus]
    per_irq = us(cluster.cfg.interrupt_dispatch_us
                 + cluster.cfg.interrupt_handler_us)
    # 6 interrupts over 4 CPUs: 2,2,1,1 distribution
    assert sorted(busy, reverse=True) == [2 * per_irq, 2 * per_irq,
                                          per_irq, per_irq]


def test_trap_costs_charged_even_on_handler_failure():
    cluster = Cluster(n_nodes=2)
    node = cluster.node(0)
    proc = node.spawn_process()
    env = cluster.env

    def failing_handler():
        yield env.timeout(0)
        raise RuntimeError("handler exploded")

    def caller():
        t0 = env.now
        with pytest.raises(RuntimeError):
            yield from node.kernel.syscall(proc, "bad", failing_handler())
        elapsed = env.now - t0
        floor = us(cluster.cfg.trap_enter_us + cluster.cfg.trap_exit_us)
        assert elapsed >= floor

    run_procs(cluster, caller())
    assert node.kernel.counters.syscalls_by_name.get("bad") == 1


def test_cpu_rejects_negative_cost():
    cluster = Cluster(n_nodes=1)
    proc = cluster.node(0).spawn_process()

    def bad():
        yield from proc.cpu.execute(-1.0)

    with pytest.raises(ValueError):
        run_procs(cluster, bad())


def test_pool_buffer_double_return_rejected(cluster):
    from tests.test_bcl_channels import setup_pair
    ctx = setup_pair(cluster)
    state = cluster.node(1).nic.port_state(2)
    buf = state.system_pool_free.popleft()
    state.return_pool_buffer(buf.index)
    with pytest.raises(ValueError):
        state.return_pool_buffer(buf.index)
    with pytest.raises(KeyError):
        state.return_pool_buffer(999)


def test_pool_buffer_returns_after_others_cycled(cluster):
    """Membership follows handouts and returns, in FIFO order."""
    from tests.test_bcl_channels import setup_pair
    setup_pair(cluster)
    state = cluster.node(1).nic.port_state(2)
    size = len(state.system_pool_free)
    first, second, third = (state.system_pool_free.popleft()
                            for _ in range(3))
    state.return_pool_buffer(second.index)
    state.return_pool_buffer(first.index)
    assert second in state.system_pool_free
    assert third not in state.system_pool_free
    with pytest.raises(ValueError):
        state.return_pool_buffer(first.index)
    state.return_pool_buffer(third.index)
    assert len(state.system_pool_free) == size
    assert list(state.system_pool_free)[-3:] == [second, first, third]
    with pytest.raises(ValueError):
        state.return_pool_buffer(third.index)
