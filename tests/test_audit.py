"""The runtime invariant auditor: clean runs stay silent, broken
invariants raise, audited runs are byte-identical to unaudited ones."""

from types import SimpleNamespace

import pytest

from repro.audit import AuditError, Auditor
from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.config import DAWNING_3000, LOSSY_DAWNING
from repro.experiments.resilience import (
    _plan, measure_resilience_point)
from repro.faults import FaultInjector, FaultPlan
from repro.firmware.packet import PacketType
from repro.instrument.measure import measure_one_way
from repro.sim import Environment, Event, Interrupt, Resource, Store
from repro.upper.job import run_spmd

from tests.conftest import run_procs


# --------------------------------------------------------- clean runs
def test_clean_transfer_zero_violations():
    cluster = Cluster(n_nodes=2, observers=("audit",))
    sample = measure_one_way(cluster, 65536, repeats=4, warmup=1)
    assert sample.received_payloads_ok
    cluster.env.run()          # drain to quiesce
    report = cluster.auditor.report()
    assert report["violations"] == 0
    assert report["quiesce_checks"] >= 1
    assert report["flows_audited"] >= 1
    assert report["packets_delivered"] > 0


def test_faulted_campaign_zero_violations():
    """The seeded resilience campaign cell passes a full audit: every
    drop and duplicate is accounted for at quiesce."""
    plan = _plan(5.0, 16384)
    cluster = Cluster(n_nodes=2, cfg=LOSSY_DAWNING, fault_plan=plan,
                      observers=("audit",))
    sample = measure_one_way(cluster, 16384, repeats=6, warmup=1)
    assert sample.received_payloads_ok
    cluster.env.run()
    report = cluster.auditor.report()
    assert report["violations"] == 0
    dropped = sum(sum(inj.flow_drop_packets.values())
                  for inj in cluster.fault_injectors)
    assert dropped > 0, "campaign injected no losses; audit proved nothing"


def test_audited_run_is_byte_identical():
    plain = measure_one_way(Cluster(n_nodes=2), 16384, repeats=3, warmup=1)
    audited = measure_one_way(Cluster(n_nodes=2, observers=("audit",)), 16384,
                              repeats=3, warmup=1)
    assert audited.latency_us == plain.latency_us
    assert audited.bandwidth_mb_s == plain.bandwidth_mb_s


def test_resilience_point_parity_under_global_enable(monkeypatch):
    monkeypatch.delenv("REPRO_OBSERVERS", raising=False)
    baseline = measure_resilience_point(DAWNING_3000, 2.0, 16384, False)
    monkeypatch.setenv("REPRO_OBSERVERS", "audit")
    audited = measure_resilience_point(DAWNING_3000, 2.0, 16384, False)
    assert audited == baseline
    assert audited["payload_ok"]


def test_cluster_attaches_auditor_only_on_request(monkeypatch):
    monkeypatch.delenv("REPRO_OBSERVERS", raising=False)
    assert Cluster(n_nodes=1).auditor is None
    assert Cluster(n_nodes=1, observers=("audit",)).auditor is not None
    with pytest.raises(ValueError, match="choose from"):
        Cluster(n_nodes=1, observers=("audit", "auditor"))
    monkeypatch.setenv("REPRO_OBSERVERS", "audit")
    assert Cluster(n_nodes=1).auditor is not None
    assert Cluster(n_nodes=1, observers=()).auditor is None
    monkeypatch.setenv("REPRO_OBSERVERS", "audit,auditor")
    with pytest.raises(ValueError, match="'auditor'"):
        Cluster(n_nodes=1)


# ------------------------------------------------------- sim checkers
def test_past_event_detected():
    env = Environment()
    Auditor(env)
    env.now = 100
    ev = Event(env)
    ev._ok = True
    ev._value = None
    env._schedule_at(ev, 50)
    with pytest.raises(AuditError) as exc:
        env.run()
    assert exc.value.violations[0].rule == "past-event"


def test_orphaned_store_getter_detected():
    env = Environment()
    Auditor(env)
    store = Store(env)
    store.get()                # waiter abandoned: no process, no callback
    with pytest.raises(AuditError) as exc:
        env.run()
    assert exc.value.violations[0].rule == "orphaned-waiter"


def test_orphaned_resource_request_detected():
    env = Environment()
    Auditor(env)
    resource = Resource(env, capacity=1)
    resource.request()         # granted immediately
    resource.request()         # queued, then abandoned
    with pytest.raises(AuditError) as exc:
        env.run()
    assert exc.value.violations[0].rule == "orphaned-waiter"


def _live_waiter(env, event):
    def wait():
        yield event

    env.process(wait())


def test_orphaned_store_waiter_between_live_ones_detected():
    env = Environment()
    Auditor(env)
    getters, putters = Store(env), Store(env, capacity=1)
    putters.try_put("full")
    _live_waiter(env, getters.get())
    getters.get()              # abandoned between two live getters
    _live_waiter(env, getters.get())
    _live_waiter(env, putters.put("a"))
    putters.put("b")           # abandoned behind a live putter
    with pytest.raises(AuditError) as exc:
        env.run()
    found = [(v.rule, v.detail) for v in exc.value.violations]
    assert [rule for rule, _ in found] == ["orphaned-waiter"] * 2
    assert "_getters" in found[0][1] and "_putters" in found[1][1]


def test_orphaned_resource_request_behind_live_one_detected():
    env = Environment()
    Auditor(env)
    resource = Resource(env, capacity=1)
    resource.request()         # granted immediately
    _live_waiter(env, resource.request())
    resource.request()         # queued behind a live waiter, abandoned
    with pytest.raises(AuditError) as exc:
        env.run()
    assert [v.rule for v in exc.value.violations] == ["orphaned-waiter"]


def test_interrupted_any_of_withdraws_store_getter():
    """Orphanhood propagates through conditions: interrupting a process
    parked on any_of(store.get(), timeout) must withdraw the getter."""
    env = Environment()
    Auditor(env)
    store = Store(env)

    def waiter():
        try:
            yield env.any_of([store.get(), env.timeout(1000)])
        except Interrupt:
            pass

    proc = env.process(waiter())

    def killer():
        yield env.timeout(10)
        proc.interrupt("stop")

    env.process(killer())
    env.run()                  # quiesce: no orphaned waiter may remain
    assert not store._getters
    assert store.cancelled_gets == 1


def test_interrupted_credit_gate_withdraws_itself():
    env = Environment()
    endpoint = SimpleNamespace(env=env, _credit_waiters={},
                               withdrawn_waiters=0)
    from repro.upper.eadi import _CreditGate
    gate = _CreditGate(endpoint, dst_rank=1)
    endpoint._credit_waiters[1] = [gate]

    def waiter():
        try:
            yield env.any_of([gate, env.timeout(1000)])
        except Interrupt:
            pass

    proc = env.process(waiter())

    def killer():
        yield env.timeout(10)
        proc.interrupt("stop")

    env.process(killer())
    env.run()
    assert endpoint._credit_waiters == {}
    assert endpoint.withdrawn_waiters == 1


# -------------------------------------------------- firmware checkers
class _SilentDropper(FaultInjector):
    """Drops one DATA packet without putting it on the per-flow ledger
    (the bug class the conservation equation exists to catch)."""

    def adjudicate(self, packet):
        if not self.scripted_drops and packet.ptype is PacketType.DATA:
            self.scripted_drops = 1
            return []
        return [(0, packet)]


def test_silent_link_drop_breaks_byte_conservation():
    cluster = Cluster(n_nodes=2, observers=("audit",))
    link = cluster.network.nic_endpoints[0].link   # the sender's first hop
    link.injector = _SilentDropper(cluster.env, FaultPlan(), link.name)
    sample = measure_one_way(cluster, 16384, repeats=1, warmup=0)
    assert sample.received_payloads_ok   # go-back-N recovered the loss
    with pytest.raises(AuditError) as exc:
        cluster.env.run()
    rules = {v.rule for v in exc.value.violations}
    assert "byte-conservation" in rules


def test_accounted_link_drop_keeps_conservation():
    """Same loss, but adjudicated by the real injector: the drop is on
    the ledger and conservation holds."""
    cluster = Cluster(n_nodes=2, observers=("audit",),
                      fault_plan=FaultPlan(seed=11, drop_rate=0.3))
    measure_one_way(cluster, 16384, repeats=2, warmup=0)
    cluster.env.run()
    assert cluster.auditor.report()["violations"] == 0


def test_sequence_monotonicity_check():
    env = Environment()
    auditor = Auditor(env)
    flow = (0, 1)
    receiver = SimpleNamespace(expected_seq=3)
    packet = SimpleNamespace(seq=5, ptype=PacketType.DATA, message_id=1)
    with pytest.raises(AuditError) as exc:
        auditor.firmware._check_accept(auditor, flow, receiver, packet,
                                       before=4, deliver=False)
    assert exc.value.violations[0].rule == "sequence-monotonicity"


def test_in_order_delivery_check():
    env = Environment()
    auditor = Auditor(env)
    receiver = SimpleNamespace(expected_seq=5)
    packet = SimpleNamespace(seq=5, ptype=PacketType.DATA, message_id=1)
    with pytest.raises(AuditError) as exc:
        auditor.firmware._check_accept(auditor, (0, 1), receiver, packet,
                                       before=4, deliver=True)
    assert exc.value.violations[0].rule == "in-order-delivery"


def test_reassembly_residue_detected():
    cluster = Cluster(n_nodes=2, observers=("audit",))
    cluster.mcps[1]._inflight_pool[999] = object()
    with pytest.raises(AuditError) as exc:
        cluster.auditor.check_quiesce()
    assert exc.value.violations[0].rule == "reassembly-residue"


# ---------------------------------------------------- kernel checkers
def test_pin_leak_at_exit_detected():
    cluster = Cluster(n_nodes=1, observers=("audit",))
    proc = cluster.spawn(0)
    vaddr = proc.space.alloc(8192)
    proc.space.pin(vaddr, 8192)          # never unpinned
    with pytest.raises(AuditError) as exc:
        cluster.nodes[0].exit_process(proc.pid)
    assert exc.value.violations[0].rule == "pin-leak-at-exit"


def test_exit_with_open_port_releases_pins():
    """Regression for the pin-leak bug: exiting with a port still open
    must release the pool-buffer and channel pins (audited exit)."""
    cluster = Cluster(n_nodes=2, observers=("audit",))
    proc = cluster.spawn(0)
    lib = BclLibrary(proc)

    def open_port():
        port = yield from lib.create_port(port_id=3, n_normal_channels=4)
        return port

    run_procs(cluster, open_port())
    assert proc.space.pinned_pages > 0   # the port pinned real pages
    cluster.nodes[0].exit_process(proc.pid)   # audited: must not raise
    assert proc.space.pinned_pages == 0
    assert not [key for key in cluster.nodes[0].kernel.pindown._entries
                if key[0] == proc.pid]
    cluster.env.run()
    assert cluster.auditor.report()["violations"] == 0


def test_pindown_desync_detected():
    cluster = Cluster(n_nodes=1, observers=("audit",))
    proc = cluster.spawn(0)
    node = cluster.nodes[0]
    node.kernel.pindown._entries[(proc.pid, 0x1000)] = proc.space
    with pytest.raises(AuditError) as exc:
        cluster.auditor.check_quiesce()
    assert exc.value.violations[0].rule == "pindown-desync"


# ------------------------------------------------------- bcl checkers
def test_credit_overflow_detected():
    cluster = Cluster(n_nodes=2, observers=("audit",))

    def tamper(ep):
        peer = 1 - ep.rank
        ep.eadi._credits[peer] = ep.eadi._credits_initial + 5
        ep.eadi._release_credits(peer, 1)
        yield cluster.env.timeout(0)

    with pytest.raises(AuditError) as exc:
        run_spmd(cluster, 2, tamper)
    assert exc.value.violations[0].rule == "credit-overflow"


def test_waiter_survived_teardown_detected():
    cluster = Cluster(n_nodes=2, observers=("audit",))

    def leak(ep):
        ep.close()
        ep.eadi._credit_waiters[1 - ep.rank] = [Event(cluster.env)]
        yield cluster.env.timeout(0)
        return ep

    endpoints = run_spmd(cluster, 2, leak)   # keep endpoints alive
    assert endpoints
    with pytest.raises(AuditError) as exc:
        cluster.auditor.check_quiesce()
    assert exc.value.violations[0].rule == "waiter-survived-teardown"


def test_spmd_teardown_leaves_no_waiters():
    """run_spmd closes every endpoint; close() withdraws parked waiters
    and the quiesce check stays silent."""
    cluster = Cluster(n_nodes=2, observers=("audit",))

    def chatter(ep):
        peer = 1 - ep.rank
        buf = ep.proc.alloc(4096)
        for i in range(4):
            if ep.rank == 0:
                yield from ep.send(peer, buf, 2048, i)
            else:
                yield from ep.recv(peer, i, buf, 4096)
        return ep

    endpoints = run_spmd(cluster, 2, chatter)
    assert all(ep.eadi.closed for ep in endpoints)
    cluster.env.run()
    assert cluster.auditor.report()["violations"] == 0


# ------------------------------------------------------------- report
def test_report_shape():
    cluster = Cluster(n_nodes=2, observers=("audit",))
    measure_one_way(cluster, 4096, repeats=1, warmup=0)
    cluster.env.run()
    report = cluster.auditor.report()
    for key in ("flows_audited", "packets_arrived", "packets_delivered",
                "stores_tracked", "resources_tracked", "eadi_endpoints",
                "quiesce_checks", "violations"):
        assert key in report
    assert report["packets_arrived"] >= report["packets_delivered"] > 0
