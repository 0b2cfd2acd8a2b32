"""Extension experiments beyond the paper's evaluation section.

The paper's discussion raises questions its tables never answer; these
experiments do:

* **SMP scaling** — DAWNING nodes are 4-way SMPs: how do concurrent
  process pairs on one node share the shared-memory path, and how do
  multiple pairs share one NIC?
* **Bidirectional traffic** — the wire is full duplex but the MCP's
  engines and the ack traffic are shared: what does a simultaneous
  exchange cost versus one-way?
* **Topology comparison** — the same BCL binary over the single
  switch, the switch tree and the nwrc-style 2-D mesh (the paper's
  heterogeneous-network portability claim, quantified).
"""

from __future__ import annotations

from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import ExperimentResult
from repro.firmware.packet import ChannelKind
from repro.instrument.measure import measure_one_way
from repro.sim.time import ns_to_us

__all__ = ["run_smp_scaling", "run_bidirectional", "run_topologies",
           "run_send_window", "run_dnet", "run_collective_scaling",
           "run_allreduce_algorithms"]


def _concurrent_intra_pairs(cfg: CostModel, n_pairs: int,
                            nbytes: int, messages: int = 6) -> float:
    """Aggregate intra-node bandwidth with n_pairs concurrent pairs."""
    cluster = Cluster(n_nodes=1, cfg=cfg)
    env = cluster.env
    out = {"done": 0}
    finished = env.event()
    t0 = env.now

    def pair(index: int):
        recv_proc = cluster.spawn(0)
        send_proc = cluster.spawn(0)
        recv_port = yield from BclLibrary(recv_proc).create_port(
            port_id=10 + 2 * index)
        send_port = yield from BclLibrary(send_proc).create_port(
            port_id=11 + 2 * index)
        rbuf = recv_proc.alloc(nbytes)
        sbuf = send_proc.alloc(nbytes)
        send_proc.write(sbuf, b"p" * nbytes)
        dest = recv_port.address.with_channel(ChannelKind.NORMAL, 0)

        def receiver():
            for _ in range(messages):
                yield from recv_port.post_recv(0, rbuf, nbytes)
                yield from recv_port.wait_recv()

        def sender():
            for i in range(messages):
                while cluster.node(0).nic.port_state(
                        recv_port.port_id).normal[0] is None:
                    yield env.sleep(1000)
                yield from send_port.send(dest, sbuf, nbytes)
                yield from send_port.wait_send()

        r = env.process(receiver(), name=f"pair{index}.recv")
        s = env.process(sender(), name=f"pair{index}.send")
        yield env.all_of([r, s])
        out["done"] += 1
        if out["done"] == n_pairs:
            finished.succeed(env.now)

    for index in range(n_pairs):
        env.process(pair(index), name=f"pair{index}")
    end = env.run(until=finished)
    elapsed_us = ns_to_us(end - t0)
    return n_pairs * messages * nbytes / elapsed_us


def run_smp_scaling(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Extension: SMP scaling",
        title="Concurrent intra-node pairs on one 4-way SMP node",
        columns=["pairs", "aggregate_mb_s", "per_pair_mb_s"],
        notes="Each pair = 2 processes; beyond 2 pairs the 4 CPUs are "
              "oversubscribed and copies serialise.")
    for n_pairs in (1, 2, 3):
        aggregate = _concurrent_intra_pairs(cfg, n_pairs, 65536)
        result.add(pairs=n_pairs, aggregate_mb_s=aggregate,
                   per_pair_mb_s=aggregate / n_pairs)
    return result


def run_bidirectional(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """Simultaneous exchange vs one-way transfer between two nodes."""
    result = ExperimentResult(
        experiment_id="Extension: bidirectional traffic",
        title="Full-duplex exchange vs one-way transfer (64 KB)",
        columns=["pattern", "per_direction_mb_s", "aggregate_mb_s"],
        notes="The wire is full duplex; the residual loss comes from "
              "ack processing sharing the MCP engines.")
    nbytes = 65536
    one_way = measure_one_way(Cluster(n_nodes=2, cfg=cfg), nbytes,
                              repeats=2, warmup=1)
    result.add(pattern="one-way", per_direction_mb_s=one_way.bandwidth_mb_s,
               aggregate_mb_s=one_way.bandwidth_mb_s)

    cluster = Cluster(n_nodes=2, cfg=cfg)
    env = cluster.env
    peers: dict[int, object] = {}
    both_ready = env.event()
    elapsed = {}

    def peer(node_id: int):
        proc = cluster.spawn(node_id)
        port = yield from BclLibrary(proc).create_port()
        rbuf = proc.alloc(nbytes)
        sbuf = proc.alloc(nbytes)
        proc.write(sbuf, b"b" * nbytes)
        yield from port.post_recv(0, rbuf, nbytes)
        peers[node_id] = port.address
        if len(peers) == 2:
            both_ready.succeed()
        yield both_ready
        dest = peers[1 - node_id].with_channel(ChannelKind.NORMAL, 0)
        t0 = env.now
        yield from port.send(dest, sbuf, nbytes)
        yield from port.wait_recv()
        elapsed[node_id] = ns_to_us(env.now - t0)

    procs = [env.process(peer(0), name="bidi.0"),
             env.process(peer(1), name="bidi.1")]
    env.run(until=env.all_of(procs))
    worst = max(elapsed.values())
    per_direction = nbytes / worst
    result.add(pattern="simultaneous exchange",
               per_direction_mb_s=per_direction,
               aggregate_mb_s=2 * per_direction)
    return result


def run_topologies(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Extension: topology comparison",
        title="The same BCL workload over three fabrics (9 nodes, "
              "corner-to-corner)",
        columns=["topology", "hops", "latency_0b_us", "bw_64k_mb_s"],
        notes="Per-hop cost = switch fall-through + link propagation; "
              "bandwidth is hop-count independent (cut-through).")
    n = 9
    for topology in ("single_switch", "switch_tree", "mesh2d"):
        cluster = Cluster(n_nodes=n, cfg=cfg, topology=topology)
        hops = cluster.network.hops(0, n - 1)
        lat = measure_one_way(cluster, 0, repeats=2, warmup=1,
                              sender_node=0,
                              receiver_node=n - 1).latency_us
        cluster2 = Cluster(n_nodes=n, cfg=cfg, topology=topology)
        bw = measure_one_way(cluster2, 65536, repeats=2, warmup=1,
                             sender_node=0,
                             receiver_node=n - 1).bandwidth_mb_s
        result.add(topology=topology, hops=hops, latency_0b_us=lat,
                   bw_64k_mb_s=bw)
    return result


def run_send_window(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """Go-back-N window size vs streaming bandwidth.

    Window 1 stalls on every ack round trip; by window 2-4 the ack
    latency is fully hidden behind the per-packet wire time.
    """
    from repro.workloads.streams import measure_streaming_bandwidth

    result = ExperimentResult(
        experiment_id="Extension: send window",
        title="Reliability window vs streaming bandwidth (4 KB messages)",
        columns=["window", "bandwidth_mb_s"],
        notes="Ack RTT ~9 us vs 27.3 us per-packet wire time: a window "
              "of 2 already hides it.")
    for window in (1, 2, 4, 8):
        varied = cfg.replace(send_window=window)
        bw = measure_streaming_bandwidth(
            Cluster(n_nodes=2, cfg=varied), 4096, n_messages=24,
            window=8).bandwidth_mb_s
        result.add(window=window, bandwidth_mb_s=bw)
    return result


def run_dnet(cfg: CostModel = DAWNING_3000) -> ExperimentResult:
    """BCL over Myrinet vs BCL over the Dnet mesh (the paper's two
    SAN variants, section 4: "It has two versions")."""
    from repro.config import DNET_MESH

    result = ExperimentResult(
        experiment_id="Extension: Myrinet vs Dnet",
        title="BCL's two SAN variants (9 nodes, corner-to-corner)",
        columns=["san", "topology", "latency_0b_us", "bw_128k_mb_s"],
        notes="Dnet: 32-bit PCI (132 MB/s DMA), slower i960 "
              "co-processor, nwrc1032 wormhole routers.")
    for label, san_cfg, topology in (
            ("Myrinet", cfg, "single_switch"),
            ("Dnet (nwrc mesh)", DNET_MESH, "mesh2d")):
        n = 9
        cluster = Cluster(n_nodes=n, cfg=san_cfg, topology=topology)
        lat = measure_one_way(cluster, 0, repeats=2, warmup=1,
                              sender_node=0,
                              receiver_node=n - 1).latency_us
        cluster2 = Cluster(n_nodes=n, cfg=san_cfg, topology=topology)
        bw = measure_one_way(cluster2, 131072, repeats=2, warmup=1,
                             sender_node=0,
                             receiver_node=n - 1).bandwidth_mb_s
        result.add(san=label, topology=topology, latency_0b_us=lat,
                   bw_128k_mb_s=bw)
    return result


def run_collective_scaling(cfg: CostModel = DAWNING_3000
                           ) -> ExperimentResult:
    """Allreduce latency vs rank count: the log2(p) tree shape."""
    from repro.upper.job import run_spmd
    import numpy as np

    result = ExperimentResult(
        experiment_id="Extension: collective scaling",
        title="MPI allreduce (8 doubles) latency vs rank count",
        columns=["ranks", "nodes", "latency_us"],
        notes="reduce + bcast over binomial trees: ~2*ceil(log2 p) "
              "message steps.")
    for n_ranks in (2, 4, 8, 16):
        n_nodes = min(n_ranks, 8)
        cluster = Cluster(n_nodes=n_nodes, cfg=cfg,
                          topology="switch_tree" if n_nodes > 8
                          else "single_switch")
        t_box = {}

        def fn(ep, _t=t_box):
            env = ep.port.env
            yield from ep.barrier()
            t0 = env.now
            yield from ep.allreduce(np.ones(8), op="sum")
            if ep.rank == 0:
                _t["us"] = ns_to_us(env.now - t0)

        run_spmd(cluster, n_ranks, fn,
                 placement=[r % n_nodes for r in range(n_ranks)])
        result.add(ranks=n_ranks, nodes=n_nodes, latency_us=t_box["us"])
    return result


def run_allreduce_algorithms(cfg: CostModel = DAWNING_3000
                             ) -> ExperimentResult:
    """Tree vs ring allreduce: latency-optimal vs bandwidth-optimal.

    The tree moves the whole payload log2(p) times per phase; the ring
    moves ~2/p of it per step but takes 2(p-1) steps.  The crossover
    with payload size is the classic collective-algorithm trade-off.
    """
    from repro.upper.job import run_spmd
    import numpy as np

    result = ExperimentResult(
        experiment_id="Extension: allreduce algorithms",
        title="Tree vs ring allreduce, 4 ranks on 4 nodes",
        columns=["elements", "bytes", "tree_us", "ring_us", "winner"],
        notes="Small arrays favour the 2*log2(p)-step tree; large "
              "arrays favour the bandwidth-optimal ring.")
    for elements in (8, 1024, 16384, 131072):
        times = {}
        for algorithm in ("tree", "ring"):
            cluster = Cluster(n_nodes=4, cfg=cfg)
            t_box = {}

            def fn(ep, _alg=algorithm, _n=elements, _t=t_box):
                env = ep.port.env
                yield from ep.barrier()
                t0 = env.now
                yield from ep.allreduce(np.ones(_n), op="sum",
                                        algorithm=_alg)
                if ep.rank == 0:
                    _t["us"] = ns_to_us(env.now - t0)

            run_spmd(cluster, 4, fn)
            times[algorithm] = t_box["us"]
        result.add(elements=elements, bytes=elements * 8,
                   tree_us=times["tree"], ring_us=times["ring"],
                   winner="tree" if times["tree"] < times["ring"]
                   else "ring")
    return result
