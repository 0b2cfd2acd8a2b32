"""The benchmark's three workloads, built only from public entry points.

Each workload is a list of :class:`harness.Op` - one fresh-cluster
operation each, repeated round-robin by :func:`harness.run_ops` - plus
an end-of-run check.  Every op returns its simulated outputs; its
``check`` compares them with the expected values (exact where the
simulation is deterministic for the seed, invariants otherwise).
"""

from __future__ import annotations

import json
import math
import random
import statistics
from pathlib import Path

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import PAPER
from repro.experiments.runner import run_cell
from repro.experiments.scale import _StageAggregator
from repro.instrument.measure import measure_intra_node, measure_one_way
from repro.serve.config import ServeConfig
from repro.serve.tier import run_serve
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd

from harness import Op

#: the seed the committed BENCH_*.json artifacts and references use
DEFAULT_SEED = 1

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())


def cost_model(seed: int) -> CostModel:
    """The calibrated DAWNING-3000 model with the workload seed's ECMP."""
    return DAWNING_3000.replace(ecmp_seed=seed)


# ---------------------------------------------------------------- ping-pong
#: (stream, bytes, samples, warm-up) - BCL one-way latency streams
BCL_STREAMS = ((0, 24, 2), (4096, 12, 1), (131072, 4, 1))
#: MPI/PVM ping-pong streams; every sixth 0-B round trip returns eager
#: credits, so 24 samples hold four slow ones and the median is robust
LAYER_STREAMS = ((0, 24, 2), (262144, 3, 1))
#: relative bands benchmarks/test_table3_mpi_pvm.py asserts
BAND_BCL = 0.03
BAND_LAYER = 0.10


def _bcl_op(cfg: CostModel, nbytes: int, repeats: int, warmup: int,
            intra: bool) -> Op:
    label = f"bcl/{'intra' if intra else 'inter'}/{nbytes}"

    def run():
        if intra:
            sample = measure_intra_node(Cluster(n_nodes=1, cfg=cfg), nbytes,
                                        repeats=repeats, warmup=warmup)
        else:
            sample = measure_one_way(Cluster(n_nodes=2, cfg=cfg), nbytes,
                                     repeats=repeats, warmup=warmup)
        return {"samples_us": sample.samples_us,
                "payload_ok": sample.received_payloads_ok}

    return Op(label, run, _stable_samples(label))


def layer_pingpong(cfg: CostModel, layer: str, intra: bool, nbytes: int,
                   repeats: int, warmup: int, payloads: list) -> dict:
    """Half round-trip samples of an MPI/PVM ping-pong on a fresh cluster.

    Rank 1 echoes what it receives; rank 0 checks the echo against the
    pre-generated ``payloads`` it sent (one per round trip).
    """
    cluster = Cluster(n_nodes=1 if intra else 2, cfg=cfg)
    samples: list[float] = []
    echo_ok = [True]

    def fn(ep):
        env = ep.port.env
        proc = ep.proc
        buf = proc.alloc(max(nbytes, 1))
        for i in range(repeats + warmup):
            if ep.rank == 0:
                if nbytes:
                    proc.write(buf, payloads[i])
                t0 = env.now
                yield from ep.eadi.send(1, buf, nbytes, tag=i)
                yield from ep.eadi.recv(1, i, buf, max(nbytes, 1))
                if i >= warmup:
                    samples.append(ns_to_us(env.now - t0) / 2)
                if nbytes and proc.read(buf, nbytes) != payloads[i]:
                    echo_ok[0] = False
            else:
                yield from ep.eadi.recv(0, i, buf, max(nbytes, 1))
                yield from ep.eadi.send(0, buf, nbytes, tag=i)

    run_spmd(cluster, 2, fn, layer=layer,
             placement=[0, 0] if intra else None)
    return {"samples_us": samples, "payload_ok": echo_ok[0]}


def _layer_op(cfg: CostModel, layer: str, nbytes: int, repeats: int,
              warmup: int, intra: bool, seed: int) -> Op:
    label = f"{layer}/{'intra' if intra else 'inter'}/{nbytes}"
    rng = random.Random(f"{seed}:{label}")
    payloads = [rng.randbytes(nbytes) for _ in range(repeats + warmup)]
    return Op(label,
              lambda: layer_pingpong(cfg, layer, intra, nbytes, repeats,
                                     warmup, payloads),
              _stable_samples(label))


def _stable_samples(label: str):
    """Check: payload intact, and the samples repeat exactly each round
    (the simulation is deterministic, so any drift is a defect)."""
    first: list = []

    def check(result) -> list[str]:
        problems = []
        if not result["payload_ok"]:
            problems.append("payload mismatch")
        if not result["samples_us"]:
            problems.append("no samples")
        if not first:
            first.append(result["samples_us"])
        elif result["samples_us"] != first[0]:
            problems.append(f"samples differ from the first round "
                            f"({result['samples_us'][:3]} vs "
                            f"{first[0][:3]})")
        return problems

    check.first = first
    return check


def pingpong_ops(seed: int) -> list[Op]:
    """Closed-loop, one-message-in-flight streams in a seeded order."""
    cfg = cost_model(seed)
    ops = []
    for intra in (False, True):
        for nbytes, repeats, warmup in BCL_STREAMS:
            ops.append(_bcl_op(cfg, nbytes, repeats, warmup, intra))
        for layer in ("mpi", "pvm"):
            for nbytes, repeats, warmup in LAYER_STREAMS:
                ops.append(_layer_op(cfg, layer, nbytes, repeats, warmup,
                                     intra, seed))
    random.Random(seed).shuffle(ops)
    return ops


def paper_anchors(ops: list[Op]) -> list[dict]:
    """Simulated paper anchors from the ops' median samples.

    BCL/MPI/PVM 0-B latency and peak bandwidth, intra- and inter-node
    (Table 3, Figs 8-9); bandwidth is bytes over the median one-way
    (BCL) or half round-trip (MPI/PVM) time.
    """
    med = {op.label: statistics.median(op.check.first[0])
           for op in ops if op.check.first}
    anchors = []

    def add(name, sim, paper_key, band):
        anchors.append({"name": name, "sim": sim,
                        "paper": PAPER[paper_key], "band": band})

    for where in ("inter", "intra"):
        add(f"bcl_{where}_0b_us", med[f"bcl/{where}/0"],
            f"oneway_0b_{where}_us", BAND_BCL)
        add(f"bcl_{where}_bw_mb_s", 131072 / med[f"bcl/{where}/131072"],
            f"peak_bw_{where}_mb_s", None)
        for layer in ("mpi", "pvm"):
            add(f"{layer}_{where}_0b_us", med[f"{layer}/{where}/0"],
                f"{layer}_latency_{where}_us", BAND_LAYER)
            add(f"{layer}_{where}_bw_mb_s",
                262144 / med[f"{layer}/{where}/262144"],
                f"{layer}_bw_{where}_mb_s", BAND_LAYER)
    for a in anchors:
        a["error_pct"] = abs(a["sim"] - a["paper"]) / a["paper"] * 100.0
    return anchors


# ---------------------------------------------------------------- collectives
#: (n_ranks, topology, collectives) of the two ext-scale cells
SCALE_CELLS = ((256, "single_switch", "host"), (1024, "fat_tree", "nic"))
SCALE_CELLS_SMALL = ((16, "single_switch", "host"), (64, "fat_tree", "nic"))


def _scale_op(cfg: CostModel, n_ranks: int, topology: str,
              collectives: str, exact: bool) -> Op:
    label = f"barrier/{topology}/{n_ranks}/{collectives}"

    def run():
        return run_cell("scale.point", cfg=cfg, n_ranks=n_ranks,
                        topology=topology, collectives=collectives,
                        op="barrier")

    ref = REFERENCE["fabric-collectives"].get(label)

    def check(payload) -> list[str]:
        problems = []
        if not payload["latency_us"] > 0 or not payload["events"] > 0:
            problems.append("barrier did not complete")
        if not payload["stage_table"]:
            problems.append("empty stage table")
        if ref is None:
            return problems
        # Another ECMP seed only picks among equal-length up/down paths.
        for key, tolerance in (("latency_us", 0.02), ("events", 0.001)):
            drift = abs(payload[key] - ref[key]) / ref[key]
            if drift > (0.0 if exact else tolerance):
                problems.append(f"{key} {payload[key]} != {ref[key]}")
        return problems

    return Op(label, run, check)


def fabric_ops(seed: int, small: bool = False) -> list[Op]:
    """The 256-rank host barrier and the 1024-rank fat-tree NIC barrier.

    The single-switch cell ignores the ECMP seed, so it is checked
    exactly at every seed; the fat-tree cell exactly at the default
    seed (the one BENCH_scale.json records) and by invariants elsewhere.
    """
    cfg = cost_model(seed)
    cells = SCALE_CELLS_SMALL if small else SCALE_CELLS
    return [_scale_op(cfg, n, topo, coll,
                      exact=(topo == "single_switch" or seed == DEFAULT_SEED))
            for n, topo, coll in cells]


# ---------------------------------------------------------------- serving
#: (arrivals, rho, requests): Poisson below the knee, and bursty
#: overload that sheds about half its arrivals.  How much the bursty
#: point sheds swings with the seed (a few long bursts per run), so it
#: is kept small next to the Poisson point, whose work barely varies;
#: the Poisson point keeps 24 OK replies beyond its p99.
SERVE_POINTS = (("poisson", 0.8, 2400), ("bursty", 1.4, 1000))
#: outputs compared exactly with reference.json at the default seed
SERVE_EXACT = ("completed_ok", "shed_server", "shed_client",
               "admission_parks", "p50_us", "p99_us", "credit_stalls",
               "events")


def serve_point(cfg: CostModel, scfg: ServeConfig, rho: float) -> dict:
    """One open-loop point on a traced cluster, as ext-serve runs it."""
    cluster = Cluster(n_nodes=scfg.n_servers + scfg.n_client_ranks,
                      cfg=cfg, trace=True)
    agg = _StageAggregator(cluster.tracer)
    agg.armed = True
    payload = run_serve(scfg, rho, cfg=cfg, cluster=cluster).to_dict()
    payload["stage_table"] = agg.table()
    return payload


def _serve_op(cfg: CostModel, arrivals: str, rho: float, requests: int,
              seed: int, exact: bool) -> Op:
    label = f"{arrivals}/{rho}"
    scfg = ServeConfig(requests=requests, policy="round_robin",
                       arrivals=arrivals, seed=seed)
    ref = REFERENCE["serve-open"][label] if exact else None

    def check(p) -> list[str]:
        problems = []
        offered = p["requests"]
        settled = p["completed_ok"] + p["shed_server"] + p["shed_client"]
        if settled != offered:
            problems.append(f"ok + shed = {settled} != offered {offered}")
        served = sum(s["served"] for s in p["per_server"])
        if served != p["completed_ok"]:
            problems.append(f"served {served} != ok {p['completed_ok']}")
        if not p["completed_ok"]:
            problems.append("no request completed")
        if ref is not None:
            for key in SERVE_EXACT:
                if p[key] != ref[key]:
                    problems.append(f"{key} {p[key]} != {ref[key]}")
        return problems

    return Op(label, lambda: serve_point(cfg, scfg, rho), check)


def serve_ops(seed: int, small: bool = False) -> list[Op]:
    """Open-loop points; exact against reference.json at the default
    seed, conservation invariants at every seed."""
    cfg = cost_model(seed)
    return [_serve_op(cfg, arrivals, rho, 200 if small else requests, seed,
                      exact=seed == DEFAULT_SEED and not small)
            for arrivals, rho, requests in SERVE_POINTS]


def tail_percentile(completed: int) -> float:
    """Highest of p99.9/p99/p50 (nearest rank, as ServeReport computes
    them) with at least ten samples beyond it."""
    for p in (99.9, 99.0):
        if completed - math.ceil(p / 100 * completed) >= 10:
            return p
    return 50.0
