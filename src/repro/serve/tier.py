"""The serving tier: RPC over EADI endpoints, end to end.

``run_serve`` builds (or borrows) a cluster, places ``n_servers``
server ranks and ``n_client_ranks`` load-generator ranks on their own
nodes, and runs one offered-load point to completion:

* **client ranks** replay a pre-generated open-loop schedule
  (:mod:`repro.workloads.serve`), multiplexing all of their simulated
  clients over one EADI endpoint.  Each arrival passes the client-side
  :class:`~repro.serve.admission.AdmissionWindow` (bounded in-flight +
  bounded park queue, open-loop shed beyond that), asks the
  :class:`~repro.serve.switch.FrontSwitch` for a backend, and runs as
  its own request process: send, await reply, record
  arrival-to-reply latency — *including* any time parked, which is
  what an open-loop tail measurement must charge.
* **server ranks** run a single intake loop (sole owner of protocol
  matching) plus a :class:`~repro.serve.pool.WorkerPool`.  Intake
  drains whatever has arrived, sorts the batch by the client-stamped
  ``(arrival_ns, src, tag)`` key, charges the front-switch dispatch
  cost and admits into the bounded queue — or replies SHED on the
  spot.  Workers burn the request's pre-sampled service time and send
  the OK reply themselves (EADI's staging lock serializes the wire).

Termination: each client sends one STOP (tag 0) to every server after
its last reply lands; a server exits once every client rank has
stopped and its queue has drained.  Server memory is bounded by
construction: one recv slot, a depth-bounded queue of small request
records, and the EADI credit machinery bounding undrained arrivals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.instrument.stats import nearest_rank
from repro.serve.admission import AdmissionWindow
from repro.serve.config import ServeConfig
from repro.serve.pool import WorkerPool
from repro.serve.rpc import (HEADER_BYTES, K_REQUEST, K_STOP, R_OK, R_SHED,
                             pack_header, unpack_header)
from repro.serve.switch import FrontSwitch
from repro.sim.time import ns_to_us
from repro.telemetry.recorder import dump_on_failure
from repro.upper.eadi import ANY_SOURCE, ANY_TAG
from repro.upper.job import run_spmd
from repro.workloads.serve import schedules

__all__ = ["ServeReport", "run_serve"]


@dataclass
class _ServerStats:
    rank: int
    admitted: int = 0
    served: int = 0
    shed: int = 0
    stops_seen: int = 0
    peak_queue: int = 0


@dataclass
class _Request:
    """What the server keeps while a request is queued (the payload
    buffer is released at recv time; only this record is held)."""

    src_rank: int
    tag: int
    client_id: int
    arrival_ns: int
    service_ns: int
    reply_bytes: int


@dataclass
class ServeReport:
    """One offered-load point, JSON-able via ``to_dict``."""

    rho: float
    offered_rps: float
    capacity_rps: float
    requests: int
    completed_ok: int
    shed_server: int
    shed_client: int
    goodput_rps: float
    p50_us: Optional[float]
    p99_us: Optional[float]
    p999_us: Optional[float]
    admission_parks: int
    peak_in_flight: int
    peak_parked: int
    peak_queue: int
    credit_stalls: int
    makespan_us: float
    events: int
    per_server: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho, "offered_rps": round(self.offered_rps, 1),
            "capacity_rps": round(self.capacity_rps, 1),
            "requests": self.requests, "completed_ok": self.completed_ok,
            "shed_server": self.shed_server,
            "shed_client": self.shed_client,
            "goodput_rps": round(self.goodput_rps, 1),
            "p50_us": self.p50_us, "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "admission_parks": self.admission_parks,
            "peak_in_flight": self.peak_in_flight,
            "peak_parked": self.peak_parked,
            "peak_queue": self.peak_queue,
            "credit_stalls": self.credit_stalls,
            "makespan_us": self.makespan_us, "events": self.events,
            "per_server": self.per_server,
        }


def run_serve(scfg: ServeConfig, rho: float,
              cfg: CostModel = DAWNING_3000,
              cluster: Optional[Cluster] = None,
              topology: str = "single_switch") -> ServeReport:
    """Run one offered-load point ``rho`` (fraction of nominal service
    capacity) and return its :class:`ServeReport`."""
    scfg.validate()
    n_servers, n_clients = scfg.n_servers, scfg.n_client_ranks
    n_ranks = n_servers + n_clients
    if cluster is None:
        cluster = Cluster(n_nodes=n_ranks, cfg=cfg, topology=topology)
    elif len(cluster.nodes) < n_ranks:
        raise ValueError(f"cluster has {len(cluster.nodes)} nodes; "
                         f"the deployment needs {n_ranks}")
    env = cluster.env
    cost = cluster.cfg
    server_ranks = tuple(range(n_servers))
    plans = schedules(scfg, rho)

    pools: dict[int, WorkerPool] = {}
    stats = {rank: _ServerStats(rank) for rank in server_ranks}
    switch = FrontSwitch(
        scfg.policy, server_ranks,
        lambda rank: pools[rank].load if rank in pools else 0,
        hash_replicas=scfg.hash_replicas, seed=scfg.seed)

    latencies_ns: list[int] = []
    shed_server_n = {"n": 0}
    windows: list[AdmissionWindow] = []
    endpoints: list = []
    t_first = {"ns": None}
    t_last = {"ns": 0}

    # ------------------------------------------------------- telemetry
    session = getattr(env, "_telemetry", None)
    latency_hist = None
    if session is not None:
        reg = session.registry
        latency_hist = reg.histogram(
            "repro_serve_latency_ns",
            "arrival-to-reply latency of completed requests")
        reg.register_callback(
            "repro_serve_ok_total", lambda: len(latencies_ns),
            "requests completed with an OK reply", kind="counter")
        reg.register_callback(
            "repro_serve_shed_total", lambda: shed_server_n["n"],
            "requests shed by server admission control",
            kind="counter", where="server")
        reg.register_callback(
            "repro_serve_shed_total",
            lambda: sum(w.shed for w in windows),
            "arrivals shed by the client admission window",
            kind="counter", where="client")
        for rank in server_ranks:
            reg.register_callback(
                "repro_serve_queue_depth",
                lambda rank=rank: (pools[rank].load
                                   if rank in pools else 0),
                "queued + in-service requests", kind="gauge",
                server=rank)

    # ------------------------------------------------------ server side
    def server_main(ep) -> Generator:
        proc = ep.lib.proc
        my = stats[ep.rank]
        max_reply = max(scfg.reply_bytes, HEADER_BYTES)
        ok_vaddr = proc.alloc(max_reply)
        proc.write(ok_vaddr, bytes([R_OK]) + b"K" * (max_reply - 1))
        shed_vaddr = proc.alloc(HEADER_BYTES)
        proc.write(shed_vaddr, bytes([R_SHED]).ljust(HEADER_BYTES, b"S"))
        recv_slot = proc.alloc(scfg.req_bytes_cap + HEADER_BYTES)
        outstanding = {"n": 0}
        done_wake = {"ev": None}

        def service(item: _Request, _worker_index: int) -> Generator:
            if cost.serve_worker_overhead_us > 0:
                yield env.timeout(
                    max(1, round(cost.serve_worker_overhead_us * 1000)))
            yield env.timeout(item.service_ns)
            yield from ep.send(item.src_rank, ok_vaddr, item.reply_bytes,
                               tag=item.tag)
            my.served += 1
            outstanding["n"] -= 1
            wake = done_wake["ev"]
            if wake is not None and not wake.triggered:
                wake.succeed()

        pool = WorkerPool(env, scfg.workers, scfg.queue_depth, service,
                          name=f"serve{ep.rank}")
        pools[ep.rank] = pool

        while True:
            batch: list[_Request] = []
            while True:
                found = yield from ep.iprobe(ANY_SOURCE, ANY_TAG)
                if found is None:
                    break
                src, tag, _length = found
                yield from ep.recv(src, tag, recv_slot,
                                   scfg.req_bytes_cap + HEADER_BYTES)
                header = unpack_header(proc.read(recv_slot, HEADER_BYTES))
                if header.kind == K_STOP:
                    my.stops_seen += 1
                    continue
                batch.append(_Request(
                    src_rank=src, tag=tag, client_id=header.client_id,
                    arrival_ns=header.arrival_ns,
                    service_ns=header.service_ns,
                    reply_bytes=max(header.reply_bytes, 1)))
            # Priority order is the client-stamped identity, so the
            # admission sequence is invariant to same-instant delivery
            # permutations (fuzz tie-break shuffler).
            batch.sort(key=lambda r: (r.arrival_ns, r.src_rank, r.tag))
            for req in batch:
                if cost.serve_dispatch_us > 0:
                    yield from proc.cpu.execute(cost.serve_dispatch_us,
                                                category="serve",
                                                stage="serve_dispatch")
                if pool.queue.try_put(
                        (req.arrival_ns, req.src_rank, req.tag), req):
                    my.admitted += 1
                    outstanding["n"] += 1
                    my.peak_queue = max(my.peak_queue, pool.load)
                else:
                    my.shed += 1
                    shed_server_n["n"] += 1
                    yield from ep.send(req.src_rank, shed_vaddr,
                                       HEADER_BYTES, tag=req.tag)
            if my.stops_seen >= n_clients and outstanding["n"] == 0 \
                    and not len(pool.queue):
                break
            wake = done_wake["ev"] = ep.port.env.event()
            yield env.any_of([wake,
                              ep.port.recv_queue.wakeup_event(),
                              ep.port._shm_wakeup_event()])
            done_wake["ev"] = None
        pool.stop()
        yield pool.drained()
        return my

    # ------------------------------------------------------ client side
    def client_main(ep, slot: int) -> Generator:
        proc = ep.lib.proc
        plan = plans[slot]
        window = AdmissionWindow(env, scfg.window, scfg.client_queue)
        windows.append(window)
        max_reply = max(scfg.reply_bytes, HEADER_BYTES)
        free: deque = deque()
        for _ in range(scfg.window):
            free.append((proc.alloc(scfg.req_bytes_cap + HEADER_BYTES),
                         proc.alloc(max_reply)))
        t0 = env.now
        if plan and (t_first["ns"] is None
                     or t0 + plan[0].t_ns < t_first["ns"]):
            t_first["ns"] = t0 + plan[0].t_ns

        def request(arr, gate) -> Generator:
            if gate is not None:
                yield gate
            req_vaddr, rep_vaddr = free.popleft()
            server = switch.pick(arr.client_id, slot)
            proc.write(req_vaddr, pack_header(
                K_REQUEST, client_id=arr.client_id,
                arrival_ns=t0 + arr.t_ns, service_ns=arr.service_ns,
                reply_bytes=arr.reply_bytes))
            yield from ep.send(server, req_vaddr, arr.req_bytes,
                               tag=arr.req_index)
            yield from ep.recv(server, arr.req_index, rep_vaddr, max_reply)
            flag = proc.read(rep_vaddr, 1)[0]
            if flag == R_OK:
                latency = env.now - (t0 + arr.t_ns)
                latencies_ns.append(latency)
                if latency_hist is not None:
                    latency_hist.observe(latency)
            t_last["ns"] = max(t_last["ns"], env.now)
            free.append((req_vaddr, rep_vaddr))
            window.release()

        spawned = []
        for arr in plan:
            deadline = t0 + arr.t_ns
            if deadline > env.now:
                yield env.timeout(deadline - env.now)
            gate = window.admit()
            if gate is False:
                continue          # open-loop shed (window.shed counted)
            spawned.append(env.process(request(arr, gate)))
        if spawned:
            yield env.all_of(spawned)
        stop_vaddr = proc.alloc(HEADER_BYTES)
        proc.write(stop_vaddr, pack_header(K_STOP))
        for rank in server_ranks:
            yield from ep.send(rank, stop_vaddr, HEADER_BYTES, tag=0)

    def rank_fn(ep) -> Generator:
        endpoints.append(ep)
        if ep.rank < n_servers:
            return (yield from server_main(ep))
        return (yield from client_main(ep, ep.rank - n_servers))

    try:
        run_spmd(cluster, n_ranks, rank_fn, layer="eadi",
                 placement=list(range(n_ranks)))
    except BaseException as exc:
        # A crashed load point is exactly what the flight recorder is
        # for: ship the last-K timeline before the exception propagates.
        dump_on_failure(f"serve: {type(exc).__name__} at rho={rho}",
                        env=env, exc=exc, note=str(exc))
        raise

    # -------------------------------------------------------- reporting
    latencies_ns.sort()
    lat_us = [round(ns_to_us(v), 3) for v in latencies_ns]
    ok = len(latencies_ns)
    shed_client = sum(w.shed for w in windows)
    span_ns = (t_last["ns"] - t_first["ns"]
               if ok and t_first["ns"] is not None else 0)
    return ServeReport(
        rho=rho,
        offered_rps=scfg.offered_rps(rho),
        capacity_rps=scfg.capacity_rps,
        requests=scfg.requests,
        completed_ok=ok,
        shed_server=shed_server_n["n"],
        shed_client=shed_client,
        goodput_rps=(ok / (span_ns / 1e9)) if span_ns else 0.0,
        p50_us=nearest_rank(lat_us, 50),
        p99_us=nearest_rank(lat_us, 99),
        p999_us=nearest_rank(lat_us, 99.9),
        admission_parks=sum(w.parks for w in windows),
        peak_in_flight=max((w.peak_in_flight for w in windows), default=0),
        peak_parked=max((w.peak_parked for w in windows), default=0),
        peak_queue=max((s.peak_queue for s in stats.values()), default=0),
        credit_stalls=sum(ep.credit_stalls for ep in endpoints),
        makespan_us=round(ns_to_us(span_ns), 3),
        events=env.events_processed,
        per_server=[{"server": s.rank, "admitted": s.admitted,
                     "served": s.served, "shed": s.shed,
                     "peak_queue": s.peak_queue}
                    for s in stats.values()])
