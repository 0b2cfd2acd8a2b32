"""SPMD job construction: N ranks over a cluster, MPI- or PVM-flavoured.

A :class:`Job` spawns one process per rank (round-robin over nodes by
default, or packed onto one node for intra-node measurements), opens a
BCL port per rank, builds the rank -> address map, and wires up the
requested endpoint layer.  :func:`run_spmd` then runs one generator
function per rank to completion — the simulated ``mpiexec``.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.bcl.address import BclAddress
from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.kernel.errors import BclError

__all__ = ["Job", "run_spmd"]

#: port ids used by job ranks start here (clear of ad-hoc test ports)
RANK_PORT_BASE = 100


class Job:
    """A set of communicating ranks on a cluster."""

    def __init__(self, cluster: Cluster, n_ranks: int,
                 layer: str = "mpi",
                 placement: Optional[list[int]] = None,
                 n_channels: int = 8,
                 collectives: str = "host"):
        if layer not in ("mpi", "pvm", "eadi"):
            raise BclError(f"unknown layer {layer!r}")
        if collectives not in ("host", "nic"):
            raise BclError(f"unknown collectives policy {collectives!r}")
        self.cluster = cluster
        self.n_ranks = n_ranks
        self.layer = layer
        if placement is None:
            placement = [r % len(cluster.nodes) for r in range(n_ranks)]
        if len(placement) != n_ranks:
            raise BclError("placement must list one node per rank")
        self.placement = placement
        self.n_channels = n_channels
        self.collectives = collectives
        self.endpoints: dict[int, object] = {}
        self.addresses: dict[int, BclAddress] = {
            rank: BclAddress(placement[rank], RANK_PORT_BASE + rank)
            for rank in range(n_ranks)
        }
        #: node -> (CollGroup, NicCollectives) for the nic policy
        self._nic_groups: dict[int, tuple] = {}
        if collectives == "nic" and layer in ("mpi", "pvm"):
            self._register_nic_tree()

    def _register_nic_tree(self) -> None:
        """Register this job's fan-in/fan-out tree on every node's MCP.

        One group over the distinct participating nodes (first-placed
        node is the root), with per-node local rank counts — the
        firmware's per-child completion accounting needs both.
        """
        from repro.firmware.collectives import (CollGroup, build_node_tree,
                                                next_group_id)
        group_id = next_group_id()
        nodes = list(dict.fromkeys(self.placement))
        tree = build_node_tree(nodes, self.cluster.cfg.coll_fanout)
        counts = {node: self.placement.count(node) for node in nodes}
        for node in nodes:
            parent, children = tree[node]
            engine = self.cluster.mcps[node].coll
            group = CollGroup(group_id, node, parent, children,
                              counts[node])
            engine.register_group(group)
            self._nic_groups[node] = (group, engine)

    def start_rank(self, rank: int) -> Generator:
        """Create the process/port/endpoint for one rank (a generator —
        run inside the simulation)."""
        from repro.upper.eadi import ENVELOPE_BYTES
        proc = self.cluster.spawn(self.placement[rank])
        lib = BclLibrary(proc)
        cfg = self.cluster.cfg
        port = yield from lib.create_port(
            port_id=RANK_PORT_BASE + rank,
            n_normal_channels=self.n_channels,
            # Pool buffers must hold a full eager payload plus envelope.
            system_buffer_bytes=cfg.eadi_eager_threshold + ENVELOPE_BYTES)
        endpoint = self._make_endpoint(rank, port)
        self.endpoints[rank] = endpoint
        return endpoint

    def _make_endpoint(self, rank: int, port):
        if self.layer == "mpi":
            from repro.upper.mpi import MpiEndpoint
            endpoint = MpiEndpoint(rank, self.n_ranks, port, self.addresses,
                                   collectives=self.collectives)
        elif self.layer == "pvm":
            from repro.upper.pvm import PvmTask
            endpoint = PvmTask(rank, self.n_ranks, port, self.addresses,
                               collectives=self.collectives)
        else:
            from repro.upper.eadi import EadiEndpoint
            return EadiEndpoint(rank, port, self.addresses)
        if self._nic_groups:
            group, engine = self._nic_groups[self.placement[rank]]
            endpoint.nic_group = group
            endpoint.nic_coll = engine
        return endpoint


def run_spmd(cluster: Cluster, n_ranks: int,
             fn: Callable[..., Generator], layer: str = "mpi",
             placement: Optional[list[int]] = None,
             n_channels: int = 8, collectives: str = "host") -> list:
    """Run ``fn(endpoint)`` as one simulated process per rank.

    ``fn`` is a generator function taking the rank's endpoint; its
    return values are collected and returned rank-ordered.
    ``collectives="nic"`` offloads barrier/bcast/allreduce to the MCP
    firmware tree — the program itself is unchanged.
    """
    job = Job(cluster, n_ranks, layer, placement, n_channels, collectives)
    env = cluster.env

    def rank_main(rank: int) -> Generator:
        endpoint = yield from job.start_rank(rank)
        # Everybody must have a port before anyone sends.
        while len(job.endpoints) < n_ranks:
            yield env.timeout(1000)
        try:
            result = yield from fn(endpoint)
        finally:
            # Endpoint teardown withdraws any parked credit/channel
            # waiters (audited: none may survive close()).
            close = getattr(endpoint, "close", None)
            if close is not None:
                close()
        return result

    procs = [env.process(rank_main(rank), name=f"rank{rank}")
             for rank in range(n_ranks)]
    env.run(until=env.all_of(procs))
    return [p.value for p in procs]
