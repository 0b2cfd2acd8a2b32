"""Topology construction and source routes composed from route pieces.

DAWNING-3000's system area network is either Myrinet (8-port switches)
or the custom nwrc 2-D mesh; both are source-routed cut-through
fabrics.  :func:`build_network` assembles NIC-facing link endpoints,
switches and inter-switch links for several topologies.

Routes are not stored per node pair.  Each builder registers two kinds
of route *piece*:

* for every switch a host attaches to, its **up-prefixes**: the port
  sequences to the *pivot* switches it may turn at, grouped into tiers
  of equal-cost (ECMP) candidates, nearest tier first;
* for every pivot, the **down path** that delivers to each host it
  serves.

:meth:`Network.route` takes the nearest tier whose pivots serve the
destination, picks one candidate with the seeded ECMP hash, and joins
its up-prefix to the pivot's down path, memoizing the routes actually
used.  The pieces number O(switches x hosts), not O(hosts^2).

Topologies:

* ``single_switch`` — all nodes on one crossbar (grown to the needed
  radix); the calibration topology, 2 links + 1 switch per path.
* ``switch_tree`` — 8-port leaf switches (7 hosts + 1 uplink) under a
  root switch, like a small DAWNING Myrinet installation.
* ``mesh2d`` — a 2-D grid of 5-port routing chips (N/S/E/W/host) with
  XY dimension-order routing, standing in for the nwrc mesh.
* ``fat_tree`` — a k-ary 3-level Clos (k pods of k/2 edge + k/2
  aggregation switches, (k/2)^2 cores; up to k^3/4 hosts) with
  source-routed up/down paths and deterministic-seeded ECMP selection
  among the equal-cost uplinks.  The scale-out fabric: thousand-rank
  clusters at 16-port radix.

Every piece is validated against switch radix and physical
connectivity at build time, together with the
coverage of every tier, which proves every composed route valid for any
ECMP seed.  A topology builder emitting an out-of-radix or dead port
fails fast instead of silently dropping packets at forwarding time.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Optional

from repro.config import CostModel
from repro.hw.link import Link, LinkEndpoint
from repro.hw.switch import Switch
from repro.sim import Environment

__all__ = ["Network", "build_network"]

#: equal-cost candidates of one tier: (pivot switch, up-prefix ports)
Tier = tuple[tuple[str, tuple[int, ...]], ...]


class Network:
    """A built fabric: per-node attach endpoints plus route pieces."""

    def __init__(self, env: Environment, cfg: CostModel, n_nodes: int,
                 topology: str):
        self.env = env
        self.cfg = cfg
        self.n_nodes = n_nodes
        self.topology = topology
        self.switches: list[Switch] = []
        self.links: list[Link] = []
        #: endpoint the node's NIC transmits/receives on, per node id
        self.nic_endpoints: dict[int, LinkEndpoint] = {}
        #: host-facing switch -> its ECMP tiers of pivots, nearest first
        self._up: dict[str, list[Tier]] = {}
        #: pivot switch -> node id -> down-path ports to that node
        self._down: dict[str, dict[int, tuple[int, ...]]] = {}
        #: composed routes of the (src, dst) pairs used so far
        self._memo: dict[tuple[int, int], tuple[int, ...]] = {}
        #: physical wiring: (switch name, port) -> ("sw", name) | ("host", n)
        self.port_map: dict[tuple[str, int], tuple] = {}
        #: node id -> (switch name, port) its NIC link lands on
        self.host_attach: dict[int, tuple[str, int]] = {}
        #: switch name -> tree level (fat_tree: 0=edge 1=agg 2=core)
        self.switch_level: dict[str, int] = {}
        #: topology parameters (fat_tree: k, pods, ...)
        self.meta: dict = {}
        self._switch_by_name: dict[str, Switch] = {}

    def register_metrics(self, registry) -> None:
        """Register every link's and switch's tallies (observation only)."""
        for link in self.links:
            link.register_metrics(registry)
        for switch in self.switches:
            registry.register_callback(
                "repro_switch_packets_forwarded_total",
                lambda sw=switch: sw.packets_forwarded,
                kind="counter", switch=switch.name)
            registry.register_callback(
                "repro_switch_route_errors_total",
                lambda sw=switch: sw.route_errors,
                kind="counter", switch=switch.name)

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Source route (switch output ports) from node src to node dst."""
        route = self._memo.get((src, dst))
        if route is None:
            route = self._memo[(src, dst)] = self._compose(src, dst)
        return route

    def _compose(self, src: int, dst: int) -> tuple[int, ...]:
        """Up-prefix to the ECMP-picked pivot of the nearest tier serving
        ``dst``, then that pivot's down path."""
        if src == dst:
            raise ValueError(f"no route from node {src} to itself")
        here = self.host_attach.get(src)
        if here is not None and dst in self.host_attach:
            for tier in self._up.get(here[0], ()):
                if dst in self._down[tier[0][0]]:
                    pick = (_ecmp_pick(src, dst, self.cfg.ecmp_seed,
                                       len(tier)) if len(tier) > 1 else 0)
                    pivot, prefix = tier[pick]
                    down = self._down[pivot].get(dst)
                    if down is not None:
                        return prefix + down
                    break
        raise ValueError(f"no route from node {src} to node {dst}")

    def hops(self, src: int, dst: int) -> int:
        """Number of switches on the path."""
        return len(self.route(src, dst))

    def walk_route(self, src: int, dst: int) -> list[tuple[str, int]]:
        """The (switch name, output port) sequence a packet traverses.

        Raises :class:`ValueError` if the route leaves the wired fabric
        at any hop or does not terminate at ``dst``'s host port.
        """
        route = self.route(src, dst)
        steps, _ = self._walk(f"route {src}->{dst}",
                              self.host_attach[src][0], route, dst)
        return steps

    def _walk(self, label: str, sw_name: str, ports: tuple[int, ...],
              dst: Optional[int] = None
              ) -> tuple[list[tuple[str, int]], Optional[str]]:
        """Follow ``ports`` from switch ``sw_name`` through the wiring.

        With ``dst`` the last port must eject at node ``dst``'s host
        port; without it (an up-prefix) the walk must stay on switches.
        Returns the ``(switch, port)`` steps and the switch the walk
        ends at (``None`` once it ejected).
        """
        steps: list[tuple[str, int]] = []
        for hop, port in enumerate(ports):
            sw = self._switch_by_name[sw_name]
            if not 0 <= port < sw.n_ports:
                raise ValueError(
                    f"{label} hop {hop}: port {port} is outside "
                    f"{sw_name}'s radix {sw.n_ports}")
            target = self.port_map.get((sw_name, port))
            if target is None:
                raise ValueError(
                    f"{label} hop {hop}: {sw_name} port {port} is not wired")
            steps.append((sw_name, port))
            if target[0] == "host":
                if dst is None or hop != len(ports) - 1 or target[1] != dst:
                    raise ValueError(
                        f"{label} hop {hop}: ejects at host {target[1]} "
                        f"with {len(ports) - 1 - hop} port(s) left")
                return steps, None
            sw_name = target[1]
        if dst is not None:
            raise ValueError(
                f"{label} ends at switch {sw_name}, not at node {dst}'s "
                f"host port")
        return steps, sw_name

    def validate_routes(self) -> None:
        """Prove every route piece against the wired fabric.

        Checks that every port index is within the radix of the switch
        it is consumed at and every hop lands on a wired link; that each
        up-prefix ends at its pivot and each down path ejects at its
        node's host port.  Then checks coverage: every host-facing
        switch reaches every node through some tier, and every ECMP
        candidate of that tier holds a down path to it.  A route is one
        candidate's prefix plus its down path, so this proves every
        route valid for any ``ecmp_seed``.  Raises :class:`ValueError`
        naming the first offending piece — topology-builder bugs fail at
        :func:`build_network` time instead of as silent
        ``Switch.route_errors`` drops.

        A down path whose first hop is valid, lands on switch ``S`` and
        continues exactly as ``S``'s own already-proven down path to the
        same node is proven by that hop alone: the walk from ``S`` is the
        one ``S``'s piece passed.  Each ``(pivot, first port)`` hop is
        checked once.  Every other piece is walked in full, in the same
        order as a walk of every piece, so the first bad piece raises
        exactly the error a full walk would.
        """
        proven: dict[str, set[int]] = {}
        for pivot, down in self._down.items():
            mine = proven[pivot] = set()
            lands: dict[int, Optional[str]] = {}
            for dst, ports in down.items():
                if len(ports) > 1:
                    port = ports[0]
                    if port in lands:
                        nxt = lands[port]
                    else:
                        nxt = lands[port] = self._lands_on(pivot, port)
                    if nxt is not None and dst in proven.get(nxt, ()) \
                            and self._down[nxt][dst] == ports[1:]:
                        mine.add(dst)
                        continue
                self._walk(f"down path {pivot}->{dst}", pivot, ports, dst)
                mine.add(dst)
        served_by: dict[Tier, set[int]] = {}
        for sw_name, tiers in self._up.items():
            reached: set[int] = set()
            for tier in tiers:
                for pivot, prefix in tier:
                    _, end = self._walk(f"up-prefix {sw_name}->{pivot}",
                                        sw_name, prefix)
                    if end != pivot:
                        raise ValueError(
                            f"up-prefix {sw_name}->{pivot} ends at switch "
                            f"{end}, not at its pivot")
                if tier not in served_by:
                    served_by[tier] = self._tier_serves(tier)
                reached.update(served_by[tier])
            unreached = self.host_attach.keys() - reached
            if unreached:
                raise ValueError(
                    f"topology {self.topology!r} leaves node "
                    f"{min(unreached)} unreachable from switch {sw_name}")

    def _lands_on(self, sw_name: str, port: int) -> Optional[str]:
        """The switch that ``sw_name``'s ``port`` is cabled to, or
        ``None`` if that hop is out of radix, unwired or faces a host."""
        sw = self._switch_by_name.get(sw_name)
        if sw is None or not 0 <= port < sw.n_ports:
            return None
        target = self.port_map.get((sw_name, port))
        if target is None or target[0] != "sw":
            return None
        return target[1]

    def _tier_serves(self, tier: Tier) -> set[int]:
        """Nodes the tier routes to (its first pivot's), once every
        other candidate is checked to serve them too."""
        first = tier[0][0]
        served = set(self._down.get(first, ()))
        for pivot, _ in tier[1:]:
            missing = served.difference(self._down.get(pivot, ()))
            if missing:
                raise ValueError(
                    f"ECMP pivot {pivot} has no down path to node "
                    f"{min(missing)}, which {first} serves")
        return served

    # -- construction helpers (used by build_network) -------------------
    def _add_link(self, name: str) -> Link:
        link = Link(self.env, self.cfg, name)
        self.links.append(link)
        return link

    def _add_switch(self, name: str, n_ports: int, level: int = 0) -> Switch:
        sw = Switch(self.env, self.cfg, name, n_ports)
        self.switches.append(sw)
        self._switch_by_name[name] = sw
        self.switch_level[name] = level
        return sw


def build_network(env: Environment, cfg: CostModel, n_nodes: int,
                  topology: str = "single_switch") -> Network:
    """Build a fabric for ``n_nodes`` nodes.

    Links start fault-free; :func:`repro.faults.install_plan` puts a
    seeded injector on each of them.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    net = Network(env, cfg, n_nodes, topology)
    if topology == "single_switch":
        _build_single_switch(net)
    elif topology == "switch_tree":
        _build_switch_tree(net)
    elif topology == "mesh2d":
        _build_mesh2d(net)
    elif topology == "fat_tree":
        _build_fat_tree(net)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    net.validate_routes()
    return net


def _host_link(net: Network, node: int, sw: Switch, port: int) -> None:
    """Cable ``node`` to ``sw``'s ``port``; the switch becomes a route
    source whose nearest tier is itself, the pivot ejecting at ``port``."""
    link = net._add_link(f"link.h{node}-{sw.name}p{port}")
    net.nic_endpoints[node] = link.a
    sw.connect(port, link.b)
    net.port_map[(sw.name, port)] = ("host", node)
    net.host_attach[node] = (sw.name, port)
    if sw.name not in net._up:
        net._up[sw.name] = [((sw.name, ()),)]
    net._down.setdefault(sw.name, {})[node] = (port,)


def _switch_link(net: Network, sw_a: Switch, port_a: int, sw_b: Switch,
                 port_b: int) -> None:
    link = net._add_link(f"link.{sw_a.name}p{port_a}-{sw_b.name}p{port_b}")
    sw_a.connect(port_a, link.a)
    sw_b.connect(port_b, link.b)
    net.port_map[(sw_a.name, port_a)] = ("sw", sw_b.name)
    net.port_map[(sw_b.name, port_b)] = ("sw", sw_a.name)


def _build_single_switch(net: Network) -> None:
    n = net.n_nodes
    sw = net._add_switch("sw0", n_ports=max(2, n))
    for node in range(n):
        _host_link(net, node, sw, node)


def _build_switch_tree(net: Network) -> None:
    """8-port leaves (7 hosts + uplink on port 7) under one root.

    A leaf routes to its own hosts directly and to every other host by
    turning at the root.  With a single leaf (``n_nodes <= 7``) the root
    and its uplink would carry no routes — a dead switch polluting
    ``switches``/``links`` (and every per-switch telemetry callback), so
    the degenerate tree collapses to just the leaf crossbar.
    """
    n = net.n_nodes
    hosts_per_leaf = 7
    n_leaves = max(1, math.ceil(n / hosts_per_leaf))
    root = None
    if n_leaves > 1:
        root = net._add_switch("root", n_ports=max(2, n_leaves), level=1)
        net._down[root.name] = {}
    for leaf_idx in range(n_leaves):
        leaf = net._add_switch(f"leaf{leaf_idx}", n_ports=8)
        if root is not None:
            _switch_link(net, leaf, hosts_per_leaf, root, leaf_idx)
        for local in range(hosts_per_leaf):
            node = leaf_idx * hosts_per_leaf + local
            if node >= n:
                break
            _host_link(net, node, leaf, local)
            if root is not None:
                net._down[root.name][node] = (leaf_idx, local)
        if root is not None:
            net._up[leaf.name].append(((root.name, (hosts_per_leaf,)),))


def _build_mesh2d(net: Network) -> None:
    """Square-ish 2-D mesh of 5-port routers (ports: 0=N 1=S 2=E 3=W 4=host).

    Routes use XY dimension-order routing, as the nwrc1032 wormhole chip
    does: X along the source's row to the destination's column, then Y.
    The pivot is the turn router; each router's down paths cover the
    hosts in its column.
    """
    n = net.n_nodes
    cols = max(1, math.ceil(math.sqrt(n)))
    rows = max(1, math.ceil(n / cols))
    N_, S_, E_, W_, H_ = 0, 1, 2, 3, 4
    routers: dict[tuple[int, int], Switch] = {}
    for r in range(rows):
        for c in range(cols):
            routers[(r, c)] = net._add_switch(f"mesh{r}_{c}", n_ports=5)
    for (r, c), sw in routers.items():
        if c + 1 < cols:
            _switch_link(net, sw, E_, routers[(r, c + 1)], W_)
        if r + 1 < rows:
            _switch_link(net, sw, S_, routers[(r + 1, c)], N_)
    for node in range(n):
        _host_link(net, node, routers[divmod(node, cols)], H_)

    def steps(a: int, b: int, forward: int, back: int) -> tuple[int, ...]:
        return (forward,) * (b - a) if b >= a else (back,) * (a - b)

    for (r, c), sw in routers.items():       # Y down each column
        down = net._down.setdefault(sw.name, {})
        for node in range(c, n, cols):
            down[node] = steps(r, node // cols, S_, N_) + (H_,)
    for node in range(n):                     # X along the source's row
        r, c = divmod(node, cols)
        net._up[routers[(r, c)].name].extend(
            ((routers[(r, c1)].name, steps(c, c1, E_, W_)),)
            for c1 in range(cols) if c1 != c)


def _fat_tree_k(n: int, override: int) -> int:
    """The Clos arity: override, or the smallest even k with k^3/4 >= n."""
    if override:
        if override ** 3 // 4 < n:
            raise ValueError(
                f"fat_tree_k={override} holds {override ** 3 // 4} hosts, "
                f"need {n}")
        return override
    k = 2
    while k ** 3 // 4 < n:
        k += 2
    return k


def _ecmp_pick(src: int, dst: int, seed: int, n_choices: int) -> int:
    """Deterministic ECMP: a stable per-flow hash over (src, dst, seed).

    CRC32 rather than Python ``hash()`` so the selection is identical
    across interpreter runs and worker processes (PYTHONHASHSEED-proof),
    which the cache-keyed experiment runner and the parity guards rely
    on.
    """
    digest = zlib.crc32(struct.pack("<qqq", src, dst, seed))
    return digest % n_choices


def _build_fat_tree(net: Network) -> None:
    """k-ary 3-level Clos with source-routed up/down paths + ECMP.

    Port conventions (all switches have radix k):

    * edge  — ports ``0..k/2-1`` face hosts; port ``k/2 + i`` goes up to
      the pod's aggregation switch ``i``;
    * agg   — port ``e`` goes down to edge ``e``; port ``k/2 + j`` goes
      up to core ``(i, j)`` where ``i`` is the agg's own index;
    * core ``(i, j)`` — port ``p`` goes down to pod ``p``'s agg ``i``.

    Hosts fill pods in order; only occupied pods (and only occupied
    edges within them) are instantiated, and the core layer is omitted
    when a single pod holds every host — the same dead-switch collapse
    the switch_tree builder applies.  Routes go up to a deterministic
    ECMP-chosen common ancestor, then down: the up*/down* structure is
    what makes fat-tree source routing deadlock-free.  An edge's tiers
    are itself, its pod's ``k/2`` aggs, then the ``(k/2)^2`` cores.
    """
    n = net.n_nodes
    cfg = net.cfg
    k = _fat_tree_k(n, cfg.fat_tree_k)
    half = k // 2
    pod_cap = half * half            # hosts per pod
    n_pods = math.ceil(n / pod_cap)
    net.meta.update(k=k, half=half, n_pods=n_pods, pod_capacity=pod_cap)

    def host_coords(node: int) -> tuple[int, int, int]:
        pod, m = divmod(node, pod_cap)
        edge, port = divmod(m, half)
        return pod, edge, port

    edges: dict[tuple[int, int], Switch] = {}
    aggs: dict[tuple[int, int], Switch] = {}
    cores: dict[tuple[int, int], Switch] = {}
    # Occupied edges per pod (hosts fill in order, so a contiguous prefix).
    edges_in_pod = [min(half, math.ceil((n - p * pod_cap) / half))
                    for p in range(n_pods)]
    multi_edge = n_pods > 1 or edges_in_pod[0] > 1

    for p in range(n_pods):
        for e in range(edges_in_pod[p]):
            edges[(p, e)] = net._add_switch(f"ft.p{p}.e{e}", n_ports=k,
                                            level=0)
        if multi_edge:
            for i in range(half):
                aggs[(p, i)] = net._add_switch(f"ft.p{p}.a{i}", n_ports=k,
                                               level=1)
    if n_pods > 1:
        for i in range(half):
            for j in range(half):
                cores[(i, j)] = net._add_switch(f"ft.c{i}_{j}", n_ports=k,
                                                level=2)

    # Wire: edge e's up port half+i <-> agg i's down port e.
    for (p, e), edge_sw in edges.items():
        for i in range(half):
            if (p, i) in aggs:
                _switch_link(net, edge_sw, half + i, aggs[(p, i)], e)
    # Wire: agg (p, i)'s up port half+j <-> core (i, j)'s port p.
    for (p, i), agg_sw in aggs.items():
        for j in range(half):
            if (i, j) in cores:
                _switch_link(net, agg_sw, half + j, cores[(i, j)], p)
    for node in range(n):
        pod, e, h = host_coords(node)
        _host_link(net, node, edges[(pod, e)], h)

    # Down paths: every agg of a pod (every core) reaches a host over
    # the same ports, so the pivots of one tier share one table.
    pod_down: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n_pods)]
    core_down: dict[int, tuple[int, ...]] = {}
    for node in range(n):
        pod, e, h = host_coords(node)
        pod_down[pod][node] = (e, h)
        core_down[node] = (pod, e, h)
    for (p, _), agg_sw in aggs.items():
        net._down[agg_sw.name] = pod_down[p]
    for core_sw in cores.values():
        net._down[core_sw.name] = core_down

    # Up tiers, in the order _ecmp_pick indexes them: agg a, core (a, j).
    core_tier = tuple((cores[(a, j)].name, (half + a, half + j))
                      for a in range(half) for j in range(half)
                      if (a, j) in cores)
    for (p, _), edge_sw in edges.items():
        if multi_edge:
            net._up[edge_sw.name].append(
                tuple((aggs[(p, a)].name, (half + a,))
                      for a in range(half)))
        if core_tier:
            net._up[edge_sw.name].append(core_tier)
