"""Fabric congestion scenario generators.

Thousand-rank fabrics live or die by how they handle adversarial
traffic, not ping-pong.  These generators drive the three canonical
congestion patterns through the full MPI-over-EADI-over-BCL stack so a
topology (single_switch, switch_tree, mesh2d, fat_tree) can be judged
under load:

* :func:`run_hotspot` — many-to-one: a fraction of ranks hammer rank 0
  while the rest exchange pairwise background traffic, exposing how
  much the hotspot steals from innocent flows.  At ``hot_fraction=1.0``
  every other rank sends to rank 0: incast, the classic fan-in collapse
  that stresses the destination's edge link and receive-side
  serialisation;
* :func:`run_permutation` — a seed-deterministic derangement where each
  rank sends to exactly one peer and receives from exactly one peer,
  the pattern that separates full-bisection fabrics (fat-tree) from
  oversubscribed ones (switch_tree).

Each returns a :class:`CongestionResult` with aggregate and tail
numbers.  All randomness is seeded, so a (topology, n_ranks, seed)
triple always produces the same traffic matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.sim.time import ns_to_us
from repro.upper.job import run_spmd

__all__ = ["run_hotspot", "run_permutation", "CongestionResult"]


@dataclass
class CongestionResult:
    """Outcome of one congestion scenario."""

    total_bytes: int
    elapsed_us: float               #: start of traffic to last completion
    rank_finish_us: list[float] = field(default_factory=list)

    @property
    def bandwidth_mb_s(self) -> float:
        """Aggregate delivered bandwidth (MB/s == bytes/us)."""
        return self.total_bytes / self.elapsed_us if self.elapsed_us else 0.0

    @property
    def tail_spread_us(self) -> float:
        """Last finisher minus first finisher — congestion skew."""
        if not self.rank_finish_us:
            return 0.0
        return max(self.rank_finish_us) - min(self.rank_finish_us)


def _collect(cluster: Cluster, n_ranks: int, fn,
             total_bytes: int) -> CongestionResult:
    """Run ``fn`` under :func:`run_spmd` and fold the per-rank
    (start_ns, finish_ns) pairs it returns into a result."""
    spans = run_spmd(cluster, n_ranks, fn)
    t0 = min(s for s, _ in spans)
    t1 = max(f for _, f in spans)
    return CongestionResult(
        total_bytes=total_bytes, elapsed_us=ns_to_us(t1 - t0),
        rank_finish_us=[ns_to_us(f - t0) for _, f in spans])


def run_hotspot(cluster: Cluster, n_ranks: int,
                message_bytes: int = 4096, messages_each: int = 4,
                hot_fraction: float = 0.25,
                seed: int = 1) -> CongestionResult:
    """A seeded fraction of ranks target rank 0; the rest exchange
    pairwise background traffic.

    Background ranks are paired off (i with i+1) and sendrecv; hot
    ranks all send to rank 0.  ``hot_fraction=1.0`` is incast: every
    rank > 0 sends ``messages_each`` messages to rank 0.
    """
    if n_ranks < 2:
        raise ValueError("hotspot needs at least 2 ranks")
    rng = random.Random(seed)
    others = list(range(1, n_ranks))
    rng.shuffle(others)
    n_hot = max(1, int(len(others) * hot_fraction))
    hot = frozenset(others[:n_hot])

    def prog(ep):
        env = ep.port.env
        yield from ep.barrier()
        start = env.now
        buf = ep.scratch(message_bytes)
        if ep.rank == 0:
            for _ in range(messages_each * len(hot)):
                yield from ep.recv(-1, 1, buf, message_bytes)
        elif ep.rank in hot:
            ep.proc.write(buf, bytes([ep.rank & 0xFF]) * message_bytes)
            for _ in range(messages_each):
                yield from ep.send(0, buf, message_bytes, tag=1)
        else:
            # Background pairs among the cool ranks, by shuffled order.
            cool = [r for r in others if r not in hot]
            i = cool.index(ep.rank)
            peer = cool[i ^ 1] if (i ^ 1) < len(cool) else None
            if peer is not None:
                ep.proc.write(buf, bytes([ep.rank & 0xFF]) * message_bytes)
                rbuf = ep.scratch(message_bytes, slot=1)
                for _ in range(messages_each):
                    yield from ep.sendrecv(peer, buf, message_bytes,
                                           peer, rbuf, message_bytes,
                                           tag=2)
        return start, env.now

    total = message_bytes * messages_each * n_hot
    return _collect(cluster, n_ranks, prog, total)


def run_permutation(cluster: Cluster, n_ranks: int,
                    message_bytes: int = 4096, messages_each: int = 4,
                    seed: int = 1) -> CongestionResult:
    """Seed-deterministic derangement: rank i sends to perm[i] and
    receives from the inverse — every rank is exactly one flow's source
    and one flow's sink."""
    if n_ranks < 2:
        raise ValueError("permutation needs at least 2 ranks")
    rng = random.Random(seed)
    perm = list(range(n_ranks))
    while True:
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n_ranks)):
            break

    def prog(ep):
        env = ep.port.env
        dst = perm[ep.rank]
        yield from ep.barrier()
        start = env.now
        sbuf = ep.scratch(message_bytes)
        rbuf = ep.scratch(message_bytes, slot=1)
        ep.proc.write(sbuf, bytes([ep.rank & 0xFF]) * message_bytes)
        for _ in range(messages_each):
            yield from ep.sendrecv(dst, sbuf, message_bytes,
                                   -1, rbuf, message_bytes, tag=3)
        return start, env.now

    total = message_bytes * messages_each * n_ranks
    return _collect(cluster, n_ranks, prog, total)
