"""Collective algorithms over matched point-to-point messaging.

BCL itself "supports point to point message passing.  All other
collective message passing should be implemented in the higher level
software" (paper section 4) — this module is that higher level.  The
algorithms are the classical ones (binomial trees, dissemination
barrier, ring allgather, pairwise alltoall), written against the
EADI-2 endpoint both MPI and PVM carry (``self.eadi``: ``send``/
``isend``/``recv``/``wait`` on raw byte buffers), with staging buffers
from :meth:`Collectives.scratch`.

numpy is imported inside the array collectives (reduce, allreduce,
scan, reduce_scatter), never at module level: a run of barriers,
broadcasts and point-to-point messages does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

if TYPE_CHECKING:  # annotation-only: numpy loads where arrays are reduced
    import numpy as np

__all__ = ["Collectives", "REDUCE_OPS"]


def _maximum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import numpy as np
    return np.maximum(a, b)


def _minimum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import numpy as np
    return np.minimum(a, b)


#: elementwise reduction operators on numpy arrays
REDUCE_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": _maximum,
    "min": _minimum,
}

#: tag space reserved for collective phases
_TAG_BASE = 1 << 20
#: tag distance between successive collective calls; internal phase
#: offsets (per-round, per-rank, per-step, the +64 ring phase shift)
#: all stay below this stride *for small communicators* — for large
#: ones the stride is derived from ``size`` (see :meth:`_coll_stride`)
_EPOCH_STRIDE = 4096
#: epochs wrap after this many calls; tags stay well inside the int32
#: envelope field
_EPOCH_SLOTS = 65536
#: fixed sub-collective offsets (+64 ring allgather shift, +32 bcast,
#: +16 reduce_scatter) that pairwise/per-rank offsets stack on top of
_PHASE_HEADROOM = 128
#: total reserved tag span; constant regardless of the stride so large
#: communicators wrap sooner instead of growing the envelope
_TAG_SPAN = _EPOCH_STRIDE * _EPOCH_SLOTS


class Collectives:
    """Mixin implementing collectives over endpoint point-to-point ops.

    Host classes must provide: ``rank``, ``size``, ``eadi`` (the
    :class:`~repro.upper.eadi.EadiEndpoint` the messages go through),
    ``proc`` (the user process, for buffer access) and an empty
    ``_scratch`` dict for :meth:`scratch`.

    Every collective draws a fresh *epoch tag* per call (``tag=None``,
    the default): back-to-back collectives on the same endpoint use
    disjoint tag ranges, so a straggler's late messages can never
    cross-match into the next collective — and the reserved space sits
    at ``_TAG_BASE`` and above, far from user point-to-point tags.
    SPMD program order keeps the per-endpoint epoch counters aligned
    across ranks.  Passing an explicit ``tag`` keeps the legacy
    fixed-offset behaviour.
    """

    #: "host" runs the classical algorithms below over point-to-point
    #: messaging; "nic" offloads barrier/bcast/allreduce to the MCP
    #: firmware tree (set by :class:`repro.upper.job.Job` together with
    #: ``nic_group``/``nic_coll``; everything else stays host-level)
    collectives_policy: str = "host"
    nic_group = None          # CollGroup of this endpoint's node
    nic_coll = None           # NicCollectives engine of the node's MCP

    def scratch(self, nbytes: int, slot: int = 0) -> int:
        """A reusable staging buffer, keyed by size bucket and slot.

        Distinct slots guarantee two live buffers never alias (e.g. a
        collective's internal staging vs its caller-visible buffer).
        """
        key = (1 << max(nbytes - 1, 1).bit_length(), slot)
        if key not in self._scratch:
            self._scratch[key] = self.proc.alloc(key[0])
        return self._scratch[key]

    def _coll_stride(self) -> int:
        """Tag distance between epochs, derived from the communicator.

        Pairwise alltoall/ring phase offsets grow with ``size`` (n-1
        steps on top of the +64 ring shift), so a fixed 4096 stride
        collides for large communicators: one call's phases would bleed
        into the next epoch's range.  Small communicators keep the
        legacy 4096 (byte-identical tags); larger ones round
        ``size + _PHASE_HEADROOM`` up to a power of two.
        """
        need = getattr(self, "size", 0) + _PHASE_HEADROOM
        stride = _EPOCH_STRIDE
        while stride < need:
            stride <<= 1
        return stride

    def _next_coll_tag(self) -> int:
        epoch = getattr(self, "_coll_epoch", 0)
        self._coll_epoch = epoch + 1
        stride = self._coll_stride()
        return _TAG_BASE + (epoch % max(1, _TAG_SPAN // stride)) * stride

    # ------------------------------------------- NIC-offloaded fast path
    def _use_nic(self, nbytes: int) -> bool:
        """NIC policy active, tree registered, payload firmware-sized?"""
        return (self.collectives_policy == "nic"
                and self.nic_group is not None
                and self.nic_coll is not None
                and nbytes <= self.port.cfg.nic_coll_max_bytes)

    def _nic_collective(self, op: str, payload: bytes) -> Generator:
        """Post one collective descriptor; wait for the firmware event.

        Host cost is one compact descriptor post (compose + kernel trap
        + a few PIO words) and a completion-queue pickup — no per-peer
        sends; the fan-in/fan-out happens NIC-side.  Every rank calls
        collectives in the same SPMD order, so the per-endpoint sequence
        counters agree across ranks, like the epoch tags do.
        """
        cfg = self.port.cfg
        seq = getattr(self, "_nic_coll_seq", 0)
        self._nic_coll_seq = seq + 1
        cpu = self.port.lib.proc.cpu
        yield from cpu.execute(
            cfg.compose_us + cfg.trap_enter_us + cfg.security_check_us
            + cfg.trap_exit_us, category="bcl", stage="coll_post")
        words = 4 + (len(payload) + 3) // 4
        yield from cpu.execute(cfg.pio_write_us(words), category="pio",
                               stage="fill_coll_descriptor", scale=False)
        done = self.nic_coll.post_local(self.nic_group.group_id, seq, op,
                                        payload)
        result = yield done
        yield from cpu.execute(cfg.recv_poll_us + cfg.event_check_us,
                               category="bcl", stage="coll_complete")
        return result

    # --------------------------------------------------------------- barrier
    def barrier(self, tag: Optional[int] = None) -> Generator:
        """Dissemination barrier: ceil(log2(n)) rounds (or one NIC
        fan-in/fan-out wave under ``collectives_policy="nic"``)."""
        if tag is None and self._use_nic(0):
            yield from self._nic_collective("barrier", b"")
            return
        if tag is None:
            tag = self._next_coll_tag()
        n = self.size
        if n == 1:
            return
        buf = self.scratch(1, slot=1)
        distance = 1
        round_no = 0
        while distance < n:
            dst = (self.rank + distance) % n
            src = (self.rank - distance) % n
            yield from self.eadi.send(dst, buf, 0, tag + round_no)
            yield from self.eadi.recv(src, tag + round_no, buf, 1)
            distance *= 2
            round_no += 1

    # ----------------------------------------------------------------- bcast
    def bcast(self, vaddr: int, nbytes: int, root: int = 0,
              tag: Optional[int] = None) -> Generator:
        """Binomial-tree broadcast (or a NIC fan-out wave)."""
        if tag is None and self._use_nic(nbytes):
            payload = self.proc.read(vaddr, nbytes) if \
                self.rank == root and nbytes else b""
            result = yield from self._nic_collective("bcast", bytes(payload))
            if self.rank != root and nbytes:
                self.proc.write(vaddr, result[:nbytes])
            return
        if tag is None:
            tag = self._next_coll_tag()
        n = self.size
        if n == 1:
            return
        relative = (self.rank - root) % n
        # Receive from parent (clear lowest set bit).
        if relative != 0:
            parent = (root + (relative & (relative - 1))) % n
            yield from self.eadi.recv(parent, tag, vaddr, nbytes)
        # Forward to children.
        mask = 1
        while mask < n:
            if relative & (mask - 1) == 0 and relative | mask != relative \
                    and relative + mask < n:
                if relative & mask == 0:
                    child = (root + relative + mask) % n
                    yield from self.eadi.send(child, vaddr, nbytes, tag)
            mask <<= 1

    # ---------------------------------------------------------------- reduce
    def reduce(self, array: np.ndarray, op: str = "sum", root: int = 0,
               tag: Optional[int] = None) -> Generator:
        """Binomial-tree reduction; returns the result array on the
        root (and None elsewhere).  ``array`` is the local contribution."""
        import numpy as np
        if tag is None:
            tag = self._next_coll_tag()
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduction op {op!r}")
        n = self.size
        acc = np.array(array, copy=True)
        nbytes = acc.nbytes
        buf = self.scratch(max(nbytes, 1), slot=1)
        relative = (self.rank - root) % n
        mask = 1
        while mask < n:
            if relative & mask:
                parent = (root + (relative & ~mask)) % n
                self.proc.write(buf, acc.tobytes())
                yield from self.eadi.send(parent, buf, nbytes, tag)
                return None
            peer_rel = relative | mask
            if peer_rel < n:
                peer = (root + peer_rel) % n
                yield from self.eadi.recv(peer, tag, buf, nbytes)
                incoming = np.frombuffer(
                    self.proc.read(buf, nbytes), dtype=acc.dtype
                ).reshape(acc.shape)
                acc = REDUCE_OPS[op](acc, incoming)
            mask <<= 1
        return acc

    def allreduce(self, array: np.ndarray, op: str = "sum",
                  tag: Optional[int] = None,
                  algorithm: str = "tree") -> Generator:
        """Elementwise reduction visible on every rank.

        ``algorithm="tree"`` (default): reduce to rank 0 over a binomial
        tree, then broadcast — latency-optimal for small arrays
        (2·log2 p steps on the full payload).
        ``algorithm="ring"``: reduce-scatter + allgather rings —
        bandwidth-optimal for large arrays (each rank moves ~2·n/p·(p−1)
        bytes instead of ~2·n·log2 p).

        Under ``collectives_policy="nic"`` (and a firmware-sized array)
        the reduction happens in the MCP fan-in tree instead; the
        ``algorithm`` knob only selects among the host algorithms.
        """
        import numpy as np
        src = np.asarray(array)
        if tag is None and op in REDUCE_OPS \
                and self._use_nic(int(src.nbytes)):
            contrib = np.ascontiguousarray(array)
            result = yield from self._nic_collective(
                f"red:{op}:{contrib.dtype.str}", contrib.tobytes())
            out = np.frombuffer(result, dtype=contrib.dtype)
            return out.reshape(src.shape).copy()
        if algorithm == "ring":
            if tag is None:
                tag = self._next_coll_tag()
            result = yield from self._allreduce_ring(array, op, tag)
            return result
        if algorithm != "tree":
            raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
        result = yield from self.reduce(array, op, root=0, tag=tag)
        nbytes = int(np.asarray(array).nbytes)
        buf = self.scratch(max(nbytes, 1), slot=2)
        if self.rank == 0:
            self.proc.write(buf, result.tobytes())
        bcast_tag = None if tag is None else tag + 32
        yield from self.bcast(buf, nbytes, root=0, tag=bcast_tag)
        out = np.frombuffer(self.proc.read(buf, nbytes),
                            dtype=np.asarray(array).dtype)
        return out.reshape(np.asarray(array).shape)

    def _allreduce_ring(self, array: np.ndarray, op: str,
                        tag: int) -> Generator:
        """Ring allreduce: p−1 reduce-scatter steps + p−1 allgather
        steps over blocks of ~n/p elements (padded to split evenly)."""
        import numpy as np
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduction op {op!r}")
        n = self.size
        flat = np.array(array, copy=True).reshape(-1)
        if n == 1:
            return flat.reshape(np.asarray(array).shape)
        pad = (-len(flat)) % n
        if pad:
            # Pad with the op's identity-ish values; sliced away at the
            # end so the padding value never leaks (self-pad is safe
            # for any op since every rank pads identically).
            flat = np.concatenate([flat, flat[:1].repeat(pad)])
        block = len(flat) // n
        blocks = [flat[i * block:(i + 1) * block].copy() for i in range(n)]
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        nbytes = blocks[0].nbytes
        send_buf = self.scratch(max(nbytes, 1), slot=4)
        recv_buf = self.scratch(max(nbytes, 1), slot=5)
        # Phase 1: reduce-scatter around the ring.
        for step in range(n - 1):
            send_idx = (self.rank - step) % n
            recv_idx = (self.rank - step - 1) % n
            self.proc.write(send_buf, blocks[send_idx].tobytes())
            op_handle = yield from self.eadi.isend(right, send_buf, nbytes,
                                               tag + step)
            yield from self.eadi.recv(left, tag + step, recv_buf, nbytes)
            yield from self.eadi.wait(op_handle)
            incoming = np.frombuffer(self.proc.read(recv_buf, nbytes),
                                     dtype=flat.dtype)
            blocks[recv_idx] = REDUCE_OPS[op](blocks[recv_idx], incoming)
        # Phase 2: allgather the reduced blocks around the ring.
        for step in range(n - 1):
            send_idx = (self.rank - step + 1) % n
            recv_idx = (self.rank - step) % n
            self.proc.write(send_buf, blocks[send_idx].tobytes())
            op_handle = yield from self.eadi.isend(right, send_buf, nbytes,
                                               tag + 64 + step)
            yield from self.eadi.recv(left, tag + 64 + step, recv_buf, nbytes)
            yield from self.eadi.wait(op_handle)
            blocks[recv_idx] = np.frombuffer(
                self.proc.read(recv_buf, nbytes), dtype=flat.dtype).copy()
        result = np.concatenate(blocks)
        if pad:
            result = result[:-pad]
        return result.reshape(np.asarray(array).shape)

    # ------------------------------------------------------------------ scan
    def scan(self, array: np.ndarray, op: str = "sum",
             tag: Optional[int] = None) -> Generator:
        """Inclusive prefix reduction: rank r gets op(x_0..x_r).

        Linear pipeline: receive the running prefix from rank-1, fold in
        the local value, forward to rank+1.
        """
        import numpy as np
        if tag is None:
            tag = self._next_coll_tag()
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown scan op {op!r}")
        acc = np.array(array, copy=True)
        nbytes = acc.nbytes
        buf = self.scratch(max(nbytes, 1), slot=1)
        if self.rank > 0:
            yield from self.eadi.recv(self.rank - 1, tag, buf, nbytes)
            incoming = np.frombuffer(self.proc.read(buf, nbytes),
                                     dtype=acc.dtype).reshape(acc.shape)
            acc = REDUCE_OPS[op](incoming, acc)
        if self.rank + 1 < self.size:
            self.proc.write(buf, acc.tobytes())
            yield from self.eadi.send(self.rank + 1, buf, nbytes, tag)
        return acc

    # --------------------------------------------------------- reduce_scatter
    def reduce_scatter(self, array: np.ndarray, op: str = "sum",
                       tag: Optional[int] = None) -> Generator:
        """Reduce elementwise across ranks, scatter equal blocks.

        ``array`` has ``size * block`` elements; rank r returns block r
        of the full reduction.  Implemented as reduce-to-root + scatter
        (the simple algorithm; a ring version is a natural extension).
        """
        import numpy as np
        arr = np.asarray(array)
        if arr.size % self.size:
            raise ValueError(
                f"array of {arr.size} elements does not split into "
                f"{self.size} equal blocks")
        block = arr.size // self.size
        reduced = yield from self.reduce(arr, op=op, root=0, tag=tag)
        block_bytes = block * arr.itemsize
        recv_buf = self.scratch(max(block_bytes, 1), slot=3)
        if self.rank == 0:
            blocks = [reduced[i * block:(i + 1) * block].tobytes()
                      for i in range(self.size)]
        else:
            blocks = None
        scatter_tag = None if tag is None else tag + 16
        yield from self.scatter(blocks, recv_buf, block_bytes, root=0,
                                tag=scatter_tag)
        data = self.proc.read(recv_buf, block_bytes)
        return np.frombuffer(data, dtype=arr.dtype)

    # ---------------------------------------------------------------- gather
    def gather(self, vaddr: int, nbytes: int, root: int = 0,
               tag: Optional[int] = None) -> Generator:
        """Linear gather; root returns the rank-ordered list of blocks."""
        if tag is None:
            tag = self._next_coll_tag()
        if self.rank == root:
            blocks: list[bytes] = []
            buf = self.scratch(max(nbytes, 1), slot=1)
            for rank in range(self.size):
                if rank == root:
                    blocks.append(self.proc.read(vaddr, nbytes))
                else:
                    yield from self.eadi.recv(rank, tag + rank, buf, nbytes)
                    blocks.append(self.proc.read(buf, nbytes))
            return blocks
        yield from self.eadi.send(root, vaddr, nbytes, tag + self.rank)
        return None

    def scatter(self, blocks, vaddr: int, nbytes: int, root: int = 0,
                tag: Optional[int] = None) -> Generator:
        """Linear scatter of rank-ordered ``blocks`` (root only)."""
        if tag is None:
            tag = self._next_coll_tag()
        if self.rank == root:
            if len(blocks) != self.size:
                raise ValueError("scatter needs one block per rank")
            buf = self.scratch(max(nbytes, 1), slot=1)
            for rank, block in enumerate(blocks):
                if rank == root:
                    self.proc.write(vaddr, block)
                else:
                    self.proc.write(buf, block)
                    yield from self.eadi.send(rank, buf, nbytes, tag + rank)
            return
        yield from self.eadi.recv(root, tag + self.rank, vaddr, nbytes)

    # -------------------------------------------------------------- allgather
    def allgather(self, vaddr: int, nbytes: int,
                  tag: Optional[int] = None) -> Generator:
        """Ring allgather: n-1 steps, each forwarding the next block.

        Uses isend/recv/wait so the ring cannot deadlock even when the
        blocks are large enough for the rendezvous protocol.
        """
        if tag is None:
            tag = self._next_coll_tag()
        n = self.size
        blocks: dict[int, bytes] = {self.rank: self.proc.read(vaddr, nbytes)}
        if n == 1:
            return [blocks[0]]
        send_buf = self.scratch(max(nbytes, 1), slot=1)
        recv_buf = self.scratch(max(nbytes, 1), slot=2)
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        carried = blocks[self.rank]
        for step in range(n - 1):
            self.proc.write(send_buf, carried)
            op = yield from self.eadi.isend(right, send_buf, nbytes,
                                            tag + step)
            yield from self.eadi.recv(left, tag + step, recv_buf, nbytes)
            yield from self.eadi.wait(op)
            carried = self.proc.read(recv_buf, nbytes)
            blocks[(self.rank - step - 1) % n] = carried
        return [blocks[r] for r in range(n)]

    # --------------------------------------------------------------- alltoall
    def alltoall(self, blocks, nbytes: int,
                 tag: Optional[int] = None) -> Generator:
        """Shifted-round alltoall of one block per peer (deadlock-free
        via isend/recv/wait, any rank count)."""
        if tag is None:
            tag = self._next_coll_tag()
        n = self.size
        if len(blocks) != n:
            raise ValueError("alltoall needs one block per rank")
        out: list[bytes] = [b""] * n
        out[self.rank] = blocks[self.rank]
        send_buf = self.scratch(max(nbytes, 1), slot=1)
        recv_buf = self.scratch(max(nbytes, 1), slot=2)
        for step in range(1, n):
            dst = (self.rank + step) % n
            src = (self.rank - step) % n
            self.proc.write(send_buf, blocks[dst])
            op = yield from self.eadi.isend(dst, send_buf, nbytes, tag + step)
            yield from self.eadi.recv(src, tag + step, recv_buf, nbytes)
            yield from self.eadi.wait(op)
            out[src] = self.proc.read(recv_buf, nbytes)
        return out
