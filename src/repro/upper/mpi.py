"""MPI-like library over EADI-2.

The DAWNING software stack implements MPI on EADI-2 (paper Figure 1);
this module provides the familiar surface — blocking and non-blocking
point-to-point with tags and wildcards, plus the collectives mixin —
while the protocol work (eager/rendezvous, matching, progress) happens
in :class:`~repro.upper.eadi.EadiEndpoint`.

Per-operation library costs (``mpi_send_us``, ``mpi_recv_us``,
``mpi_match_us``, ``mpi_inter_extra_us``, ``mpi_inter_segment_us``) are
the calibration knobs behind the paper's Table 3 MPI row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.bcl.address import BclAddress
from repro.bcl.api import BclPort
from repro.upper.collectives import Collectives
from repro.upper.eadi import ANY_SOURCE, ANY_TAG, EadiEndpoint

if TYPE_CHECKING:  # annotation-only: the *_array helpers import numpy
    import numpy as np

__all__ = ["MpiEndpoint", "ANY_SOURCE", "ANY_TAG"]


class MpiEndpoint(Collectives):
    """One rank's MPI library instance."""

    def __init__(self, rank: int, size: int, port: BclPort,
                 addresses: dict[int, BclAddress],
                 collectives: str = "host"):
        cfg = port.cfg
        self.rank = rank
        self.size = size
        self.port = port
        self.collectives_policy = collectives
        self.proc = port.lib.proc
        self.eadi = EadiEndpoint(
            rank, port, addresses,
            per_op_send_us=cfg.mpi_send_us,
            per_op_recv_us=cfg.mpi_recv_us,
            per_op_match_us=cfg.mpi_match_us,
            inter_node_extra_us=cfg.mpi_inter_extra_us,
            per_segment_us=cfg.mpi_inter_segment_us)
        self._scratch: dict[tuple[int, int], int] = {}

    # ----------------------------------------------------------- buffers
    def alloc(self, nbytes: int) -> int:
        return self.proc.alloc(nbytes)

    # ---------------------------------------------------- point to point
    def send(self, dst_rank: int, vaddr: int, nbytes: int,
             tag: int = 0) -> Generator:
        return self.eadi.send(dst_rank, vaddr, nbytes, tag)

    def isend(self, dst_rank: int, vaddr: int, nbytes: int,
              tag: int = 0) -> Generator:
        return self.eadi.isend(dst_rank, vaddr, nbytes, tag)

    def recv(self, src_rank: int, tag: int, vaddr: int,
             capacity: int) -> Generator:
        return self.eadi.recv(src_rank, tag, vaddr, capacity)

    def irecv(self, src_rank: int, tag: int, vaddr: int,
              capacity: int) -> Generator:
        return self.eadi.irecv(src_rank, tag, vaddr, capacity)

    def wait(self, op) -> Generator:
        return self.eadi.wait(op)

    def waitall(self, ops) -> Generator:
        return self.eadi.waitall(ops)

    def iprobe(self, src_rank: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Generator:
        return self.eadi.iprobe(src_rank, tag)

    def probe(self, src_rank: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator:
        return self.eadi.probe(src_rank, tag)

    def sendrecv(self, dst_rank: int, send_vaddr: int, send_bytes: int,
                 src_rank: int, recv_vaddr: int, recv_capacity: int,
                 tag: int = 0) -> Generator:
        """Deadlock-free combined send+recv."""
        op = yield from self.isend(dst_rank, send_vaddr, send_bytes, tag)
        status = yield from self.recv(src_rank, tag, recv_vaddr,
                                      recv_capacity)
        yield from self.wait(op)
        return status

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Tear down the endpoint (delegates to the EADI layer)."""
        self.eadi.close()

    # ------------------------------------------------------- numpy sugar
    # The send and receive paths stage through *distinct* scratch slots:
    # with both on slot 0, a concurrent isend_array + recv_array of
    # same-sized arrays (the halo-exchange pattern) would share one
    # buffer and the inbound payload would overwrite the outbound one
    # before the rendezvous read it.  Slots 1-5 belong to collectives.
    _SEND_SLOT = 6
    _RECV_SLOT = 7

    def send_array(self, dst_rank: int, array: np.ndarray,
                   tag: int = 0) -> Generator:
        import numpy as np
        data = np.ascontiguousarray(array).tobytes()
        buf = self.scratch(max(len(data), 1), slot=self._SEND_SLOT)
        self.proc.write(buf, data)
        yield from self.send(dst_rank, buf, len(data), tag)

    def isend_array(self, dst_rank: int, array: np.ndarray,
                    tag: int = 0) -> Generator:
        """Non-blocking :meth:`send_array`; returns the send handle.

        The payload is staged into the send slot up front, so the array
        may be reused immediately; the scratch slot itself must not be
        re-staged until the handle completes.
        """
        import numpy as np
        data = np.ascontiguousarray(array).tobytes()
        buf = self.scratch(max(len(data), 1), slot=self._SEND_SLOT)
        self.proc.write(buf, data)
        op = yield from self.isend(dst_rank, buf, len(data), tag)
        return op

    def recv_array(self, src_rank: int, tag: int, dtype, shape) -> Generator:
        import numpy as np
        nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape)))
        buf = self.scratch(max(nbytes, 1), slot=self._RECV_SLOT)
        yield from self.recv(src_rank, tag, buf, nbytes)
        data = self.proc.read(buf, nbytes)
        return np.frombuffer(data, dtype=dtype).reshape(shape)
