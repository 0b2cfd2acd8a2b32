"""PVM-like library over EADI-2.

"DAWNING-3000 implements PVM on a middle-level form communication
library EADI-2 ... Compared with implementing PVM directly using BCL,
this method simplifies the implementation of PVM." (paper section 2.1)

The PVM surface is message-buffer oriented: ``initsend`` starts a
message buffer, ``pack_*`` appends typed data (each pack is a real copy
into the buffer, charged at memcpy rate — the cost that keeps PVM's
intra-node bandwidth below MPI's in Table 3), ``send`` ships the buffer
to a task, and ``recv``/``upk_*`` retrieve it.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Generator

from repro.bcl.address import BclAddress
from repro.bcl.api import BclPort
from repro.kernel.errors import BclError
from repro.upper.collectives import Collectives
from repro.upper.eadi import ANY_SOURCE, ANY_TAG, EadiEndpoint

if TYPE_CHECKING:  # annotation-only: the array pack/unpack import numpy
    import numpy as np

__all__ = ["PvmTask"]

#: largest packed message (send buffer size)
PVM_BUFFER_BYTES = 1 << 20


class PvmTask(Collectives):
    """One PVM task (the task id is the rank)."""

    def __init__(self, rank: int, size: int, port: BclPort,
                 addresses: dict[int, BclAddress],
                 collectives: str = "host"):
        cfg = port.cfg
        self.rank = rank
        self.size = size
        self.port = port
        self.collectives_policy = collectives
        self.proc = port.lib.proc
        self.cfg = cfg
        self.eadi = EadiEndpoint(
            rank, port, addresses,
            per_op_send_us=cfg.pvm_send_us,
            per_op_recv_us=cfg.pvm_recv_us,
            per_op_match_us=cfg.pvm_match_us,
            inter_node_extra_us=cfg.pvm_inter_extra_us,
            per_segment_us=cfg.pvm_inter_segment_us)
        self._send_buf = self.proc.alloc(PVM_BUFFER_BYTES)
        self._send_len = 0
        self._recv_buf = self.proc.alloc(PVM_BUFFER_BYTES)
        self._recv_len = 0
        self._recv_cursor = 0
        self._scratch: dict[tuple[int, int], int] = {}

    @property
    def tid(self) -> int:
        return self.rank

    def close(self) -> None:
        """Tear down the task (delegates to the EADI layer)."""
        self.eadi.close()

    # ------------------------------------------------------------- packing
    def initsend(self) -> None:
        """Reset the send buffer (PvmDataDefault)."""
        self._send_len = 0

    def _pack_cost(self, nbytes: int) -> Generator:
        cost = self.cfg.memcpy_setup_us + nbytes / self.cfg.memcpy_mb_s
        yield from self.proc.cpu.execute(cost, category="copy",
                                         stage="pvm_pack", scale=False)

    def _append(self, data: bytes) -> Generator:
        if self._send_len + len(data) > PVM_BUFFER_BYTES:
            raise BclError("packed message exceeds the PVM buffer")
        yield from self._pack_cost(len(data))
        self.proc.write(self._send_buf + self._send_len, data)
        self._send_len += len(data)

    def pack_bytes(self, data: bytes) -> Generator:
        return self._append(struct.pack("<I", len(data)) + data)

    def pack_int(self, *values: int) -> Generator:
        return self._append(struct.pack(f"<{len(values)}q", *values))

    def pack_double(self, *values: float) -> Generator:
        return self._append(struct.pack(f"<{len(values)}d", *values))

    def pack_array(self, array: np.ndarray) -> Generator:
        import numpy as np
        return self._append(np.ascontiguousarray(array).tobytes())

    # ------------------------------------------------------------ messaging
    def send(self, tid: int, msgtag: int) -> Generator:
        """pvm_send: ship the current send buffer to a task."""
        return self.eadi.send(tid, self._send_buf, self._send_len,
                              msgtag)

    def recv(self, tid: int = ANY_SOURCE,
             msgtag: int = ANY_TAG) -> Generator:
        """pvm_recv: blocking receive into the task's receive buffer.

        Returns (src_tid, msgtag, length); ``upk_*`` then read it out.
        """
        status = yield from self.eadi.recv(tid, msgtag, self._recv_buf,
                                           PVM_BUFFER_BYTES)
        self._recv_len = status.length
        self._recv_cursor = 0
        return status.src_rank, status.tag, status.length

    # ------------------------------------------------------------ unpacking
    def _take(self, nbytes: int) -> Generator:
        if self._recv_cursor + nbytes > self._recv_len:
            raise BclError("unpack past the end of the received message")
        yield from self._pack_cost(nbytes)
        data = self.proc.read(self._recv_buf + self._recv_cursor, nbytes)
        self._recv_cursor += nbytes
        return data

    def upk_bytes(self) -> Generator:
        header = yield from self._take(4)
        (length,) = struct.unpack("<I", header)
        data = yield from self._take(length)
        return data

    def upk_int(self, count: int = 1) -> Generator:
        data = yield from self._take(8 * count)
        values = struct.unpack(f"<{count}q", data)
        return values[0] if count == 1 else list(values)

    def upk_double(self, count: int = 1) -> Generator:
        data = yield from self._take(8 * count)
        values = struct.unpack(f"<{count}d", data)
        return values[0] if count == 1 else list(values)

    def upk_array(self, dtype, shape) -> Generator:
        import numpy as np
        nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape)))
        data = yield from self._take(nbytes)
        return np.frombuffer(data, dtype=dtype).reshape(shape)
