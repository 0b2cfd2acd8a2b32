"""Streaming microbenchmark.

``measure_streaming_bandwidth`` keeps a window of messages in flight
over the BCL system channel: unlike the one-way T(n) sweep, this
measures sustained throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bcl.api import BclLibrary
from repro.cluster import Cluster
from repro.sim import Store
from repro.sim.time import ns_to_us

__all__ = ["measure_streaming_bandwidth", "StreamResult"]


@dataclass
class StreamResult:
    total_bytes: int
    elapsed_us: float
    messages: int

    @property
    def bandwidth_mb_s(self) -> float:
        return self.total_bytes / self.elapsed_us


def measure_streaming_bandwidth(cluster: Cluster, message_bytes: int,
                                n_messages: int = 16,
                                window: int = 4) -> StreamResult:
    """Sustained one-direction throughput with ``window`` messages in
    flight over the system channel (no rendezvous round trips)."""
    env = cluster.env
    out = {}
    ready: Store = Store(env)

    def receiver():
        proc = cluster.spawn(1)
        port = yield from BclLibrary(proc).create_port()
        ready.try_put(port.address)
        for _ in range(n_messages):
            event = yield from port.wait_recv()
            yield from port.recv_system(event)
        out["elapsed"] = ns_to_us(env.now - out["start"])

    def sender():
        proc = cluster.spawn(0)
        port = yield from BclLibrary(proc).create_port()
        address = yield ready.get()
        buf = proc.alloc(max(message_bytes, 1))
        proc.write(buf, b"s" * message_bytes)
        out["start"] = env.now
        in_flight = 0
        sent = 0
        while sent < n_messages:
            if in_flight >= window:
                yield from port.wait_send()
                in_flight -= 1
            yield from port.send_system(address, buf, message_bytes)
            in_flight += 1
            sent += 1
        while in_flight > 0:
            yield from port.wait_send()
            in_flight -= 1

    done = env.process(receiver(), name="stream.recv")
    env.process(sender(), name="stream.send")
    env.run(until=done)
    return StreamResult(total_bytes=message_bytes * n_messages,
                        elapsed_us=out["elapsed"], messages=n_messages)

