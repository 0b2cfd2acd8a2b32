"""PCI bus: programmed I/O and DMA engines.

The paper's testbed has strikingly slow PIO (0.24 us per word written,
0.98 us per word read) and this dominates the send path — "filling
sending request consumed more than half of the time".  The bus is a
shared resource: PIO and DMA bursts arbitrate for it, which reproduces
the observation that "I/O device will have a low performance when lots
of I/O accesses occur during a DMA operation".
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import CostModel
from repro.hw.cpu import Cpu
from repro.sim import Environment, Resource, Tracer, us
from repro.sim.time import transfer_time_ns

__all__ = ["PciBus"]


#: DMA burst granularity: the bus is released between bursts so PIO can
#: interleave (at a latency cost) with a long-running DMA.
DMA_BURST_BYTES = 4096


class PciBus:
    """One node's I/O bus, shared by the host CPUs and the NIC."""

    def __init__(self, env: Environment, cfg: CostModel, name: str,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.tracer = tracer
        self._bus = Resource(env, capacity=1)
        self.pio_words_written = 0
        self.pio_words_read = 0
        self.dma_bytes = 0

    # ------------------------------------------------------------- PIO
    def pio_write(self, cpu: Cpu, words: int, *, stage: str = "pio_write",
                  message_id: Optional[int] = None) -> Generator:
        """CPU writes ``words`` 32-bit words to NIC memory/registers."""
        yield from self._pio(cpu, words, self.cfg.pio_write_word_us, stage,
                             message_id)
        self.pio_words_written += words

    def pio_read(self, cpu: Cpu, words: int, *, stage: str = "pio_read",
                 message_id: Optional[int] = None) -> Generator:
        """CPU reads ``words`` 32-bit words from NIC memory/registers."""
        yield from self._pio(cpu, words, self.cfg.pio_read_word_us, stage,
                             message_id)
        self.pio_words_read += words

    def _pio(self, cpu: Cpu, words: int, per_word_us: float, stage: str,
             message_id: Optional[int]) -> Generator:
        if words < 0:
            raise ValueError(f"negative word count {words}")
        if words == 0:
            return
        duration = us(words * per_word_us)
        # PIO occupies the issuing CPU *and* the bus for its duration.
        with cpu._resource.request() as cpu_req:
            yield cpu_req
            with self._bus.request() as bus_req:
                yield bus_req
                start = self.env.now
                yield self.env.sleep(duration)
                cpu.busy_ns += duration
                if self.tracer is not None:
                    self.tracer.record(start, self.env.now, "pio", stage,
                                       self.name, message_id, words=words)

    # ------------------------------------------------------------- DMA
    def dma(self, nbytes: int, *, stage: str = "dma",
            message_id: Optional[int] = None,
            setup: bool = True) -> Generator:
        """One DMA transfer across the bus (either direction).

        Charges the engine setup cost once, then moves the payload in
        bursts of :data:`DMA_BURST_BYTES`, releasing the bus between
        bursts so concurrent PIO is delayed rather than starved.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA length {nbytes}")
        start = self.env.now
        if setup:
            yield self.env.sleep(us(self.cfg.dma_setup_us))
        remaining = nbytes
        while remaining > 0:
            burst = min(remaining, DMA_BURST_BYTES)
            with self._bus.request() as req:
                yield req
                yield self.env.sleep(
                    transfer_time_ns(burst, self.cfg.dma_mb_s))
            remaining -= burst
        self.dma_bytes += nbytes
        if self.tracer is not None:
            self.tracer.record(start, self.env.now, "dma", stage, self.name,
                               message_id, nbytes=nbytes)
