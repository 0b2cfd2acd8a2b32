"""Time units for the simulator.

The virtual clock counts integer nanoseconds.  All hardware costs in
:mod:`repro.config` are expressed in microseconds (the unit the paper
reports) and converted with :func:`us` before they reach the clock, so
the event queue only ever adds and compares integers and runs are
bit-for-bit reproducible.

No charge converts a constant per operation.  Each
:class:`~repro.config.CostModel` converts once, on first use: ``cfg.ns``
holds every ``*_us`` field in whole nanoseconds (the MCP processing
costs, wire injection and gap, DMA setup, switch latency, link
propagation), ``cfg.host_scale`` is the CPU-frequency factor, and
``cfg.dma_ns_per_byte``/``cfg.wire_ns_per_byte`` are the per-byte
factors of :func:`transfer_time_ns`.  What is left per operation is
one :func:`round` of a computed cost, in the same float order as
before, so every duration is bit-identical to the per-call conversion:
``round((cost * (ref_mhz / mhz)) * 1000)`` for a host charge and
``round(nbytes * (1e3 / rate))`` for a transfer.  Before the hoist the
256-rank host barrier made about 197,000 :func:`us` calls.
"""

from __future__ import annotations

MICROSECOND: int = 1_000


def us(value: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds.

    Rounds to the nearest nanosecond; sub-nanosecond residue in the
    calibration constants is irrelevant at the fidelity of the model.
    """
    return round(value * MICROSECOND)


def ns_to_us(value: int) -> float:
    """Convert integer nanoseconds back to (float) microseconds."""
    return value / MICROSECOND


def bytes_per_second_to_ns_per_byte(rate_mb_per_s: float) -> float:
    """Convert a bandwidth in MB/s (decimal megabytes) to ns/byte.

    The paper quotes bandwidths in decimal MB/s (e.g. 146 MB/s for a
    128 KB message in 898 us: 131072 B / 898 us = 146.0 MB/s), so the
    whole reproduction uses decimal megabytes consistently.
    """
    if rate_mb_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {rate_mb_per_s}")
    return 1e3 / rate_mb_per_s


def transfer_time_ns(nbytes: int, rate_mb_per_s: float) -> int:
    """Time to move ``nbytes`` at ``rate_mb_per_s``, in whole ns."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    return round(nbytes * bytes_per_second_to_ns_per_byte(rate_mb_per_s))
