"""Time units for the simulator.

The virtual clock counts integer nanoseconds.  All hardware costs in
:mod:`repro.config` are expressed in microseconds (the unit the paper
reports) and converted with :func:`us` before they reach the clock, so
the event queue only ever adds and compares integers and runs are
bit-for-bit reproducible.  Where that conversion happens varies: fixed
delays are converted once when a component is built (switch latency,
link propagation, the wire gap), but per-operation costs are converted
on every call (``Cpu.execute``, ``Mcp._proc`` and the MCP inject
engine), so a run does float arithmetic per charged operation: about
197,000 :func:`us` calls in the 256-rank host barrier.  The rounding
is deterministic, so that costs host time, not reproducibility.
"""

from __future__ import annotations

MICROSECOND: int = 1_000
MILLISECOND: int = 1_000_000
SECOND: int = 1_000_000_000


def us(value: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds.

    Rounds to the nearest nanosecond; sub-nanosecond residue in the
    calibration constants is irrelevant at the fidelity of the model.
    """
    return round(value * MICROSECOND)


# Alias kept because ``us`` reads poorly at some call sites.
us_to_ns = us


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
