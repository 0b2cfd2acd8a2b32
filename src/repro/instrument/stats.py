"""Small statistics helpers for the measurement harness."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["bandwidth_mb_s", "nearest_rank", "summarize", "Summary"]


class Summary:
    """Mean/min/max/stdev of a sample set (microseconds, typically)."""

    def __init__(self, values: Sequence[float]):
        if not values:
            raise ValueError("cannot summarize an empty sample set")
        self.n = len(values)
        self.mean = sum(values) / self.n
        self.min = min(values)
        self.max = max(values)
        if self.n > 1:
            var = sum((v - self.mean) ** 2 for v in values) / (self.n - 1)
            self.stdev = math.sqrt(var)
        else:
            self.stdev = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Summary(n={self.n}, mean={self.mean:.3f}, "
                f"min={self.min:.3f}, max={self.max:.3f})")


def summarize(values: Sequence[float]) -> Summary:
    return Summary(values)


def bandwidth_mb_s(nbytes: int, elapsed_us: float) -> float:
    """Decimal MB/s, the paper's unit (131072 B / 898 us = 146 MB/s)."""
    if elapsed_us <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_us}")
    return nbytes / elapsed_us


def nearest_rank(sorted_values: Sequence[float], p: float,
                 scale: int = 100):
    """Exact nearest-rank percentile of an ascending list: the value at
    rank ``ceil(p / scale * n)`` (at least 1); ``None`` when empty.

    ``p`` is read as the decimal it prints as, so the rank is exact:
    p99.9 of 1000 values is rank 999, where the float product
    ``99.9 / 100 * 1000`` (1000.0000000000001) would round up to 1000.
    ``scale=1`` takes ``p`` as a quantile in [0, 1].
    """
    if not sorted_values:
        return None
    from fractions import Fraction
    rank = math.ceil(Fraction(str(p)) * len(sorted_values) / scale)
    return sorted_values[max(rank, 1) - 1]
