"""Histogram edge cases: empty, negative, and zero-length spans.

A zero-length span (start == end on the simulated clock) is a
legitimate observation of 0.0 — it must bucket into the first log2
bucket, not vanish or skew quantiles.  A *negative* span is a
measurement bug: it is clamped to zero, counted in
``repro_metrics_clamped_total`` and surfaced through the registry's
``warnings``, never silently folded into the distribution.
"""

from __future__ import annotations

import math

import pytest

from repro.instrument.stats import nearest_rank
from repro.telemetry.metrics import Histogram, MetricsRegistry


def test_empty_histogram_quantiles_are_zero():
    h = Histogram("h", "", ())
    assert h.quantile(0.5) == 0.0
    assert h.percentile(99) == 0.0
    assert h.count == 0
    assert h.sum == 0.0


def test_zero_length_span_buckets_into_first_bucket():
    h = Histogram("h", "", ())
    h.observe(0.0)
    h.observe(0.0)
    buckets = h.buckets()
    upper, count = buckets[0]
    assert upper == 1.0 and count == 2
    assert buckets[-1] == (math.inf, 2)
    assert h.percentile(50) == 0.0
    assert h.percentile(100) == 0.0


def test_negative_observation_clamped_via_registry():
    registry = MetricsRegistry()
    h = registry.histogram("repro_span_ns", "span durations")
    h.observe(-125.0)
    h.observe(40.0)
    assert h.values == [0.0, 40.0]           # clamped, not dropped
    assert h.percentile(50) == 0.0
    clamp = registry.counter("repro_metrics_clamped_total",
                             metric="repro_span_ns")
    assert clamp.value() == 1
    assert len(registry.warnings) == 1
    assert "repro_span_ns" in registry.warnings[0]
    assert "-125" in registry.warnings[0]


def test_unregistered_histogram_clamps_without_callback():
    h = Histogram("h", "", ())
    h.observe(-1.0)
    assert h.values == [0.0]


def test_percentile_validates_range():
    h = Histogram("h", "", ())
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(-0.1)
    with pytest.raises(ValueError):
        h.percentile(100.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_percentile_matches_quantile():
    h = Histogram("h", "", ())
    for v in (5.0, 1.0, 9.0, 3.0, 7.0):
        h.observe(v)
    assert h.percentile(50) == h.quantile(0.5) == 5.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 9.0


def test_nearest_rank_is_exact_at_p999():
    """99.9 / 100 is 0.9990000000000001 in floats, which once put p99.9
    of 1000 values at rank 1000 (the maximum); the rank is exact."""
    values = list(range(1, 1001))
    assert nearest_rank(values, 99.9) == 999
    assert nearest_rank(values, 99) == 990
    assert nearest_rank(values, 0.999, scale=1) == 999
    assert nearest_rank([], 50) is None
    h = Histogram("h", "", ())
    for v in reversed(values):
        h.observe(v)
    assert h.percentile(99.9) == h.quantile(0.999) == 999
    assert h.percentile(99) == h.quantile(0.99) == 990
