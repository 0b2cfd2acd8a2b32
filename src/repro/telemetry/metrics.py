"""Metrics registry: counters, gauges and log-scaled histograms.

Every layer of the simulated stack registers its instruments here —
the kernel's :class:`~repro.instrument.counters.PathCounters`, the
firmware's reliability tallies, NIC/link occupancy, and the upper
layers' credit accounting — so one collection pass can answer "what
did this run do" without each experiment hand-rolling its own
aggregation.  Two export formats:

* Prometheus-style text exposition (:meth:`MetricsRegistry.render_prometheus`),
  with cumulative ``_bucket`` lines for histograms plus exact
  ``quantile`` samples;
* a JSON document (:meth:`MetricsRegistry.to_json`) for programmatic
  consumers and tests.

Instruments are either *owned* (mutated through ``inc``/``set``/
``observe``) or *callback-backed* (the registry reads a live source —
an existing counters object — at collection time).  Callback backing
is how the ad-hoc ``PathCounters``/``ReliabilityCounters`` are
absorbed without changing their public API: they keep their fields,
and the registry samples them.

Everything here is a pure observer: no instrument schedules simulation
events or consumes randomness, so registering metrics never perturbs a
run.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterable, Optional

from repro.instrument.stats import nearest_rank

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: dict[str, Any]) -> LabelItems:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec:
    backslash, double quote and newline must be written as ``\\\\``,
    ``\\"`` and ``\\n`` or the output is unparseable."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and newline (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(items: LabelItems, extra: LabelItems = ()) -> str:
    merged = items + extra
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in merged)
    return "{" + body + "}"


class Instrument:
    """Common identity for one (name, labels) time series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: LabelItems):
        self.name = name
        self.help = help
        self.labels = labels

    def value(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing tally."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: LabelItems,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is callback-backed, not settable")
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._value += amount

    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge(Instrument):
    """Point-in-time value; settable or callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: LabelItems,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is callback-backed, not settable")
        self._value = float(value)

    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram(Instrument):
    """Latency/size distribution with log-scaled buckets.

    Raw observations are retained (simulation scale makes this cheap),
    so quantiles are *exact* — nearest-rank over the sorted sample —
    rather than bucket-interpolated; the log2 buckets exist only for
    the Prometheus exposition.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, labels: LabelItems,
                 on_clamp: Optional[Callable[["Histogram", float],
                                             None]] = None):
        super().__init__(name, help, labels)
        self.values: list[float] = []
        self._sorted: Optional[list[float]] = None
        self._on_clamp = on_clamp

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            # A negative duration is a measurement bug (clock misuse,
            # span ended before it started); the log2 buckets start at
            # 1.0 and would mis-bucket it.  Clamp to zero and surface
            # the problem through the registry instead of skewing the
            # distribution silently.
            if self._on_clamp is not None:
                self._on_clamp(self, value)
            value = 0.0
        self.values.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile; 0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return self._nearest_rank(q, 1)

    def percentile(self, p: float) -> float:
        """Exact nearest-rank percentile for ``p`` in [0, 100];
        0.0 on an empty histogram."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        return self._nearest_rank(p, 100)

    def _nearest_rank(self, p: float, scale: int) -> float:
        if not self.values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return nearest_rank(self._sorted, p, scale)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs over log2 buckets.

        Bounds are powers of two from 1 up to the smallest power
        covering the largest observation, capped to keep the exposition
        bounded; the final bound is +inf.
        """
        bounds: list[float] = []
        bound = 1.0
        top = max(self.values, default=1.0)
        while bound < top and len(bounds) < 64:
            bounds.append(bound)
            bound *= 2.0
        bounds.append(bound)
        out: list[tuple[float, int]] = []
        for upper in bounds:
            out.append((upper, sum(1 for v in self.values if v <= upper)))
        out.append((float("inf"), len(self.values)))
        return out

    def value(self) -> float:
        return self.sum


class MetricsRegistry:
    """Get-or-create registry keyed on (name, labels)."""

    def __init__(self):
        self._instruments: dict[tuple[str, LabelItems], Instrument] = {}
        self._help: dict[str, str] = {}
        self._kind: dict[str, str] = {}
        #: human-readable data-quality warnings (clamped observations),
        #: newest last; purely observational, never consumed by the run
        self.warnings: list[str] = []
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _on_histogram_clamp(self, histogram: Histogram,
                            value: float) -> None:
        self.counter("repro_metrics_clamped_total",
                     "negative histogram observations clamped to zero",
                     metric=histogram.name).inc()
        self.warnings.append(
            f"histogram {histogram.name}{_render_labels(histogram.labels)}: "
            f"negative observation {value:g} clamped to 0")

    # ------------------------------------------------------------- create
    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, Any],
                       fn: Optional[Callable[[], float]] = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        items = _label_items(labels)
        key = (name, items)
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name} already registered as {existing.kind}")
            return existing
        if name in self._kind and self._kind[name] != cls.kind:
            raise ValueError(
                f"{name} already registered as {self._kind[name]}, "
                f"not {cls.kind}")
        if cls is Histogram:
            instrument = cls(name, help, items,
                             on_clamp=self._on_histogram_clamp)
        else:
            instrument = cls(name, help, items, fn=fn)
        self._instruments[key] = instrument
        self._kind[name] = cls.kind
        if help or name not in self._help:
            self._help[name] = help or self._help.get(name, "")
        return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels)

    def register_callback(self, name: str, fn: Callable[[], float],
                          help: str = "", kind: str = "counter",
                          **labels: Any) -> Instrument:
        """Register a callback-backed series read at collection time."""
        cls = {"counter": Counter, "gauge": Gauge}.get(kind)
        if cls is None:
            raise ValueError(f"callback metrics must be counter or gauge, "
                             f"not {kind!r}")
        return self._get_or_create(cls, name, help, labels, fn=fn)

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Call ``fn(registry)`` before every read of the series, so a
        source whose label sets appear during the run registers them
        when read instead of on its hot path."""
        self._collectors.append(fn)

    # ------------------------------------------------------------ access
    def _collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    def __iter__(self) -> Iterable[Instrument]:
        self._collect()
        return iter(sorted(self._instruments.values(),
                           key=lambda i: (i.name, i.labels)))

    def __len__(self) -> int:
        self._collect()
        return len(self._instruments)

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        self._collect()
        return self._instruments.get((name, _label_items(labels)))

    # ------------------------------------------------------------ export
    def render_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines: list[str] = []
        seen_meta: set[str] = set()
        for instrument in self:
            if instrument.name not in seen_meta:
                seen_meta.add(instrument.name)
                help_text = self._help.get(instrument.name, "")
                if help_text:
                    lines.append(f"# HELP {instrument.name} "
                                 f"{_escape_help(help_text)}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            labels = instrument.labels
            if isinstance(instrument, Histogram):
                for upper, count in instrument.buckets():
                    le = "+Inf" if upper == float("inf") else f"{upper:g}"
                    lines.append(
                        f"{instrument.name}_bucket"
                        f"{_render_labels(labels, (('le', le),))} {count}")
                lines.append(f"{instrument.name}_sum"
                             f"{_render_labels(labels)} "
                             f"{instrument.sum:g}")
                lines.append(f"{instrument.name}_count"
                             f"{_render_labels(labels)} {instrument.count}")
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f"{instrument.name}"
                        f"{_render_labels(labels, (('quantile', f'{q:g}'),))}"
                        f" {instrument.quantile(q):g}")
            else:
                lines.append(f"{instrument.name}{_render_labels(labels)} "
                             f"{instrument.value():g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """JSON export: one entry per series."""
        series = []
        for instrument in self:
            entry: dict[str, Any] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": dict(instrument.labels),
            }
            if isinstance(instrument, Histogram):
                entry.update(count=instrument.count, sum=instrument.sum,
                             p50=instrument.p50, p95=instrument.p95,
                             p99=instrument.p99)
            else:
                entry["value"] = instrument.value()
            series.append(entry)
        return json.dumps({"metrics": series}, indent=2, sort_keys=True)
