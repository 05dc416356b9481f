"""Named counters, gauges and histograms with snapshot/merge semantics.

The study pipeline increments a small, stable set of metrics as it runs
— projects mined, versions parsed, atomic changes by kind, parse-cache
hits/misses, a diff-latency histogram.  Because the mine fan-out crosses
process boundaries, the registry is built around *snapshots*:

* every run has one always-on :class:`MetricsRegistry` (on its
  :class:`~repro.obs.context.RunContext`); incrementing is a dict
  update, cheap enough for hot paths;
* a worker snapshots the registry before and after each unit of work and
  ships the picklable difference (``after - before``) back with its
  result;
* the driver folds worker deltas together with ``+`` — counters and
  histogram buckets add element-wise, gauges take the newest value —
  into the study-level :class:`MetricsSnapshot` that the run manifest
  embeds.

Histograms carry only bucket counts, the value sum and the observation
count (no min/max), precisely so that the before/after subtraction above
is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BOUNDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class HistogramData:
    """One histogram's state: bucket counts plus sum/count accumulators."""

    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def copy(self) -> "HistogramData":
        return HistogramData(
            bounds=self.bounds,
            counts=list(self.counts),
            total=self.total,
            count=self.count,
        )

    def __add__(self, other: "HistogramData") -> "HistogramData":
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        return HistogramData(
            bounds=self.bounds,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            total=self.total + other.total,
            count=self.count + other.count,
        )

    def __sub__(self, other: "HistogramData") -> "HistogramData":
        if self.bounds != other.bounds:
            raise ValueError("cannot diff histograms with different bounds")
        return HistogramData(
            bounds=self.bounds,
            counts=[a - b for a, b in zip(self.counts, other.counts)],
            total=self.total - other.total,
            count=self.count - other.count,
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": round(self.total, 9),
            "count": self.count,
            "mean": round(self.mean, 9),
        }


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time (or delta) view of a registry."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramData] = field(default_factory=dict)

    def __add__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = {k: v.copy() for k, v in self.histograms.items()}
        for name, data in other.histograms.items():
            histograms[name] = (
                histograms[name] + data if name in histograms else data.copy()
            )
        return MetricsSnapshot(counters, gauges, histograms)

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        # zero-change counters are dropped: a delta only reports what
        # actually moved (forked workers inherit the parent's counters,
        # which would otherwise echo as zeros in every delta)
        counters = {
            name: value - other.counters.get(name, 0)
            for name, value in self.counters.items()
            if value != other.counters.get(name, 0)
        }
        histograms = {}
        for name, data in self.histograms.items():
            histograms[name] = (
                data - other.histograms[name]
                if name in other.histograms
                else data.copy()
            )
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    def fold_cache(self, stats) -> "MetricsSnapshot":
        """Fold a :class:`~repro.perf.cache.CacheStats` into the counters."""
        for name, value in (
            ("parse_cache.hits", stats.hits),
            ("parse_cache.misses", stats.misses),
            ("parse_cache.disk_hits", stats.disk_hits),
            ("parse_cache.statement_hits", stats.statement_hits),
            ("parse_cache.statement_misses", stats.statement_misses),
            ("parse_cache.fallback_parses", stats.fallback_parses),
            ("parse_cache.unit_hits", stats.unit_hits),
            ("parse_cache.unit_misses", stats.unit_misses),
        ):
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def as_dict(self) -> dict:
        """JSON-ready form with deterministic key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {
                k: round(self.gauges[k], 9) for k in sorted(self.gauges)
            },
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }


class MetricsRegistry:
    """One run's always-on metrics store."""

    def __init__(self):
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramData] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        *,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        """Record ``value`` into histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramData(bounds=bounds)
        histogram.observe(value)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        """An independent copy of the registry's current state."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                name: data.copy() for name, data in self._histograms.items()
            },
        )
