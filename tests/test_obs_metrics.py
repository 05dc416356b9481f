"""Unit tests for the metrics registry and its snapshot algebra.

The snapshot/merge semantics are what make cross-process metrics work:
``after - before`` must be an exact, picklable delta (which is why
histograms carry only buckets/sum/count), and folding deltas with ``+``
must reconstruct the study total.
"""

import pytest

from repro.obs.context import RunContext, current
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.perf.cache import CacheStats


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("projects.mined")
        registry.inc("projects.mined", 4)
        assert registry.counter("projects.mined") == 5
        assert registry.counter("never-touched") == 0

    def test_gauges_keep_the_latest_value(self):
        registry = MetricsRegistry()
        registry.gauge("jobs", 1)
        registry.gauge("jobs", 4)
        assert registry.snapshot().gauges["jobs"] == 4

    def test_snapshot_is_an_independent_copy(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe("lat", 0.01)
        snap = registry.snapshot()
        registry.inc("n")
        registry.observe("lat", 0.01)
        assert snap.counters["n"] == 1
        assert snap.histograms["lat"].count == 1

    def test_global_registry_survives_until_reset(self):
        # a run's counts last as long as its context; the next run
        # starts from zero
        current().metrics.inc("x")
        assert current().metrics.counter("x") == 1
        assert RunContext().metrics.counter("x") == 0


class TestHistogram:
    def test_observe_places_values_in_buckets(self):
        h = HistogramData(bounds=(0.1, 1.0))
        h.observe(0.05)   # bucket 0: <= 0.1
        h.observe(0.5)    # bucket 1: <= 1.0
        h.observe(2.0)    # bucket 2: overflow
        h.observe(2.0)
        assert h.counts == [1, 1, 2]
        assert h.count == 4
        assert h.mean == pytest.approx(4.55 / 4)

    def test_empty_histogram_mean_is_zero(self):
        assert HistogramData().mean == 0.0

    def test_add_and_sub_are_exact_inverses(self):
        before = HistogramData(bounds=(0.1, 1.0))
        before.observe(0.05)
        after = before.copy()
        after.observe(0.5)
        after.observe(0.05)
        delta = after - before
        assert delta.counts == [1, 1, 0]
        assert delta.count == 2
        merged = before + delta
        assert merged.counts == after.counts
        assert merged.count == after.count
        assert merged.total == pytest.approx(after.total)

    def test_mismatched_bounds_refuse_to_merge(self):
        with pytest.raises(ValueError):
            HistogramData(bounds=(1.0,)) + HistogramData(bounds=(2.0,))
        with pytest.raises(ValueError):
            HistogramData(bounds=(1.0,)) - HistogramData(bounds=(2.0,))

    def test_default_bounds_cover_the_latency_range(self):
        h = HistogramData()
        assert h.bounds == DEFAULT_BOUNDS
        assert len(h.counts) == len(DEFAULT_BOUNDS) + 1


class TestSnapshotAlgebra:
    def test_add_sums_counters_and_merges_histograms(self):
        a = MetricsSnapshot(counters={"n": 2}, gauges={"g": 1.0})
        a.histograms["lat"] = HistogramData(bounds=(1.0,))
        a.histograms["lat"].observe(0.5)
        b = MetricsSnapshot(counters={"n": 3, "m": 1}, gauges={"g": 2.0})
        b.histograms["lat"] = HistogramData(bounds=(1.0,))
        b.histograms["lat"].observe(0.5)
        merged = a + b
        assert merged.counters == {"n": 5, "m": 1}
        assert merged.gauges["g"] == 2.0  # last write wins
        assert merged.histograms["lat"].count == 2
        # operands are untouched
        assert a.counters == {"n": 2}
        assert a.histograms["lat"].count == 1

    def test_sub_keeps_only_counters_that_moved(self):
        # a forked worker inherits the parent's counters; its delta must
        # not echo them back as zeros
        before = MetricsSnapshot(counters={"inherited": 10, "n": 1})
        after = MetricsSnapshot(counters={"inherited": 10, "n": 4})
        delta = after - before
        assert delta.counters == {"n": 3}

    def test_worker_delta_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("projects.mined", 7)
        registry.observe("diff.seconds", 0.002)
        before = registry.snapshot()
        registry.inc("projects.mined")
        registry.observe("diff.seconds", 0.004)
        delta = registry.snapshot() - before
        total = before + delta
        assert total.counters == registry.snapshot().counters
        assert (
            total.histograms["diff.seconds"].count
            == registry.snapshot().histograms["diff.seconds"].count
        )

    def test_fold_cache_adds_parse_cache_counters(self):
        snap = MetricsSnapshot(counters={"parse_cache.hits": 1})
        snap.fold_cache(CacheStats(hits=4, misses=2, disk_hits=1))
        assert snap.counters["parse_cache.hits"] == 5
        assert snap.counters["parse_cache.misses"] == 2
        assert snap.counters["parse_cache.disk_hits"] == 1

    def test_as_dict_is_json_ready_and_sorted(self):
        snap = MetricsSnapshot(counters={"b": 2, "a": 1}, gauges={"g": 0.5})
        snap.histograms["lat"] = HistogramData(bounds=(1.0,))
        snap.histograms["lat"].observe(0.25)
        payload = snap.as_dict()
        assert list(payload["counters"]) == ["a", "b"]
        hist = payload["histograms"]["lat"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.25)
        assert hist["mean"] == pytest.approx(0.25)
        assert hist["counts"] == [1, 0]
