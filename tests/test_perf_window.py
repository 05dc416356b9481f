"""Unit tests for the backpressured fan-out (`repro.perf.parallel.window_map`).

The window is the streaming engine's memory bound: at most ``window``
planned items are pending at once, results come back in input order,
warm ("ready") items pass through without occupying the window, and a
shrinking window limit takes effect mid-iteration.  The progress/ETA
side is tested with a throttled fake executor: the tracker's ETA must
divide by the *effective* fan-out width (the window), not the nominal
job count.
"""

import pytest

from repro.obs.progress import ProgressChannel, ProgressTracker
from repro.perf.parallel import WindowStats, window_map
from repro.perf.timing import StudyTimings


def _tasks(values):
    return [(i, "task", v) for i, v in enumerate(values)]


class FakeFuture:
    def __init__(self, pool, fn, value):
        self._pool = pool
        self._fn = fn
        self._value = value

    def result(self):
        self._pool.running.remove(self)
        return self._fn(self._value)


class FakeExecutor:
    """Counts concurrently outstanding futures (submit .. result)."""

    def __init__(self):
        self.running: list[FakeFuture] = []
        self.max_running = 0
        self.submitted = 0

    def submit(self, fn, value):
        future = FakeFuture(self, fn, value)
        self.running.append(future)
        self.submitted += 1
        self.max_running = max(self.max_running, len(self.running))
        return future


class TestWindowMap:
    def test_serial_yields_in_order_with_lazy_evaluation(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * 10

        out = list(window_map(fn, _tasks([1, 2, 3, 4]), window=2))
        assert out == [(0, 10), (1, 20), (2, 30), (3, 40)]
        # serial tasks evaluate at drain time, in yield order
        assert calls == [1, 2, 3, 4]

    def test_executor_in_flight_never_exceeds_window(self):
        pool = FakeExecutor()
        stats = WindowStats()
        out = list(window_map(
            lambda x: x + 1, _tasks(range(20)),
            executor=pool, window=3, stats=stats,
        ))
        assert out == [(i, i + 1) for i in range(20)]
        assert pool.submitted == 20
        assert pool.max_running <= 3
        assert stats.submitted == stats.completed == 20
        assert 0 < stats.max_in_flight <= 3
        assert stats.as_dict() == {
            "submitted": 20,
            "completed": 20,
            "max_in_flight": stats.max_in_flight,
            "shrinks": 0,
        }

    def test_ready_items_pass_through_in_order(self):
        items = [
            ("a", "ready", "warm-a"),
            ("b", "task", 2),
            ("c", "ready", "warm-c"),
            ("d", "task", 4),
            ("e", "ready", "warm-e"),
        ]
        stats = WindowStats()
        out = list(window_map(
            lambda x: x * 2, items, window=2, stats=stats,
        ))
        assert out == [
            ("a", "warm-a"), ("b", 4), ("c", "warm-c"),
            ("d", 8), ("e", "warm-e"),
        ]
        assert stats.submitted == stats.completed == 2

    def test_long_warm_runs_never_accumulate_pending(self):
        # a mostly warm corpus: one cold task then thousands of readies
        # must not pile up behind it — total pending stays window-bound
        items = [(0, "task", 0)] + [
            (i, "ready", i) for i in range(1, 2001)
        ]
        seen = 0
        for _tag, _value in window_map(
            lambda x: x, iter(items), window=2,
        ):
            seen += 1
        assert seen == 2001

    def test_callable_window_shrinks_mid_iteration(self):
        pool = FakeExecutor()
        stats = WindowStats()
        limit = [4]
        out = []
        for tag, value in window_map(
            lambda x: x, _tasks(range(12)),
            executor=pool, window=lambda: limit[0], stats=stats,
        ):
            out.append((tag, value))
            if tag == 3:
                limit[0] = 1
        assert out == [(i, i) for i in range(12)]
        assert stats.shrinks >= 1
        # after the shrink the pool never holds more than the old peak
        assert pool.max_running <= 4

    def test_empty_input(self):
        assert list(window_map(lambda x: x, iter(()), window=2)) == []


class TestWindowedEta:
    """Satellite: progress/ETA stays honest under a bounded window."""

    def _timings(self, jobs):
        timings = StudyTimings(jobs=jobs)
        # 10 completed units at 2 summed worker-seconds each
        for _ in range(10):
            timings.record("mine", 2.0)
        return timings

    def test_eta_divides_by_window_not_jobs(self):
        timings = self._timings(jobs=8)
        # nominal pool width 8, but only 2 shards can be in flight:
        # the remaining 10 units take 10*2/2 s, not 10*2/8 s
        assert timings.eta_seconds(10, 20) == pytest.approx(2.5)
        assert timings.eta_seconds(
            10, 20, parallelism=2
        ) == pytest.approx(10.0)
        # a window wider than the pool never *raises* the divisor
        assert timings.eta_seconds(
            10, 20, parallelism=16
        ) == pytest.approx(2.5)

    def test_tracker_parallelism_feeds_eta(self):
        channel = ProgressChannel()
        records = []
        channel.bus.add_sink(lambda envelope: records.append(envelope["data"]))
        channel.interval = 0.0
        timings = self._timings(jobs=8)
        tracker = ProgressTracker(
            "map", 20, channel=channel, timings=timings, parallelism=2,
        )
        for _ in range(10):
            tracker.update("p", 2.0)
        assert records[-1]["eta_seconds"] == pytest.approx(10.0)
        # the auto-shrink hook narrows the window mid-run
        tracker.set_parallelism(1)
        tracker.update("p", 2.0)
        assert records[-1]["eta_seconds"] > 10.0

    def test_throttled_fake_executor_end_to_end(self):
        """Drive a windowed fan-out and check each heartbeat's ETA."""
        channel = ProgressChannel()
        records = []
        channel.bus.add_sink(lambda envelope: records.append(envelope["data"]))
        channel.interval = 0.0
        timings = StudyTimings(jobs=4)
        tracker = ProgressTracker(
            "map", 8, channel=channel, timings=timings, parallelism=2,
        )
        pool = FakeExecutor()
        for _tag, seconds in window_map(
            lambda x: 2.0, _tasks(range(8)),
            executor=pool, window=2,
        ):
            timings.record("mine", seconds)
            tracker.update("p", seconds)
        assert pool.max_running <= 2
        assert len(records) == 8
        # done=4 of 8: 4 remaining * 2s each / window 2 = 4s — the
        # jobs=4 divisor would have claimed a dishonest 2s
        assert records[3]["eta_seconds"] == pytest.approx(4.0)
        assert records[-1]["eta_seconds"] == 0.0
