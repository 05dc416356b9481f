"""The telemetry bus: envelopes, ordering, replay ring, drop policy."""

import threading

from repro.obs.bus import (
    BUS_SCHEMA_VERSION,
    DEFAULT_QUEUE_CAPACITY,
    TelemetryBus,
)
from repro.obs.context import RunContext, current
from repro.obs.events import warn


class TestEnvelopes:
    def test_publish_wraps_in_schema_versioned_envelope(self):
        bus = TelemetryBus()
        envelope = bus.publish("progress", {"done": 3})
        assert envelope["kind"] == "progress"
        assert envelope["schema"] == BUS_SCHEMA_VERSION
        assert envelope["data"] == {"done": 3}
        assert envelope["id"] == 1
        assert envelope["ts"] > 0

    def test_ids_are_monotonic_across_kinds(self):
        bus = TelemetryBus()
        ids = [
            bus.publish(kind, {})["id"]
            for kind in ("span", "warning", "progress", "span")
        ]
        assert ids == [1, 2, 3, 4]
        assert bus.last_id == 4

    def test_a_runs_warnings_publish_on_its_bus(self):
        record = warn("x", "a warning")
        assert current().bus.replay()[-1]["data"] is record

    def test_concurrent_publishers_never_share_an_id(self):
        bus = TelemetryBus()

        def hammer():
            for _ in range(200):
                bus.publish("span", {})

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bus.published == 800
        assert bus.last_id == 800


class TestSinks:
    def test_sink_sees_publish_order(self):
        bus = TelemetryBus()
        seen = []
        bus.add_sink(seen.append)
        for n in range(5):
            bus.publish("progress", {"n": n})
        assert [e["data"]["n"] for e in seen] == [0, 1, 2, 3, 4]

    def test_kind_filter_drops_other_kinds(self):
        bus = TelemetryBus()
        seen = []
        bus.add_sink(seen.append, kinds=("span", "warning"))
        bus.publish("span", {})
        bus.publish("artifact", {})
        bus.publish("metrics", {})
        bus.publish("warning", {})
        assert [e["kind"] for e in seen] == ["span", "warning"]

    def test_remove_sink_stops_delivery(self):
        bus = TelemetryBus()
        seen = []
        sink = bus.add_sink(seen.append)
        bus.publish("span", {})
        bus.remove_sink(sink)
        bus.publish("span", {})
        assert len(seen) == 1

    def test_active_tracks_consumers(self):
        bus = TelemetryBus()
        assert not bus.active
        sink = bus.add_sink(lambda e: None)
        assert bus.active
        bus.remove_sink(sink)
        assert not bus.active
        sub = bus.subscribe()
        assert bus.active
        sub.close()
        assert not bus.active


class TestRingReplay:
    def test_replay_returns_retained_envelopes_in_order(self):
        bus = TelemetryBus(capacity=10)
        for n in range(5):
            bus.publish("span", {"n": n})
        assert [e["id"] for e in bus.replay()] == [1, 2, 3, 4, 5]
        assert [e["id"] for e in bus.replay(last_id=3)] == [4, 5]

    def test_ring_is_bounded_and_tracks_oldest(self):
        bus = TelemetryBus(capacity=3)
        for n in range(10):
            bus.publish("span", {"n": n})
        assert [e["id"] for e in bus.replay()] == [8, 9, 10]
        assert bus.oldest_retained_id == 8
        # a replay request older than the horizon yields what remains
        assert [e["id"] for e in bus.replay(last_id=2)] == [8, 9, 10]

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUS_CAPACITY", "7")
        assert TelemetryBus().capacity == 7
        monkeypatch.setenv("REPRO_BUS_CAPACITY", "not-a-number")
        assert TelemetryBus().capacity == TelemetryBus(1024).capacity

    def test_subscribe_seeds_replay_past_last_id(self):
        bus = TelemetryBus()
        for n in range(4):
            bus.publish("span", {"n": n})
        sub = bus.subscribe(last_id=2)
        bus.publish("span", {"n": 4})
        ids = [e["id"] for e in sub.drain()]
        assert ids == [3, 4, 5]  # replay seam is gap-free


class TestDropPolicy:
    def test_stalled_subscriber_drops_oldest(self):
        bus = TelemetryBus()
        sub = bus.subscribe(capacity=3)
        for n in range(8):
            bus.publish("span", {"n": n})
        # queue holds the freshest 3; the 5 oldest were evicted
        assert sub.pending == 3
        assert [e["id"] for e in sub.drain()] == [6, 7, 8]
        assert sub.dropped == 5
        assert bus.dropped == 5

    def test_drop_counters_are_per_subscription(self):
        bus = TelemetryBus()
        slow = bus.subscribe(capacity=2)
        fast = bus.subscribe(capacity=100)
        for n in range(6):
            bus.publish("span", {"n": n})
        assert slow.dropped == 4
        assert fast.dropped == 0
        assert bus.dropped == 4

    def test_memory_is_bounded_by_capacity(self):
        bus = TelemetryBus()
        sub = bus.subscribe(capacity=5)
        for n in range(10_000):
            bus.publish("span", {"n": n})
        assert sub.pending <= 5

    def test_default_queue_capacity(self):
        bus = TelemetryBus()
        assert bus.subscribe().capacity == DEFAULT_QUEUE_CAPACITY


class TestSubscription:
    def test_get_timeout_returns_none(self):
        sub = TelemetryBus().subscribe()
        assert sub.get(timeout=0.01) is None

    def test_close_detaches_but_queue_stays_drainable(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish("span", {})
        sub.close()
        assert sub.closed
        bus.publish("span", {})  # no longer delivered
        assert [e["id"] for e in sub.drain()] == [1]

    def test_stats_shape(self):
        bus = TelemetryBus(capacity=4)
        bus.subscribe()
        bus.add_sink(lambda e: None)
        bus.publish("span", {})
        assert bus.stats() == {
            "published": 1,
            "dropped": 0,
            "subscribers": 1,
            "sinks": 1,
            "ring_size": 1,
            "ring_capacity": 4,
        }

    def test_each_run_starts_with_a_consumer_less_bus(self):
        current().bus.add_sink(lambda e: None)
        fresh = RunContext()
        assert fresh.bus is not current().bus
        assert not fresh.bus.active
