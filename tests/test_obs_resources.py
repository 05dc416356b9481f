"""Resource telemetry: the /proc-backed sampler, the monitor's window
protocol, the GC clock, and how per-scope footprints surface in timings
payloads, manifests, and worker results."""

import gc
import threading

import pytest

from repro.obs.resources import (
    MONITOR,
    GcClock,
    ResourceMonitor,
    ResourceSample,
    current_rss_bytes,
    peak_rss_bytes,
    process_sample,
)
from repro.perf.timing import StudyTimings

MIB = 2**20


def _gc_clocks_installed() -> int:
    return sum(
        isinstance(getattr(hook, "__self__", None), GcClock)
        for hook in gc.callbacks
    )


@pytest.fixture
def explicit_gc_only():
    """Only the test's own ``gc.collect`` calls run while it counts."""
    gc.disable()
    yield
    gc.enable()


class TestSamplers:
    def test_rss_sources_report_plausible_bytes(self):
        # a live CPython process is at least a few MiB resident
        assert current_rss_bytes() > 4 * MIB
        assert peak_rss_bytes() >= current_rss_bytes() // 2

    def test_process_sample_shape(self):
        sample = process_sample()
        assert sample.peak_rss_bytes > 0
        assert sample.cpu_seconds >= 0
        assert sample.as_dict() == {
            "peak_rss_bytes": sample.peak_rss_bytes,
            "cpu_seconds": round(sample.cpu_seconds, 6),
        }

    def test_sample_is_immutable(self):
        sample = ResourceSample(1, 0.0, 0.0)
        with pytest.raises(AttributeError):
            sample.peak_rss_bytes = 2


class TestResourceMonitor:
    def test_window_captures_a_sample(self):
        monitor = ResourceMonitor()
        with monitor.window() as window:
            sum(range(10_000))
        sample = window.sample
        assert sample.peak_rss_bytes > 0
        assert sample.cpu_seconds >= 0

    def test_concurrent_windows_are_independent(self):
        monitor = ResourceMonitor()
        outer = monitor.open_window()
        inner = monitor.open_window()
        inner_sample = monitor.close_window(inner)
        outer_sample = monitor.close_window(outer)
        assert inner_sample.peak_rss_bytes > 0
        assert outer_sample.peak_rss_bytes >= inner_sample.peak_rss_bytes

    def test_global_monitor_is_a_singleton_with_a_daemon_thread(self):
        with MONITOR.window() as window:
            pass
        assert window.sample.peak_rss_bytes > 0
        samplers = [
            t for t in threading.enumerate()
            if t.daemon and "resource" in t.name.lower()
        ]
        assert samplers


@pytest.mark.usefixtures("explicit_gc_only")
class TestGcClock:
    def test_counts_full_collections_while_installed(self):
        with GcClock() as clock:
            gc.collect()
            gc.collect(0)
        assert clock.full_collections == 1
        assert clock.seconds > 0
        gc.collect()
        assert clock.full_collections == 1
        assert clock._on_gc not in gc.callbacks

    def test_take_hands_over_the_interval(self):
        clock = GcClock().start()
        try:
            gc.collect()
            first = clock.take()
            second = clock.take()
        finally:
            clock.stop()
        assert first["gc_full_collections"] == 1
        assert first["gc_seconds"] > 0
        assert second == {"gc_full_collections": 0, "gc_seconds": 0.0}


class TestTimingsResources:
    def test_record_resource_folds_peaks_and_sums_cpu(self):
        timings = StudyTimings()
        timings.record_resource(
            "workers", {"peak_rss_bytes": 100, "cpu_seconds": 1.0}
        )
        timings.record_resource(
            "workers", {"peak_rss_bytes": 50, "cpu_seconds": 2.0}
        )
        scope = timings.resources["workers"]
        assert scope["peak_rss_bytes"] == 100  # max, not sum
        assert scope["cpu_seconds"] == 3.0  # sum, not max

    def test_accepts_resource_samples_directly(self):
        timings = StudyTimings()
        timings.record_resource("driver", ResourceSample(7, 0.25, 0.25))
        assert timings.resources["driver"] == {
            "peak_rss_bytes": 7, "cpu_seconds": 0.5,
        }

    def test_all_zero_samples_are_dropped(self):
        timings = StudyTimings()
        timings.record_resource(
            "driver", {"peak_rss_bytes": 0, "cpu_seconds": 0.0}
        )
        assert timings.resources == {}

    def test_merge_folds_scopes(self):
        a, b = StudyTimings(), StudyTimings()
        a.record_resource("workers", {"peak_rss_bytes": 10,
                                      "cpu_seconds": 1.0})
        b.record_resource("workers", {"peak_rss_bytes": 20,
                                      "cpu_seconds": 1.0})
        b.record_resource("driver", {"peak_rss_bytes": 5,
                                     "cpu_seconds": 0.5})
        a.merge(b)
        assert a.resources["workers"]["peak_rss_bytes"] == 20
        assert a.resources["workers"]["cpu_seconds"] == 2.0
        assert a.resources["driver"]["peak_rss_bytes"] == 5

    def test_as_dict_surfaces_the_headline_peak(self):
        timings = StudyTimings()
        timings.record_resource("driver", {"peak_rss_bytes": 100,
                                           "cpu_seconds": 1.0})
        timings.record_resource("workers", {"peak_rss_bytes": 300,
                                            "cpu_seconds": 2.0})
        block = timings.as_dict()["resources"]
        assert block["peak_rss_bytes"] == 300
        assert set(block["scopes"]) == {"driver", "workers"}

    def test_gc_counters_sum_across_samples(self):
        timings = StudyTimings()
        for _ in range(2):
            timings.record_resource(
                "workers",
                {"peak_rss_bytes": 10, "cpu_seconds": 1.0,
                 "gc_full_collections": 2, "gc_seconds": 0.25},
            )
        timings.record_resource(
            "driver", {"peak_rss_bytes": 10, "cpu_seconds": 1.0}
        )
        assert timings.resources["workers"] == {
            "peak_rss_bytes": 10, "cpu_seconds": 2.0,
            "gc_full_collections": 4, "gc_seconds": 0.5,
        }
        assert "gc_full_collections" not in timings.resources["driver"]
        assert "cyclic GC: workers 4 full / 0.500s" in timings.render()

    def test_no_telemetry_no_block(self):
        assert "resources" not in StudyTimings().as_dict()

    def test_render_mentions_peak_rss(self):
        timings = StudyTimings()
        timings.record_resource("driver", {"peak_rss_bytes": 64 * MIB,
                                           "cpu_seconds": 1.0})
        assert "peak RSS" in timings.render()
        assert "64 MiB" in timings.render()


class TestEndToEndTelemetry:
    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus.generator import generate_corpus
        from repro.corpus.profiles import scaled_profiles

        return generate_corpus(seed=77, profiles=scaled_profiles(32))

    def test_pipeline_study_records_driver_scope(self):
        from repro.pipeline import MemoryStore, Pipeline

        pipe = Pipeline(scale=32, seed=77, store=MemoryStore())
        pipe.study()
        resources = pipe.timings.resources
        assert "driver" in resources
        assert resources["driver"]["peak_rss_bytes"] > 10 * MIB
        assert resources["driver"]["gc_seconds"] >= 0
        assert resources["driver"]["gc_full_collections"] >= 0
        payload = pipe.timings.as_dict()
        assert payload["resources"]["peak_rss_bytes"] > 10 * MIB
        # the study's GC hook and the map phase's frozen heap are gone
        assert gc.get_freeze_count() == 0
        assert _gc_clocks_installed() == 0

    def test_manifest_carries_the_resources_block(self, corpus):
        from repro.analysis.study import run_study
        from repro.obs.manifest import build_manifest

        study = run_study(corpus)
        manifest = build_manifest(
            command="study", status="ok", seed=77, study=study,
        )
        block = manifest["timings"]["resources"]
        assert block["peak_rss_bytes"] > 0
        assert "driver" in block["scopes"]

    def test_parallel_workers_ship_their_own_sample(self, corpus):
        from repro.analysis.study import run_study

        study = run_study(corpus, jobs=2)
        resources = study.timings.resources
        assert "workers" in resources
        assert resources["workers"]["peak_rss_bytes"] > 10 * MIB
        assert resources["workers"]["cpu_seconds"] > 0
        assert resources["workers"]["gc_seconds"] >= 0
        # forked mid-study, each worker runs its own clock and not the
        # copy of the driver's it inherited
        from repro.perf.pool import warm_pool

        pool = warm_pool(2)
        counts = [pool.submit(_gc_clocks_installed) for _ in range(4)]
        assert [future.result(timeout=60) for future in counts] == [1] * 4


class TestWorkerSample:
    def test_driver_ships_no_sample(self):
        from repro.perf.parallel import _worker_sample

        assert _worker_sample() is None

    def test_each_sample_covers_the_interval_since_the_last(
        self, monkeypatch, explicit_gc_only
    ):
        import repro.perf.parallel as parallel
        from repro.obs.resources import cpu_times

        clock = GcClock().start()
        monkeypatch.setattr(parallel, "_worker_gc", clock)
        monkeypatch.setattr(parallel, "_worker_cpu_baseline", cpu_times())
        try:
            deadline = cpu_times()[0] + 0.05
            while cpu_times()[0] < deadline:
                sum(range(1000))
            gc.collect()
            first = parallel._worker_sample()
            second = parallel._worker_sample()
        finally:
            clock.stop()
        assert first["cpu_seconds"] >= 0.04
        assert first["gc_full_collections"] == 1
        # summed by the driver, so nothing is reported twice
        assert second["cpu_seconds"] < first["cpu_seconds"]
        assert second["gc_full_collections"] == 0
        assert second["peak_rss_bytes"] >= first["peak_rss_bytes"] > 0
