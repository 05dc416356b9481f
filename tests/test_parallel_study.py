"""Serial/parallel equivalence of the study engine.

The acceptance bar of the performance layer: ``run_study(corpus,
jobs=N)`` with N > 1 must produce exactly the rows, skip lists and
headline numbers of the serial path on the canonical seed, and the
parallel corpus generator must be bit-identical to the serial loop.
"""

import pytest

from repro.analysis import canonical_study, run_study
from repro.corpus import generate_corpus
from repro.perf.timing import StudyTimings
from repro.pipeline.store import NullStore


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus()


@pytest.fixture(scope="module")
def serial(corpus):
    return run_study(corpus, jobs=1)


class TestParallelEquivalence:
    def test_jobs4_rows_identical_on_canonical_seed(self, corpus, serial):
        parallel = run_study(corpus, jobs=4)
        assert parallel.projects == serial.projects
        assert parallel.skipped == serial.skipped

    def test_jobs4_headline_identical(self, corpus, serial):
        parallel = run_study(corpus, jobs=4)
        assert parallel.headline() == serial.headline()

    def test_serial_path_matches_canonical_study(self, serial):
        canonical = canonical_study()
        assert serial.projects == canonical.projects
        assert serial.skipped == canonical.skipped

    def test_parallel_corpus_generation_bit_identical(self, corpus):
        parallel = generate_corpus(jobs=2)
        assert [p.name for p in parallel] == [p.name for p in corpus]
        for a, b in zip(corpus, parallel):
            assert a.spec == b.spec
            assert a.git_log_text == b.git_log_text
            assert a.ddl_versions == b.ddl_versions


class TestTimings:
    def test_run_study_records_stage_breakdown(self, serial):
        stages = serial.timings.stages
        assert stages["mine"] > 0
        assert stages["analyze"] > 0
        assert stages["total"] >= stages["analyze"]
        assert serial.timings.jobs == 1

    def test_parse_cache_counters_flow_into_timings(self, serial):
        cache = serial.timings.cache
        assert cache.lookups > 0
        # every DDL version is looked up exactly once per study pass
        assert cache.hits + cache.misses == cache.lookups

    def test_canonical_study_records_generate_stage(self, run_context):
        # a cold store and an empty memo: a study an earlier test left
        # in either would replay and record no generate stage
        run_context.store = NullStore()
        canonical_study.cache_clear()
        try:
            study = canonical_study()
        finally:
            canonical_study.cache_clear()
        assert study.timings.stages.get("generate", 0) > 0

    def test_timings_do_not_affect_result_equality(self, serial):
        other = run_study([], jobs=1)
        assert other.timings.stages != serial.timings.stages
        # equality of StudyResult compares rows, not wall-clock noise
        empty_a = run_study([], jobs=1)
        assert empty_a == other

    def test_render_and_as_dict(self):
        timings = StudyTimings(jobs=2)
        timings.record("mine", 1.25)
        timings.record("mine", 0.75)
        timings.record("custom", 0.1)
        payload = timings.as_dict()
        assert payload["jobs"] == 2
        assert payload["stages"]["mine"] == 2.0
        assert "custom" in payload["stages"]
        text = timings.render()
        assert "mine" in text and "parse cache" in text

    def test_timed_context_manager(self):
        timings = StudyTimings()
        with timings.timed("figures"):
            pass
        assert timings.stages["figures"] >= 0

    def test_ordered_stages_puts_extras_after_the_pipeline(self):
        timings = StudyTimings()
        for stage in ("zeta", "analyze", "alpha", "mine", "total"):
            timings.record(stage, 1.0)
        names = [name for name, _ in timings.ordered_stages()]
        # canonical pipeline order first, unknown stages sorted after
        assert names == ["mine", "analyze", "total", "alpha", "zeta"]

class TestParallelObservability:
    """Satellite checks: cache counters and metrics across workers."""

    @pytest.fixture(scope="class")
    def parallel(self, corpus):
        return run_study(corpus, jobs=2)

    def test_parallel_cache_counters_feed_the_profile(self, parallel):
        # the previously-missing assertion: worker cache deltas must
        # reach the driver's --profile output when jobs > 1
        cache = parallel.timings.cache
        assert cache.lookups > 0
        assert cache.hits + cache.misses == cache.lookups
        text = parallel.timings.render()
        assert "hit rate" in text
        assert "summed worker seconds" in text

    def test_parallel_metrics_counters_match_serial(self, parallel, serial):
        def stable(study):
            # parse-cache splits depend on worker scheduling (each
            # worker warms its own memory layer); everything else is
            # deterministic
            return {
                name: value
                for name, value in study.metrics.counters.items()
                if not name.startswith("parse_cache.")
            }

        assert stable(parallel) == stable(serial)
        assert parallel.metrics.counters["projects.mined"] == 195

    def test_diff_latency_histogram_collected(self, serial):
        histogram = serial.metrics.histograms["diff.seconds"]
        assert histogram.count > 0
        assert histogram.mean > 0
