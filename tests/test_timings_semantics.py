"""Timing-accounting semantics: sum stages, set-once wall total,
artifact counters.

The regression fixed here: ``total`` used to be recorded with the same
sum semantics as worker stages, so a caller that timed corpus
generation separately could fold the already-included wall clock in
twice.  ``record_wall`` *assigns* the total; only worker stages sum.
"""

import pytest

from repro.analysis.study import canonical_study
from repro.perf.timing import STAGE_ORDER, ArtifactStats, StudyTimings


class TestRecordSemantics:
    def test_record_sums(self):
        timings = StudyTimings()
        timings.record("mine", 1.0)
        timings.record("mine", 2.5)
        assert timings.stages["mine"] == 3.5

    def test_record_wall_assigns(self):
        timings = StudyTimings()
        timings.record_wall(5.0)
        timings.record_wall(7.0)
        assert timings.stages["total"] == 7.0

    def test_wall_total_survives_stage_records(self):
        # the double-count shape: stages recorded first, then the one
        # owner of the whole-run clock sets total exactly once
        timings = StudyTimings()
        timings.record("generate", 2.0)
        timings.record("mine", 3.0)
        timings.record_wall(6.0)
        assert timings.stages["total"] == 6.0

    def test_ordered_stages_follow_pipeline_order(self):
        timings = StudyTimings()
        for name in ("total", "figures", "mine", "custom", "generate"):
            timings.record(name, 1.0)
        names = [name for name, _ in timings.ordered_stages()]
        assert names == ["generate", "mine", "figures", "total", "custom"]

    def test_stage_order_covers_the_stage_graph(self):
        from repro.pipeline import STAGE_NAMES

        assert STAGE_ORDER == (*STAGE_NAMES, "total")


class TestArtifactAccounting:
    def test_artifact_stats_add(self):
        total = ArtifactStats(hits=1) + ArtifactStats(recomputes=2)
        assert (total.hits, total.recomputes) == (1, 2)
        assert total.as_dict() == {"hits": 1, "recomputes": 2}

    def test_record_artifact_accumulates_per_stage(self):
        timings = StudyTimings()
        timings.record_artifact("mine", hit=True)
        timings.record_artifact("mine", hit=False)
        timings.record_artifact("analyze", hit=True)
        assert timings.artifacts["mine"] == ArtifactStats(1, 1)
        totals = timings.artifact_totals
        assert (totals.hits, totals.recomputes) == (2, 1)

    def test_as_dict_omits_store_block_for_fused_runs(self):
        # timings that never touched the store (records written before
        # every run went through the pipeline) keep their historical
        # BENCH payload shape
        assert "artifact_store" not in StudyTimings().as_dict()

    def test_as_dict_store_block(self):
        timings = StudyTimings()
        timings.record_artifact("analyze", hit=True)
        timings.record_artifact("figures", hit=False)
        block = timings.as_dict()["artifact_store"]
        assert block["hits"] == 1
        assert block["recomputes"] == 1
        assert block["hit_rate"] == 0.5
        assert block["stages"]["analyze"] == {"hits": 1, "recomputes": 0}

    def test_render_mentions_warm_stages(self):
        timings = StudyTimings()
        timings.record_artifact("analyze", hit=True)
        assert "artifact store: 1 hits / 0 recomputes" in timings.render()
        assert "warm: analyze" in timings.render()


class TestCanonicalStudyTotal:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        canonical_study.cache_clear()
        yield
        canonical_study.cache_clear()

    def test_total_is_wall_clock_not_a_double_count(self):
        # pin a tiny corpus through the pipeline's own store seeding
        from repro.pipeline import NullStore, Pipeline

        pipe = Pipeline(scale=16, store=NullStore())
        study = pipe.study()
        timings = study.timings
        total = timings.stages["total"]
        generate = timings.stages["generate"]
        mine = timings.stages["mine"]
        # the old bug added generation onto an already-complete wall
        # total; the fixed total is one wall clock >= any single stage
        assert total >= generate
        assert total >= timings.stages["analyze"]
        # serial: summed worker seconds cannot exceed the enclosing wall
        assert mine <= total * 1.05

    def test_canonical_study_is_memoised(self, monkeypatch):
        import repro.pipeline.graph as graph

        calls: list[tuple] = []
        sentinel = object()

        def fake_study(pipe):
            calls.append((pipe.seed, pipe.jobs))
            return sentinel

        monkeypatch.setattr(graph.Pipeline, "study", fake_study)
        assert canonical_study(12345) is sentinel
        assert canonical_study(12345) is sentinel  # lru_cache, one compute
        assert calls == [(12345, 1)]
