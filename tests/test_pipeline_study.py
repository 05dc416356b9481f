"""End-to-end pipeline studies: warm replays, sampled versus
materialised corpora, degenerate corpora, corrupted stores.

The acceptance contract of the sharded stage graph: a warm-store rerun
is byte-identical to the cold run (serial or parallel) *and* to the
same corpus run materialised in memory, clean shards are served from
the store, and a damaged store entry is recomputed — never served.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.study import StudyResult
from repro.obs.context import RunContext, current
from repro.pipeline import DirStore, MemoryStore, Pipeline
from repro.vcs import (
    Commit,
    FileChange,
    FileVersion,
    Repository,
    synthetic_sha,
    utc,
)

SCALE = 16


def _codes():
    return [record["code"] for record in current().recorder.warnings]


def _hollow_pipeline(store, count: int) -> Pipeline:
    """A pipeline over ``count`` projects whose analyses all skip.

    The corpus is built by hand: every project's recorded DDL never
    defines a table, so every analysis raises ``ZeroTotalError`` — the
    empty-history skip — while mining still runs for real.
    """
    corpus = []
    for index in range(count):
        repo = Repository(name=f"demo/hollow-{index}")
        for i in range(3):
            repo.add_commit(
                Commit(
                    synthetic_sha(index * 10 + i), "D", "d@x",
                    utc(2020, 1 + i), "c",
                    [FileChange("M" if i else "A", "schema.sql"),
                     FileChange("M", "src/app.py")],
                )
            )
        repo.record_version(
            "schema.sql",
            FileVersion(synthetic_sha(index * 10), utc(2020, 1), ""),
        )
        corpus.append(
            SimpleNamespace(name=repo.name, repository=repo, true_taxon=None)
        )
    return Pipeline(store=store, corpus=corpus)


#: The canonical workload and the sqlite (dialect, source) workload.
DIALECTS = pytest.mark.parametrize("dialect", [None, "sqlite"])


class TestWarmReplay:
    @DIALECTS
    def test_cold_and_warm_reports_are_byte_identical(
        self, tmp_path, dialect
    ):
        store_dir = tmp_path / "artifacts"
        cold = Pipeline(scale=SCALE, store=DirStore(store_dir),
                        dialect=dialect)
        cold_text = cold.report()
        n = len(cold.shards())
        totals = cold.timings.artifact_totals
        assert (totals.hits, totals.recomputes) == (0, 3 * n + 4)
        assert all(
            shard.identity.get("dialect") == dialect
            for shard in cold.shards()
        )

        warm = Pipeline(scale=SCALE, store=DirStore(store_dir),
                        dialect=dialect)
        warm_text = warm.report()
        assert warm_text == cold_text
        assert warm.timings.artifact_totals.hits == 1  # report itself
        assert warm.timings.artifact_totals.recomputes == 0

    def test_sharded_report_matches_the_fused_engine(self, tmp_path):
        # a sampled cold run, its warm replay and the same corpus
        # generated up front and run as a materialised corpus all
        # render the same bytes
        from repro.analysis.study import run_study
        from repro.corpus.generator import generate_corpus
        from repro.corpus.profiles import scaled_profiles
        from repro.report import build_study_report

        store_dir = tmp_path / "artifacts"
        cold = Pipeline(seed=77, scale=SCALE, store=DirStore(store_dir))
        cold_text = cold.report()
        warm = Pipeline(seed=77, scale=SCALE, store=DirStore(store_dir))
        warm_text = warm.report()

        fused = run_study(
            generate_corpus(seed=77, profiles=scaled_profiles(SCALE))
        )
        assert cold_text == build_study_report(fused)
        assert warm_text == cold_text

    @DIALECTS
    def test_parallel_run_reuses_serial_artifacts(self, tmp_path, dialect):
        store_dir = tmp_path / "artifacts"
        serial = Pipeline(scale=SCALE, jobs=1, store=DirStore(store_dir),
                          dialect=dialect)
        serial_study = serial.study()

        parallel = Pipeline(scale=SCALE, jobs=4, store=DirStore(store_dir),
                            dialect=dialect)
        parallel_study = parallel.study()
        assert parallel_study.projects == serial_study.projects
        # jobs is not a fingerprint input: every clean stage hits
        stats = parallel.timings.artifacts
        for stage in ("aggregate", "figures", "statistics"):
            assert stats[stage].hits == 1, stage
        assert parallel.timings.artifact_totals.recomputes == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_generate_feeds_a_cold_mine(self, tmp_path, jobs):
        # invalidating mine keeps every generate artifact: the rerun
        # ships each stored project to the fan-out instead of
        # regenerating it, and renders the same bytes
        store_dir = tmp_path / "artifacts"
        cold = Pipeline(scale=SCALE, store=DirStore(store_dir))
        cold_study = cold.study()
        cold_text = cold.report()
        n = len(cold.shards())
        assert cold.invalidate("mine") > 0

        rerun = Pipeline(scale=SCALE, jobs=jobs, store=DirStore(store_dir))
        study = rerun.study()
        stats = rerun.timings.artifacts
        assert stats["generate"].hits == n
        assert stats["generate"].recomputes == 0
        # each hit replays its one generation; none runs again
        assert study.metrics.counters["projects.generated"] == n
        assert stats["mine"].recomputes == n
        assert stats["analyze"].recomputes == n
        assert study.projects == cold_study.projects
        assert study.skipped == cold_study.skipped
        assert rerun.report() == cold_text

    def test_parallel_cold_run_matches_serial_cold_run(self, tmp_path):
        serial = Pipeline(
            scale=SCALE, jobs=1, store=DirStore(tmp_path / "a")
        ).study()
        parallel = Pipeline(
            scale=SCALE, jobs=4, store=DirStore(tmp_path / "b")
        ).study()
        assert parallel.projects == serial.projects
        assert parallel.skipped == serial.skipped

    def test_warm_run_replays_cold_warnings(self):
        store = MemoryStore()
        cold = _hollow_pipeline(store, 1)
        cold.study()
        assert _codes() == ["empty-history"]

        with RunContext().active():
            warm = _hollow_pipeline(store, 1)
            warm.study()
            warm_codes = _codes()
        # the skip warning came out of the aggregate artifact meta —
        # the shard itself was never probed
        assert warm_codes == ["empty-history"]
        assert warm.timings.artifacts["aggregate"].hits == 1
        assert "analyze" not in warm.timings.artifacts


class TestHeadlineMemo:
    def test_repeated_headline_is_the_same_object(self):
        study = Pipeline(scale=SCALE, store=MemoryStore()).study()
        assert study.headline() is study.headline()

    def test_memo_holds_without_pipeline_priming(self):
        study = StudyResult(projects=[], skipped=[])
        assert study.headline() is study.headline()

    def test_figures_memoised_too(self):
        study = Pipeline(scale=SCALE, store=MemoryStore()).study()
        assert study.fig4() is study.fig4()
        assert study.fig8() is study.fig8()


class TestDegenerateCorpora:
    def test_empty_corpus_studies_cleanly(self):
        pipe = Pipeline(store=MemoryStore(), corpus=[])
        study = pipe.study()
        assert study.projects == []
        assert study.skipped == []
        assert study.headline()["projects"] == 0
        assert study.fig6() is not None  # no ZeroDivisionError

    def test_empty_corpus_report_renders(self):
        pipe = Pipeline(store=MemoryStore(), corpus=[])
        text = pipe.report()
        assert "0 projects analysed" in text
        # the §7 battery cannot run on nothing; the report says so
        assert "not computed" in text

    def test_empty_corpus_warm_replay_is_byte_identical(self):
        store = MemoryStore()
        cold_text = Pipeline(store=store, corpus=[]).report()
        warm = Pipeline(store=store, corpus=[])
        assert warm.report() == cold_text
        assert warm.timings.artifact_totals.recomputes == 0

    def test_single_all_skipped_shard_still_reports(self):
        store = MemoryStore()
        cold = _hollow_pipeline(store, 1)
        cold_text = cold.report()
        assert "0 projects analysed, 1 skipped" in cold_text

        warm = _hollow_pipeline(store, 1)
        assert warm.report() == cold_text
        assert warm.timings.artifact_totals.recomputes == 0

    def test_all_projects_skipped(self):
        pipe = _hollow_pipeline(MemoryStore(), 3)
        study = pipe.study()
        assert study.projects == []
        assert study.skipped == [
            "demo/hollow-0", "demo/hollow-1", "demo/hollow-2",
        ]
        assert _codes() == ["empty-history"] * 3
        assert study.metrics.counters["projects.skipped"] == 3

    def test_all_skipped_report_renders(self):
        pipe = _hollow_pipeline(MemoryStore(), 2)
        text = pipe.report()
        assert "0 projects analysed, 2 skipped" in text

    def test_statistics_error_replays_from_the_artifact(self):
        store = MemoryStore()
        pipe = Pipeline(store=store, corpus=[])
        with pytest.raises(ValueError):
            pipe.study().statistics()

        warm = Pipeline(store=store, corpus=[])
        with pytest.raises(ValueError):
            warm.study().statistics()
        assert warm.timings.artifacts["statistics"].hits == 1


class TestCorruptedStore:
    def _corrupt_entry(self, store_dir, key: str) -> None:
        path = store_dir / "objects" / key[:2] / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])

    def test_corrupt_aggregate_recomputes_from_warm_shards(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        cold = Pipeline(scale=SCALE, store=DirStore(store_dir))
        cold_study = cold.study()
        n = len(cold.shards())
        self._corrupt_entry(store_dir, cold.fingerprint("aggregate"))

        rerun = Pipeline(scale=SCALE, store=DirStore(store_dir))
        study = rerun.study()
        assert "store-corrupt" in _codes()
        assert study.projects == cold_study.projects
        stats = rerun.timings.artifacts
        assert stats["aggregate"].recomputes == 1
        # the fold re-ran but every analyze shard stayed warm
        assert stats["analyze"].hits == n
        # downstream keys were unchanged, so figures still hit
        assert stats["figures"].hits == 1

    def test_corrupt_analyze_shard_recomputes_identically(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        cold = Pipeline(scale=SCALE, store=DirStore(store_dir))
        cold_study = cold.study()
        n = len(cold.shards())
        self._corrupt_entry(store_dir, cold.shards()[0].keys["analyze"])
        # the warm aggregate would mask the shard; drop the reduce tail
        # so the map phase actually probes it
        cold.invalidate("aggregate")

        rerun = Pipeline(scale=SCALE, store=DirStore(store_dir))
        study = rerun.study()
        assert "store-corrupt" in _codes()
        assert study.projects == cold_study.projects
        stats = rerun.timings.artifacts
        assert stats["analyze"].recomputes == 1
        assert stats["analyze"].hits == n - 1
        assert stats["mine"].hits == 1  # upstream stayed warm

    def test_corrupt_entry_never_serves_bad_bytes(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        cold = Pipeline(scale=SCALE, store=DirStore(store_dir))
        cold_text = cold.report()
        self._corrupt_entry(store_dir, cold.fingerprint("report"))

        rerun = Pipeline(scale=SCALE, store=DirStore(store_dir))
        assert rerun.report() == cold_text
        assert "store-corrupt" in _codes()
        assert rerun.store.stats.corrupt == 1
