"""Tests for the sharded stage graph: fingerprints, resolution,
maintenance, and the single-project invalidation contract."""

import pickle

import pytest

from repro.obs.context import RunContext
from repro.pipeline import (
    CODE_VERSIONS,
    MAP_STAGE_NAMES,
    REDUCE_STAGE_NAMES,
    STAGE_NAMES,
    STAGES,
    DirStore,
    NullStore,
    Pipeline,
    dependents_of,
)

#: A small-but-real corpus (12 projects at scale 16) keeps compute
#: tests fast while exercising every stage.
SCALE = 16


def analyze_envelopes(pipe) -> dict[str, tuple[int, str]]:
    """Each analyze shard's envelope size and payload digest."""
    envelopes = {}
    for shard in pipe.shards():
        key = shard.keys["analyze"]
        path = pipe.store.root / "objects" / key[:2] / f"{key}.pkl"
        envelopes[shard.project] = (
            path.stat().st_size,
            pickle.loads(path.read_bytes())["payload_sha256"],
        )
    return envelopes


def fingerprints(**kwargs) -> dict[str, str]:
    pipe = Pipeline(store=NullStore(), **kwargs)
    return {stage: pipe.fingerprint(stage) for stage in STAGE_NAMES}


class TestArguments:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("scale", 0), ("scale", -3),
            ("jobs", 0), ("jobs", -2),
            ("limit_memory_mb", 0), ("limit_memory_mb", -1),
        ],
    )
    def test_below_one_is_refused(self, name, value):
        # as the CLI refuses --scale, --jobs and --limit-memory below 1
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            Pipeline(store=NullStore(), **{name: value})


class TestGraphShape:
    def test_declaration_order_is_topological(self):
        seen = set()
        for name in STAGE_NAMES:
            assert set(STAGES[name].deps) <= seen
            seen.add(name)

    def test_map_reduce_partition(self):
        assert MAP_STAGE_NAMES == ("generate", "mine", "analyze")
        assert REDUCE_STAGE_NAMES == (
            "aggregate", "figures", "statistics", "report",
        )
        assert set(MAP_STAGE_NAMES) | set(REDUCE_STAGE_NAMES) == set(
            STAGE_NAMES
        )

    def test_dependents_of_generate_is_everything_downstream(self):
        assert dependents_of("generate") == {
            "mine", "analyze", "aggregate", "figures", "statistics",
            "report",
        }

    def test_dependents_of_analyze(self):
        assert dependents_of("analyze") == {
            "aggregate", "figures", "statistics", "report",
        }

    def test_dependents_of_a_sink_is_empty(self):
        assert dependents_of("report") == set()


class TestFingerprints:
    def test_deterministic_across_pipelines(self):
        assert fingerprints(seed=7) == fingerprints(seed=7)

    def test_seed_change_rekeys_every_stage(self):
        a, b = fingerprints(seed=7), fingerprints(seed=8)
        assert all(a[stage] != b[stage] for stage in STAGE_NAMES)

    def test_scale_change_rekeys_every_stage(self):
        a, b = fingerprints(scale=1), fingerprints(scale=2)
        assert all(a[stage] != b[stage] for stage in STAGE_NAMES)

    def test_report_format_rekeys_only_report(self):
        a = fingerprints(report_format="markdown")
        b = fingerprints(report_format="html")
        assert a["report"] != b["report"]
        for stage in STAGE_NAMES[:-1]:
            assert a[stage] == b[stage]

    def test_code_version_bump_rekeys_exactly_the_dependent_cone(self):
        a = fingerprints()
        b = fingerprints(code_versions={"analyze": "bumped"})
        dirty = {"analyze"} | dependents_of("analyze")
        for stage in STAGE_NAMES:
            if stage in dirty:
                assert a[stage] != b[stage], stage
            else:
                assert a[stage] == b[stage], stage

    def test_jobs_is_not_a_fingerprint_input(self):
        # jobs-invariant stages mean serial and parallel runs share
        # artifacts — the core of the warm-rerun guarantee
        assert fingerprints(jobs=1) == fingerprints(jobs=4)

    def test_project_override_rekeys_one_shard_and_the_reduce_tail(self):
        base = Pipeline(store=NullStore())
        target = base.shards()[0].project
        other = Pipeline(
            store=NullStore(), project_overrides={target: 999_999}
        )
        base_shards = {s.project: s.keys for s in base.shards()}
        other_shards = {s.project: s.keys for s in other.shards()}
        assert base_shards.keys() == other_shards.keys()
        for project, keys in base_shards.items():
            if project == target:
                assert keys != other_shards[project]
            else:
                assert keys == other_shards[project]
        for stage in STAGE_NAMES:
            assert base.fingerprint(stage) != other.fingerprint(stage)

    def test_unknown_project_override_raises(self):
        pipe = Pipeline(
            store=NullStore(), project_overrides={"no/such-project": 1}
        )
        with pytest.raises(ValueError, match="no/such-project"):
            pipe.shards()

    def test_unknown_code_version_override_is_inert(self):
        pipe = Pipeline(store=NullStore(), code_versions={"analyze": "9"})
        assert pipe.code_versions["analyze"] == "9"
        assert pipe.code_versions["mine"] == CODE_VERSIONS["mine"]


class TestResolution:
    def test_resolving_a_map_stage_directly_is_an_error(self):
        with pytest.raises(ValueError, match="per shard"):
            Pipeline(store=NullStore()).resolve("mine")

    def test_cold_study_writes_shard_and_reduce_artifacts(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        n = len(pipe.shards())
        # one artifact per shard per map stage, plus aggregate,
        # figures and statistics; report is only rendered on demand
        assert len(store.keys()) == 3 * n + 3
        assert store.stats.writes == 3 * n + 3
        assert store.stats.hits == 0
        assert sorted(store.keys()) == sorted(
            [s.keys[stage] for s in pipe.shards() for stage in MAP_STAGE_NAMES]
            + [pipe.fingerprint(stage)
               for stage in ("aggregate", "figures", "statistics")]
        )

    def test_study_is_memoised_per_pipeline(self):
        pipe = Pipeline(scale=SCALE, store=NullStore())
        assert pipe.study() is pipe.study()

    def test_warm_aggregate_hit_short_circuits_the_map_phase(self, tmp_path):
        store = DirStore(tmp_path / "store")
        Pipeline(scale=SCALE, store=store).study()

        warm = Pipeline(scale=SCALE, store=store, context=RunContext())
        warm.study()
        counters = warm.context.metrics.snapshot().counters
        # aggregate/figures/statistics hit; not a single shard key of
        # generate/mine/analyze is even looked up, let alone recomputed
        assert counters.get("artifact.hit") == 3
        assert "artifact.miss" not in counters
        totals = warm.timings.artifact_totals
        assert (totals.hits, totals.recomputes) == (3, 0)
        for stage in MAP_STAGE_NAMES:
            assert stage not in warm.timings.artifacts

        # a figures version bump recomputes figures alone
        bumped = Pipeline(
            scale=SCALE, store=store, code_versions={"figures": "bumped"}
        )
        bumped.study()
        stats = bumped.timings.artifacts
        counts = {name: (s.hits, s.recomputes) for name, s in stats.items()}
        assert counts == {
            "aggregate": (1, 0), "figures": (0, 1), "statistics": (1, 0),
        }

    def test_warm_rows_equal_cold_rows(self, tmp_path):
        store = DirStore(tmp_path / "store")
        cold = Pipeline(scale=SCALE, store=store).study()
        warm = Pipeline(scale=SCALE, store=store).study()
        assert warm.projects == cold.projects
        assert warm.skipped == cold.skipped

    def test_report_resolves_through_the_store(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        text = pipe.report()
        assert "projects analysed" in text
        assert len(store.keys()) == 3 * len(pipe.shards()) + 4

        warm = Pipeline(scale=SCALE, store=store)
        assert warm.report() == text
        # the report hit alone satisfied the request
        assert warm.timings.artifact_totals.hits == 1


class TestStatus:
    def test_cold_then_warm(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        assert all(not row["warm"] for row in pipe.status())

        pipe.study()
        by_stage = {row["stage"]: row for row in pipe.status()}
        for stage in ("generate", "mine", "analyze", "aggregate",
                      "figures", "statistics"):
            assert by_stage[stage]["warm"], stage
        assert not by_stage["report"]["warm"]

    def test_map_rows_carry_shard_counts(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        n = len(pipe.shards())
        by_stage = {row["stage"]: row for row in pipe.status()}
        for stage in MAP_STAGE_NAMES:
            row = by_stage[stage]
            assert row["kind"] == "map"
            assert row["shards"] == n
            assert row["warm_shards"] == n
        for stage in REDUCE_STAGE_NAMES:
            row = by_stage[stage]
            assert row["kind"] == "reduce"
            assert row["shards"] is None

    def test_rows_carry_identity(self):
        row = Pipeline(store=NullStore()).status()[0]
        assert row["stage"] == "generate"
        assert row["code_version"] == CODE_VERSIONS["generate"]
        assert len(row["fingerprint"]) == 64

    def test_shard_status_lists_every_project(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        rows = pipe.shard_status()
        assert len(rows) == len(pipe.shards())
        assert all(
            row["generate"] and row["mine"] and row["analyze"]
            for row in rows
        )


class TestInvalidate:
    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            Pipeline(store=NullStore()).invalidate("figments")

    def test_unknown_project_raises(self):
        pipe = Pipeline(scale=SCALE, store=NullStore())
        with pytest.raises(KeyError):
            pipe.invalidate(project="no/such-project")

    def test_stage_and_project_together_raise(self):
        pipe = Pipeline(scale=SCALE, store=NullStore())
        with pytest.raises(ValueError):
            pipe.invalidate("analyze", project="x")

    def test_invalidate_stage_drops_exactly_the_dependent_cone(
        self, tmp_path
    ):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        n = len(pipe.shards())
        # every analyze shard plus aggregate/figures/statistics
        assert pipe.invalidate("analyze") == n + 3

        by_stage = {row["stage"]: row["warm"] for row in pipe.status()}
        assert by_stage["generate"] and by_stage["mine"]
        assert not by_stage["analyze"]
        assert not by_stage["aggregate"]
        assert not by_stage["figures"]
        assert not by_stage["statistics"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_after_invalidate_reuses_upstream(self, tmp_path, jobs):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        cold = pipe.study()
        n = len(pipe.shards())
        analyzed = analyze_envelopes(pipe)
        pipe.invalidate("analyze")

        rerun = Pipeline(scale=SCALE, jobs=jobs, store=store)
        result = rerun.study()
        assert result.projects == cold.projects
        stats = rerun.timings.artifacts
        assert stats["mine"].hits == n  # every mine shard came warm
        assert stats["analyze"].recomputes == n
        # each warm history re-analyzed where its unit ran, stored as
        # the serial cold run stored it
        assert analyze_envelopes(rerun) == analyzed

    def test_invalidate_project_recomputes_only_its_map_cone(self, tmp_path):
        # the acceptance scenario: after a cold sharded run, dropping
        # one project recomputes exactly its generate/mine/analyze
        # shards plus the reduce tail, and reproduces identical rows
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        cold = pipe.study()
        cold_text = pipe.report()
        n = len(pipe.shards())
        target = pipe.shards()[0].project
        # 3 shard artifacts + aggregate/figures/statistics/report
        assert pipe.invalidate(project=target) == 7

        rerun = Pipeline(scale=SCALE, store=store)
        result = rerun.study()
        stats = rerun.timings.artifacts
        for stage in MAP_STAGE_NAMES:
            assert stats[stage].recomputes == 1, stage
        assert stats["analyze"].hits == n - 1
        assert stats["generate"].hits == 0
        assert stats["mine"].hits == 0
        for stage in ("aggregate", "figures", "statistics"):
            assert stats[stage].recomputes == 1, stage
        assert result.projects == cold.projects
        assert result.skipped == cold.skipped
        assert rerun.report() == cold_text

        # mutating the project instead reaches the same cone through
        # new keys, and the mutated corpus then replays fully warm
        def mutated():
            pipe = Pipeline(
                scale=SCALE, store=store,
                project_overrides={target: 999_999},
            )
            return pipe, pipe.study(), pipe.report()

        touched, study, touched_text = mutated()
        stats = touched.timings.artifacts
        for stage in MAP_STAGE_NAMES:
            assert stats[stage].recomputes == 1, stage
        assert stats["analyze"].hits == n - 1
        for stage in REDUCE_STAGE_NAMES:
            assert stats[stage].recomputes == 1, stage
        assert len(study.projects) + len(study.skipped) == n
        retouched, _, retouched_text = mutated()
        assert retouched_text == touched_text
        assert retouched.timings.artifact_totals.recomputes == 0

    def test_invalidate_all(self, tmp_path):
        store = DirStore(tmp_path / "store")
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        n = len(pipe.shards())
        assert pipe.invalidate() == 3 * n + 3
        assert len(store.keys()) == 0

    def test_other_seeds_survive(self, tmp_path):
        store = DirStore(tmp_path / "store")
        keeper = Pipeline(scale=SCALE, seed=7, store=store)
        keeper.study()
        kept = len(store.keys())
        other = Pipeline(scale=SCALE, seed=8, store=store)
        other.study()
        other.invalidate()
        assert len(store.keys()) == kept  # seed-7 artifacts untouched
