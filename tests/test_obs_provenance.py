"""Provenance breakdowns and ``pipeline explain``: the three canonical
recompute attributions (project override → upstream digest, stage
code-version bump → code_version, identity/params edit → params
digest), plus warm/cold classification and the diff labels."""

import pytest
from repro.obs.provenance import (
    PROVENANCE_FORMAT,
    components_of,
    diff_components,
    explain_target,
    match_score,
    render_explanation,
)
from repro.pipeline import (
    MAP_STAGE_NAMES,
    REDUCE_STAGE_NAMES,
    MemoryStore,
    Pipeline,
)

SCALE = 16

A = "a" * 64
B = "b" * 64


class TestComponents:
    def test_flattening_names_every_member(self):
        prov = {
            "code_version": "3",
            "params": {"profile": A, "spec": B},
            "upstream": {"generate": A},
        }
        assert components_of(prov) == {
            "code_version": "3",
            "params.profile": A,
            "params.spec": B,
            "upstream.generate": A,
        }

    def test_match_score_counts_shared_components(self):
        base = {"code_version": "3", "params": {"x": "1"}, "upstream": {}}
        same = {"code_version": "3", "params": {"x": "1"}, "upstream": {}}
        off = {"code_version": "4", "params": {"x": "1"}, "upstream": {}}
        assert match_score(base, same) == 2
        assert match_score(base, off) == 1

    def test_code_version_label(self):
        causes = diff_components(
            {"code_version": "3"}, {"code_version": "2"}
        )
        assert [c["label"] for c in causes] == ["code_version bumped 2→3"]

    def test_upstream_label_shortens_digests(self):
        causes = diff_components(
            {"code_version": "1", "upstream": {"generate": B}},
            {"code_version": "1", "upstream": {"generate": A}},
        )
        assert causes == [{
            "component": "upstream.generate",
            "stored": A,
            "current": B,
            "label": (
                f"upstream generate digest changed ({A[:12]}→{B[:12]})"
            ),
        }]

    def test_params_digest_vs_plain_value_labels(self):
        causes = diff_components(
            {"code_version": "1", "params": {"profile": B, "fmt": "html"}},
            {"code_version": "1",
             "params": {"profile": A, "fmt": "markdown"}},
        )
        labels = {c["component"]: c["label"] for c in causes}
        assert "digest changed" in labels["params.profile"]
        assert labels["params.fmt"] == "params.fmt changed (markdown→html)"

    def test_added_and_removed_components(self):
        causes = diff_components(
            {"code_version": "1", "params": {"new": "x"}},
            {"code_version": "1", "params": {"old": "y"}},
        )
        labels = sorted(c["label"] for c in causes)
        assert labels == [
            "params.new added (x)",
            "params.old removed (was y)",
        ]

    def test_identical_breakdowns_diff_empty(self):
        prov = {"code_version": "1", "params": {}, "upstream": {"g": A}}
        assert diff_components(prov, dict(prov)) == []


class TestExplainTarget:
    def test_warm_when_key_is_stored(self):
        store = MemoryStore()
        store.put(A, {"x": 1}, meta={"stage": "aggregate"})
        record = explain_target(
            store, "aggregate", A, {"code_version": "1"}
        )
        assert record["state"] == "warm"
        assert record["causes"] == []
        assert "warm" in render_explanation(record)

    def test_cold_when_no_prior_generation(self):
        record = explain_target(
            MemoryStore(), "aggregate", A, {"code_version": "1"}
        )
        assert record["state"] == "cold"
        assert "no prior artifact" in render_explanation(record)

    def test_stale_diffs_the_best_matching_candidate(self):
        store = MemoryStore()
        stored = {
            "code_version": "2", "params": {}, "upstream": {"mine": A},
        }
        store.put(
            B, {}, meta={"stage": "aggregate", "provenance": stored}
        )
        current = {
            "code_version": "3", "params": {}, "upstream": {"mine": A},
        }
        record = explain_target(store, "aggregate", A, current)
        assert record["state"] == "stale"
        assert record["matched_key"] == B
        assert [c["component"] for c in record["causes"]] == [
            "code_version"
        ]
        text = render_explanation(record)
        assert "stale" in text and "code_version bumped 2→3" in text

    def test_other_stages_and_projects_are_not_candidates(self):
        store = MemoryStore()
        prov = {"code_version": "1", "params": {}, "upstream": {}}
        store.put(B, {}, meta={"stage": "figures", "provenance": prov})
        store.put(
            "c" * 64, {},
            meta={"stage": "mine", "project": "other", "provenance": prov},
        )
        record = explain_target(
            store, "mine", A, prov, project="mine-target"
        )
        assert record["state"] == "cold"

    def test_same_breakdown_different_key_names_the_format(self):
        store = MemoryStore()
        prov = {"code_version": "1", "params": {}, "upstream": {}}
        store.put(B, {}, meta={"stage": "aggregate", "provenance": prov})
        record = explain_target(store, "aggregate", A, dict(prov))
        assert record["state"] == "stale"
        assert record["causes"][0]["label"] == (
            "fingerprint format or recipe changed"
        )


class TestPipelineExplain:
    """The acceptance scenarios, against one warm store."""

    @pytest.fixture(scope="class")
    def warm_store(self):
        store = MemoryStore()
        pipe = Pipeline(scale=SCALE, store=store)
        pipe.study()
        pipe.report()
        return store

    def test_every_target_is_warm_after_a_run(self, warm_store):
        pipe = Pipeline(scale=SCALE, store=warm_store)
        for stage in MAP_STAGE_NAMES + REDUCE_STAGE_NAMES:
            records = pipe.explain(stage)
            assert all(r["state"] == "warm" for r in records), stage

    def test_cold_store_yields_cold_targets(self):
        pipe = Pipeline(scale=SCALE, store=MemoryStore())
        records = pipe.explain("mine")
        assert records and all(r["state"] == "cold" for r in records)

    def test_project_override_blames_the_upstream_digest(self, warm_store):
        # scenario 1: a one-project override re-keys its generate
        # shard; the mine shard's recompute is attributed to exactly
        # the upstream generate digest, not code or params
        base = Pipeline(scale=SCALE, store=warm_store)
        target = base.shards()[0].project
        pipe = Pipeline(
            scale=SCALE, store=warm_store,
            project_overrides={target: 999_999},
        )
        (record,) = pipe.explain("mine", project=target)
        assert record["state"] == "stale"
        components = [c["component"] for c in record["causes"]]
        assert components == ["upstream.generate"]
        assert "upstream generate digest changed" in (
            record["causes"][0]["label"]
        )
        # every other project's mine shard stays warm
        others = [
            r for r in pipe.explain("mine") if r["project"] != target
        ]
        assert others and all(r["state"] == "warm" for r in others)

    def test_code_version_bump_blames_code_version(self, warm_store):
        # scenario 2: bumping the mine stage version is attributed to
        # code_version on every mine shard; generate stays warm
        pipe = Pipeline(
            scale=SCALE, store=warm_store, code_versions={"mine": "99"}
        )
        records = pipe.explain("mine")
        assert records and all(r["state"] == "stale" for r in records)
        for record in records:
            components = [c["component"] for c in record["causes"]]
            assert components == ["code_version"]
            assert "code_version bumped" in record["causes"][0]["label"]
        assert all(
            r["state"] == "warm" for r in pipe.explain("generate")
        )

    def test_identity_edit_blames_the_params_digest(self, warm_store):
        # scenario 3: the override seen from the generate shard itself
        # is a params change — its identity (spec/profile digests) is
        # the stage's declared params, so the cause is params.*
        base = Pipeline(scale=SCALE, store=warm_store)
        target = base.shards()[0].project
        pipe = Pipeline(
            scale=SCALE, store=warm_store,
            project_overrides={target: 999_999},
        )
        (record,) = pipe.explain("generate", project=target)
        assert record["state"] == "stale"
        components = [c["component"] for c in record["causes"]]
        assert components and all(
            c.startswith("params.") for c in components
        )
        assert any(
            "digest changed" in c["label"] for c in record["causes"]
        )

    def test_report_format_edit_blames_its_param(self, warm_store):
        pipe = Pipeline(
            scale=SCALE, store=warm_store, report_format="html"
        )
        (record,) = pipe.explain("report")
        assert record["state"] == "stale"
        labels = [c["label"] for c in record["causes"]]
        assert any(
            "params.report_format" in label and "markdown→html" in label
            for label in labels
        )

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            Pipeline(store=MemoryStore()).explain("figments")

    def test_unknown_project_raises(self):
        pipe = Pipeline(scale=SCALE, store=MemoryStore())
        with pytest.raises(KeyError):
            pipe.explain("mine", project="no/such-project")

    def test_project_on_a_reduce_stage_raises(self):
        pipe = Pipeline(scale=SCALE, store=MemoryStore())
        with pytest.raises(ValueError, match="per-project"):
            pipe.explain("aggregate", project="x")

    def test_stored_breakdown_carries_the_format_tag(self, warm_store):
        pipe = Pipeline(scale=SCALE, store=warm_store)
        key = pipe.fingerprint("aggregate")
        prov = warm_store.meta_of(key)["provenance"]
        assert prov["format"] == PROVENANCE_FORMAT
        assert prov["kind"] == "reduce"
        assert set(prov["upstream"]) == {"analyze"}
        shard = pipe.shards()[0]
        shard_prov = warm_store.meta_of(shard.keys["mine"])["provenance"]
        assert shard_prov["kind"] == "map"
        assert shard_prov["project"] == shard.project
        assert set(shard_prov["upstream"]) == {"generate"}
