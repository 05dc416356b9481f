"""Shard planning: key determinism, override locality, batching, and
the stage-version drift guard."""

import dataclasses

from repro.corpus.generator import corpus_specs
from repro.pipeline import (
    CODE_VERSIONS,
    MemoryStore,
    Pipeline,
    family_fingerprint,
    plan_shards,
    profile_digest,
    shard_batches,
    spec_digest,
    stage_source_digest,
)


def _pairs(seed: int = 7):
    from repro.corpus.profiles import scaled_profiles

    return corpus_specs(seed=seed, profiles=scaled_profiles(32))


class TestSpecDigests:
    def test_spec_digest_is_deterministic(self):
        spec = _pairs()[0][0]
        assert spec_digest(spec) == spec_digest(spec)

    def test_spec_digest_tracks_every_field(self):
        spec = _pairs()[0][0]
        assert spec_digest(
            dataclasses.replace(spec, seed=spec.seed + 1)
        ) != spec_digest(spec)
        other_vendor = "mysql" if spec.vendor == "postgres" else "postgres"
        assert spec_digest(
            dataclasses.replace(spec, vendor=other_vendor)
        ) != spec_digest(spec)

    def test_profile_digest_is_deterministic(self):
        profile = _pairs()[0][1]
        assert profile_digest(profile) == profile_digest(profile)


class TestPlanShards:
    def test_keys_are_deterministic(self):
        a = plan_shards(_pairs(), CODE_VERSIONS)
        b = plan_shards(_pairs(), CODE_VERSIONS)
        assert [s.keys for s in a] == [s.keys for s in b]
        assert [s.project for s in a] == [s.project for s in b]

    def test_keys_chain_through_the_map_cone(self):
        # a generate-version bump must re-key mine and analyze too
        bumped = {**CODE_VERSIONS, "generate": "bumped"}
        a = plan_shards(_pairs(), CODE_VERSIONS)[0]
        b = plan_shards(_pairs(), bumped)[0]
        assert a.keys["generate"] != b.keys["generate"]
        assert a.keys["mine"] != b.keys["mine"]
        assert a.keys["analyze"] != b.keys["analyze"]

    def test_one_spec_change_rekeys_one_shard(self):
        pairs = _pairs()
        mutated = list(pairs)
        spec, profile = mutated[0]
        mutated[0] = (dataclasses.replace(spec, seed=999_999), profile)
        a = plan_shards(pairs, CODE_VERSIONS)
        b = plan_shards(mutated, CODE_VERSIONS)
        assert a[0].keys != b[0].keys
        for left, right in zip(a[1:], b[1:]):
            assert left.keys == right.keys

    def test_family_fingerprint_tracks_the_shard_set(self):
        shards = plan_shards(_pairs(), CODE_VERSIONS)
        keys = [s.keys["analyze"] for s in shards]
        family = family_fingerprint("analyze", keys)
        # order-independent, content-dependent
        assert family == family_fingerprint("analyze", list(reversed(keys)))
        assert family != family_fingerprint("analyze", keys[1:])
        assert family != family_fingerprint("mine", keys)

    def test_empty_plan_is_a_valid_family(self):
        assert plan_shards([], CODE_VERSIONS) == []
        assert family_fingerprint("analyze", [])


class TestShardBatches:
    def test_even_split(self):
        assert shard_batches([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_spreads_forward(self):
        batches = shard_batches(list(range(5)), 2)
        assert batches == [[0, 1, 2], [3, 4]]

    def test_count_larger_than_items_yields_singletons(self):
        assert shard_batches([1, 2], 5) == [[1], [2]]

    def test_empty_items(self):
        assert shard_batches([], 4) == []

    def test_nonpositive_count(self):
        assert shard_batches([1, 2], 0) == []

    def test_every_batch_nonempty_and_order_preserved(self):
        items = list(range(13))
        batches = shard_batches(items, 4)
        assert all(batches)
        assert [x for batch in batches for x in batch] == items


class TestVersionDriftGuard:
    def _tamper(self, pipe: Pipeline, key: str, **meta_updates) -> None:
        artifact = pipe.store.get(key)
        meta = dict(artifact.meta)
        meta.update(meta_updates)
        pipe.store.put(key, artifact.payload, meta=meta)

    def test_clean_store_reports_no_drift(self):
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        assert pipe.version_drift() == []

    def test_source_change_without_version_bump_is_flagged(self):
        # simulate: the figures module changed (different source
        # digest) but FIGURES_VERSION was not bumped
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        self._tamper(
            pipe, pipe.fingerprint("figures"), source_digest="0" * 64
        )
        drifted = pipe.version_drift()
        assert [d["stage"] for d in drifted] == ["figures"]
        assert drifted[0]["current"] == stage_source_digest("figures")
        assert drifted[0]["stored"] == "0" * 64

    def test_map_stage_drift_checks_a_shard_artifact(self):
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        self._tamper(
            pipe, pipe.shards()[0].keys["mine"], source_digest="f" * 64
        )
        assert "mine" in [d["stage"] for d in pipe.version_drift()]

    def test_bumped_version_silences_the_warning(self):
        # a changed digest *with* a changed code_version is the healthy
        # path: the old artifact belongs to the old version
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        self._tamper(
            pipe,
            pipe.fingerprint("figures"),
            source_digest="0" * 64,
            code_version="older",
        )
        assert pipe.version_drift() == []

    def test_artifacts_without_digest_are_ignored(self):
        # artifacts written before the drift guard have no digest;
        # they cannot be judged and must not warn
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        self._tamper(pipe, pipe.fingerprint("figures"), source_digest=None)
        assert pipe.version_drift() == []

    def test_stored_artifacts_carry_the_current_digest(self):
        pipe = Pipeline(scale=32, store=MemoryStore())
        pipe.study()
        meta = pipe.store.meta_of(pipe.fingerprint("aggregate"))
        assert meta["source_digest"] == stage_source_digest("aggregate")
        shard_meta = pipe.store.meta_of(pipe.shards()[0].keys["analyze"])
        assert shard_meta["source_digest"] == stage_source_digest("analyze")
