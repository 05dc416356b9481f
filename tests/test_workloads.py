"""The (dialect, source) workload interface, end to end.

Covers the plugin layers the sqlite study rides on: the workload and
history-source registries, per-dialect corpus emission re-parsing under
the untouched reference oracles (``tokenize_reference`` /
``diff_schemas_reference`` / ``parse_history_reference``), mixed-dialect
detection as a property over fragment permutations, the dialect
component of shard identities, provenance attribution of a workload
switch, canonical and sqlite studies sharing one store, and the run
registry's tolerance for pre-dialect records.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import DEFAULT_SEED, generate_corpus, scaled_profiles
from repro.mining import get_source, registered_sources
from repro.mining.history import SchemaHistory, parse_history_reference
from repro.vcs import FileVersion, synthetic_sha, utc
from repro.workload import (
    DEFAULT_WORKLOAD,
    SQLITE_WORKLOAD,
    get_workload,
    registered_workloads,
)

SMALL_SCALE = 32  # a handful of projects per workload keeps this fast


# ----------------------------------------------------------------------
# registries


class TestWorkloadRegistry:
    def test_default_resolution(self):
        assert get_workload(None) is DEFAULT_WORKLOAD
        assert get_workload("default") is DEFAULT_WORKLOAD
        assert get_workload("sqlite") is SQLITE_WORKLOAD

    def test_unknown_workload_names_the_registry(self):
        with pytest.raises(KeyError) as err:
            get_workload("oracle")
        assert "sqlite" in str(err.value)

    def test_builtins_registered(self):
        names = registered_workloads()
        assert "default" in names and "sqlite" in names

    def test_vendor_mixes_share_a_length(self):
        # the corpus RNG draws one vendor per project via rng.choice —
        # equal mix lengths keep every other sampled property (names,
        # seeds, durations) on the same stream across workloads
        lengths = {
            len(get_workload(name).vendor_mix)
            for name in registered_workloads()
        }
        assert lengths == {3}

    def test_sqlite_workload_pairs_dialect_and_source(self):
        assert SQLITE_WORKLOAD.source == "sqlite"
        assert SQLITE_WORKLOAD.dialect_hint == "sqlite"
        assert set(SQLITE_WORKLOAD.vendor_mix) == {"sqlite"}


class TestHistorySources:
    def test_builtins_registered(self):
        names = registered_sources()
        assert "ddl" in names and "sqlite" in names

    def test_sqlite_source_carries_the_dialect_hint(self):
        assert get_source("sqlite").dialect_hint == "sqlite"
        assert get_source("ddl").dialect_hint is None

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            get_source("svn")


# ----------------------------------------------------------------------
# every registered workload's corpus re-parses under the oracles


def _dialect_arg(name: str) -> str | None:
    return None if name == "default" else name


@pytest.mark.parametrize("workload", sorted(registered_workloads()))
class TestCorpusOracleRoundTrip:
    def _corpus(self, workload):
        return generate_corpus(
            seed=DEFAULT_SEED,
            profiles=scaled_profiles(SMALL_SCALE),
            dialect=_dialect_arg(workload),
        )

    def test_tokenizer_equivalence(self, workload):
        from repro.sqlparser import tokenize
        from repro.sqlparser.lexer import tokenize_reference

        for project in self._corpus(workload):
            for text in project.ddl_versions:
                assert tokenize(text) == tokenize_reference(text)

    def test_history_matches_reference_parse_and_diff(self, workload):
        from repro.diff.engine import diff_schemas_reference

        hint = get_workload(_dialect_arg(workload)).dialect_hint
        corpus = self._corpus(workload)
        for project in corpus:
            versions = [
                FileVersion(synthetic_sha(i), utc(2020, 1 + i % 12), text)
                for i, text in enumerate(project.ddl_versions)
            ]
            incremental = SchemaHistory.from_file_versions(
                versions, dialect=hint
            )
            reference = parse_history_reference(versions, dialect=hint)
            assert len(incremental.versions) == len(reference.versions)
            for inc, ref in zip(incremental.versions, reference.versions):
                assert inc.schema == ref.schema
                assert inc.issues == ref.issues
            for inc, ref in zip(
                incremental.transitions, reference.transitions
            ):
                assert inc.delta == ref.delta
            for i in range(1, len(incremental.versions)):
                assert incremental.transitions[
                    i
                ].delta == diff_schemas_reference(
                    incremental.versions[i - 1].schema,
                    incremental.versions[i].schema,
                )

        if workload == "sqlite":
            # the emitted DDL is sqlite throughout: every version
            # detects as sqlite, carries the PRAGMA preamble, and the
            # sqlite history source mines it as sqlite
            from repro.sqlparser import detect_dialect

            for project in corpus:
                for text in project.ddl_versions:
                    assert detect_dialect(text) == "sqlite"
                assert "PRAGMA foreign_keys" in project.ddl_versions[-1]
            _, history = get_source("sqlite").mine_schema_history(
                corpus[0].repository
            )
            assert all(
                version.schema.dialect == "sqlite"
                for version in history.versions
            )

    def test_vendors_come_from_the_workload_mix(self, workload):
        mix = set(get_workload(_dialect_arg(workload)).vendor_mix)
        vendors = {p.spec.vendor for p in self._corpus(workload)}
        assert vendors <= mix


# ----------------------------------------------------------------------
# mixed-dialect detection over fragment permutations

_STATEMENTS = (
    "CREATE TABLE `a` (x int);",
    "CREATE TABLE b (x int) ENGINE=InnoDB;",
    "# mysql executable comment",
    "CREATE TABLE c (id INTEGER PRIMARY KEY AUTOINCREMENT);",
    "CREATE TABLE kv (k TEXT, v TEXT) WITHOUT ROWID;",
    "PRAGMA user_version = 7;",
    "CREATE TABLE d (id SERIAL PRIMARY KEY);",
    "CREATE TABLE e (payload BYTEA, at TIMESTAMPTZ);",
    "CREATE TABLE f (x int);",
    "CREATE TABLE IF NOT EXISTS users (id INT);",
    "INSERT INTO sqlite_sequence VALUES ('users', 1);",
)

_statement_lists = st.lists(
    st.sampled_from(_STATEMENTS), min_size=1, max_size=8
)


class TestMixedDialectDetection:
    @given(statements=_statement_lists)
    @settings(max_examples=60, deadline=None)
    def test_fragment_mask_or_equals_monolithic_detection(self, statements):
        from repro.sqlparser import detect_dialect
        from repro.sqlparser.dialect import (
            dialect_from_mask,
            fragment_signal_mask,
            whole_text_signal_mask,
        )
        from repro.sqlparser.segment import segment_statements

        text = "\n".join(statements)
        segments = segment_statements(text)
        assert segments is not None
        mask = whole_text_signal_mask(text)
        for segment in segments:
            mask |= fragment_signal_mask(" " + segment.text)
        assert dialect_from_mask(mask) == detect_dialect(text)

    @given(statements=_statement_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_detection_is_permutation_invariant(self, statements, seed):
        from repro.sqlparser import detect_dialect

        shuffled = list(statements)
        random.Random(seed).shuffle(shuffled)
        assert detect_dialect("\n".join(shuffled)) == detect_dialect(
            "\n".join(statements)
        )


# ----------------------------------------------------------------------
# shard identity, provenance, and registry records


class TestDialectShardIdentity:
    def _pair(self):
        from repro.corpus.generator import corpus_specs
        from repro.corpus.profiles import scaled_profiles as scaled

        return corpus_specs(DEFAULT_SEED, scaled(SMALL_SCALE))[0]

    def test_default_identity_has_no_dialect_key(self):
        from repro.pipeline.shards import plan_shard
        from repro.pipeline.stages import CODE_VERSIONS

        spec, profile = self._pair()
        shard = plan_shard(0, spec, profile, CODE_VERSIONS)
        assert "dialect" not in shard.identity

    def test_dialect_re_keys_every_map_stage(self):
        from repro.pipeline.shards import plan_shard
        from repro.pipeline.stages import CODE_VERSIONS

        spec, profile = self._pair()
        plain = plan_shard(0, spec, profile, CODE_VERSIONS)
        dialected = plan_shard(
            0, spec, profile, CODE_VERSIONS, dialect="sqlite"
        )
        assert dialected.identity["dialect"] == "sqlite"
        for stage in ("generate", "mine", "analyze"):
            assert plain.keys[stage] != dialected.keys[stage]

    def test_explain_attributes_a_workload_switch(self):
        from repro.obs.provenance import diff_components

        stored = {
            "code_version": "2",
            "params": {"project": "p", "spec": "s0", "profile": "t0"},
        }
        current = {
            "code_version": "2",
            "params": {
                "project": "p",
                "spec": "s1",
                "profile": "t0",
                "dialect": "sqlite",
            },
        }
        labels = [c["label"] for c in diff_components(current, stored)]
        assert "params.dialect added (sqlite)" in labels


class TestWorkloadsShareAStore:
    def test_canonical_and_sqlite_studies_keep_apart(self, tmp_path):
        from repro.pipeline import DirStore, Pipeline

        store = DirStore(tmp_path / "store")

        def pipeline(dialect=None):
            return Pipeline(
                seed=DEFAULT_SEED, scale=SMALL_SCALE, store=store,
                dialect=dialect,
            )

        canonical = pipeline()
        canonical_text = canonical.report()
        canonical_keys = set(store.keys())

        # over a canonical-only store the sqlite plan finds the
        # canonical artifact and blames the switch on params.dialect
        sqlite = pipeline("sqlite")
        target = sqlite.shards()[0].project
        (record,) = sqlite.explain("generate", project=target)
        assert record["state"] == "stale"
        assert "params.dialect" in [
            cause["component"] for cause in record["causes"]
        ]

        sqlite_text = sqlite.report()
        study = sqlite.study()
        n = len(sqlite.shards())
        assert len(study.projects) + len(study.skipped) == n
        # the dialect is shard identity: no sqlite artifact reuses a
        # canonical key, and the workload changed the study
        assert len(set(store.keys()) - canonical_keys) == 3 * n + 4
        assert sqlite_text != canonical_text
        (record,) = pipeline("sqlite").explain("generate", project=target)
        assert record["state"] == "warm"

        # only non-default workloads carry (dialect, source) in meta
        meta = store.meta_of(sqlite.shards()[0].keys["generate"])
        assert (meta["dialect"], meta["source"]) == ("sqlite", "sqlite")
        meta = store.meta_of(canonical.shards()[0].keys["generate"])
        assert "dialect" not in meta and "source" not in meta


class TestRegistryDialectColumn:
    def _study(self):
        from repro.pipeline.graph import Pipeline

        return Pipeline(seed=DEFAULT_SEED, scale=SMALL_SCALE).study()

    def test_record_carries_dialect_only_when_set(self):
        from repro.obs.registry import build_run_record

        study = self._study()
        plain = build_run_record(command="t", study=study)
        tagged = build_run_record(
            command="t", study=study, dialect="sqlite"
        )
        assert "dialect" not in plain
        assert tagged["dialect"] == "sqlite"

    def test_history_baseline_tolerates_pre_dialect_records(self):
        from repro.obs.registry import build_run_record, history_baseline

        study = self._study()
        records = [
            build_run_record(command="t", study=study),  # pre-dialect
            build_run_record(command="t", study=study, dialect="sqlite"),
        ]
        merged = history_baseline(records)
        assert merged["dialect"] == "sqlite"
        merged = history_baseline(list(reversed(records)))
        assert merged["dialect"] is None

    def test_obs_history_renders_pre_dialect_rows(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.registry import RunRegistry, build_run_record

        study = self._study()
        registry = RunRegistry(tmp_path)
        old = build_run_record(command="study", study=study)
        old.pop("dialect", None)  # a record written before workloads
        registry.append(old)
        registry.append(
            build_run_record(
                command="study", study=study, dialect="sqlite"
            )
        )
        code = main(["obs", "history", "--store-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dialect" in out
        rows = [
            line for line in out.splitlines() if line.startswith("study ")
        ] or [
            line
            for line in out.splitlines()
            if " study " in f" {line} "
        ]
        assert len(rows) >= 2

    def test_status_json_carries_the_dialect(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "pipeline", "status", "--json",
            "--scale", str(SMALL_SCALE),
            "--dialect", "sqlite",
            "--store-dir", str(tmp_path / "store"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dialect"] == "sqlite"
