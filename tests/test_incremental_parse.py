"""Property tests for the incremental statement-level parse engine.

The mine hot path parses each DDL version through the fragment cache
(:mod:`repro.perf.fragments`): unchanged statements reuse the previous
version's parsed tables and only edited statements are re-lexed.  These
tests drive randomly evolved histories (well past 30 versions) through
both the incremental path (``SchemaHistory.from_file_versions`` via the
active :class:`~repro.perf.cache.ParseCache`) and the untouched oracles
(``parse_history_reference`` / ``diff_schemas_reference``) and require
version-by-version equality — schemas, issues and every transition
delta — plus sane reuse accounting and correct behaviour around torn
and garbage statements.
"""

import random

import pytest

from repro.diff import diff_schemas
from repro.diff.engine import diff_schemas_reference
from repro.mining.history import SchemaHistory, parse_history_reference
from repro.obs.context import RunContext, current
from repro.perf.cache import ParseCache
from repro.sqlparser import parse_schema
from repro.sqlparser.segment import segment_statements
from repro.vcs import FileVersion, synthetic_sha, utc


# ----------------------------------------------------------------------
# randomized history generator

_TYPES = ("INT", "BIGINT", "VARCHAR(40)", "VARCHAR(255)", "TEXT",
          "DECIMAL(10,2)", "DATETIME")


def _render(tables: dict, version: int) -> str:
    """One DDL dump text for the model state.

    The per-version header comment deliberately churns a comment-only
    prefix segment every version; the table statements themselves only
    change when the model behind them does.
    """
    lines = [f"-- dump of demo schema, revision {version}", ""]
    for name, columns in tables.items():
        body = ",\n".join(f"  {col} {type_}" for col, type_ in columns)
        lines.append(f"CREATE TABLE {name} (\n{body}\n);")
        lines.append("")
    return "\n".join(lines)


def _evolve(rng: random.Random, tables: dict, counter: list) -> None:
    """Apply one random edit to the model (grow-biased, like the paper)."""
    op = rng.choices(
        ("add_table", "add_column", "change_type", "drop_column",
         "drop_table", "rename_table"),
        weights=(3, 5, 2, 2, 1, 1),
    )[0]
    if op == "add_table" or not tables:
        counter[0] += 1
        tables[f"t{counter[0]}"] = [
            ("id", "INT"),
            (f"c{counter[0]}", rng.choice(_TYPES)),
        ]
        return
    name = rng.choice(sorted(tables))
    columns = tables[name]
    if op == "add_column":
        counter[0] += 1
        columns.append((f"c{counter[0]}", rng.choice(_TYPES)))
    elif op == "change_type" and columns:
        index = rng.randrange(len(columns))
        col, _ = columns[index]
        columns[index] = (col, rng.choice(_TYPES))
    elif op == "drop_column" and len(columns) > 1:
        columns.pop(rng.randrange(len(columns)))
    elif op == "drop_table" and len(tables) > 1:
        del tables[name]
    elif op == "rename_table":
        counter[0] += 1
        tables[f"t{counter[0]}"] = tables.pop(name)


def _random_history(seed: int, length: int) -> list[FileVersion]:
    rng = random.Random(seed)
    tables: dict = {"t0": [("id", "INT"), ("name", "VARCHAR(40)")]}
    counter = [0]
    versions = []
    for i in range(length):
        # most transitions edit 1-2 statements out of many — the 99%
        # identical regime the incremental engine is built for
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            _evolve(rng, tables, counter)
        versions.append(
            FileVersion(
                synthetic_sha(seed * 1000 + i),
                utc(2020, 1 + (i % 12), 1 + i // 12),
                _render(tables, i),
            )
        )
    return versions


def _assert_histories_equal(
    incremental: SchemaHistory, reference: SchemaHistory
) -> None:
    assert len(incremental.versions) == len(reference.versions)
    for inc, ref in zip(incremental.versions, reference.versions):
        assert inc.sha == ref.sha
        assert inc.date == ref.date
        assert inc.schema == ref.schema
        assert inc.issues == ref.issues
    assert len(incremental.transitions) == len(reference.transitions)
    for inc, ref in zip(incremental.transitions, reference.transitions):
        assert inc.index == ref.index
        assert inc.delta == ref.delta


class TestRandomizedHistories:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_incremental_matches_reference(self, seed):
        versions = _random_history(seed, length=35)
        incremental = SchemaHistory.from_file_versions(versions)
        reference = parse_history_reference(versions)
        _assert_histories_equal(incremental, reference)
        # and every transition's delta is byte-equal to the reference
        # diff of the *incremental* schemas, so the identity fast paths
        # in diff_schemas never change the answer
        for i in range(1, len(incremental.versions)):
            assert incremental.transitions[i].delta == diff_schemas_reference(
                incremental.versions[i - 1].schema,
                incremental.versions[i].schema,
            )

    def test_reuse_within_a_history_is_unchanged(self):
        # the counts an unbounded, corpus-lived cache recorded for this
        # history: clearing between histories must not cost one reuse
        # inside a history
        SchemaHistory.from_file_versions(_random_history(3, length=30))
        stats = current().cache.stats
        assert (stats.hits, stats.misses) == (0, 30)
        assert (stats.statement_hits, stats.statement_misses) == (52, 56)
        assert (stats.unit_hits, stats.unit_misses) == (135, 21)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_reuse_dominates_and_nothing_falls_back(self, seed):
        versions = _random_history(seed, length=30)
        SchemaHistory.from_file_versions(versions)
        stats = current().cache.stats
        assert stats.fallback_parses == 0
        # consecutive versions are near-identical: statement reuse must
        # dominate (the acceptance bar for the real corpus is >= 90%)
        assert stats.statement_reuse_rate is not None
        assert stats.statement_reuse_rate > 0.80
        # the churning header comment misses every version, but those
        # segments carry zero parse units — the real work is reused
        assert stats.unit_hits > stats.unit_misses

    def test_identical_versions_share_the_parse(self):
        text = _render({"t0": [("id", "INT")]}, 0)
        versions = [
            FileVersion(synthetic_sha(1), utc(2021, 1), text),
            FileVersion(synthetic_sha(2), utc(2021, 2), text),
        ]
        history = SchemaHistory.from_file_versions(versions)
        # whole-version interning: the diff identity fast path sees the
        # very same ParseResult and reports an empty delta
        assert history.versions[0].schema is history.versions[1].schema
        assert history.transitions[1].delta.changes == []


def _assert_cache_empty(cache: ParseCache) -> None:
    assert len(cache) == 0
    assert not cache._fragments
    assert len(cache._elements) == 0


class TestCacheLifetime:
    """The in-memory layers live for one history, however it ends."""

    def test_empty_after_a_history(self):
        cache = current().cache
        SchemaHistory.from_file_versions(_random_history(5, length=12))
        assert cache.stats.statement_hits > 0
        _assert_cache_empty(cache)

    def test_empty_after_a_failed_history(self, monkeypatch):
        import repro.mining.history as history_module

        def broken_diff(old, new):
            raise RuntimeError("diff failed")

        monkeypatch.setattr(history_module, "diff_schemas", broken_diff)
        cache = current().cache
        with pytest.raises(RuntimeError, match="diff failed"):
            SchemaHistory.from_file_versions(_random_history(5, length=12))
        assert cache.stats.misses > 0
        _assert_cache_empty(cache)

    def test_disk_layer_carries_parses_across_histories(self, tmp_path):
        versions = _random_history(7, length=10)
        with RunContext(cache_dir=tmp_path).active() as context:
            cache = context.cache
            SchemaHistory.from_file_versions(versions)
            before = cache.stats
            again = SchemaHistory.from_file_versions(versions)
        delta = cache.stats - before
        assert delta.disk_hits == delta.hits == len(versions)
        assert delta.misses == 0
        _assert_histories_equal(again, parse_history_reference(versions))
        _assert_cache_empty(cache)


class TestTornStatements:
    GOOD = "CREATE TABLE users (id INT, name VARCHAR(40));"
    GARBAGE = "CREATE GARBAGE ))) not a statement ;"
    TORN = "CREATE TABLE torn (a INT,"  # ends mid-body at EOF

    def test_garbage_statement_only_invalidates_itself(self):
        cache = ParseCache()
        cache.parse(self.GOOD + "\n" + self.GARBAGE)
        before = cache.stats
        cache.parse(self.GOOD + "\n" + self.GARBAGE + "\nCREATE TABLE t2 (x INT);")
        after = cache.stats
        # the good statement AND the garbage fragment (with its memoised
        # issues) are both reused; only the new statement is parsed
        assert after.statement_hits > before.statement_hits
        assert after.fallback_parses == 0

    @pytest.mark.parametrize("bad", [GARBAGE, TORN, "'; unterminated"])
    def test_matches_reference_parse(self, bad):
        for text in (
            self.GOOD + "\n" + bad,
            bad,
            bad + "\n" + self.GOOD,
        ):
            expected = parse_schema(text)
            got = ParseCache().parse(text)
            assert got.schema == expected.schema
            assert got.issues == expected.issues

    def test_issues_and_warnings_once_per_version(self):
        versions = [
            FileVersion(synthetic_sha(1), utc(2020, 1), self.GOOD),
            FileVersion(synthetic_sha(2), utc(2020, 2), "CREATE TABLE broken ("),
        ]
        history = SchemaHistory.from_file_versions(versions)
        reference = parse_history_reference(versions)
        _assert_histories_equal(history, reference)
        codes = [record["code"] for record in current().recorder.warnings]
        assert codes == ["ddl-unparseable"]

    def test_torn_then_healed_version(self):
        healed = self.GOOD + "\nCREATE TABLE torn (a INT, b INT);"
        versions = [
            FileVersion(synthetic_sha(1), utc(2020, 1), self.GOOD),
            FileVersion(synthetic_sha(2), utc(2020, 2),
                        self.GOOD + "\n" + self.TORN),
            FileVersion(synthetic_sha(3), utc(2020, 3), healed),
        ]
        incremental = SchemaHistory.from_file_versions(versions)
        reference = parse_history_reference(versions)
        _assert_histories_equal(incremental, reference)


class TestUnsegmentableInput:
    @pytest.mark.parametrize("text", [
        "/*!50003 CREATE TABLE h (x INT); */ CREATE TABLE t (a INT);",
        "CREATE TABLE t (price$$ INT);\nCREATE TABLE u (x INT);",
        "CREATE TABLE t (a$b$ INT, c INT);\nCREATE TABLE u (x $b$);",
        "CREATE TABLE t (n INT DEFAULT 1$$);\nCREATE TABLE u (x INT);",
    ])
    def test_falls_back_to_the_whole_file(self, text):
        assert segment_statements(text) is None
        cache = ParseCache()
        got = cache.parse(text)
        assert cache.stats.fallback_parses == 1
        assert got == parse_schema(text)

    def test_dollar_quote_after_a_space_still_segments(self):
        text = (
            "CREATE FUNCTION f() RETURNS int AS $$ SELECT 1; $$;\n"
            "CREATE TABLE u (x INT);"
        )
        segments = segment_statements(text)
        assert [s.text for s in segments if s.text.strip()] == [
            "CREATE FUNCTION f() RETURNS int AS $$ SELECT 1; $$;",
            "CREATE TABLE u (x INT);",
        ]


class TestDiffFastPaths:
    def test_identical_objects_short_circuit(self):
        result = parse_schema("CREATE TABLE t (id INT);")
        delta = diff_schemas(result.schema, result.schema)
        assert delta.changes == []

    def test_shared_tables_still_diff_the_rest(self):
        cache = ParseCache()
        v1 = cache.parse("CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);")
        v2 = cache.parse("CREATE TABLE a (x INT);\nCREATE TABLE b (y INT, z INT);")
        # structural sharing: table a is the same object across versions
        assert v1.schema.tables[0] is v2.schema.tables[0]
        delta = diff_schemas(v1.schema, v2.schema)
        assert delta == diff_schemas_reference(v1.schema, v2.schema)
        assert any(change.table == "b" for change in delta.changes)
