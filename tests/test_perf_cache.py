"""Unit tests for the content-addressed parse cache (repro.perf.cache)."""

import os
import pickle

from repro.obs.context import RunContext, current
from repro.perf.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ParseCache,
    cached_parse_schema,
    content_key,
)
from repro.sqlparser import ParseResult, parse_schema

DDL = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40));"
DDL2 = "CREATE TABLE posts (pid INT);"


class TestContentKey:
    def test_distinct_texts_distinct_keys(self):
        assert content_key(DDL, None) != content_key(DDL2, None)

    def test_dialect_is_part_of_the_key(self):
        assert content_key(DDL, None) != content_key(DDL, "mysql")
        assert content_key(DDL, "mysql") != content_key(DDL, "postgres")

    def test_key_is_stable(self):
        assert content_key(DDL, "mysql") == content_key(DDL, "mysql")


class TestMemoryCache:
    def test_hit_and_miss_counters(self):
        cache = ParseCache()
        first = cache.parse(DDL)
        second = cache.parse(DDL)
        assert first is second
        # one whole-version miss = one fresh statement fragment whose
        # CREATE TABLE body carries two elements (two parse units)
        assert cache.stats == CacheStats(
            hits=1, misses=1, statement_misses=1, unit_misses=2
        )
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_statement_reuse_across_versions(self):
        cache = ParseCache()
        cache.parse(DDL + "\n" + DDL2)
        cache.parse(DDL + "\nCREATE TABLE tags (tid INT);")
        stats = cache.stats
        # the shared leading statement (and the zero-unit whitespace
        # separator segment) hit the fragment layer
        assert stats.statement_hits == 2
        assert stats.unit_hits == 2  # both body elements of DDL reused
        assert 0.0 < stats.statement_reuse_rate < 1.0

    def test_result_matches_direct_parse(self):
        cache = ParseCache()
        cached = cache.parse(DDL)
        direct = parse_schema(DDL)
        assert cached.schema == direct.schema
        assert cached.issues == direct.issues

    def test_dialects_cached_separately(self):
        cache = ParseCache()
        generic = cache.parse(DDL)
        mysql = cache.parse(DDL, dialect="mysql")
        assert generic is not mysql
        assert cache.stats.misses == 2

    def test_clear_drops_memory(self):
        cache = ParseCache()
        cache.parse(DDL)
        cache.clear()
        assert len(cache) == 0
        cache.parse(DDL)
        # fragment/element memos were dropped too, so the statement
        # recompiles — and the monotone counters survived the clear
        assert cache.stats == CacheStats(
            hits=0, misses=2, statement_misses=2, unit_misses=4
        )


class TestDiskCache:
    def test_unusable_cache_dir_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ParseCache(cache_dir=blocker)
        assert cache.cache_dir is None
        result = cache.parse(DDL)
        assert cache.parse(DDL) is result
        assert cache.stats == CacheStats(
            hits=1, misses=1, disk_hits=0, statement_misses=1, unit_misses=2
        )

    def test_roundtrip_across_instances(self, tmp_path):
        writer = ParseCache(cache_dir=tmp_path)
        written = writer.parse(DDL)
        reader = ParseCache(cache_dir=tmp_path)
        read = reader.parse(DDL)
        assert reader.stats == CacheStats(hits=1, misses=0, disk_hits=1)
        assert read.schema == written.schema

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        writer = ParseCache(cache_dir=tmp_path)
        writer.parse(DDL)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        reader = ParseCache(cache_dir=tmp_path)
        result = reader.parse(DDL)
        assert reader.stats == CacheStats(
            hits=0, misses=1, statement_misses=1, unit_misses=2
        )
        assert len(result.schema) == 1

    def test_wrong_object_on_disk_degrades_to_miss(self, tmp_path):
        cache = ParseCache(cache_dir=tmp_path)
        key = content_key(DDL, None)
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"not": "it"}))
        result = cache.parse(DDL)
        assert isinstance(result, ParseResult)
        assert cache.stats.misses == 1

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "cache"
        ParseCache(cache_dir=target)
        assert target.is_dir()


class TestStats:
    def test_arithmetic(self):
        a = CacheStats(hits=3, misses=1, disk_hits=2)
        b = CacheStats(hits=1, misses=1, disk_hits=1)
        assert a - b == CacheStats(hits=2, misses=0, disk_hits=1)
        assert a + b == CacheStats(hits=4, misses=2, disk_hits=3)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict(self):
        stats = CacheStats(hits=3, misses=1).as_dict()
        assert stats["hits"] == 3
        assert stats["hit_rate"] == 0.75

    def test_as_dict_from_dict_roundtrip(self):
        stats = CacheStats(
            hits=3, misses=1, disk_hits=2, statement_hits=40,
            statement_misses=4, fallback_parses=1, unit_hits=360,
            unit_misses=12,
        )
        assert CacheStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_old_records(self):
        # pre-statement-cache payloads have no "statements" block
        old = {"hits": 5, "misses": 2, "disk_hits": 1, "hit_rate": 0.71}
        stats = CacheStats.from_dict(old)
        assert stats.hits == 5
        assert stats.statement_lookups == 0
        assert stats.statement_reuse_rate == 0.0


class TestGlobalCache:
    """``cached_parse_schema`` goes through the current run's cache."""

    def test_cached_parse_schema_uses_active_cache(self):
        before = current().cache.stats
        cached_parse_schema(DDL)
        cached_parse_schema(DDL)
        delta = current().cache.stats - before
        assert delta.hits == 1
        assert delta.misses == 1

    def test_cache_dir_comes_from_the_environment(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert RunContext.from_env().cache.cache_dir == tmp_path / "env"
        flagged = RunContext.from_env(cache_dir=tmp_path / "flag")
        assert flagged.cache.cache_dir == tmp_path / "flag"
        # an explicit context never reads the environment
        assert RunContext().cache.cache_dir is None

    def test_the_environment_is_only_read(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        RunContext.from_env(cache_dir=tmp_path).cache
        assert CACHE_DIR_ENV not in os.environ
