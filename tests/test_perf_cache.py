"""Unit tests for the parse cache (repro.perf.cache)."""

import os

from repro.obs.context import RunContext, current
from repro.perf.cache import CacheStats, ParseCache, cached_parse_schema
from repro.sqlparser import parse_schema

DDL = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40));"
DDL2 = "CREATE TABLE posts (pid INT);"


class TestContentKey:
    """Whole versions are keyed on (dialect, script text), by value."""

    def test_distinct_texts_distinct_keys(self):
        cache = ParseCache()
        assert cache.parse(DDL) is not cache.parse(DDL2)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)

    def test_dialect_is_part_of_the_key(self):
        cache = ParseCache()
        cache.parse(DDL, dialect="mysql")
        cache.parse(DDL, dialect="postgres")
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)

    def test_key_is_stable(self):
        cache = ParseCache()
        first = cache.parse(DDL, dialect="mysql")
        rebuilt = "".join(list(DDL))  # an equal text, another object
        assert rebuilt is not DDL
        assert cache.parse(rebuilt, dialect="mysql") is first


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


class TestStats:
    def test_arithmetic(self):
        a = CacheStats(hits=3, misses=1, statement_hits=2)
        b = CacheStats(hits=1, misses=1, statement_hits=1)
        assert a - b == CacheStats(hits=2, misses=0, statement_hits=1)
        assert a + b == CacheStats(hits=4, misses=2, statement_hits=3)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict(self):
        stats = CacheStats(hits=3, misses=1).as_dict()
        assert stats["hits"] == 3
        assert stats["hit_rate"] == 0.75

    def test_as_dict_from_dict_roundtrip(self):
        stats = CacheStats(
            hits=3, misses=1, statement_hits=40,
            statement_misses=4, fallback_parses=1, unit_hits=360,
            unit_misses=12,
        )
        assert CacheStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_old_records(self):
        # pre-statement-cache payloads have no "statements" block, and
        # records of the retired on-disk layer carry "disk_hits"
        old = {"hits": 5, "misses": 2, "disk_hits": 1, "hit_rate": 0.71}
        stats = CacheStats.from_dict(old)
        assert stats == CacheStats(hits=5, misses=2)
        assert "disk_hits" not in stats.as_dict()
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

    def test_the_environment_is_only_read(self):
        before = dict(os.environ)
        RunContext.from_env().cache.parse(DDL)
        assert dict(os.environ) == before
