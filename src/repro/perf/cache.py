"""Memoisation of DDL parsing within one schema history.

Mining parses every version of every project's schema file, and
consecutive versions are mostly the same statements.  A
:class:`ParseCache` keys whole-version parse results on the dialect
hint plus the script text, and its miss path re-parses only the
statements and body elements that history has not seen yet.

The layers (whole versions, statement fragments, body elements) are
process-local and live for one schema history:
:meth:`SchemaHistory.from_file_versions
<repro.mining.history.SchemaHistory.from_file_versions>` clears them
when it returns, so a process's parse memory is bounded by its
largest history, not by how many it has mined.  Nothing here outlives
a history; reuse across runs goes through the artifact store, whose
``mine`` shard keys carry the stage's code version.

Cached results are shared objects: callers must treat the returned
schema as immutable (the mining pipeline only ever reads parsed
schemas).  Hit/miss counters feed the study's timing instrumentation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..obs.context import current
from ..sqlparser import ParseResult, parse_schema
from ..sqlparser.parser import set_element_cache
from .fragments import (
    ElementCache,
    StatementFragment,
    compile_fragment,
    parse_schema_fragmented,
)


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's life so far (monotone, snapshot-able).

    Three granularities are tracked:

    * whole-version lookups (``hits`` / ``misses``) —
      near-zero hit rate on a cold run by construction, since every
      version of every file is new text;
    * statement-fragment lookups inside each whole-version miss
      (``statement_hits`` / ``statement_misses``), plus
      ``fallback_parses`` counting versions that could not be segmented
      (semicolons inside MySQL ``/*!`` hint bodies) and went through
      the monolithic parser;
    * *parse units* (``unit_hits`` / ``unit_misses``): statements
      weighted by the work they carry — one unit per CREATE TABLE body
      element (column / constraint, shared across the history's
      versions through the element memo), one unit for any other
      statement.  A fully reused statement scores all its units as
      hits; a statement that changed in one column scores that column
      as the only unit miss.

    ``statement_reuse_rate`` is the unit-weighted rate — the number
    that actually reflects how much parse work the incremental engine
    is skipping.
    """

    hits: int = 0
    misses: int = 0
    statement_hits: int = 0
    statement_misses: int = 0
    fallback_parses: int = 0
    unit_hits: int = 0
    unit_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of whole-version lookups answered (0 if none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def statement_lookups(self) -> int:
        return self.statement_hits + self.statement_misses

    @property
    def statement_reuse_rate(self) -> float:
        """Unit-weighted fraction of statement parse work reused (0 if none)."""
        lookups = self.unit_hits + self.unit_misses
        return self.unit_hits / lookups if lookups else 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            statement_hits=self.statement_hits - other.statement_hits,
            statement_misses=self.statement_misses - other.statement_misses,
            fallback_parses=self.fallback_parses - other.fallback_parses,
            unit_hits=self.unit_hits - other.unit_hits,
            unit_misses=self.unit_misses - other.unit_misses,
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            statement_hits=self.statement_hits + other.statement_hits,
            statement_misses=self.statement_misses + other.statement_misses,
            fallback_parses=self.fallback_parses + other.fallback_parses,
            unit_hits=self.unit_hits + other.unit_hits,
            unit_misses=self.unit_misses + other.unit_misses,
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "statements": {
                "hits": self.statement_hits,
                "misses": self.statement_misses,
                "fallback_parses": self.fallback_parses,
                "unit_hits": self.unit_hits,
                "unit_misses": self.unit_misses,
                "reuse_rate": round(self.statement_reuse_rate, 4),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """Rebuild from :meth:`as_dict` output (older records lack the
        ``statements`` block; their statement counters read as zero,
        and counters of retired cache layers are ignored)."""
        statements = data.get("statements") or {}
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            statement_hits=int(statements.get("hits", 0)),
            statement_misses=int(statements.get("misses", 0)),
            fallback_parses=int(statements.get("fallback_parses", 0)),
            unit_hits=int(statements.get("unit_hits", 0)),
            unit_misses=int(statements.get("unit_misses", 0)),
        )


class ParseCache:
    """Memoises ``parse_schema`` on (dialect, script text)."""

    def __init__(self):
        # whole versions: dialect hint -> script text -> result; nested
        # because a (dialect, text) tuple allocated per lookup raised the
        # serial study's peak RSS by about 1 MiB
        self._memory: defaultdict[str | None, dict[str, ParseResult]] = (
            defaultdict(dict)
        )
        # statement-fragment layer: exact segment text -> compiled
        # fragment, whose Table objects keep their identity across the
        # history's versions
        self._fragments: dict[str, StatementFragment] = {}
        self._elements = ElementCache()
        self._hits = 0
        self._misses = 0
        self._stmt_hits = 0
        self._stmt_misses = 0
        self._fallbacks = 0

    def __len__(self) -> int:
        return sum(map(len, self._memory.values()))

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            statement_hits=self._stmt_hits,
            statement_misses=self._stmt_misses,
            fallback_parses=self._fallbacks,
            unit_hits=self._elements.hits,
            unit_misses=self._elements.misses,
        )

    def clear(self) -> None:
        """Drop every layer (the end of a schema history).

        Counters are monotone and survive a clear (stats consumers
        subtract snapshots, so counters must never run backwards).
        """
        self._memory.clear()
        self._fragments.clear()
        fresh = ElementCache()
        fresh.hits = self._elements.hits
        fresh.misses = self._elements.misses
        self._elements = fresh

    # ------------------------------------------------------------------
    def parse(self, text: str, *, dialect: str | None = None) -> ParseResult:
        """``parse_schema`` through the cache.

        A version seen before in this history is a hit; a miss goes
        through the incremental fragment engine, which re-lexes only
        statements never seen before.  Inputs that cannot be segmented
        fall back to the monolithic parser.
        """
        versions = self._memory[dialect]
        cached = versions.get(text)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        previous = set_element_cache(self._elements)
        try:
            result = parse_schema_fragmented(
                text, dialect=dialect, lookup=self._fragment_for
            )
            if result is None:
                self._fallbacks += 1
                result = parse_schema(text, dialect=dialect)
        finally:
            set_element_cache(previous)
        versions[text] = result
        return result

    def _fragment_for(self, fragment_text: str) -> StatementFragment:
        fragment = self._fragments.get(fragment_text)
        if fragment is None:
            self._stmt_misses += 1
            elements = self._elements
            before = elements.hits + elements.misses
            fragment = compile_fragment(fragment_text)
            element_lookups = elements.hits + elements.misses - before
            if element_lookups:
                fragment.units = element_lookups
            else:
                # no body elements touched: one unit per statement,
                # all fresh (comment-only fragments weigh nothing)
                fragment.units = len(fragment.groups)
                elements.misses += fragment.units
            self._fragments[fragment_text] = fragment
        else:
            self._stmt_hits += 1
            self._elements.hits += fragment.units
        return fragment


def cached_parse_schema(
    text: str, *, dialect: str | None = None
) -> ParseResult:
    """Drop-in replacement for ``parse_schema`` through the run's cache."""
    return current().cache.parse(text, dialect=dialect)
