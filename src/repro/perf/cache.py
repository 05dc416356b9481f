"""Content-addressed memoisation of DDL parsing.

Mining re-parses every version of every project's schema file; across a
study run that is thousands of ``parse_schema`` calls, and across
repeated CLI / benchmark runs the very same scripts are re-lexed from
scratch.  A :class:`ParseCache` keys parse results on the SHA-256 of the
script text plus the dialect hint, so identical inputs are parsed once:

* the in-memory layers (whole versions, statement fragments, body
  elements) are process-local and always on, and live for one schema
  history: :meth:`SchemaHistory.from_file_versions
  <repro.mining.history.SchemaHistory.from_file_versions>` clears them
  when it returns, so a process's parse memory is bounded by its
  largest history, not by how many it has mined;
* the optional on-disk layer (``cache_dir`` / ``REPRO_CACHE_DIR``)
  persists pickled :class:`~repro.sqlparser.ParseResult` objects across
  histories, processes and runs — the only reuse across histories.
  Writes are atomic (temp file + ``os.replace``), so concurrent workers
  sharing a directory never observe torn entries.

Cached results are shared objects: callers must treat the returned
schema as immutable (the mining pipeline only ever reads parsed
schemas).  Hit/miss counters feed the study's timing instrumentation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..obs.context import current
from ..pipeline.store import atomic_write_pickle, read_pickle
from ..sqlparser import ParseResult, parse_schema
from ..sqlparser.parser import set_element_cache
from .fragments import (
    ElementCache,
    StatementFragment,
    compile_fragment,
    parse_schema_fragmented,
)

#: Environment variable naming the on-disk layer of a run's cache
#: when ``--cache-dir`` is not given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's life so far (monotone, snapshot-able).

    Three granularities are tracked:

    * whole-version lookups (``hits`` / ``misses`` / ``disk_hits``) —
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
    disk_hits: int = 0
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
        """Fraction of lookups answered from memory or disk (0 if none)."""
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
            disk_hits=self.disk_hits - other.disk_hits,
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
            disk_hits=self.disk_hits + other.disk_hits,
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
            "disk_hits": self.disk_hits,
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
        ``statements`` block; their statement counters read as zero)."""
        statements = data.get("statements") or {}
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            disk_hits=int(data.get("disk_hits", 0)),
            statement_hits=int(statements.get("hits", 0)),
            statement_misses=int(statements.get("misses", 0)),
            fallback_parses=int(statements.get("fallback_parses", 0)),
            unit_hits=int(statements.get("unit_hits", 0)),
            unit_misses=int(statements.get("unit_misses", 0)),
        )


def content_key(text: str, dialect: str | None) -> str:
    """The cache key: sha256 over the dialect hint and the script text."""
    hasher = hashlib.sha256()
    hasher.update((dialect or "").encode())
    hasher.update(b"\x00")
    hasher.update(text.encode("utf-8", errors="surrogateescape"))
    return hasher.hexdigest()


class ParseCache:
    """Memoises ``parse_schema`` on (content hash, dialect).

    Args:
        cache_dir: when given, parse results are also pickled under this
            directory so later processes and runs start warm.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._memory: dict[str, ParseResult] = {}
        # statement-fragment layer: exact segment text -> compiled
        # fragment.  Memory-only: the shared Table objects inside would
        # lose their cross-version identity if round-tripped to disk.
        self._fragments: dict[str, StatementFragment] = {}
        self._elements = ElementCache()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._stmt_hits = 0
        self._stmt_misses = 0
        self._fallbacks = 0
        self._degrade_warned = False
        self.cache_dir: Path | None = None
        if cache_dir is not None:
            try:
                Path(cache_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                # an unusable cache dir (e.g. the path is an existing
                # file, or a read-only parent) degrades to memory-only
                self._warn_degraded(cache_dir, exc)
            else:
                self.cache_dir = Path(cache_dir)

    def _warn_degraded(self, cache_dir, exc: OSError) -> None:
        """Emit the cache-degrade warning event (once per cache)."""
        if self._degrade_warned:
            return
        self._degrade_warned = True
        from ..obs.events import warn

        warn(
            "cache-dir-degraded",
            f"parse cache dir {str(cache_dir)!r} unusable "
            f"({exc.__class__.__name__}: {exc}); running memory-only",
            cache_dir=str(cache_dir),
        )

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            disk_hits=self._disk_hits,
            statement_hits=self._stmt_hits,
            statement_misses=self._stmt_misses,
            fallback_parses=self._fallbacks,
            unit_hits=self._elements.hits,
            unit_misses=self._elements.misses,
        )

    def clear(self) -> None:
        """Drop the in-memory layers (the disk store is left intact).

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

        Whole-version hits come from memory or disk; misses go through
        the incremental fragment engine, which re-lexes only statements
        never seen before.  Inputs that cannot be segmented fall back
        to the monolithic parser.
        """
        key = content_key(text, dialect)
        cached = self._memory.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        if self.cache_dir is not None:
            from_disk = self._load(key)
            if from_disk is not None:
                self._hits += 1
                self._disk_hits += 1
                self._memory[key] = from_disk
                return from_disk
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
        self._memory[key] = result
        if self.cache_dir is not None:
            self._store(key, result)
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

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def _load(self, key: str) -> ParseResult | None:
        result = read_pickle(self._path_for(key))
        return result if isinstance(result, ParseResult) else None

    def _store(self, key: str, result: ParseResult) -> None:
        path = self._path_for(key)
        try:
            atomic_write_pickle(path, result)
        except OSError as exc:
            # a read-only or full cache dir degrades to memory-only
            self._warn_degraded(path.parent, exc)


def cached_parse_schema(
    text: str, *, dialect: str | None = None
) -> ParseResult:
    """Drop-in replacement for ``parse_schema`` through the run's cache."""
    return current().cache.parse(text, dialect=dialect)
