"""Per-statement fragment compilation — the incremental parse engine.

Consecutive versions of a mined DDL file differ in one or two statements
out of dozens; whole-file caching (:mod:`repro.perf.cache`) sees every
version as a brand-new content key and re-parses everything.  This
module caches parse work *per top-level statement*: a version is split
by the cheap segmenter (:mod:`repro.sqlparser.segment`), each segment is
compiled once into a :class:`StatementFragment`, and later versions that
contain the same statement text reuse the compiled fragment — skipping
the lexer entirely and, for self-contained CREATE TABLE statements, the
parser too.

Fragment kinds
==============

``PURE``
    A single CREATE TABLE statement that parsed cleanly on an empty
    scratch schema.  Applying it is one ``schema.add_table`` of the
    cached :class:`~repro.schema.Table` — the same object is shared by
    every version containing the identical statement text, which is
    what arms the identity fast path in the diff engine.
``MUTATING``
    ALTER / RENAME TABLE and any CREATE that was not pure (CREATE INDEX
    appends to an existing table's ``indexes``; a torn CREATE TABLE
    must re-raise its diagnostics against live schema state).  Replayed
    from cached tokens; may mutate tables already in the schema.
``INERT``
    Everything else — comment-only slices, DROP TABLE (removes entries
    from the schema's table list but never mutates a ``Table``), SET /
    INSERT / USE / CREATE VIEW and other ignored statements.  Replayed
    from cached tokens (DROP diagnostics depend on live schema state),
    but guaranteed never to touch a shared ``Table`` object.

Copy-on-write rule: when a version contains *any* MUTATING fragment,
pure fragments are applied as ``table.copy()`` instead of the shared
object, so no statement replayed later in the chain can corrupt a
``Table`` that an earlier version's schema is holding.

Correctness is oracle-gated: for every version the fragmented result
must equal ``parse_schema`` on the same text — same schema, same
issue list (with line numbers rebased from fragment-relative to
absolute), same statement counters.  ``tests/test_incremental_parse.py``
drives randomized histories through ``parse_history_reference`` to
enforce this version by version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..schema import Schema, Table
from ..sqlparser import ParseIssue, ParseResult, Token, split_statements, tokenize
from ..sqlparser.dialect import (
    dialect_from_mask,
    fragment_signal_mask,
    whole_text_signal_mask,
)
from ..sqlparser.parser import (
    BodyEffect,
    apply_statement,
    capture_body_element,
    strip_copy_blocks,
)
from ..sqlparser.segment import segment_statements

PURE = "pure"
MUTATING = "mutating"
INERT = "inert"


class ElementCache:
    """Memo of CREATE TABLE body-element parses, keyed on token content.

    The second cache level under statement fragments: when a statement
    *does* change between versions, it usually changes in one column —
    the other body elements re-parse from this memo.  Keys deliberately
    exclude token line numbers, so the same column definition hits from
    any file position (``id INT NOT NULL`` is shared by every table of
    the history that declares it).  Install via
    :func:`repro.sqlparser.parser.set_element_cache`; installation is
    scoped by :class:`~repro.perf.cache.ParseCache` so the reference
    oracles always take the direct parse path.
    """

    __slots__ = ("_memo", "hits", "misses")

    def __init__(self) -> None:
        self._memo: dict[tuple, BodyEffect] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def effect_for(self, element: list[Token]) -> BodyEffect:
        key = tuple((t.type, t.value, t.raw) for t in element)
        effect = self._memo.get(key)
        if effect is None:
            self.misses += 1
            effect = capture_body_element(element)
            self._memo[key] = effect
        else:
            self.hits += 1
        return effect


@dataclass
class StatementFragment:
    """One compiled top-level statement, reusable across versions.

    ``groups`` holds the statement's token groups (fragment-relative
    line numbers) for replay; ``table`` is the shared parsed table for
    PURE fragments; ``signal_mask`` caches the fragment-local dialect
    signals (computed over ``" " + text`` so word boundaries at the
    segment seam behave as in the full file); ``units`` is the
    fragment's parse-unit weight (body elements for CREATE TABLE,
    otherwise one per statement) used by the reuse-rate accounting.
    """

    kind: str
    groups: list[list[Token]]
    table: Table | None
    signal_mask: int
    units: int = 0


def compile_fragment(text: str) -> StatementFragment:
    """Lex, classify and (for CREATE TABLE) pre-parse one segment."""
    groups = split_statements(tokenize(text))
    signal_mask = fragment_signal_mask(" " + text)
    kind = INERT
    table: Table | None = None
    if len(groups) == 1:
        head = groups[0][0]
        if head.is_word("CREATE"):
            scratch_schema = Schema()
            scratch_result = ParseResult(schema=scratch_schema)
            apply_statement(groups[0], scratch_schema, scratch_result)
            if (
                not scratch_result.issues
                and scratch_result.statements_applied == 1
                and len(scratch_schema.tables) == 1
            ):
                kind = PURE
                table = scratch_schema.tables[0]
            elif scratch_result.statements_applied or scratch_result.issues:
                kind = MUTATING  # CREATE INDEX, torn CREATE TABLE, ...
            # else: CREATE VIEW / SEQUENCE / FUNCTION — ignored, inert
        elif head.is_word("ALTER", "RENAME"):
            kind = MUTATING
    elif len(groups) > 1:
        kind = MUTATING  # should not happen post-segmentation; be safe
    return StatementFragment(
        kind=kind, groups=groups, table=table, signal_mask=signal_mask
    )


def parse_schema_fragmented(
    text: str,
    *,
    dialect: str | None = None,
    lookup: Callable[[str], StatementFragment],
) -> ParseResult | None:
    """Parse ``text`` through the fragment cache.

    ``lookup`` maps a segment's exact text to its (possibly cached)
    :class:`StatementFragment`.  Returns ``None`` when the text cannot
    be segmented (MySQL ``/*!`` hints) — the caller falls back to
    whole-file :func:`~repro.sqlparser.parse_schema`.
    """
    if "stdin" in text:
        text = strip_copy_blocks(text)
    segments = segment_statements(text)
    if segments is None:
        return None
    fragments = [lookup(segment.text) for segment in segments]

    if dialect is None:
        mask = whole_text_signal_mask(text)
        for fragment in fragments:
            mask |= fragment.signal_mask
        # A signal can start in the comments split off ahead of a
        # statement and end in it ("-- ENGINE\n= ..."): scan each such
        # seam as the one slice it was.  A segment that does not end in
        # ';' and has a successor is such a prefix.
        for prefix, statement in zip(segments, segments[1:]):
            if not prefix.text.endswith(";") and not prefix.text.isspace():
                mask |= fragment_signal_mask(
                    " " + prefix.text + statement.text
                )
        dialect = dialect_from_mask(mask)

    schema = Schema(dialect=dialect)
    result = ParseResult(schema=schema)
    copy_on_write = any(f.kind is MUTATING for f in fragments)
    key_index = schema.key_index
    issues = result.issues

    for segment, fragment in zip(segments, fragments):
        if fragment.kind is PURE and fragment.table.key not in key_index:
            result.statements_total += 1
            table = fragment.table.copy() if copy_on_write else fragment.table
            schema.add_table(table)
            result.statements_applied += 1
            continue
        # replay the cached tokens against live schema state
        before = len(issues)
        for group in fragment.groups:
            apply_statement(group, schema, result)
        offset = segment.line - 1
        if offset and len(issues) > before:
            for idx in range(before, len(issues)):
                issue = issues[idx]
                issues[idx] = ParseIssue(issue.line + offset, issue.message)
    return result
