"""The dialect plugin registry: detection signals + emission conventions.

The study corpus keeps MySQL, Postgres or SQLite schema files.  Each
supported vendor is a :class:`Dialect` plugin registered here: it
declares the surface signals that vote for it during detection, the
lexer keyword extensions and parser quirks it relies on, and the
re-emission conventions (:class:`EmitterConventions`) the corpus
generator uses to serialise schemas in its flavour.  New workload
families add a dialect by calling :func:`register_dialect` — nothing
else in the parser or the mining loaders needs to change.

Detection is expressed as bitmasks over a fixed signal table so the
incremental parse engine can cache a mask per statement fragment and OR
the masks of a version's fragments instead of rescanning the whole
file.  The combined table is rebuilt from the registry on every
registration; bit positions are an in-process detail (masks are never
persisted), so registering a new dialect cannot invalidate any stored
artifact.

Almost every signal pattern is *fragment-local*: a match in the whole
file lies entirely inside one ``;``-terminated slice (no fragment-local
pattern can match across a top-level ``;``), and a match inside a slice
is a match in the whole file.  The segmenter cuts a slice's leading
comments off into a segment of their own, and a match can run from
those comments into the statement (``-- IF NOT EXISTS`` then
``CREATE TABLE sqlite_x``), so the fragment engine also scans each such
seam.  The SQLite
``IF NOT EXISTS ... sqlite_`` heuristic is deliberately bounded with
``[^;]*`` so it cannot cross a statement boundary either — an unbounded
``.*`` used to connect an ``IF NOT EXISTS`` in one statement with a
``sqlite_`` reference in a *later* statement on the same line,
mis-voting mixed-dialect files (and it would disagree between the
whole-text and per-fragment scans).  Two patterns cannot be localised
and are evaluated on the full text each time: ``^\\s*#`` and
``^\\s*PRAGMA`` are ``re.M`` line-anchored — a segment that starts
mid-line (right after a ``;``) would gain a fake line-start anchor when
scanned standalone.

Most statements carry none of a dialect's signals, so a scan first
checks literals: every signal keeps the ASCII literal runs of its
pattern's top-level sequence (``ENGINE`` and ``=`` for
``\\bENGINE\\s*=``), and its regex runs only when the upper-cased text
contains all of them.  The runs are read from the pattern's parse tree
once per table rebuild.  A pattern with no top-level literal run (a
top-level alternation, say) is always searched, and so is every pattern
on non-ASCII text, where case-insensitive matching reaches beyond
``str.upper`` (``K`` matches the Kelvin sign, ``s`` matches ``ſ``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

try:
    from re import _parser as _regex_parser
except ImportError:  # Python 3.10
    import sre_parse as _regex_parser


@dataclass(frozen=True)
class EmitterConventions:
    """How :func:`~repro.corpus.ddlgen.emit_ddl` speaks this dialect.

    ``type_names`` maps normalised type *families* to the dialect's
    preferred spelling (SQLite's type-affinity names); unmapped families
    render through :meth:`~repro.schema.types.DataType.render_sql`
    unchanged.  The mapping must stay injective under
    :func:`~repro.schema.types.normalize_type` so emitted texts re-parse
    to the same logical schema.  ``rowid_tables`` switches on SQLite's
    rowid conventions: a single integer primary key renders inline as
    ``INTEGER PRIMARY KEY AUTOINCREMENT``; any other key renders
    table-level and the table gains a ``WITHOUT ROWID`` suffix.
    """

    ident_quote: str = ""
    preamble: tuple[str, ...] = ()
    table_suffix: str = ""
    type_names: tuple[tuple[str, str], ...] = ()
    rowid_tables: bool = False

    def quote(self, name: str) -> str:
        return f"{self.ident_quote}{name}{self.ident_quote}"

    def type_name(self, family: str) -> str | None:
        for key, spelled in self.type_names:
            if key == family:
                return spelled
        return None


@dataclass(frozen=True)
class Dialect:
    """One pluggable dialect: detection signals + parse/emit conventions.

    ``fragment_signals`` are the dialect's fragment-local detection
    patterns (cacheable per statement fragment); ``whole_text_signals``
    are the few that must see the full text (``re.M`` line anchors).
    ``keywords`` documents the lexer keyword extensions the dialect
    leans on and ``quirks`` the parser behaviours it requires — both are
    the registry's contract for the (tolerant) lexer and parser, which
    accept the union of all registered dialects' extensions.
    """

    name: str
    fragment_signals: tuple[re.Pattern, ...] = ()
    whole_text_signals: tuple[re.Pattern, ...] = ()
    keywords: frozenset[str] = frozenset()
    quirks: frozenset[str] = frozenset()
    emitter: EmitterConventions = field(default_factory=EmitterConventions)


#: The registry, in registration order (bit positions follow it).
_REGISTRY: dict[str, Dialect] = {}

#: A signal as ``(bit, pattern, literal runs)``: its bit in a signal
#: mask, and the runs :func:`_literal_runs` reads from its pattern.
_Signal = tuple[int, re.Pattern, tuple[str, ...]]

#: Fragment-local signals, bits in registration order.  Rebuilt from
#: the registry by :func:`register_dialect`.
_FRAGMENT_SIGNALS: tuple[_Signal, ...] = ()

#: Whole-text-only signals; their bits sit above the fragment bits.
_WHOLE_TEXT_SIGNALS: tuple[_Signal, ...] = ()

#: Per-dialect bitmasks over the combined signal table.
_DIALECT_BITS: dict[str, int] = {}


def _literal_runs(pattern: re.Pattern) -> tuple[str, ...]:
    """Upper-cased ASCII literal runs every match of ``pattern`` contains.

    A run is a maximal stretch of consecutive ASCII literals in the
    pattern's top-level sequence; anything else there (a class, a
    repeat, an anchor, a group, a non-ASCII literal) ends it.  Longest
    first: a long run is the likeliest to be missing.
    """
    runs: list[str] = []
    run: list[str] = []
    for op, arg in _regex_parser.parse(pattern.pattern, pattern.flags):
        if op == _regex_parser.LITERAL and arg < 128:
            run.append(chr(arg))
            continue
        if run:
            runs.append("".join(run).upper())
            run = []
    if run:
        runs.append("".join(run).upper())
    return tuple(sorted(runs, key=len, reverse=True))


def _rebuild_signal_tables() -> None:
    global _FRAGMENT_SIGNALS, _WHOLE_TEXT_SIGNALS, _DIALECT_BITS
    fragment = [
        (dialect.name, pattern)
        for dialect in _REGISTRY.values()
        for pattern in dialect.fragment_signals
    ]
    whole = [
        (dialect.name, pattern)
        for dialect in _REGISTRY.values()
        for pattern in dialect.whole_text_signals
    ]
    signals: list[_Signal] = []
    bits: dict[str, int] = {}
    for bit, (name, pattern) in enumerate(fragment + whole):
        signals.append((1 << bit, pattern, _literal_runs(pattern)))
        bits[name] = bits.get(name, 0) | (1 << bit)
    _FRAGMENT_SIGNALS = tuple(signals[:len(fragment)])
    _WHOLE_TEXT_SIGNALS = tuple(signals[len(fragment):])
    _DIALECT_BITS = bits


def register_dialect(dialect: Dialect) -> Dialect:
    """Register (or replace) a dialect plugin and rebuild the tables.

    Masks computed before a registration are not comparable with masks
    computed after it (bit positions shift) — callers that cache masks
    cache them per process, never across registrations.  In practice
    registration happens at import time, before any mask is computed.
    """
    _REGISTRY[dialect.name] = dialect
    _rebuild_signal_tables()
    return dialect


def get_dialect(name: str) -> Dialect:
    """The registered dialect plugin called ``name`` (KeyError if none)."""
    return _REGISTRY[name]


def registered_dialects() -> tuple[str, ...]:
    """All registered dialect names, in registration order."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# the built-in dialects (registration order fixes the bit layout)

MYSQL = register_dialect(Dialect(
    name="mysql",
    fragment_signals=(
        re.compile(r"`"),                          # backtick identifiers
        re.compile(r"\bENGINE\s*=", re.I),
        re.compile(r"\bAUTO_INCREMENT\b", re.I),
        re.compile(r"\bUNSIGNED\b", re.I),
        re.compile(r"\bCHARSET\s*=", re.I),
        re.compile(r"\bENUM\s*\(", re.I),
    ),
    whole_text_signals=(
        re.compile(r"^\s*#", re.M),                # '#' comments
    ),
    keywords=frozenset({"AUTO_INCREMENT", "UNSIGNED", "ENGINE", "CHARSET"}),
    quirks=frozenset({
        "backtick-identifiers", "table-options", "executable-comments",
    }),
    emitter=EmitterConventions(
        ident_quote="`",
        table_suffix=" ENGINE=InnoDB DEFAULT CHARSET=utf8",
    ),
))

SQLITE = register_dialect(Dialect(
    name="sqlite",
    fragment_signals=(
        re.compile(r"\bAUTOINCREMENT\b", re.I),    # no underscore: SQLite
        re.compile(r"\bWITHOUT\s+ROWID\b", re.I),
        # system-table references near IF NOT EXISTS (sqlite_sequence
        # etc.); bounded to the containing statement — ``[^;]*`` cannot
        # cross a top-level ``;`` in either the whole-text or the
        # per-fragment scan, so the signal is fragment-local
        re.compile(r"\bIF\s+NOT\s+EXISTS\b[^;]*\bsqlite_", re.I),
    ),
    whole_text_signals=(
        re.compile(r"^\s*PRAGMA\b", re.I | re.M),
    ),
    keywords=frozenset({"AUTOINCREMENT", "PRAGMA", "WITHOUT", "ROWID"}),
    quirks=frozenset({
        "inline-rowid-pk", "without-rowid-tables", "pragma-statements",
        "type-affinity",
    }),
    emitter=EmitterConventions(
        preamble=("PRAGMA foreign_keys = OFF;",),
        # type-affinity spellings; injective under normalize_type
        # ("REAL" aliases to the otherwise-unused "float" family)
        type_names=(
            ("int", "INTEGER"),
            ("decimal", "NUMERIC"),
            ("double", "REAL"),
        ),
        rowid_tables=True,
    ),
))

POSTGRES = register_dialect(Dialect(
    name="postgres",
    fragment_signals=(
        re.compile(r"\bSERIAL\b", re.I),
        re.compile(r"\bBIGSERIAL\b", re.I),
        re.compile(r"::"),                         # cast operator
        re.compile(r"\bnextval\s*\(", re.I),
        re.compile(r"\$\$"),                       # dollar quoting
        re.compile(r"\bBYTEA\b", re.I),
        re.compile(r"\bTIMESTAMPTZ\b", re.I),
        re.compile(r"\bWITH\s+TIME\s+ZONE\b", re.I),
        re.compile(r"\bCREATE\s+SEQUENCE\b", re.I),
        re.compile(r"\bOWNER\s+TO\b", re.I),
    ),
    keywords=frozenset({"SERIAL", "BIGSERIAL", "BYTEA", "TIMESTAMPTZ"}),
    quirks=frozenset({
        "serial-autoincrement", "dollar-quoting", "set-statements",
    }),
    emitter=EmitterConventions(
        preamble=("SET client_encoding = 'UTF8';",),
    ),
))


# ----------------------------------------------------------------------
# mask computation (the fragment-cache contract)

def fragment_signal_mask(text: str) -> int:
    """Bitmask of the fragment-local signals present in ``text``.

    Callers scanning a statement fragment (rather than a whole file)
    should pass ``" " + fragment`` so that ``\\b`` anchors at the
    fragment's first character behave as they do in the full text,
    where the preceding character is ``;`` or start-of-file — all
    non-word, like the space.
    """
    return _signal_mask(text, _FRAGMENT_SIGNALS)


def whole_text_signal_mask(text: str) -> int:
    """Bitmask of the signals that must see the full text."""
    return _signal_mask(text, _WHOLE_TEXT_SIGNALS)


def _signal_mask(text: str, signals: tuple[_Signal, ...]) -> int:
    mask = 0
    if not text.isascii():
        for bit, pattern, _ in signals:
            if pattern.search(text):
                mask |= bit
        return mask
    upper = text.upper()
    for bit, pattern, runs in signals:
        for run in runs:
            if run not in upper:
                break
        else:
            if pattern.search(text):
                mask |= bit
    return mask


def dialect_from_mask(mask: int) -> str:
    """Resolve a combined signal mask to a dialect label.

    Scores each dialect by the number of distinct signal bits present;
    ties and empty scores fall back to ``"generic"``.
    """
    scores = {
        dialect: (mask & bits).bit_count()
        for dialect, bits in _DIALECT_BITS.items()
    }
    best = max(scores, key=scores.get)
    best_score = scores[best]
    if best_score == 0:
        return "generic"
    if sum(1 for s in scores.values() if s == best_score) > 1:
        return "generic"  # ambiguous tie
    return best


def detect_dialect(text: str) -> str:
    """Return a registered dialect name or ``"generic"``.

    SQLite files appear in the wild even though the paper's elicitation
    rules keep MySQL/Postgres only, so the miner labels them correctly
    rather than misattributing their features.
    """
    return dialect_from_mask(
        fragment_signal_mask(text) | whole_text_signal_mask(text)
    )
