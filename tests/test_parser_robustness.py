"""Robustness: the mining parser must never crash on damaged input.

Schema files in the wild are truncated, merged badly, or half-converted
between dialects.  The mining contract is: :func:`parse_schema` returns
a (possibly empty) schema plus diagnostics — it never raises.  These
tests mutate realistic dumps aggressively and hold the parser to that.
On arbitrary SQL-shaped text they also hold the fragment engine, the
path mining takes, to :func:`parse_schema`: the segmenter cuts where
the lexer would, a cached parse equals a whole-file parse, and the
literal-gated dialect signals equal a plain search.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.perf.cache import ParseCache
from repro.sqlparser import dialect, parse_schema, tokenize
from repro.sqlparser.segment import segment_statements

FIXTURES = Path(__file__).parent / "fixtures"
DUMPS = [
    (FIXTURES / "wordpress_like.sql").read_text(),
    (FIXTURES / "pgdump_like.sql").read_text(),
]


def mutate(text: str, rng: random.Random) -> str:
    """One random structural mutation of a dump."""
    kind = rng.randrange(6)
    if kind == 0:  # truncate anywhere
        return text[: rng.randrange(1, len(text))]
    if kind == 1:  # delete a random line
        lines = text.splitlines()
        del lines[rng.randrange(len(lines))]
        return "\n".join(lines)
    if kind == 2:  # duplicate a random chunk
        i = rng.randrange(len(text))
        j = min(len(text), i + rng.randrange(1, 200))
        return text[:j] + text[i:j] + text[j:]
    if kind == 3:  # inject garbage bytes
        i = rng.randrange(len(text))
        garbage = "".join(
            rng.choice("\"'`();,@#$%\\") for _ in range(rng.randrange(1, 8))
        )
        return text[:i] + garbage + text[i:]
    if kind == 4:  # flip case of a region
        i = rng.randrange(len(text))
        j = min(len(text), i + 100)
        return text[:i] + text[i:j].swapcase() + text[j:]
    # remove all semicolons from a region
    i = rng.randrange(len(text))
    j = min(len(text), i + 500)
    return text[:i] + text[i:j].replace(";", " ") + text[j:]


class TestMutationFuzz:
    @pytest.mark.parametrize("base_index", [0, 1])
    def test_parser_never_raises(self, base_index):
        rng = random.Random(2023 + base_index)
        for _ in range(150):
            text = DUMPS[base_index]
            for _ in range(rng.randrange(1, 4)):
                text = mutate(text, rng)
            result = parse_schema(text)  # must not raise
            assert result.schema is not None
            # every surviving table is still internally consistent
            for table in result.schema:
                assert len(set(a.key for a in table.attributes)) == len(
                    table.attributes
                )

    @pytest.mark.parametrize("base_index", [0, 1])
    def test_lexer_never_raises_lenient(self, base_index):
        rng = random.Random(77 + base_index)
        for _ in range(100):
            text = mutate(DUMPS[base_index], rng)
            tokens = tokenize(text)  # lenient mode must not raise
            assert isinstance(tokens, list)


#: Every dialect-signal keyword, the statement words around them, and a
#: few names; drawn in mixed case.
_WORDS = (
    "ENGINE", "AUTO_INCREMENT", "UNSIGNED", "CHARSET", "ENUM",
    "AUTOINCREMENT", "WITHOUT", "ROWID", "IF", "NOT", "EXISTS", "sqlite_",
    "SERIAL", "BIGSERIAL", "nextval", "BYTEA", "TIMESTAMPTZ", "WITH",
    "TIME", "ZONE", "CREATE", "SEQUENCE", "OWNER", "TO", "PRAGMA",
    "TABLE", "ALTER", "DROP", "ADD", "RENAME", "PRIMARY", "KEY", "INT",
    "t", "u", "price",
)

#: Quotes, comments, brackets, dollar quotes, punctuation, whitespace
#: and the characters whose case folding escapes ``str.upper``.
_SYMBOLS = (
    "'", "''", '"', "`", "\\", "[", "]", "(", ")", ",", ";", "=", "::",
    "--", "#", "/*", "*/", "/*!", "$", "$$", "$t$", " ", " ", "\n", "\n",
    "\t", "1", ".", "ſ", "ı", "İ", "K", "é",
)

_mixed_case_word = st.builds(
    lambda word, flips: "".join(
        ch.upper() if flips >> i & 1 else ch.lower()
        for i, ch in enumerate(word)
    ),
    st.sampled_from(_WORDS),
    st.integers(0, 2 ** 15 - 1),
)

_sql_shaped_text = st.lists(
    st.one_of(st.sampled_from(_SYMBOLS), _mixed_case_word), max_size=40
).map("".join)

#: Inputs the fragment engine once got wrong, each pinned below.
_DOLLAR_AFTER_WORD = (
    "CREATE TABLE t (price$$ INT);\n"
    "CREATE FUNCTION f() RETURNS int AS $$ SELECT 1; $$ LANGUAGE sql;\n"
    "CREATE TABLE u (x INT);\n"
)
_DROP_AT_STATEMENT_END = "CREATE TABLE t (c INT);\nDROP TABLE nope;\n"
_MULTI_LINE_BRACKET = (
    "CREATE TABLE [a\nb] (id INT);\nALTER TABLE nope ADD c INT;\n"
)
_SIGNAL_ACROSS_COMMENT_PREFIX = (
    "-- IF NOT EXISTS\nCREATE TABLE sqlite_stat (a INT);\n"
)
#: Quoted regions whose escapes hide a ';' from the str.find fast paths.
_ESCAPED_QUOTES = (
    "INSERT INTO t VALUES ('a\\';b', `c``;d`, \"e\"\";f\");\n"
    "CREATE TABLE t (x INT);\n"
)


def _plain_mask(text, signals):
    return sum(bit for bit, pattern, _ in signals if pattern.search(text))


class TestHypothesisFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=400))
    def test_arbitrary_text_never_crashes(self, text):
        result = parse_schema(text)
        assert result.statements_total >= 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.text(
            alphabet="CREATE TABLE(xyz,INT);'\"`-/*\\\n ",
            max_size=300,
        )
    )
    def test_sql_shaped_noise_never_crashes(self, text):
        parse_schema(text)

    @settings(max_examples=250, deadline=None)
    @given(_sql_shaped_text)
    @example(_DOLLAR_AFTER_WORD)
    @example(_MULTI_LINE_BRACKET)
    @example(_ESCAPED_QUOTES)
    def test_segment_tokens_concatenate_to_the_whole_stream(self, text):
        segments = segment_statements(text)
        if segments is None:
            return  # unsegmentable: the engine parses the whole file
        shifted = [
            (token.type, token.value, token.raw, token.line + segment.line - 1)
            for segment in segments
            for token in tokenize(segment.text)
        ]
        whole = [
            (token.type, token.value, token.raw, token.line)
            for token in tokenize(text)
        ]
        assert shifted == whole

    @settings(max_examples=250, deadline=None)
    @given(_sql_shaped_text)
    @example(_DOLLAR_AFTER_WORD)
    @example(_DROP_AT_STATEMENT_END)
    @example(_MULTI_LINE_BRACKET)
    @example(_SIGNAL_ACROSS_COMMENT_PREFIX)
    def test_cached_parse_equals_parse_schema(self, text):
        reference = parse_schema(text)
        cached = ParseCache().parse(text)
        assert cached.schema == reference.schema
        assert cached.schema.dialect == reference.schema.dialect
        assert cached.issues == reference.issues
        assert cached.statements_total == reference.statements_total
        assert cached.statements_applied == reference.statements_applied

    @settings(max_examples=250, deadline=None)
    @given(_sql_shaped_text)
    @example("ſERIAL AUTO_ıNCREMENT WİTH TİME ZONE")
    @example("CREATE TABLE t (a INT) ENGINE\n=InnoDB;")
    def test_gated_masks_equal_a_plain_search(self, text):
        for scanned in (text, " " + text):
            assert dialect.fragment_signal_mask(scanned) == _plain_mask(
                scanned, dialect._FRAGMENT_SIGNALS
            )
            assert dialect.whole_text_signal_mask(scanned) == _plain_mask(
                scanned, dialect._WHOLE_TEXT_SIGNALS
            )
