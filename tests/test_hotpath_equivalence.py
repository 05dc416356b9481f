"""Equivalence guards for the hot-path micro-optimisations.

The master-regex lexer and the index-reusing diff engine replace the
original implementations on the mining hot path; both originals are
kept (``tokenize_reference`` / ``diff_schemas_reference``) as oracles,
and these tests require byte-identical behaviour over adversarial
inputs and real generator output.
"""

import pytest

from repro.corpus import ProjectSpec, generate_project, profile_for
from repro.diff import diff_schemas, diff_schemas_reference
from repro.heartbeat import Month
from repro.sqlparser import (
    LexError,
    parse_schema,
    tokenize,
    tokenize_reference,
)
from repro.taxa import Taxon

ADVERSARIAL = [
    "",
    "   \n\t\r ",
    "CREATE TABLE t (a INT);",
    "-- line comment\n# mysql comment\nSELECT 1;",
    "/* block */ /*!40101 SET NAMES utf8 */;",
    "/*!50003 CREATE TABLE hinted (x INT) */;",
    "'literal''escaped' 'back\\'slash'",
    '"quoted id" `backtick` [bracketed] `esc\\`aped`',
    "$$dollar body$$ $tag$ tagged body $tag$",
    "$notatag $x foo$bar $ lone",
    "123 1.5 1.5e10 9E-3 12abc 0x not_hex",
    "a = b <> c != d || e && f ^ ~ %",
    "multi\nline\n'string\nwith\nnewlines'\nafter",
    "unterminated '",
    "unterminated `",
    "unterminated \"",
    "unterminated /* block",
    "unterminated $tag$ body",
    "[ no closing bracket",
    "[multi\nline\nbracket] after\nit",
    "'' `` \"\" 'a''b' `c``d` \"e\"\"f\" \"back\\slash\"",
    "'ends in a backslash\\",
    "é ünïcode § 表名",
    ";;;(((,,,)))",
    "#comment at eof",
    "-- comment at eof",
    "-",
    "$",
]

STRICT_FAILING = [
    "'open",
    "`open",
    '"open',
    "/* open",
    "$t$ open",
]


def _corpus_scripts():
    scripts = []
    for seed, taxon, vendor in [
        (3, Taxon.ACTIVE, "mysql"),
        (4, Taxon.MODERATE, "postgres"),
        (5, Taxon.FOCUSED_SHOT_AND_LOW, "mysql"),
    ]:
        spec = ProjectSpec(
            name=f"equiv/{seed}",
            taxon=taxon,
            seed=seed,
            vendor=vendor,
            duration_months=36,
            start=Month(2012, 1),
        )
        project = generate_project(spec, profile_for(taxon))
        scripts.extend(project.ddl_versions)
    return scripts


class TestLexerEquivalence:
    @pytest.mark.parametrize("text", ADVERSARIAL)
    def test_adversarial_token_streams_identical(self, text):
        assert tokenize(text) == tokenize_reference(text)

    def test_generated_ddl_token_streams_identical(self):
        scripts = _corpus_scripts()
        assert scripts
        for script in scripts:
            assert tokenize(script) == tokenize_reference(script)

    @pytest.mark.parametrize("text", STRICT_FAILING)
    def test_strict_mode_raises_identically(self, text):
        with pytest.raises(LexError):
            tokenize(text, strict=True)
        with pytest.raises(LexError):
            tokenize_reference(text, strict=True)

    @pytest.mark.parametrize("text", ADVERSARIAL)
    def test_line_numbers_identical(self, text):
        fast = [t.line for t in tokenize(text)]
        ref = [t.line for t in tokenize_reference(text)]
        assert fast == ref


class TestDiffEquivalence:
    def test_generated_version_pairs_identical(self):
        scripts = _corpus_scripts()
        schemas = [parse_schema(script).schema for script in scripts]
        pairs = 0
        for old, new in zip(schemas, schemas[1:]):
            fast = diff_schemas(old, new)
            reference = diff_schemas_reference(old, new)
            assert fast.changes == reference.changes
            pairs += 1
        assert pairs > 0

    def test_reversed_pairs_identical(self):
        scripts = _corpus_scripts()[:6]
        schemas = [parse_schema(script).schema for script in scripts]
        for old, new in zip(schemas, schemas[1:]):
            assert (
                diff_schemas(new, old).changes
                == diff_schemas_reference(new, old).changes
            )

    def test_pk_and_type_changes_identical(self):
        old = parse_schema(
            "CREATE TABLE t (a INT, b INT, c TEXT, PRIMARY KEY (a));"
        ).schema
        new = parse_schema(
            "CREATE TABLE t (a INT, b BIGINT, d TEXT, PRIMARY KEY (b));"
        ).schema
        assert (
            diff_schemas(old, new).changes
            == diff_schemas_reference(old, new).changes
        )
