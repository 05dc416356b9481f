"""Unit tests for dialect detection and the dialect plugin registry."""

import re

from repro.sqlparser import (
    Dialect,
    detect_dialect,
    get_dialect,
    parse_schema,
    register_dialect,
    registered_dialects,
)


class TestDetectDialect:
    def test_mysql_backticks(self):
        assert detect_dialect("CREATE TABLE `t` (`a` int);") == "mysql"

    def test_mysql_engine(self):
        assert detect_dialect(
            "CREATE TABLE t (a int) ENGINE=InnoDB AUTO_INCREMENT=3;"
        ) == "mysql"

    def test_postgres_serial(self):
        assert detect_dialect(
            "CREATE TABLE t (id SERIAL, b BYTEA);"
        ) == "postgres"

    def test_postgres_casts_and_nextval(self):
        text = "CREATE TABLE t (id int DEFAULT nextval('s'::regclass));"
        assert detect_dialect(text) == "postgres"

    def test_generic_when_no_signals(self):
        assert detect_dialect("CREATE TABLE t (a int);") == "generic"

    def test_parse_schema_records_dialect(self):
        result = parse_schema("CREATE TABLE `t` (a int) ENGINE=X;")
        assert result.schema.dialect == "mysql"

    def test_explicit_hint_wins(self):
        result = parse_schema(
            "CREATE TABLE `t` (a int);", dialect="postgres"
        )
        assert result.schema.dialect == "postgres"

    def test_mixed_signals_majority(self):
        text = (
            "CREATE TABLE t (id SERIAL);\n"
            "CREATE TABLE s (v TIMESTAMPTZ, w BYTEA);\n"
            "-- one backtick `x` in a comment still counts as a signal\n"
        )
        assert detect_dialect(text) == "postgres"


class TestSqliteDetection:
    def test_autoincrement_no_underscore(self):
        text = (
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT);\n"
            "PRAGMA foreign_keys = ON;\n"
        )
        assert detect_dialect(text) == "sqlite"

    def test_without_rowid(self):
        text = (
            "PRAGMA journal_mode=WAL;\n"
            "CREATE TABLE kv (k TEXT, v TEXT) WITHOUT ROWID;"
        )
        assert detect_dialect(text) == "sqlite"

    def test_mysql_auto_increment_not_sqlite(self):
        text = "CREATE TABLE t (id INT AUTO_INCREMENT) ENGINE=InnoDB;"
        assert detect_dialect(text) == "mysql"

    def test_ambiguous_tie_is_generic(self):
        # one mysql signal and one sqlite signal
        text = "CREATE TABLE `t` (id INTEGER);\nPRAGMA user_version=1;"
        assert detect_dialect(text) == "generic"

    def test_sqlite_file_parses(self):
        from repro.sqlparser import parse_schema

        text = (
            "PRAGMA foreign_keys=OFF;\n"
            "CREATE TABLE log (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "msg TEXT NOT NULL);\n"
        )
        result = parse_schema(text)
        assert result.schema.dialect == "sqlite"
        table = result.schema.table("log")
        assert table.attribute("id").auto_increment
        assert table.primary_key == ("id",)

    def test_if_not_exists_heuristic_is_statement_bounded(self):
        # regression: the old `.*` bridged an IF NOT EXISTS in one
        # statement with a sqlite_ reference in the *next* statement on
        # the same line, mis-voting this mixed line as sqlite
        text = (
            "CREATE TABLE IF NOT EXISTS users (id INT); "
            "INSERT INTO sqlite_sequence VALUES ('users', 1);"
        )
        assert detect_dialect(text) == "generic"

    def test_if_not_exists_system_table_still_votes(self):
        text = (
            "CREATE TABLE IF NOT EXISTS sqlite_stat1 "
            "(tbl TEXT, idx TEXT, stat TEXT);"
        )
        assert detect_dialect(text) == "sqlite"

    def test_bounded_heuristic_agrees_with_fragment_scan(self):
        # fragment-local contract: OR of per-segment masks must equal
        # the whole-text fragment mask, even around the regression text
        from repro.sqlparser.dialect import fragment_signal_mask
        from repro.sqlparser.segment import segment_statements

        text = (
            "CREATE TABLE IF NOT EXISTS users (id INT); "
            "INSERT INTO sqlite_sequence VALUES ('users', 1);\n"
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT);"
        )
        segments = segment_statements(text)
        assert segments is not None
        combined = 0
        for segment in segments:
            combined |= fragment_signal_mask(" " + segment.text)
        assert combined == fragment_signal_mask(" " + text)


class TestDialectRegistry:
    def test_builtins_registered_in_order(self):
        assert registered_dialects() == ("mysql", "sqlite", "postgres")

    def test_get_dialect_exposes_conventions(self):
        sqlite = get_dialect("sqlite")
        assert sqlite.emitter.rowid_tables
        assert sqlite.emitter.type_name("int") == "INTEGER"
        assert "AUTOINCREMENT" in sqlite.keywords
        mysql = get_dialect("mysql")
        assert mysql.emitter.quote("t") == "`t`"

    def test_register_custom_dialect_round_trip(self):
        import repro.sqlparser.dialect as dialect_mod

        saved = dict(dialect_mod._REGISTRY)
        try:
            register_dialect(Dialect(
                name="duckdb",
                fragment_signals=(re.compile(r"\bHUGEINT\b", re.I),),
            ))
            assert "duckdb" in registered_dialects()
            assert detect_dialect("CREATE TABLE t (x HUGEINT);") == "duckdb"
            # existing dialects keep detecting after the table rebuild
            assert detect_dialect("CREATE TABLE `t` (a int);") == "mysql"
        finally:
            dialect_mod._REGISTRY.clear()
            dialect_mod._REGISTRY.update(saved)
            dialect_mod._rebuild_signal_tables()
        assert "duckdb" not in registered_dialects()


class TestSignalGate:
    """The literal gate must never change a mask, whatever the pattern."""

    PATTERNS = (
        re.compile(r"FOO|BAR", re.I),               # no top-level literal
        re.compile(r"k\d+", re.I),                  # K folds to k
        re.compile(r"\bi\s*=", re.I),               # İ and ı fold to i
        re.compile(r"\bDOUBLE\s+PRECISION\b", re.I),
        re.compile(r"s(?=t)tq"),                    # lookahead splits a run
    )
    TEXTS = (
        "", "bar", "xFOOx", "\u212a7", "k7", "K7", "İ =", "ı=", "I =",
        "double  precision", "DOUBLE\tPRECISION", "doubleprecision",
        "ſtq", "stq", "STQ", "é s t q",
    )

    def test_custom_patterns_mask_as_a_plain_search(self):
        import repro.sqlparser.dialect as dialect_mod

        saved = dict(dialect_mod._REGISTRY)
        try:
            register_dialect(Dialect(
                name="gate-probe",
                fragment_signals=self.PATTERNS,
                whole_text_signals=self.PATTERNS,
            ))
            for text in self.TEXTS:
                for signals, mask in (
                    (dialect_mod._FRAGMENT_SIGNALS,
                     dialect_mod.fragment_signal_mask),
                    (dialect_mod._WHOLE_TEXT_SIGNALS,
                     dialect_mod.whole_text_signal_mask),
                ):
                    plain = sum(
                        bit for bit, pattern, _ in signals
                        if pattern.search(text)
                    )
                    assert mask(text) == plain, text
        finally:
            dialect_mod._REGISTRY.clear()
            dialect_mod._REGISTRY.update(saved)
            dialect_mod._rebuild_signal_tables()
