"""Unit tests for the DDL parser."""

import pytest

from repro.schema import SchemaError
from repro.sqlparser import parse_schema, parse_table


class TestCreateTable:
    def test_minimal(self):
        table = parse_table("CREATE TABLE t (a INT);")
        assert table.name == "t"
        assert table.attribute_names == ["a"]

    def test_multiple_columns_and_types(self):
        table = parse_table(
            "CREATE TABLE t (a INT, b VARCHAR(10), c TEXT, d DECIMAL(8,2));"
        )
        assert [str(x.data_type) for x in table.attributes] == [
            "int", "varchar(10)", "text", "decimal(8, 2)",
        ]

    def test_backtick_identifiers(self):
        table = parse_table("CREATE TABLE `my table` (`a col` INT);")
        assert table.name == "my table"
        assert table.attribute_names == ["a col"]

    def test_if_not_exists(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); CREATE TABLE IF NOT EXISTS t (b INT);"
        )
        assert result.schema.table("t").attribute_names == ["a"]

    def test_redefinition_wins_without_guard(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); CREATE TABLE t (b INT);"
        )
        assert result.schema.table("t").attribute_names == ["b"]

    def test_schema_qualified_name(self):
        table = parse_table("CREATE TABLE public.users (id INT);")
        assert table.name == "users"

    def test_temporary_and_unlogged(self):
        assert parse_table("CREATE TEMPORARY TABLE t (a INT);").name == "t"
        assert parse_table("CREATE UNLOGGED TABLE t (a INT);").name == "t"


class TestColumnOptions:
    def test_not_null(self):
        table = parse_table("CREATE TABLE t (a INT NOT NULL, b INT);")
        assert not table.attribute("a").nullable
        assert table.attribute("b").nullable

    def test_default_literal(self):
        table = parse_table("CREATE TABLE t (a INT DEFAULT 5);")
        assert table.attribute("a").default == "5"

    def test_default_string(self):
        table = parse_table("CREATE TABLE t (a TEXT DEFAULT 'x');")
        assert table.attribute("a").default == "'x'"

    def test_default_function(self):
        table = parse_table(
            "CREATE TABLE t (a TIMESTAMP DEFAULT CURRENT_TIMESTAMP);"
        )
        assert table.attribute("a").default == "CURRENT_TIMESTAMP"

    def test_default_call(self):
        table = parse_table("CREATE TABLE t (a TIMESTAMP DEFAULT now());")
        assert table.attribute("a").default == "now()"

    def test_auto_increment(self):
        table = parse_table(
            "CREATE TABLE t (a INT AUTO_INCREMENT PRIMARY KEY);"
        )
        assert table.attribute("a").auto_increment
        assert table.primary_key == ("a",)

    def test_serial_implies_auto_increment(self):
        table = parse_table("CREATE TABLE t (id SERIAL);")
        assert table.attribute("id").auto_increment
        assert not table.attribute("id").nullable

    def test_inline_references(self):
        table = parse_table(
            "CREATE TABLE t (uid INT REFERENCES users(id));"
        )
        assert len(table.foreign_keys) == 1
        fk = table.foreign_keys[0]
        assert fk.ref_table == "users"
        assert fk.ref_columns == ("id",)

    def test_comment_and_collate_ignored(self):
        table = parse_table(
            "CREATE TABLE t (a VARCHAR(5) COLLATE utf8_bin "
            "COMMENT 'the a' NOT NULL);"
        )
        assert not table.attribute("a").nullable

    def test_generated_identity(self):
        table = parse_table(
            "CREATE TABLE t (id INT GENERATED ALWAYS AS IDENTITY);"
        )
        assert table.attribute("id").auto_increment

    def test_on_update_clause_ignored(self):
        table = parse_table(
            "CREATE TABLE t (ts TIMESTAMP NOT NULL "
            "DEFAULT CURRENT_TIMESTAMP ON UPDATE CURRENT_TIMESTAMP);"
        )
        assert not table.attribute("ts").nullable

    def test_check_constraint_on_column(self):
        table = parse_table("CREATE TABLE t (a INT CHECK (a > 0), b INT);")
        assert table.attribute_names == ["a", "b"]


class TestTableConstraints:
    def test_primary_key_clause(self):
        table = parse_table(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));"
        )
        assert table.primary_key == ("a", "b")

    def test_named_constraint_pk(self):
        table = parse_table(
            "CREATE TABLE t (a INT, CONSTRAINT pk_t PRIMARY KEY (a));"
        )
        assert table.primary_key == ("a",)

    def test_foreign_key_clause(self):
        table = parse_table(
            "CREATE TABLE t (uid INT, "
            "FOREIGN KEY (uid) REFERENCES users (id));"
        )
        assert table.foreign_keys[0].columns == ("uid",)

    def test_named_foreign_key(self):
        table = parse_table(
            "CREATE TABLE t (uid INT, CONSTRAINT fk_u "
            "FOREIGN KEY (uid) REFERENCES users (id));"
        )
        assert table.foreign_keys[0].name == "fk_u"

    def test_keys_and_indexes_ignored(self):
        table = parse_table(
            "CREATE TABLE t (a INT, b INT, KEY idx_a (a), "
            "UNIQUE KEY uq_b (b), FULLTEXT KEY ft (b));"
        )
        assert table.attribute_names == ["a", "b"]

    def test_key_with_prefix_length(self):
        table = parse_table(
            "CREATE TABLE t (a VARCHAR(300), KEY idx_a (a(100)));"
        )
        assert table.attribute_names == ["a"]


class TestTableOptions:
    def test_engine_and_charset(self):
        table = parse_table(
            "CREATE TABLE t (a INT) ENGINE=InnoDB DEFAULT CHARSET=utf8;"
        )
        assert table.options["ENGINE"] == "InnoDB"
        assert table.options["CHARSET"] == "utf8"

    def test_auto_increment_start(self):
        table = parse_table("CREATE TABLE t (a INT) AUTO_INCREMENT=100;")
        assert table.options["AUTO_INCREMENT"] == "100"


class TestAlterTable:
    def test_add_column(self):
        result = parse_schema(
            "CREATE TABLE t (a INT);"
            "ALTER TABLE t ADD COLUMN b VARCHAR(5) NOT NULL;"
        )
        table = result.schema.table("t")
        assert table.attribute_names == ["a", "b"]
        assert not table.attribute("b").nullable

    def test_add_column_without_keyword(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD b INT;"
        )
        assert result.schema.table("t").attribute_names == ["a", "b"]

    def test_add_multiple_parenthesized(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD (b INT, c TEXT);"
        )
        assert result.schema.table("t").attribute_names == ["a", "b", "c"]

    def test_drop_column(self):
        result = parse_schema(
            "CREATE TABLE t (a INT, b INT); ALTER TABLE t DROP COLUMN b;"
        )
        assert result.schema.table("t").attribute_names == ["a"]

    def test_drop_unknown_column_is_issue(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t DROP COLUMN ghost;"
        )
        assert result.issues

    def test_modify_column_type(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t MODIFY COLUMN a BIGINT;"
        )
        attr = result.schema.table("t").attribute("a")
        assert attr.data_type.family == "bigint"

    def test_change_column_renames(self):
        result = parse_schema(
            "CREATE TABLE t (a INT, PRIMARY KEY (a));"
            "ALTER TABLE t CHANGE a aa BIGINT NOT NULL;"
        )
        table = result.schema.table("t")
        assert table.attribute_names == ["aa"]
        assert table.primary_key == ("aa",)
        assert table.attribute("aa").data_type.family == "bigint"

    def test_alter_column_type_postgres(self):
        result = parse_schema(
            "CREATE TABLE t (a VARCHAR(10));"
            "ALTER TABLE t ALTER COLUMN a TYPE VARCHAR(100);"
        )
        attr = result.schema.table("t").attribute("a")
        assert attr.data_type.params == (100,)

    def test_alter_column_set_not_null(self):
        result = parse_schema(
            "CREATE TABLE t (a INT);"
            "ALTER TABLE t ALTER COLUMN a SET NOT NULL;"
        )
        assert not result.schema.table("t").attribute("a").nullable

    def test_alter_column_set_default(self):
        result = parse_schema(
            "CREATE TABLE t (a INT);"
            "ALTER TABLE t ALTER COLUMN a SET DEFAULT 7;"
        )
        assert result.schema.table("t").attribute("a").default == "7"

    def test_alter_column_drop_default(self):
        result = parse_schema(
            "CREATE TABLE t (a INT DEFAULT 7);"
            "ALTER TABLE t ALTER COLUMN a DROP DEFAULT;"
        )
        assert result.schema.table("t").attribute("a").default is None

    def test_add_primary_key(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD PRIMARY KEY (a);"
        )
        assert result.schema.table("t").primary_key == ("a",)

    def test_drop_primary_key(self):
        result = parse_schema(
            "CREATE TABLE t (a INT, PRIMARY KEY (a));"
            "ALTER TABLE t DROP PRIMARY KEY;"
        )
        assert result.schema.table("t").primary_key == ()

    def test_add_foreign_key(self):
        result = parse_schema(
            "CREATE TABLE u (id INT); CREATE TABLE t (uid INT);"
            "ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (uid) "
            "REFERENCES u (id);"
        )
        assert result.schema.table("t").foreign_keys[0].ref_table == "u"

    def test_rename_table_via_alter(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t RENAME TO t2;"
        )
        assert "t2" in result.schema
        assert "t" not in result.schema

    def test_rename_column(self):
        result = parse_schema(
            "CREATE TABLE t (a INT, PRIMARY KEY (a));"
            "ALTER TABLE t RENAME COLUMN a TO b;"
        )
        table = result.schema.table("t")
        assert table.attribute_names == ["b"]
        assert table.primary_key == ("b",)

    def test_alter_unknown_table_is_issue(self):
        result = parse_schema("ALTER TABLE ghost ADD COLUMN a INT;")
        assert result.issues

    def test_multi_clause_alter(self):
        result = parse_schema(
            "CREATE TABLE t (a INT);"
            "ALTER TABLE t ADD COLUMN b INT, DROP COLUMN a;"
        )
        assert result.schema.table("t").attribute_names == ["b"]


class TestDropAndRename:
    def test_drop_table(self):
        result = parse_schema("CREATE TABLE t (a INT); DROP TABLE t;")
        assert len(result.schema) == 0

    def test_drop_if_exists_missing_ok(self):
        result = parse_schema("DROP TABLE IF EXISTS ghost;")
        assert not result.issues

    def test_drop_missing_is_issue(self):
        result = parse_schema("DROP TABLE ghost;")
        assert result.issues

    def test_drop_missing_reports_the_name_line(self):
        result = parse_schema(
            "CREATE TABLE t (c INT);\nDROP TABLE ghost,\nt, phantom;"
        )
        assert [issue.line for issue in result.issues] == [2, 3]

    def test_drop_multiple(self):
        result = parse_schema(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT);"
            "DROP TABLE a, b;"
        )
        assert len(result.schema) == 0

    def test_rename_table_statement(self):
        result = parse_schema(
            "CREATE TABLE t (a INT); RENAME TABLE t TO t2;"
        )
        assert "t2" in result.schema


class TestRobustness:
    def test_noise_statements_skipped(self):
        result = parse_schema(
            "SET NAMES utf8;\n"
            "USE mydb;\n"
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1), (2);\n"
            "CREATE INDEX idx ON t (a);\n"
            "COMMENT ON TABLE t IS 'hi';\n"
        )
        assert not result.issues
        assert len(result.schema) == 1
        # CREATE TABLE and CREATE INDEX both apply; the noise does not
        assert result.statements_applied == 2
        assert result.statements_total == 6
        assert result.schema.table("t").indexes[0].name == "idx"

    def test_mysqldump_header(self):
        text = (
            "/*!40101 SET @saved = @@character_set_client */;\n"
            "DROP TABLE IF EXISTS `t`;\n"
            "CREATE TABLE `t` (\n"
            "  `id` int(11) NOT NULL,\n"
            "  PRIMARY KEY (`id`)\n"
            ") ENGINE=MyISAM;\n"
        )
        result = parse_schema(text)
        assert result.schema.table("t").primary_key == ("id",)

    def test_postgres_dump_fragment(self):
        text = """
        SET statement_timeout = 0;
        CREATE TABLE notes (
            id integer NOT NULL,
            body character varying(1024) DEFAULT 'x'::character varying,
            created timestamp without time zone DEFAULT now()
        );
        ALTER TABLE ONLY notes ADD CONSTRAINT notes_pkey PRIMARY KEY (id);
        """
        result = parse_schema(text)
        table = result.schema.table("notes")
        assert table.primary_key == ("id",)
        assert table.attribute("body").data_type.family == "varchar"

    def test_malformed_create_is_issue_not_crash(self):
        result = parse_schema("CREATE TABLE (no name);")
        assert result.issues
        assert len(result.schema) == 0

    def test_parse_table_requires_single(self):
        with pytest.raises(SchemaError):
            parse_table("CREATE TABLE a (x INT); CREATE TABLE b (y INT);")

    def test_empty_script(self):
        result = parse_schema("")
        assert len(result.schema) == 0
        assert result.statements_total == 0

    def test_render_parse_roundtrip(self):
        original = parse_schema(
            "CREATE TABLE u (id INT NOT NULL, name VARCHAR(40) "
            "DEFAULT 'x', PRIMARY KEY (id));"
            "CREATE TABLE p (pid SERIAL, uid INT REFERENCES u(id));"
        ).schema
        reparsed = parse_schema(original.render_sql()).schema
        assert reparsed.table_names == original.table_names
        for table in original:
            other = reparsed.table(table.name)
            assert other.attribute_names == table.attribute_names
            assert other.primary_key == table.primary_key
            for attr in table.attributes:
                assert other.attribute(attr.name).data_type == attr.data_type
