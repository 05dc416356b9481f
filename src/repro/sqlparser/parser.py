"""Parser for SQL DDL scripts into :class:`~repro.schema.Schema` objects.

The parser is built for *mining*: schema files in FOSS repositories contain
vendor-specific noise (SET statements, INSERTs seeding lookup tables,
stored routines, comments), so the statement loop is tolerant — statements
that are not understood are recorded as :class:`ParseIssue` diagnostics and
skipped, never fatal.  CREATE TABLE / ALTER TABLE / DROP TABLE / RENAME
TABLE are interpreted and applied in order, so a script that builds a
schema incrementally (common in migration-style dumps) still yields the
correct final schema.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..schema import (
    Attribute,
    DataType,
    ForeignKey,
    Index,
    Schema,
    SchemaError,
    Table,
    normalize_type,
)
from .lexer import Token, TokenType, tokenize

#: Multi-word type spellings, longest first.  Each entry is the tuple of
#: uppercased words following the first type word.
_TYPE_CONTINUATIONS = {
    "DOUBLE": [("PRECISION",)],
    "CHARACTER": [("VARYING",)],
    "BIT": [("VARYING",)],
    "TIMESTAMP": [("WITH", "TIME", "ZONE"), ("WITHOUT", "TIME", "ZONE")],
    "TIME": [("WITH", "TIME", "ZONE"), ("WITHOUT", "TIME", "ZONE")],
}

#: Words that terminate a column definition's type/constraint scan.
_COLUMN_CONSTRAINT_WORDS = {
    "NOT", "NULL", "DEFAULT", "AUTO_INCREMENT", "AUTOINCREMENT", "PRIMARY",
    "UNIQUE", "KEY", "REFERENCES", "CHECK", "COMMENT", "COLLATE",
    "CHARACTER", "CHARSET", "ON", "GENERATED", "AS", "CONSTRAINT",
    "UNSIGNED", "ZEROFILL", "SIGNED", "STORED", "VIRTUAL", "IDENTITY",
    "SERIAL",
}


@dataclass(frozen=True)
class ParseIssue:
    """A non-fatal problem encountered while parsing a script."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class ParseResult:
    """The outcome of parsing a DDL script."""

    schema: Schema
    issues: list[ParseIssue] = field(default_factory=list)
    statements_total: int = 0
    statements_applied: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


class _TokenStream:
    """Cursor over a token list with convenience accessors."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def __bool__(self) -> bool:
        return self._pos < len(self._tokens)

    @property
    def line(self) -> int:
        token = self.peek()
        return token.line if token else 0

    def peek(self, offset: int = 0) -> Token | None:
        idx = self._pos + offset
        return self._tokens[idx] if idx < len(self._tokens) else None

    def next(self) -> Token | None:
        token = self.peek()
        if token is not None:
            self._pos += 1
        return token

    def accept_word(self, *words: str) -> bool:
        token = self.peek()
        if token is not None and token.is_word(*words):
            self._pos += 1
            return True
        return False

    def accept_words(self, *sequence: str) -> bool:
        """Consume a whole word sequence or nothing."""
        for offset, word in enumerate(sequence):
            token = self.peek(offset)
            if token is None or not token.is_word(word):
                return False
        self._pos += len(sequence)
        return True

    def expect_name(self) -> Token:
        token = self.next()
        if token is None or not token.is_name():
            raise _StatementError(
                f"expected identifier, got {token.raw if token else 'EOF'!r}"
            )
        return token

    def expect_type(self, token_type: TokenType) -> Token:
        token = self.next()
        if token is None or token.type is not token_type:
            raise _StatementError(
                f"expected {token_type.name}, got "
                f"{token.raw if token else 'EOF'!r}"
            )
        return token

    def rest(self) -> list[Token]:
        """Consume and return every token left."""
        rest = self._tokens[self._pos:]
        self._pos = len(self._tokens)
        return rest

    def skip_parenthesized(self) -> list[Token]:
        """Consume a balanced ``( ... )`` group, returning its inner tokens."""
        self.expect_type(TokenType.LPAREN)
        tokens = self._tokens
        start = self._pos
        depth = 1
        for i in range(start, len(tokens)):
            kind = tokens[i].type
            if kind is TokenType.LPAREN:
                depth += 1
            elif kind is TokenType.RPAREN:
                depth -= 1
                if depth == 0:
                    self._pos = i + 1
                    return tokens[start:i]
        self._pos = len(tokens)
        raise _StatementError("unbalanced parentheses")


class _StatementError(Exception):
    """Internal: statement could not be interpreted."""


def split_statements(tokens: list[Token]) -> list[list[Token]]:
    """Split a token list on top-level semicolons; empty groups dropped."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        if token.type is TokenType.SEMICOLON:
            if current:
                statements.append(current)
                current = []
        else:
            current.append(token)
    if current:
        statements.append(current)
    return statements


_COPY_BLOCK_RE = re.compile(
    r"^COPY\s[^\n]*FROM\s+stdin;\n.*?\n\\\.$",
    re.MULTILINE | re.DOTALL | re.IGNORECASE,
)


def strip_copy_blocks(text: str) -> str:
    """Remove pg_dump ``COPY ... FROM stdin; <data> \\.`` blocks.

    COPY payloads are raw tab-separated data, not SQL: a stray quote in
    a data row would otherwise swallow the rest of the file during
    lenient lexing.
    """
    return _COPY_BLOCK_RE.sub("", text)


def parse_schema(text: str, *, dialect: str | None = None) -> ParseResult:
    """Parse a DDL script into a schema, applying statements in order.

    Args:
        text: the SQL script.
        dialect: optional dialect hint (``"mysql"`` / ``"postgres"``);
            when omitted the dialect is detected from surface features.

    Returns:
        a :class:`ParseResult` with the final schema and diagnostics.
    """
    from .dialect import detect_dialect

    if "stdin" in text:
        text = strip_copy_blocks(text)
    if dialect is None:
        dialect = detect_dialect(text)
    schema = Schema(dialect=dialect)
    result = ParseResult(schema=schema)

    for statement in split_statements(tokenize(text)):
        apply_statement(statement, schema, result)
    return result


def apply_statement(
    statement: list[Token], schema: Schema, result: ParseResult
) -> None:
    """Apply one statement token group to ``schema`` in place.

    This is the statement-loop body of :func:`parse_schema`, exposed so
    the incremental engine (:mod:`repro.perf.fragments`) can replay
    cached token groups against a live schema without re-lexing.
    Counters and diagnostics are recorded on ``result`` exactly as the
    whole-script path does.
    """
    result.statements_total += 1
    stream = _TokenStream(statement)
    head = stream.peek()
    if head is None:
        return
    try:
        if head.is_word("CREATE"):
            applied = _parse_create(stream, schema)
        elif head.is_word("ALTER"):
            applied = _parse_alter(stream, schema, result)
        elif head.is_word("DROP"):
            applied = _parse_drop(stream, schema, result)
        elif head.is_word("RENAME"):
            applied = _parse_rename(stream, schema)
        else:
            applied = False  # SET, INSERT, USE, COMMENT ON, ...
        if applied:
            result.statements_applied += 1
    except (_StatementError, SchemaError) as exc:
        result.issues.append(ParseIssue(head.line, str(exc)))


def parse_table(text: str) -> Table:
    """Parse a single CREATE TABLE statement into a :class:`Table`."""
    result = parse_schema(text)
    if len(result.schema) != 1:
        raise SchemaError(
            f"expected exactly one table, found {len(result.schema)}"
        )
    return result.schema.tables[0]


# ---------------------------------------------------------------- CREATE


def _parse_create(stream: _TokenStream, schema: Schema) -> bool:
    stream.next()  # CREATE
    stream.accept_word("TEMPORARY", "GLOBAL", "LOCAL", "UNLOGGED")
    stream.accept_words("OR", "REPLACE")
    unique_index = False
    if stream.accept_word("UNIQUE"):
        unique_index = True
    if stream.accept_word("INDEX"):
        return _parse_create_index(stream, schema, unique=unique_index)
    if unique_index or not stream.accept_word("TABLE"):
        return False  # CREATE VIEW / FUNCTION / SEQUENCE ... : ignored
    if_not_exists = stream.accept_words("IF", "NOT", "EXISTS")
    name = _parse_qualified_name(stream)
    table = Table(name=name)

    _parse_table_body(stream.skip_parenthesized(), table)
    _parse_table_options(stream, table)

    if table.key in {t.key for t in schema.tables}:
        if if_not_exists:
            return False
        schema.drop_table(table.name)  # re-definition wins
    schema.add_table(table)
    return True


def _parse_create_index(
    stream: _TokenStream, schema: Schema, *, unique: bool
) -> bool:
    """CREATE [UNIQUE] INDEX [name] ON table [USING m] (cols)."""
    stream.accept_words("CONCURRENTLY")
    stream.accept_words("IF", "NOT", "EXISTS")
    name = None
    token = stream.peek()
    if token is not None and token.is_name() and not token.is_word("ON"):
        name = stream.next().value
    if not stream.accept_word("ON"):
        return False
    table_name = _parse_qualified_name(stream)
    table = schema.get(table_name)
    if table is None:
        raise _StatementError(
            f"CREATE INDEX on unknown table {table_name!r}"
        )
    kind = ""
    if stream.accept_word("USING"):
        method = stream.next()
        kind = method.upper if method is not None else ""
    token = stream.peek()
    if token is None or token.type is not TokenType.LPAREN:
        return False
    columns = _parse_column_list(stream)
    if not columns:
        return False
    table.indexes.append(
        Index(columns=columns, name=name, unique=unique, kind=kind)
    )
    return True


def _parse_qualified_name(stream: _TokenStream) -> str:
    """Parse ``name`` or ``schema.name``; returns the last component."""
    token = stream.expect_name()
    name = token.value
    while True:
        dot = stream.peek()
        if dot is not None and dot.type is TokenType.OP and dot.value == ".":
            stream.next()
            name = stream.expect_name().value
        else:
            return name


def _split_body_elements(tokens: list[Token]) -> list[list[Token]]:
    """Split a CREATE TABLE body (or ALTER clauses) on depth-0 commas.

    Empty elements are dropped.
    """
    elements: list[list[Token]] = []
    start = 0
    depth = 0
    for i, token in enumerate(tokens):
        kind = token.type
        if kind is TokenType.LPAREN:
            depth += 1
        elif kind is TokenType.RPAREN:
            depth -= 1
        elif kind is TokenType.COMMA and depth == 0:
            if i > start:
                elements.append(tokens[start:i])
            start = i + 1
    if start < len(tokens):
        elements.append(tokens[start:])
    return elements


#: Body-element memo installed by the incremental engine
#: (:mod:`repro.perf.fragments`); ``None`` means parse elements directly.
_ACTIVE_ELEMENT_CACHE = None


def set_element_cache(cache):
    """Install a body-element cache; returns the previous one.

    The cache must expose ``effect_for(element) -> BodyEffect``.  The
    incremental engine scopes installation around its own parses so
    the reference oracles always run the direct, uncached path.
    """
    global _ACTIVE_ELEMENT_CACHE
    previous = _ACTIVE_ELEMENT_CACHE
    _ACTIVE_ELEMENT_CACHE = cache
    return previous


def _parse_table_body(body: list[Token], table: Table) -> None:
    cache = _ACTIVE_ELEMENT_CACHE
    for element in _split_body_elements(body):
        if cache is None:
            _apply_body_element(element, table)
        else:
            apply_body_effect(cache.effect_for(element), table)


def _apply_body_element(element: list[Token], table: Table) -> None:
    """Parse one CREATE TABLE body element and apply it to ``table``."""
    item = _TokenStream(element)
    head = item.peek()
    if head is None:
        return
    if head.is_word("PRIMARY"):
        item.next()
        if item.accept_word("KEY"):
            table.primary_key = _parse_column_list(item)
        return
    if head.is_word("UNIQUE"):
        item.next()
        item.accept_word("KEY", "INDEX")
        _parse_index_def(item, table, unique=True)
        return
    if head.is_word("KEY", "INDEX"):
        item.next()
        _parse_index_def(item, table)
        return
    if head.is_word("FULLTEXT", "SPATIAL"):
        kind = item.next().upper
        item.accept_word("KEY", "INDEX")
        _parse_index_def(item, table, kind=kind)
        return
    if head.is_word("CHECK"):
        return
    if head.is_word("CONSTRAINT"):
        item.next()
        token = item.peek()
        if token is not None and token.is_name() and not token.is_word(
            "PRIMARY", "UNIQUE", "FOREIGN", "CHECK"
        ):
            constraint_name = item.next().value
        else:
            constraint_name = None
        _parse_table_constraint(item, table, constraint_name)
        return
    if head.is_word("FOREIGN"):
        _parse_table_constraint(item, table, None)
        return
    if head.is_word("LIKE"):
        return
    _parse_column_def(item, table)


class _UnsetPK(tuple):
    """Falsy empty-tuple stand-in distinguishable by identity.

    ``capture_body_element`` needs to know whether an element *assigned*
    the scratch table's primary key — including an assignment of the
    empty tuple, which CPython interns, so a plain ``()`` initial value
    could not be told apart from an assigned ``()``.
    """


@dataclass(frozen=True)
class BodyEffect:
    """The captured, replayable effect of one CREATE TABLE body element.

    Element parsing is context-free (it never reads the surrounding
    table), so an element's effect can be captured once against a
    scratch table and replayed onto any table.  ``primary_key`` is
    ``None`` when the element never assigned one; ``pk_conditional``
    marks column-level ``PRIMARY KEY`` (applied only when the table has
    none yet) as opposed to table-level constraints (always applied).
    A captured parse error is re-raised on every replay.
    """

    attributes: tuple[Attribute, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    indexes: tuple[Index, ...] = ()
    primary_key: tuple[str, ...] | None = None
    pk_conditional: bool = True
    error: str | None = None
    error_kind: str = ""


def capture_body_element(element: list[Token]) -> BodyEffect:
    """Parse one body element against a scratch table, capturing its effect."""
    scratch = Table(name="__element__")
    unset_pk = _UnsetPK()
    scratch.primary_key = unset_pk
    error: str | None = None
    error_kind = ""
    try:
        _apply_body_element(element, scratch)
    except _StatementError as exc:
        error, error_kind = str(exc), "statement"
    except SchemaError as exc:
        error, error_kind = str(exc), "schema"
    head = element[0] if element else None
    pk_conditional = not (
        head is not None and head.is_word("PRIMARY", "CONSTRAINT", "FOREIGN")
    )
    return BodyEffect(
        attributes=tuple(scratch.attributes),
        foreign_keys=tuple(scratch.foreign_keys),
        indexes=tuple(scratch.indexes),
        primary_key=(
            None if scratch.primary_key is unset_pk
            else tuple(scratch.primary_key)
        ),
        pk_conditional=pk_conditional,
        error=error,
        error_kind=error_kind,
    )


def apply_body_effect(effect: BodyEffect, table: Table) -> None:
    """Replay a captured element effect onto ``table``.

    Replay order mirrors the direct path: constraints recorded during
    the element's scan land before the attribute append (whose
    duplicate check may raise), and a captured parse error re-raises
    after the element's partial effects — exactly where the direct
    parse would have stopped.
    """
    table.foreign_keys.extend(effect.foreign_keys)
    table.indexes.extend(effect.indexes)
    for attr in effect.attributes:
        table.add_attribute(attr)
    if effect.primary_key is not None:
        if not effect.pk_conditional or not table.primary_key:
            table.primary_key = effect.primary_key
    if effect.error is not None:
        if effect.error_kind == "statement":
            raise _StatementError(effect.error)
        raise SchemaError(effect.error)


def _parse_table_constraint(
    item: _TokenStream, table: Table, constraint_name: str | None
) -> None:
    if item.accept_word("PRIMARY"):
        if item.accept_word("KEY"):
            table.primary_key = _parse_column_list(item)
        return
    if item.accept_word("FOREIGN"):
        if not item.accept_word("KEY"):
            return
        columns = _parse_column_list(item)
        if not item.accept_word("REFERENCES"):
            return
        ref_table = _parse_qualified_name(item)
        ref_columns: tuple[str, ...] = ()
        token = item.peek()
        if token is not None and token.type is TokenType.LPAREN:
            ref_columns = _parse_column_list(item)
        table.foreign_keys.append(
            ForeignKey(
                columns=columns,
                ref_table=ref_table,
                ref_columns=ref_columns,
                name=constraint_name,
            )
        )
        return
    if item.accept_word("UNIQUE"):
        item.accept_word("KEY", "INDEX")
        _parse_index_def(item, table, unique=True, name=constraint_name)
        return
    # CHECK table constraints are not tracked.


def _parse_column_list(stream: _TokenStream) -> tuple[str, ...]:
    inner = stream.skip_parenthesized()
    names: list[str] = []
    for token in inner:
        if token.is_name():
            names.append(token.value)
        elif token.type is TokenType.LPAREN:
            break  # prefix length like KEY (col(10)) — already captured
    return tuple(names)


def _parse_index_def(
    item: _TokenStream,
    table: Table,
    *,
    unique: bool = False,
    kind: str = "",
    name: str | None = None,
) -> None:
    """Parse ``[name] (col [, col ...])`` into an :class:`Index`."""
    token = item.peek()
    if name is None and token is not None and token.is_name():
        name = item.next().value
    token = item.peek()
    if token is None or token.type is not TokenType.LPAREN:
        return  # e.g. ALTER TABLE ... DROP KEY name — nothing to add
    columns = _parse_column_list(item)
    if columns:
        table.indexes.append(
            Index(columns=columns, name=name, unique=unique, kind=kind)
        )


def _parse_column_def(item: _TokenStream, table: Table) -> None:
    name_token = item.expect_name()
    data_type = _parse_data_type(item)
    attr = Attribute(name=name_token.value, data_type=data_type)
    if data_type.family in ("serial", "bigserial", "smallserial"):
        attr = Attribute(
            name=attr.name,
            data_type=data_type,
            nullable=False,
            auto_increment=True,
        )

    nullable = attr.nullable
    default = attr.default
    auto_increment = attr.auto_increment
    pk_here = False

    while item:
        token = item.peek()
        assert token is not None
        if token.is_word("NOT"):
            item.next()
            if item.accept_word("NULL"):
                nullable = False
            continue
        if token.is_word("NULL"):
            item.next()
            nullable = True
            continue
        if token.is_word("DEFAULT"):
            item.next()
            default = _parse_default_expr(item)
            continue
        if token.is_word("AUTO_INCREMENT", "AUTOINCREMENT"):
            item.next()
            auto_increment = True
            continue
        if token.is_word("PRIMARY"):
            item.next()
            item.accept_word("KEY")
            pk_here = True
            continue
        if token.is_word("GENERATED"):
            # GENERATED ALWAYS AS IDENTITY / AS (expr)
            item.next()
            item.accept_word("ALWAYS", "BY")
            item.accept_word("DEFAULT")
            item.accept_word("AS")
            if item.accept_word("IDENTITY"):
                auto_increment = True
                token = item.peek()
                if token is not None and token.type is TokenType.LPAREN:
                    item.skip_parenthesized()
            else:
                token = item.peek()
                if token is not None and token.type is TokenType.LPAREN:
                    item.skip_parenthesized()
            continue
        if token.is_word("REFERENCES"):
            item.next()
            ref_table = _parse_qualified_name(item)
            ref_columns: tuple[str, ...] = ()
            peeked = item.peek()
            if peeked is not None and peeked.type is TokenType.LPAREN:
                ref_columns = _parse_column_list(item)
            table.foreign_keys.append(
                ForeignKey(
                    columns=(name_token.value,),
                    ref_table=ref_table,
                    ref_columns=ref_columns,
                )
            )
            continue
        if token.is_word("CHECK"):
            item.next()
            peeked = item.peek()
            if peeked is not None and peeked.type is TokenType.LPAREN:
                item.skip_parenthesized()
            continue
        if token.type is TokenType.LPAREN:
            item.skip_parenthesized()
            continue
        item.next()  # COMMENT 'x', COLLATE ..., ON UPDATE ..., UNIQUE, ...

    table.add_attribute(
        Attribute(
            name=name_token.value,
            data_type=data_type,
            nullable=nullable,
            default=default,
            auto_increment=auto_increment,
        )
    )
    if pk_here and not table.primary_key:
        table.primary_key = (name_token.value,)


def _parse_data_type(item: _TokenStream) -> DataType:
    """Reassemble the raw type spelling from tokens and normalise it."""
    first = item.next()
    if first is None or not first.is_name():
        raise _StatementError(
            f"expected data type, got {first.raw if first else 'EOF'!r}"
        )
    words = [first.value]
    for continuation in _TYPE_CONTINUATIONS.get(first.upper, ()):
        if item.accept_words(*continuation):
            words.extend(w.lower() for w in continuation)
            break

    raw = " ".join(words)
    token = item.peek()
    if token is not None and token.type is TokenType.LPAREN:
        inner = item.skip_parenthesized()
        raw += "(" + ", ".join(_render_param(t) for t in inner) + ")"

    while True:
        token = item.peek()
        if token is not None and token.is_word("UNSIGNED", "ZEROFILL", "SIGNED"):
            raw += " " + token.value.lower()
            item.next()
            continue
        break

    # Postgres array suffix: [ ] or [n].  The lexer reads "[...]" as a
    # bracket-quoted identifier (SQL Server style), so an array suffix
    # arrives as a QUOTED token whose payload is empty or a number.
    while True:
        token = item.peek()
        if (
            token is not None
            and token.type is TokenType.QUOTED
            and token.raw.startswith("[")
            and (token.value == "" or token.value.strip().isdigit())
        ):
            item.next()
            raw += "[]"
            continue
        if (
            token is not None
            and token.type is TokenType.OP
            and token.value == "["
        ):
            item.next()
            token = item.peek()
            if token is not None and token.type is TokenType.NUMBER:
                item.next()
            token = item.peek()
            if (
                token is not None
                and token.type is TokenType.OP
                and token.value == "]"
            ):
                item.next()
            raw += "[]"
            continue
        break
    return normalize_type(raw)


def _render_param(token: Token) -> str:
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type is TokenType.COMMA:
        return ","
    return token.value


def _parse_default_expr(item: _TokenStream) -> str:
    """Capture a default expression as text (best effort)."""
    token = item.peek()
    if token is None:
        return ""
    if token.type is TokenType.LPAREN:
        inner = item.skip_parenthesized()
        return "(" + " ".join(t.raw for t in inner) + ")"
    item.next()
    text = token.raw
    # function-style default: NOW(), nextval('...')
    peeked = item.peek()
    if peeked is not None and peeked.type is TokenType.LPAREN:
        inner = item.skip_parenthesized()
        text += "(" + " ".join(t.raw for t in inner) + ")"
    # Postgres cast: DEFAULT 'x'::character varying
    while True:
        peeked = item.peek()
        if (
            peeked is not None
            and peeked.type is TokenType.OP
            and peeked.value == ":"
        ):
            item.next()
            continue
        if peeked is not None and peeked.type is TokenType.WORD and text.endswith(":"):
            item.next()
            text += peeked.value
            continue
        break
    return text


def _parse_table_options(stream: _TokenStream, table: Table) -> None:
    """Parse trailing ``ENGINE=InnoDB DEFAULT CHARSET=utf8`` style options."""
    while stream:
        token = stream.next()
        assert token is not None
        if not token.is_name():
            continue
        key = token.upper
        eq = stream.peek()
        if eq is not None and eq.type is TokenType.OP and eq.value == "=":
            stream.next()
            value = stream.next()
            table.options[key] = value.value if value is not None else ""


# ----------------------------------------------------------------- ALTER


def _parse_alter(
    stream: _TokenStream, schema: Schema, result: ParseResult
) -> bool:
    stream.next()  # ALTER
    if not stream.accept_word("TABLE"):
        return False
    stream.accept_words("IF", "EXISTS")
    stream.accept_word("ONLY")
    name = _parse_qualified_name(stream)
    table = schema.get(name)
    if table is None:
        raise _StatementError(f"ALTER TABLE on unknown table {name!r}")

    applied = False
    for clause in _split_body_elements(stream.rest()):
        if _apply_alter_clause(_TokenStream(clause), table, schema):
            applied = True
    return applied


def _apply_alter_clause(
    item: _TokenStream, table: Table, schema: Schema
) -> bool:
    if item.accept_word("ADD"):
        if item.accept_word("PRIMARY"):
            item.accept_word("KEY")
            table.primary_key = _parse_column_list(item)
            return True
        if item.accept_word("CONSTRAINT"):
            token = item.peek()
            constraint_name = None
            if token is not None and token.is_name() and not token.is_word(
                "PRIMARY", "UNIQUE", "FOREIGN", "CHECK"
            ):
                constraint_name = item.next().value
            _parse_table_constraint(item, table, constraint_name)
            return True
        if item.accept_word("FOREIGN"):
            if item.accept_word("KEY"):
                columns = _parse_column_list(item)
                if item.accept_word("REFERENCES"):
                    ref = _parse_qualified_name(item)
                    ref_columns: tuple[str, ...] = ()
                    token = item.peek()
                    if token is not None and token.type is TokenType.LPAREN:
                        ref_columns = _parse_column_list(item)
                    table.foreign_keys.append(
                        ForeignKey(columns, ref, ref_columns)
                    )
            return True
        if item.accept_word("UNIQUE"):
            item.accept_word("KEY", "INDEX")
            _parse_index_def(item, table, unique=True)
            return True
        if item.accept_word("INDEX", "KEY"):
            _parse_index_def(item, table)
            return True
        if item.accept_word("FULLTEXT", "SPATIAL"):
            item.accept_word("KEY", "INDEX")
            _parse_index_def(item, table, kind="FULLTEXT")
            return True
        if item.accept_word("CHECK"):
            return False
        item.accept_word("COLUMN")
        item.accept_words("IF", "NOT", "EXISTS")
        token = item.peek()
        if token is not None and token.type is TokenType.LPAREN:
            # MySQL: ADD (col1 type, col2 type)
            _parse_table_body(item.skip_parenthesized(), table)
            return True
        _parse_column_def(item, table)
        return True

    if item.accept_word("DROP"):
        if item.accept_word("PRIMARY"):
            item.accept_word("KEY")
            table.primary_key = ()
            return True
        if item.accept_word("INDEX", "KEY"):
            token = item.peek()
            if token is not None and token.is_name():
                victim = token.value.lower()
                before = len(table.indexes)
                table.indexes = [
                    ix for ix in table.indexes
                    if (ix.name or "").lower() != victim
                ]
                return len(table.indexes) != before
            return False
        if item.accept_word("CONSTRAINT", "FOREIGN", "CHECK"):
            return False
        item.accept_word("COLUMN")
        item.accept_words("IF", "EXISTS")
        column = item.expect_name().value
        if column in table:
            table.drop_attribute(column)
            return True
        raise _StatementError(
            f"DROP COLUMN on unknown column {column!r} of {table.name!r}"
        )

    if item.accept_word("MODIFY"):
        item.accept_word("COLUMN")
        column = item.expect_name().value
        old = table.get(column)
        if old is None:
            raise _StatementError(
                f"MODIFY on unknown column {column!r} of {table.name!r}"
            )
        scratch = Table(name="__scratch__")
        item2 = item
        _parse_column_def_into(item2, scratch, column)
        new_attr = scratch.attributes[0]
        table.replace_attribute(column, new_attr)
        return True

    if item.accept_word("CHANGE"):
        item.accept_word("COLUMN")
        old_name = item.expect_name().value
        old = table.get(old_name)
        if old is None:
            raise _StatementError(
                f"CHANGE on unknown column {old_name!r} of {table.name!r}"
            )
        scratch = Table(name="__scratch__")
        _parse_column_def(item, scratch)
        new_attr = scratch.attributes[0]
        table.replace_attribute(old_name, new_attr)
        if old.key in {c.lower() for c in table.primary_key}:
            table.primary_key = tuple(
                new_attr.name if c.lower() == old.key else c
                for c in table.primary_key
            )
        return True

    if item.accept_word("ALTER"):
        item.accept_word("COLUMN")
        column = item.expect_name().value
        old = table.get(column)
        if old is None:
            raise _StatementError(
                f"ALTER COLUMN on unknown column {column!r} of {table.name!r}"
            )
        if item.accept_word("TYPE"):
            new_type = _parse_data_type(item)
            table.replace_attribute(column, old.with_type(new_type))
            return True
        if item.accept_word("SET"):
            if item.accept_words("NOT", "NULL"):
                table.replace_attribute(
                    column,
                    Attribute(old.name, old.data_type, False, old.default,
                              old.auto_increment),
                )
                return True
            if item.accept_word("DEFAULT"):
                default = _parse_default_expr(item)
                table.replace_attribute(
                    column,
                    Attribute(old.name, old.data_type, old.nullable, default,
                              old.auto_increment),
                )
                return True
            return False
        if item.accept_word("DROP"):
            if item.accept_words("NOT", "NULL"):
                table.replace_attribute(
                    column,
                    Attribute(old.name, old.data_type, True, old.default,
                              old.auto_increment),
                )
                return True
            if item.accept_word("DEFAULT"):
                table.replace_attribute(
                    column,
                    Attribute(old.name, old.data_type, old.nullable, None,
                              old.auto_increment),
                )
                return True
        return False

    if item.accept_word("RENAME"):
        if item.accept_word("COLUMN"):
            old_name = item.expect_name().value
            if not item.accept_word("TO"):
                return False
            new_name = item.expect_name().value
            old = table.get(old_name)
            if old is None:
                raise _StatementError(
                    f"RENAME COLUMN on unknown column {old_name!r}"
                )
            renamed = Attribute(
                new_name, old.data_type, old.nullable, old.default,
                old.auto_increment,
            )
            table.replace_attribute(old_name, renamed)
            table.primary_key = tuple(
                new_name if c.lower() == old.key else c
                for c in table.primary_key
            )
            return True
        item.accept_word("TO", "AS")
        new_name = item.expect_name().value
        schema.drop_table(table.name)
        table.name = new_name
        schema.add_table(table)
        return True

    return False  # ENGINE=..., OWNER TO, ENABLE TRIGGER, ...


def _parse_column_def_into(
    item: _TokenStream, scratch: Table, name: str
) -> None:
    """Parse the remainder of a MODIFY clause as a column def for ``name``."""
    data_type = _parse_data_type(item)
    nullable = True
    default = None
    auto_increment = False
    while item:
        token = item.peek()
        assert token is not None
        if token.is_word("NOT"):
            item.next()
            if item.accept_word("NULL"):
                nullable = False
            continue
        if token.is_word("NULL"):
            item.next()
            continue
        if token.is_word("DEFAULT"):
            item.next()
            default = _parse_default_expr(item)
            continue
        if token.is_word("AUTO_INCREMENT", "AUTOINCREMENT"):
            item.next()
            auto_increment = True
            continue
        item.next()
    scratch.add_attribute(
        Attribute(name, data_type, nullable, default, auto_increment)
    )


# ------------------------------------------------------------ DROP/RENAME


def _parse_drop(
    stream: _TokenStream, schema: Schema, result: ParseResult
) -> bool:
    stream.next()  # DROP
    if not stream.accept_word("TABLE"):
        return False
    if_exists = stream.accept_words("IF", "EXISTS")
    applied = False
    while True:
        line = stream.line
        name = _parse_qualified_name(stream)
        if name in schema:
            schema.drop_table(name)
            applied = True
        elif not if_exists:
            result.issues.append(
                ParseIssue(line, f"DROP TABLE on unknown {name!r}")
            )
        token = stream.peek()
        if token is not None and token.type is TokenType.COMMA:
            stream.next()
            continue
        break
    return applied


def _parse_rename(stream: _TokenStream, schema: Schema) -> bool:
    stream.next()  # RENAME
    if not stream.accept_word("TABLE"):
        return False
    applied = False
    while True:
        old_name = _parse_qualified_name(stream)
        if not stream.accept_word("TO"):
            raise _StatementError("RENAME TABLE without TO")
        new_name = _parse_qualified_name(stream)
        table = schema.get(old_name)
        if table is not None:
            schema.drop_table(old_name)
            table.name = new_name
            schema.add_table(table)
            applied = True
        token = stream.peek()
        if token is not None and token.type is TokenType.COMMA:
            stream.next()
            continue
        break
    return applied
