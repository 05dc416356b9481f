"""The relational schema model.

This is the common currency of the toolkit: the SQL parser produces
:class:`Schema` objects, the diff engine compares them, the SMO algebra
rewrites them and the corpus generator evolves them.

Identifiers are compared case-insensitively (the behaviour of MySQL on
case-insensitive filesystems and of unquoted identifiers in Postgres); the
original spelling is preserved for display and re-emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .types import DataType, normalize_type


class SchemaError(Exception):
    """Raised on inconsistent schema manipulation (duplicate table etc.)."""


def _key(name: str) -> str:
    """Canonical comparison key for an SQL identifier."""
    return name.lower()


@dataclass(frozen=True)
class Attribute:
    """A typed attribute (column) of a table.

    Attributes:
        name: identifier as spelled in the DDL.
        data_type: normalised type.
        nullable: False when declared NOT NULL.
        default: textual default expression, or None.
        auto_increment: MySQL AUTO_INCREMENT / Postgres serial behaviour.
        position: 0-based ordinal position in the table.
    """

    name: str
    data_type: DataType
    nullable: bool = True
    default: str | None = None
    auto_increment: bool = False
    position: int = 0

    @property
    def key(self) -> str:
        return _key(self.name)

    def with_type(self, data_type: DataType | str) -> "Attribute":
        if isinstance(data_type, str):
            data_type = normalize_type(data_type)
        return replace(self, data_type=data_type)

    def render_sql(self) -> str:
        parts = [f"  {quote_identifier(self.name)} {self.data_type.render_sql()}"]
        if not self.nullable:
            parts.append("NOT NULL")
        if self.default is not None:
            parts.append(f"DEFAULT {self.default}")
        if self.auto_increment:
            parts.append("AUTO_INCREMENT")
        return " ".join(parts)


@dataclass(frozen=True)
class Index:
    """A secondary index or unique constraint.

    Indexes live at the *physical* level: the study's Activity measure
    deliberately excludes them (it tracks the logical schema only), but
    the model keeps them so tooling built on the parser — impact
    analysis, migration planning — sees the full table definition.
    """

    columns: tuple[str, ...]
    name: str | None = None
    unique: bool = False
    kind: str = ""  # FULLTEXT / SPATIAL / access method, when declared

    def render_sql(self) -> str:
        cols = ", ".join(quote_identifier(c) for c in self.columns)
        prefix = "UNIQUE " if self.unique else ""
        label = f" {quote_identifier(self.name)}" if self.name else ""
        return f"  {prefix}KEY{label} ({cols})"


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...] = ()
    name: str | None = None

    def render_sql(self) -> str:
        cols = ", ".join(quote_identifier(c) for c in self.columns)
        ref_cols = ""
        if self.ref_columns:
            ref_cols = " (" + ", ".join(
                quote_identifier(c) for c in self.ref_columns
            ) + ")"
        prefix = ""
        if self.name:
            prefix = f"CONSTRAINT {quote_identifier(self.name)} "
        return (
            f"  {prefix}FOREIGN KEY ({cols}) REFERENCES "
            f"{quote_identifier(self.ref_table)}{ref_cols}"
        )


@dataclass
class Table:
    """A relation: ordered attributes plus constraints.

    Attribute order is preserved (it matters for DDL re-emission), but all
    lookups are by case-insensitive name.
    """

    name: str
    attributes: list[Attribute] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)
    options: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._index: dict[str, int] = {}
        self._reindex()

    def _reindex(self) -> None:
        self._index = {attr.key: i for i, attr in enumerate(self.attributes)}
        if len(self._index) != len(self.attributes):
            raise SchemaError(f"duplicate attribute in table {self.name!r}")

    @property
    def key(self) -> str:
        return _key(self.name)

    @property
    def key_index(self) -> dict[str, int]:
        """The maintained attribute-key → position map (do not mutate).

        Exposed so hot paths (the diff engine) can reuse the index the
        table already keeps instead of rebuilding a lookup dict per call.
        """
        return self._index

    @property
    def attribute_names(self) -> list[str]:
        return [attr.name for attr in self.attributes]

    def __contains__(self, attr_name: str) -> bool:
        return _key(attr_name) in self._index

    def __len__(self) -> int:
        return len(self.attributes)

    def get(self, attr_name: str) -> Attribute | None:
        idx = self._index.get(_key(attr_name))
        return self.attributes[idx] if idx is not None else None

    def attribute(self, attr_name: str) -> Attribute:
        attr = self.get(attr_name)
        if attr is None:
            raise SchemaError(
                f"no attribute {attr_name!r} in table {self.name!r}"
            )
        return attr

    def add_attribute(self, attr: Attribute) -> None:
        if attr.key in self._index:
            raise SchemaError(
                f"attribute {attr.name!r} already in table {self.name!r}"
            )
        position = len(self.attributes)
        # on the path of every parsed column: one constructor call costs
        # about half of dataclasses.replace
        self.attributes.append(Attribute(
            attr.name, attr.data_type, attr.nullable, attr.default,
            attr.auto_increment, position,
        ))
        self._index[attr.key] = position

    def drop_attribute(self, attr_name: str) -> Attribute:
        idx = self._index.get(_key(attr_name))
        if idx is None:
            raise SchemaError(
                f"no attribute {attr_name!r} in table {self.name!r}"
            )
        removed = self.attributes.pop(idx)
        self.attributes = [
            replace(attr, position=i) for i, attr in enumerate(self.attributes)
        ]
        if _key(attr_name) in {_key(c) for c in self.primary_key}:
            self.primary_key = tuple(
                c for c in self.primary_key if _key(c) != _key(attr_name)
            )
        self._reindex()
        return removed

    def replace_attribute(self, attr_name: str, new_attr: Attribute) -> None:
        idx = self._index.get(_key(attr_name))
        if idx is None:
            raise SchemaError(
                f"no attribute {attr_name!r} in table {self.name!r}"
            )
        new_attr = replace(new_attr, position=idx)
        self.attributes[idx] = new_attr
        self._reindex()

    def pk_keys(self) -> frozenset[str]:
        """Primary key participation, as a set of comparison keys."""
        return frozenset(_key(c) for c in self.primary_key)

    def copy(self) -> "Table":
        return Table(
            name=self.name,
            attributes=list(self.attributes),
            primary_key=tuple(self.primary_key),
            foreign_keys=list(self.foreign_keys),
            indexes=list(self.indexes),
            options=dict(self.options),
        )

    def render_sql(self, *, if_not_exists: bool = False) -> str:
        """Emit a CREATE TABLE statement for this table."""
        lines = [attr.render_sql() for attr in self.attributes]
        if self.primary_key:
            cols = ", ".join(quote_identifier(c) for c in self.primary_key)
            lines.append(f"  PRIMARY KEY ({cols})")
        lines.extend(index.render_sql() for index in self.indexes)
        lines.extend(fk.render_sql() for fk in self.foreign_keys)
        guard = "IF NOT EXISTS " if if_not_exists else ""
        body = ",\n".join(lines)
        return (
            f"CREATE TABLE {guard}{quote_identifier(self.name)} (\n{body}\n);"
        )


@dataclass
class Schema:
    """A database schema: an ordered collection of tables."""

    tables: list[Table] = field(default_factory=list)
    dialect: str = "generic"

    def __post_init__(self) -> None:
        self._index: dict[str, int] = {}
        self._reindex()

    def _reindex(self) -> None:
        self._index = {table.key: i for i, table in enumerate(self.tables)}
        if len(self._index) != len(self.tables):
            raise SchemaError("duplicate table name in schema")

    @property
    def key_index(self) -> dict[str, int]:
        """The maintained table-key → position map (do not mutate).

        Counterpart of :attr:`Table.key_index` for schema-level lookups.
        """
        return self._index

    @property
    def table_names(self) -> list[str]:
        return [table.name for table in self.tables]

    def __contains__(self, table_name: str) -> bool:
        return _key(table_name) in self._index

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.tables)

    def get(self, table_name: str) -> Table | None:
        idx = self._index.get(_key(table_name))
        return self.tables[idx] if idx is not None else None

    def table(self, table_name: str) -> Table:
        table = self.get(table_name)
        if table is None:
            raise SchemaError(f"no table {table_name!r} in schema")
        return table

    def add_table(self, table: Table) -> None:
        if table.key in self._index:
            raise SchemaError(f"table {table.name!r} already in schema")
        self.tables.append(table)
        self._index[table.key] = len(self.tables) - 1

    def drop_table(self, table_name: str) -> Table:
        idx = self._index.get(_key(table_name))
        if idx is None:
            raise SchemaError(f"no table {table_name!r} in schema")
        removed = self.tables.pop(idx)
        self._reindex()
        return removed

    def replace_table(self, table: Table) -> None:
        idx = self._index.get(table.key)
        if idx is None:
            raise SchemaError(f"no table {table.name!r} in schema")
        self.tables[idx] = table

    def copy(self) -> "Schema":
        return Schema(
            tables=[table.copy() for table in self.tables],
            dialect=self.dialect,
        )

    @property
    def attribute_count(self) -> int:
        return sum(len(table) for table in self.tables)

    def render_sql(self) -> str:
        """Emit the whole schema as a DDL script."""
        return "\n\n".join(table.render_sql() for table in self.tables) + "\n"


def quote_identifier(name: str) -> str:
    """Quote an identifier only when necessary (keeps DDL readable)."""
    if name and name.replace("_", "a").isalnum() and not name[0].isdigit():
        return name
    return '"' + name.replace('"', '""') + '"'
