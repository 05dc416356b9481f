"""Hecate-style comparison of two schema versions.

Tables are matched across versions by (case-insensitive) name; within a
matched table, attributes are matched by name.  Renames are therefore
observed as a deletion plus an insertion — the behaviour of the tooling
behind the original dataset, which has no rename oracle.  The initiating
version of a history is measured with :func:`initial_delta` (all
attributes born with their tables), matching the paper's convention that a
schema can attain e.g. "48% of change at start-up".

Diffing is on the mining hot path (one call per schema transition, tens
of thousands per corpus), so :func:`diff_schemas` reuses the key →
position indexes that :class:`~repro.schema.Schema` and
:class:`~repro.schema.Table` already maintain instead of rebuilding
lookup dicts for every version pair.  The straightforward dict-building
variant is kept as :func:`diff_schemas_reference`, the oracle for the
equivalence tests.
"""

from __future__ import annotations

from time import perf_counter

from ..obs.context import current
from ..schema import Schema, Table
from .changes import AtomicChange, ChangeKind, SchemaDelta


def diff_schemas(old: Schema, new: Schema) -> SchemaDelta:
    """Compute all attribute-level atomic changes from ``old`` to ``new``.

    Every call feeds the ``diff.seconds`` latency histogram of the
    observability layer (a couple of clock reads per call — negligible
    next to the diff itself, and it never changes the result).
    """
    start = perf_counter()
    delta = _diff_schemas(old, new)
    current().metrics.observe("diff.seconds", perf_counter() - start)
    return delta


def _diff_schemas(old: Schema, new: Schema) -> SchemaDelta:
    delta = SchemaDelta()
    if old is new:
        # incremental parsing interns identical whole versions as the
        # very same ParseResult, so no-op transitions short-circuit
        return delta
    changes = delta.changes
    old_index = old.key_index
    new_index = new.key_index
    old_tables = old.tables
    new_tables = new.tables

    for table in new_tables:
        if table.key not in old_index:
            changes.extend(_table_born(table))
    for table in old_tables:
        if table.key not in new_index:
            changes.extend(_table_evicted(table))
    for key, position in old_index.items():
        new_position = new_index.get(key)
        if new_position is not None:
            old_table = old_tables[position]
            new_table = new_tables[new_position]
            if old_table is new_table:
                # structural sharing: an unchanged statement reuses the
                # previous version's Table object, so identity proves
                # there is no attribute-level change to look for
                continue
            _diff_surviving(old_table, new_table, changes)
    return delta


def initial_delta(schema: Schema) -> SchemaDelta:
    """The delta of the initiating commit: everything is born."""
    delta = SchemaDelta()
    for table in schema.tables:
        delta.changes.extend(_table_born(table))
    return delta


def _table_born(table: Table) -> list[AtomicChange]:
    return [
        AtomicChange(ChangeKind.BORN_WITH_TABLE, table.name, attr.name)
        for attr in table.attributes
    ]


def _table_evicted(table: Table) -> list[AtomicChange]:
    return [
        AtomicChange(ChangeKind.DELETED_WITH_TABLE, table.name, attr.name)
        for attr in table.attributes
    ]


def _diff_surviving(
    old: Table, new: Table, changes: list[AtomicChange]
) -> None:
    """Append changes within a table present in both versions."""
    old_index = old.key_index
    new_index = new.key_index
    old_attrs = old.attributes
    new_attrs = new.attributes

    for attr in new_attrs:
        if attr.key not in old_index:
            changes.append(
                AtomicChange(ChangeKind.INJECTED, new.name, attr.name)
            )
    for attr in old_attrs:
        if attr.key not in new_index:
            changes.append(
                AtomicChange(ChangeKind.EJECTED, old.name, attr.name)
            )

    for key, position in old_index.items():
        new_position = new_index.get(key)
        if new_position is None:
            continue
        old_attr = old_attrs[position]
        new_attr = new_attrs[new_position]
        if old_attr.data_type != new_attr.data_type:
            changes.append(
                AtomicChange(
                    ChangeKind.TYPE_CHANGED,
                    new.name,
                    new_attr.name,
                    detail=f"{old_attr.data_type} -> {new_attr.data_type}",
                )
            )

    old_pk = old.pk_keys()
    new_pk = new.pk_keys()
    for key in sorted(old_pk ^ new_pk):
        # PK participation changed for an attribute that survives; an
        # attribute that vanished with its table or was ejected is already
        # counted there and would double-count here.
        if key in old_index and key in new_index:
            direction = "joined PK" if key in new_pk else "left PK"
            changes.append(
                AtomicChange(
                    ChangeKind.PK_CHANGED,
                    new.name,
                    new_attrs[new_index[key]].name,
                    detail=direction,
                )
            )


def diff_schemas_reference(old: Schema, new: Schema) -> SchemaDelta:
    """The original dict-building diff, kept as the equivalence oracle."""
    delta = SchemaDelta()
    old_keys = {table.key: table for table in old.tables}
    new_keys = {table.key: table for table in new.tables}

    for table in new.tables:
        if table.key not in old_keys:
            delta.changes.extend(_table_born(table))
    for table in old.tables:
        if table.key not in new_keys:
            delta.changes.extend(_table_evicted(table))
    for key, old_table in old_keys.items():
        new_table = new_keys.get(key)
        if new_table is not None:
            delta.changes.extend(_diff_surviving_reference(old_table, new_table))
    return delta


def _diff_surviving_reference(old: Table, new: Table) -> list[AtomicChange]:
    """Reference changes within a table present in both versions."""
    changes: list[AtomicChange] = []
    old_attrs = {attr.key: attr for attr in old.attributes}
    new_attrs = {attr.key: attr for attr in new.attributes}

    for attr in new.attributes:
        if attr.key not in old_attrs:
            changes.append(
                AtomicChange(ChangeKind.INJECTED, new.name, attr.name)
            )
    for attr in old.attributes:
        if attr.key not in new_attrs:
            changes.append(
                AtomicChange(ChangeKind.EJECTED, old.name, attr.name)
            )

    for key, old_attr in old_attrs.items():
        new_attr = new_attrs.get(key)
        if new_attr is None:
            continue
        if old_attr.data_type != new_attr.data_type:
            changes.append(
                AtomicChange(
                    ChangeKind.TYPE_CHANGED,
                    new.name,
                    new_attr.name,
                    detail=f"{old_attr.data_type} -> {new_attr.data_type}",
                )
            )

    old_pk = old.pk_keys()
    new_pk = new.pk_keys()
    for key in sorted(old_pk ^ new_pk):
        if key in old_attrs and key in new_attrs:
            direction = "joined PK" if key in new_pk else "left PK"
            changes.append(
                AtomicChange(
                    ChangeKind.PK_CHANGED,
                    new.name,
                    new_attrs[key].name,
                    detail=direction,
                )
            )
    return changes


def diff_ddl(old_text: str, new_text: str, *, dialect: str | None = None) -> SchemaDelta:
    """Parse two DDL scripts and diff the resulting schemas."""
    from ..sqlparser import parse_schema

    old = parse_schema(old_text, dialect=dialect).schema
    new = parse_schema(new_text, dialect=dialect).schema
    return diff_schemas(old, new)
