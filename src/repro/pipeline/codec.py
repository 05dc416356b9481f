"""Compact tuple codecs for artifact payloads.

Mine shards dominate the on-disk store: each one pickles a full
``ProjectHistory`` — dozens of ``Schema`` objects, each a graph of
dataclasses (``Table`` → ``Attribute`` → ``DataType`` → …).  Pickling
that graph spends most of its time on per-object class references and
``__reduce__`` machinery, and the resulting bytes repeat the same type
metadata thousands of times.

The ``mine-tuple-v1`` codec flattens the payload to nested tuples of
primitives before pickling (and rebuilds the dataclasses after
unpickling).  Two explicit intern pools make the encoding compact *and*
faithful to the live object graph:

* the **table pool** stores each distinct ``Table`` object once, keyed
  by identity — the structural sharing the incremental parser creates
  (consecutive versions holding the very same ``Table``) survives the
  round trip, so the diff engine's ``old_table is new_table`` fast path
  stays armed on histories re-diffed from a warm store;
* the **type pool** stores each distinct ``DataType`` spelling once
  (keyed on all five fields, including the non-comparing ``raw``, so
  re-emission stays byte-faithful).

Pickling tuples of str/int/float is a single fast opcode stream; on the
195-project corpus the encoded mine shards are roughly 3× smaller and
decode noticeably faster than the direct dataclass pickle.

A store that writes an encoded payload records the codec name in its
envelope; readers decode through :func:`decode_payload`, and an unknown
codec name is treated like corruption (recompute, never guess).
"""

from __future__ import annotations

from datetime import datetime

#: Codec name for mine-shard payloads (``MinedProject``).
MINE_CODEC = "mine-tuple-v1"

#: Which map stage's shard payloads are stored encoded, and with what.
SHARD_CODECS: dict[str, str] = {"mine": MINE_CODEC}


# ----------------------------------------------------------------------
# mine-tuple-v1: MinedProject <-> nested primitive tuples

def _encode_type(dtype, pool: dict, items: list) -> int:
    key = (dtype.family, dtype.params, dtype.is_array, dtype.unsigned,
           dtype.raw)
    idx = pool.get(key)
    if idx is None:
        idx = pool[key] = len(items)
        items.append(key)
    return idx


def _encode_table(table, type_pool: dict, type_items: list) -> tuple:
    return (
        table.name,
        tuple(
            (
                attr.name,
                _encode_type(attr.data_type, type_pool, type_items),
                attr.nullable,
                attr.default,
                attr.auto_increment,
                attr.position,
            )
            for attr in table.attributes
        ),
        tuple(table.primary_key),
        tuple(
            (fk.columns, fk.ref_table, fk.ref_columns, fk.name)
            for fk in table.foreign_keys
        ),
        tuple(
            (ix.columns, ix.name, ix.unique, ix.kind)
            for ix in table.indexes
        ),
        tuple(table.options.items()),
    )


def _encode_heartbeat(hb) -> tuple:
    return (hb.start.year, hb.start.month, tuple(hb.values), hb.label)


def encode_mined(payload) -> tuple:
    """``MinedProject`` → a pure-primitive tuple tree."""
    table_pool: dict[int, int] = {}
    table_items: list[tuple] = []
    type_pool: dict[tuple, int] = {}
    type_items: list[tuple] = []

    def table_index(table) -> int:
        idx = table_pool.get(id(table))
        if idx is None:
            idx = table_pool[id(table)] = len(table_items)
            table_items.append(
                _encode_table(table, type_pool, type_items)
            )
        return idx

    history = payload.history
    sh = history.schema_history
    versions = tuple(
        (
            v.sha,
            v.date.isoformat(),
            v.schema.dialect,
            tuple(table_index(t) for t in v.schema.tables),
            tuple((issue.line, issue.message) for issue in v.issues),
        )
        for v in sh.versions
    )
    transitions = tuple(
        (
            t.index,
            t.date.isoformat(),
            tuple(
                (c.kind.value, c.table, c.attribute, c.detail)
                for c in t.delta.changes
            ),
        )
        for t in sh.transitions
    )
    return (
        payload.name,
        (
            history.name,
            history.ddl_path,
            _encode_heartbeat(history.project_heartbeat),
            _encode_heartbeat(history.schema_heartbeat),
        ),
        tuple(type_items),
        tuple(table_items),
        versions,
        transitions,
        # a cloned project has no ground-truth taxon
        None if payload.true_taxon is None else payload.true_taxon.value,
    )


def _decode_table(data: tuple, types: list):
    from ..schema.model import Attribute, ForeignKey, Index, Table

    name, attrs, pk, fks, ixs, options = data
    return Table(
        name=name,
        attributes=[
            Attribute(
                name=a_name,
                data_type=types[type_idx],
                nullable=nullable,
                default=default,
                auto_increment=auto_inc,
                position=position,
            )
            for a_name, type_idx, nullable, default, auto_inc, position
            in attrs
        ],
        primary_key=pk,
        foreign_keys=[
            ForeignKey(
                columns=cols, ref_table=ref, ref_columns=ref_cols, name=n
            )
            for cols, ref, ref_cols, n in fks
        ],
        indexes=[
            Index(columns=cols, name=n, unique=unique, kind=kind)
            for cols, n, unique, kind in ixs
        ],
        options=dict(options),
    )


def _decode_heartbeat(data: tuple):
    from ..heartbeat import Heartbeat, Month

    year, month, values, label = data
    return Heartbeat(start=Month(year, month), values=list(values),
                     label=label)


def decode_mined(data: tuple):
    """The inverse of :func:`encode_mined` (shared tables restored)."""
    from ..diff.changes import AtomicChange, ChangeKind, SchemaDelta
    from ..mining.history import (
        SchemaHistory,
        SchemaTransition,
        SchemaVersion,
    )
    from ..mining.miner import ProjectHistory
    from ..schema import Schema
    from ..schema.types import DataType
    from ..taxa.model import Taxon
    from .stages import MinedProject

    (name, history_head, type_items, table_items, versions, transitions,
     taxon_value) = data
    types = [
        DataType(family=family, params=params, is_array=is_array,
                 unsigned=unsigned, raw=raw)
        for family, params, is_array, unsigned, raw in type_items
    ]
    tables = [_decode_table(item, types) for item in table_items]
    decoded_versions = [
        SchemaVersion(
            sha=sha,
            date=datetime.fromisoformat(date_text),
            schema=Schema(
                tables=[tables[i] for i in table_idxs], dialect=dialect
            ),
            issues=[
                _decode_issue(line, message) for line, message in issues
            ],
        )
        for sha, date_text, dialect, table_idxs, issues in versions
    ]
    decoded_transitions = [
        SchemaTransition(
            index=index,
            date=datetime.fromisoformat(date_text),
            delta=SchemaDelta(
                changes=[
                    AtomicChange(
                        kind=ChangeKind(kind_value),
                        table=table,
                        attribute=attribute,
                        detail=detail,
                    )
                    for kind_value, table, attribute, detail in changes
                ]
            ),
        )
        for index, date_text, changes in transitions
    ]
    hist_name, ddl_path, project_hb, schema_hb = history_head
    history = ProjectHistory(
        name=hist_name,
        ddl_path=ddl_path,
        project_heartbeat=_decode_heartbeat(project_hb),
        schema_heartbeat=_decode_heartbeat(schema_hb),
        schema_history=SchemaHistory(
            versions=decoded_versions, transitions=decoded_transitions
        ),
    )
    return MinedProject(
        name=name,
        history=history,
        true_taxon=None if taxon_value is None else Taxon(taxon_value),
    )


def _decode_issue(line: int, message: str):
    from ..sqlparser import ParseIssue

    return ParseIssue(line, message)


# ----------------------------------------------------------------------
# codec registry (store-facing)

_CODECS = {MINE_CODEC: (encode_mined, decode_mined)}


def encode_payload(codec: str, payload):
    """Encode ``payload`` with the named codec (KeyError on unknown)."""
    return _CODECS[codec][0](payload)


def decode_payload(codec: str, data):
    """Decode ``data`` with the named codec (KeyError on unknown)."""
    return _CODECS[codec][1](data)
