"""Schema histories: parsed versions of a DDL file and their transitions.

Mirrors the structure of the Schema_Evo_2019 dataset: for each project,
the list of versions of the schema file, the pairwise deltas between
subsequent versions (the *heartbeat* source), and aggregate activity
measures.  The initiating version contributes its full content as
born-with-table activity (see DESIGN.md, "Activity convention").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from ..diff import SchemaDelta, diff_schemas, initial_delta
from ..diff.engine import diff_schemas_reference
from ..obs.events import warn
from ..obs.context import current
from ..perf.cache import cached_parse_schema
from ..schema import Schema
from ..sqlparser import ParseIssue, parse_schema
from ..vcs import FileVersion


@dataclass
class SchemaVersion:
    """One parsed version of the DDL file."""

    sha: str
    date: datetime
    schema: Schema
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def table_count(self) -> int:
        return len(self.schema)

    @property
    def attribute_count(self) -> int:
        return self.schema.attribute_count


@dataclass
class SchemaTransition:
    """The delta between two subsequent versions (or birth, for index 0)."""

    index: int
    date: datetime
    delta: SchemaDelta

    @property
    def activity(self) -> int:
        return self.delta.total_activity

    @property
    def is_active(self) -> bool:
        """An 'active' commit actually changed the schema logically."""
        return self.activity > 0


@dataclass
class SchemaHistory:
    """A project's full schema history with per-transition activity."""

    versions: list[SchemaVersion]
    transitions: list[SchemaTransition]

    @classmethod
    def from_file_versions(
        cls,
        file_versions: list[FileVersion],
        *,
        dialect: str | None = None,
    ) -> "SchemaHistory":
        """Parse and diff a chronological sequence of DDL file versions.

        The parse cache's in-memory layers live for this one history:
        versions, fragments and elements are reused across its versions
        and dropped on the way out, so mining memory tracks the largest
        history rather than the corpus.  Only the opt-in disk layer
        carries parses from one history to the next.
        """
        if not file_versions:
            raise ValueError("a schema history needs at least one version")
        try:
            return cls._parse_and_diff(file_versions, dialect)
        finally:
            current().cache.clear()

    @classmethod
    def _parse_and_diff(
        cls, file_versions: list[FileVersion], dialect: str | None
    ) -> "SchemaHistory":
        metrics = current().metrics
        metrics.inc("versions.parsed", len(file_versions))
        versions: list[SchemaVersion] = []
        for fv in file_versions:
            # content-addressed: the same DDL text again (within this
            # history or, with a disk store, from any earlier run) skips
            # the parser
            result = cached_parse_schema(fv.content, dialect=dialect)
            if result.issues:
                metrics.inc("parse.issues", len(result.issues))
                if not result.schema.tables and fv.content.strip():
                    # tolerated issues are routine (dump noise); a
                    # version that yields an *empty* schema is not
                    warn(
                        "ddl-unparseable",
                        f"version {fv.sha[:12]} produced no tables "
                        f"({len(result.issues)} parse issues)",
                        sha=fv.sha,
                        issues=len(result.issues),
                    )
            versions.append(
                SchemaVersion(
                    sha=fv.sha,
                    date=fv.date,
                    schema=result.schema,
                    issues=result.issues,
                )
            )
        transitions: list[SchemaTransition] = [
            SchemaTransition(
                index=0,
                date=versions[0].date,
                delta=initial_delta(versions[0].schema),
            )
        ]
        for i in range(1, len(versions)):
            transitions.append(
                SchemaTransition(
                    index=i,
                    date=versions[i].date,
                    delta=diff_schemas(
                        versions[i - 1].schema, versions[i].schema
                    ),
                )
            )
        return cls(versions=versions, transitions=transitions)

    @classmethod
    def parse_history_reference(
        cls,
        file_versions: list[FileVersion],
        *,
        dialect: str | None = None,
    ) -> "SchemaHistory":
        """Oracle twin of :meth:`from_file_versions`.

        Parses every version with the monolithic ``parse_schema`` (no
        caching, no fragment reuse) and diffs with the dict-building
        ``diff_schemas_reference`` — no shared objects, no identity
        fast paths, no metrics/warn side effects.  The incremental
        chain must match this version-by-version and transition-by-
        transition; the property tests in
        ``tests/test_incremental_parse.py`` enforce it.
        """
        if not file_versions:
            raise ValueError("a schema history needs at least one version")
        versions = [
            SchemaVersion(
                sha=fv.sha,
                date=fv.date,
                schema=result.schema,
                issues=result.issues,
            )
            for fv in file_versions
            for result in (parse_schema(fv.content, dialect=dialect),)
        ]
        transitions = [
            SchemaTransition(
                index=0,
                date=versions[0].date,
                delta=initial_delta(versions[0].schema),
            )
        ]
        for i in range(1, len(versions)):
            transitions.append(
                SchemaTransition(
                    index=i,
                    date=versions[i].date,
                    delta=diff_schemas_reference(
                        versions[i - 1].schema, versions[i].schema
                    ),
                )
            )
        return cls(versions=versions, transitions=transitions)

    @property
    def total_activity(self) -> int:
        return sum(t.activity for t in self.transitions)

    @property
    def commit_count(self) -> int:
        return len(self.versions)

    @property
    def active_commit_count(self) -> int:
        return sum(1 for t in self.transitions if t.is_active)

    def activity_events(self) -> list[tuple[datetime, float]]:
        """(date, activity) pairs feeding the schema heartbeat."""
        return [(t.date, float(t.activity)) for t in self.transitions]

    @property
    def final_schema(self) -> Schema:
        return self.versions[-1].schema

    @property
    def has_create_table(self) -> bool:
        """Dataset elicitation rule: some version must define a table."""
        return any(len(v.schema) > 0 for v in self.versions)


def parse_history_reference(
    file_versions: list[FileVersion], *, dialect: str | None = None
) -> SchemaHistory:
    """Module-level alias for :meth:`SchemaHistory.parse_history_reference`."""
    return SchemaHistory.parse_history_reference(file_versions, dialect=dialect)
