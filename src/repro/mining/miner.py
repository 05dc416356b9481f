"""Mining a repository into the paper's two heartbeats.

Project Activity is the number of files updated per month, exactly what
``git log --name-status --no-merges`` exposes; Schema Activity is the
attribute-level diff activity of the DDL file's version sequence.  The
output is a :class:`ProjectHistory` carrying both heartbeats plus the
parsed schema history, ready for the co-evolution metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..coevolution import JointProgress
from ..heartbeat import Heartbeat
from ..obs.events import warn
from ..vcs import Repository
from .history import SchemaHistory


class MiningError(Exception):
    """Raised when a repository cannot be mined into a project history."""


def find_ddl_path(repo: Repository) -> str:
    """Locate the project's schema-DDL file.

    Preference order: a path with recorded file contents (the corpus
    loader always records the DDL file), otherwise the most-touched
    ``.sql`` path in the commit history.

    The fallback tie-break is deterministic across platforms, commit
    orderings and dict iteration orders: among equally-touched paths the
    lexicographically greatest wins (byte-wise comparison on the exact
    path strings — no locale or filesystem-order dependence).  Taking
    that tie-break is no longer silent: a ``ddl-tie-break`` warning
    event records which path won and how many candidates tied, so the
    run manifest surfaces every project whose DDL file was ambiguous.
    """
    recorded = [
        path for path in repo.file_contents if path.lower().endswith(".sql")
    ]
    if len(recorded) == 1:
        return recorded[0]
    if len(recorded) > 1:
        raise MiningError(
            f"{repo.name}: multiple recorded .sql files {sorted(recorded)}; "
            "the study keeps single-DDL-file projects only"
        )
    # one Counter pass over a flat generator; the suffix test is cached
    # per distinct path (the same few paths repeat across thousands of
    # commits, and str.lower() on every touch dominated this loop)
    is_sql_cache: dict[str, bool] = {}

    def is_sql(path: str) -> bool:
        cached = is_sql_cache.get(path)
        if cached is None:
            cached = is_sql_cache[path] = path.lower().endswith(".sql")
        return cached

    sql_touches = Counter(
        change.path
        for commit in repo.commits
        for change in commit.changes
        if is_sql(change.path)
    )
    if not sql_touches:
        raise MiningError(f"{repo.name}: no .sql file in history")
    best = max(sql_touches, key=lambda path: (sql_touches[path], path))
    tied = sum(1 for n in sql_touches.values() if n == sql_touches[best])
    if tied > 1:
        warn(
            "ddl-tie-break",
            f"{repo.name}: {tied} .sql paths tied at "
            f"{sql_touches[best]} touches; picked {best!r}",
            project=repo.name,
            picked=best,
            tied=tied,
        )
    return best


def mine_project_activity(repo: Repository) -> Heartbeat:
    """Monthly file-update counts over the whole project life.

    A commit counts in its printed (author-local) calendar month.  With
    mixed offsets the chronologically first commit need not have the
    earliest month, so the span is the events' own.
    """
    if not repo.commits:
        raise MiningError(f"{repo.name}: empty repository")
    events = [
        (commit.date, float(commit.files_updated)) for commit in repo.commits
    ]
    return Heartbeat.from_events(events, label="project")


def mine_schema_history(
    repo: Repository,
    ddl_path: str | None = None,
    *,
    source: str = "ddl",
) -> tuple[str, SchemaHistory]:
    """Parse and diff the version sequence of the project's schema file.

    Delegates to the named :class:`~repro.mining.sources.HistorySource`
    — the path-finding policy, version enumeration and dialect hint are
    all source-level decisions now; the default ``"ddl"`` source is the
    paper's single-file-DDL behaviour, unchanged.
    """
    from .sources import get_source

    return get_source(source).mine_schema_history(repo, path=ddl_path)


@dataclass
class ProjectHistory:
    """Everything the study needs to know about one project."""

    name: str
    ddl_path: str
    project_heartbeat: Heartbeat
    schema_heartbeat: Heartbeat
    schema_history: SchemaHistory

    @property
    def duration_months(self) -> int:
        """Project duration in monthly time-points (union of heartbeats)."""
        start = min(self.project_heartbeat.start, self.schema_heartbeat.start)
        end = max(self.project_heartbeat.end, self.schema_heartbeat.end)
        return end - start + 1

    def joint_progress(self) -> JointProgress:
        """Align the heartbeats into the three cumulative progressions.

        Raises ``ZeroTotalError`` for degenerate histories with zero
        total activity on either side.
        """
        return JointProgress.from_heartbeats(
            self.project_heartbeat, self.schema_heartbeat
        )


def mine_project(
    repo: Repository,
    *,
    ddl_path: str | None = None,
    source: str = "ddl",
) -> ProjectHistory:
    """Run the full extraction pipeline on one repository.

    ``source`` names the :class:`~repro.mining.sources.HistorySource`
    policy the schema half mines through (the workload's source half);
    the project-activity heartbeat is source-independent.
    """
    project_heartbeat = mine_project_activity(repo)
    path, schema_history = mine_schema_history(repo, ddl_path, source=source)
    schema_heartbeat = Heartbeat.from_events(
        schema_history.activity_events(), label="schema"
    )
    return ProjectHistory(
        name=repo.name,
        ddl_path=path,
        project_heartbeat=project_heartbeat,
        schema_heartbeat=schema_heartbeat,
        schema_history=schema_history,
    )
