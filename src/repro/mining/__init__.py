"""Repository mining: heartbeats and schema histories."""

from .aggregates import (
    HistoryAggregates,
    SizeSnapshot,
    growth_vs_restructuring,
)
from .gitrepo import (
    ClonedProject,
    GitCommandError,
    load_clone,
    load_repository,
    mine_clone,
    read_git_log,
)
from .history import (
    SchemaHistory,
    SchemaTransition,
    SchemaVersion,
    parse_history_reference,
)
from .miner import (
    MiningError,
    ProjectHistory,
    find_ddl_path,
    mine_project,
    mine_project_activity,
    mine_schema_history,
)
from .sources import (
    HistorySource,
    SingleFileDDLSource,
    SqliteSource,
    get_source,
    register_source,
    registered_sources,
)

__all__ = [
    "ClonedProject",
    "GitCommandError",
    "HistoryAggregates",
    "SizeSnapshot",
    "growth_vs_restructuring",
    "HistorySource",
    "MiningError",
    "ProjectHistory",
    "SchemaHistory",
    "SchemaTransition",
    "SchemaVersion",
    "SingleFileDDLSource",
    "SqliteSource",
    "find_ddl_path",
    "get_source",
    "register_source",
    "registered_sources",
    "load_clone",
    "load_repository",
    "mine_clone",
    "read_git_log",
    "mine_project",
    "mine_project_activity",
    "mine_schema_history",
    "parse_history_reference",
]
