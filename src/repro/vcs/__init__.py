"""Version-control substrate: repository model and git-log text I/O."""

from .gitlog import (
    GitLogError,
    format_git_log,
    parse_date,
    parse_date_reference,
    parse_git_log,
    parse_git_log_reference,
    parse_repository,
)
from .model import (
    Commit,
    FileChange,
    FileVersion,
    Repository,
    synthetic_sha,
    utc,
)

__all__ = [
    "Commit",
    "FileChange",
    "FileVersion",
    "GitLogError",
    "Repository",
    "format_git_log",
    "parse_date",
    "parse_date_reference",
    "parse_git_log",
    "parse_git_log_reference",
    "parse_repository",
    "synthetic_sha",
    "utc",
]
