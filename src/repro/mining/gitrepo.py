"""Ingestion of *real* local git clones.

The paper's own collection step: for each project, run
``git log --name-status --no-merges --date=iso`` on a local clone and
extract the content of every version of the DDL file via ``git show``.
The output is the same :class:`~repro.vcs.Repository` the synthetic
corpus produces, so everything downstream is shared: :func:`load_clone`
wraps a clone as a corpus project that the study pipeline
(``Pipeline(corpus=...)``) mines, caches and explains like any other.

Only read-only plumbing commands are issued; nothing in the clone is
modified.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path

from ..vcs import FileVersion, Repository, parse_repository
from .miner import MiningError, ProjectHistory, find_ddl_path, mine_project

#: The exact command the paper uses (§3.1), plus --reverse-insensitive
#: stable ordering via the parser's chronological sort.
GIT_LOG_ARGS = (
    "log",
    "--name-status",
    "--no-merges",
    "--date=iso",
)


class GitCommandError(MiningError):
    """A git invocation failed."""


def _run_git(clone: Path, *args: str) -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", str(clone), *args],
            capture_output=True,
            text=True,
            check=True,
        )
    except FileNotFoundError as exc:
        raise GitCommandError("git binary not found on PATH") from exc
    except subprocess.CalledProcessError as exc:
        raise GitCommandError(
            f"git {' '.join(args[:2])} failed: {exc.stderr.strip()}"
        ) from exc
    return completed.stdout


def read_git_log(clone: str | Path) -> str:
    """The raw ``git log --name-status --no-merges --date=iso`` text."""
    return _run_git(Path(clone), *GIT_LOG_ARGS)


def load_repository(
    clone: str | Path,
    *,
    ddl_path: str | None = None,
    name: str | None = None,
) -> Repository:
    """Build a :class:`Repository` from a local clone.

    The commit graph comes from one ``git log`` invocation; the DDL
    file's versions are extracted with one ``git show`` per touching
    commit (renames follow the new path).

    Args:
        clone: path to the working copy (its ``.git`` is queried).
        ddl_path: repository-relative path of the schema file; when
            omitted, the single most-touched ``.sql`` path is used.
        name: project name; defaults to the clone directory's name.
    """
    clone = Path(clone)
    if not clone.exists():
        raise MiningError(f"clone path does not exist: {clone}")
    repo = parse_repository(name or clone.name, read_git_log(clone))
    if not repo.commits:
        raise MiningError(f"{clone}: no commits found")

    path = ddl_path or find_ddl_path(repo)
    for commit in repo.commits:
        for change in commit.changes:
            if change.path != path and change.old_path != path:
                continue
            if change.kind == "D":
                continue  # the file has no content at this commit
            content = _run_git(clone, "show", f"{commit.sha}:{change.path}")
            repo.record_version(
                path,
                FileVersion(
                    sha=commit.sha, date=commit.date, content=content
                ),
            )
            break
    if not repo.versions_of(path):
        raise MiningError(f"{clone}: no versions of {path!r} extracted")
    return repo


@dataclass
class ClonedProject:
    """A real clone as a corpus project: what the study pipeline mines."""

    name: str
    repository: Repository
    #: A real project's taxon is what the study classifies, not an input.
    true_taxon = None


def load_clone(
    clone: str | Path,
    *,
    ddl_path: str | None = None,
    name: str | None = None,
) -> ClonedProject:
    """A local clone as a materialised corpus project.

    Same arguments as :func:`load_repository`; the project is keyed by
    its content in the pipeline's store, so re-running a study after
    ``git pull`` recomputes exactly the clones whose history moved.
    """
    repo = load_repository(clone, ddl_path=ddl_path, name=name)
    return ClonedProject(name=repo.name, repository=repo)


def mine_clone(
    clone: str | Path,
    *,
    ddl_path: str | None = None,
    name: str | None = None,
) -> ProjectHistory:
    """One-call mining of a real local clone into a project history."""
    repo = load_repository(clone, ddl_path=ddl_path, name=name)
    return mine_project(repo)
