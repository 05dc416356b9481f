"""Parsing and emitting ``git log --name-status --no-merges --date=iso``.

The paper mines project activity with exactly this command; the parser
here consumes its output (from a real clone or from the emitter below).
The emitter produces byte-compatible text from a :class:`Repository`,
which is how the synthetic corpus exercises the same mining pipeline as
real repositories.

:func:`parse_git_log` dispatches each line on its first character and
reads git's own date shape with :meth:`datetime.fromisoformat`;
:func:`parse_git_log_reference` (four regexes per line, ``strptime``
dates) is kept as its behavioural specification, and the
oracle tests require both to return the same commits or raise the same
error on any text.

Dates: every parsed date is timezone-aware.  A date printed without an
offset is read as UTC, so a log that mixes both forms still sorts.  A
commit's month is its *printed* calendar month (the author's local
time), never a UTC conversion.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

from .model import Commit, FileChange, Repository


class GitLogError(Exception):
    """Raised on unparseable git-log text."""


_COMMIT_RE = re.compile(r"^commit ([0-9a-f]{4,40})(?:\s+\(.*\))?$")
_AUTHOR_RE = re.compile(r"^Author:\s*(.*?)\s*(?:<([^>]*)>)?$")
_DATE_RE = re.compile(r"^Date:\s*(.*)$")
_STATUS_RE = re.compile(r"^([AMDTUX]|[RC]\d*)\t([^\t]+)(?:\t(.+))?$")

#: git --date=iso format: ``2015-03-10 14:22:01 +0200``
_ISO_FORMATS = (
    "%Y-%m-%d %H:%M:%S %z",
    "%Y-%m-%dT%H:%M:%S%z",
    "%Y-%m-%d %H:%M:%S",
)

#: The exact shape ``--date=iso`` prints, in ASCII digits, with hours
#: 00-23 and minutes, seconds and offset minutes 00-59 (fromisoformat
#: reads ``+0060`` where strptime refuses it).  Only this shape takes the
#: :meth:`datetime.fromisoformat` fast path; anything else, and any date
#: of this shape fromisoformat rejects, falls back to strptime.
_GIT_ISO_DATE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2} (?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]"
    r" [+-][0-9]{2}[0-5][0-9]"
)

#: First characters of the lines :func:`parse_git_log` must inspect
#: beyond ``commit``: Author/Date headers and name-status letters.
_STATUS_HEADS = frozenset("AMDTUXRC")


def parse_date_reference(text: str) -> datetime:
    """Parse a git ``--date=iso`` timestamp with strptime alone.

    The specification of :func:`parse_date`.  A date without an offset
    is read as UTC.
    """
    text = text.strip()
    for fmt in _ISO_FORMATS:
        try:
            moment = datetime.strptime(text, fmt)
        except ValueError:
            continue
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return moment
    raise GitLogError(f"unparseable date: {text!r}")


def parse_date(text: str) -> datetime:
    """Parse a git ``--date=iso`` timestamp (always timezone-aware)."""
    text = text.strip()
    if _GIT_ISO_DATE.fullmatch(text):
        try:
            # ``+HH:MM`` is the offset form every supported Python's
            # fromisoformat reads
            return datetime.fromisoformat(
                f"{text[:19]}{text[20:23]}:{text[23:]}"
            )
        except ValueError:  # e.g. February 30th: strptime words the error
            pass
    return parse_date_reference(text)


def _status_change(line: str) -> FileChange | None:
    """The change a name-status line records, ``None`` for other lines.

    The string-method form of ``_STATUS_RE``; the caller has checked
    that the line starts with a status letter.
    """
    status, tab, paths = line.partition("\t")
    if not tab or (
        len(status) > 1
        and (status[0] not in "RC" or not status[1:].isdecimal())
    ):
        return None
    path, tab, second = paths.partition("\t")
    if not path or (tab and not second):
        return None
    if tab and status[0] in "RC":
        return FileChange(status, second, path)
    return FileChange(status, path)


def parse_git_log(text: str) -> list[Commit]:
    """Parse git-log text into commits (in the order they appear).

    ``git log`` prints newest first; callers that need chronological order
    should reverse or use :func:`parse_repository`.
    """
    commits: list[Commit] = []
    current: Commit | None = None
    message_lines: list[str] = []
    for line in text.splitlines():
        first = line[:1]
        if first == "c":
            match = _COMMIT_RE.match(line)
            if match is not None:
                if current is not None:
                    current.message = "\n".join(message_lines).strip()
                    commits.append(current)
                current = Commit(match.group(1), "", "", datetime.min, "")
                message_lines = []
                continue
        if current is None:
            if line.strip():
                raise GitLogError(f"content before first commit: {line!r}")
            continue
        if first == " ":
            if line.startswith("    "):
                message_lines.append(line[4:])
        elif first in _STATUS_HEADS:
            if not current.author and line.startswith("Author:"):
                author, email = _AUTHOR_RE.match(line).groups()
                current.author = author or ""
                current.email = email or ""
            elif current.date is datetime.min and line.startswith("Date:"):
                current.date = parse_date(line[5:])
            else:
                change = _status_change(line)
                if change is not None:
                    current.changes.append(change)
        # anything else (blank separators, Merge: lines) is ignored
    if current is not None:
        current.message = "\n".join(message_lines).strip()
        commits.append(current)

    for commit in commits:
        if commit.date is datetime.min:
            raise GitLogError(f"commit {commit.sha[:8]} has no Date line")
    return commits


def parse_git_log_reference(text: str) -> list[Commit]:
    """The original parser: every regex tried on every line.

    Kept verbatim (bar :func:`parse_date_reference` for dates) as the
    behavioural specification of :func:`parse_git_log`.
    """
    commits: list[Commit] = []
    current: Commit | None = None
    message_lines: list[str] = []

    def flush() -> None:
        nonlocal current, message_lines
        if current is not None:
            current.message = "\n".join(message_lines).strip()
            commits.append(current)
        current = None
        message_lines = []

    for line in text.splitlines():
        match = _COMMIT_RE.match(line)
        if match:
            flush()
            current = Commit(
                sha=match.group(1),
                author="",
                email="",
                date=datetime.min,
                message="",
            )
            continue
        if current is None:
            if line.strip():
                raise GitLogError(f"content before first commit: {line!r}")
            continue
        match = _AUTHOR_RE.match(line)
        if match and not current.author:
            current.author = match.group(1) or ""
            current.email = match.group(2) or ""
            continue
        match = _DATE_RE.match(line)
        if match and current.date is datetime.min:
            current.date = parse_date_reference(match.group(1))
            continue
        match = _STATUS_RE.match(line)
        if match:
            status, path_a, path_b = match.groups()
            if status.startswith(("R", "C")) and path_b is not None:
                change = FileChange(
                    status=status, path=path_b, old_path=path_a
                )
            else:
                change = FileChange(status=status, path=path_a)
            current.changes.append(change)
            continue
        if line.startswith("    "):
            message_lines.append(line[4:])
        # anything else (blank separators, Merge: lines) is ignored
    flush()

    for commit in commits:
        if commit.date is datetime.min:
            raise GitLogError(f"commit {commit.sha[:8]} has no Date line")
    return commits


def parse_repository(name: str, text: str) -> Repository:
    """Parse git-log text into a chronologically ordered repository."""
    commits = parse_git_log(text)
    commits.sort(key=lambda c: c.date)
    return Repository(name=name, commits=commits)


def format_git_log(commits: list[Commit], *, newest_first: bool = True) -> str:
    """Emit git-log text (the inverse of :func:`parse_git_log`)."""
    ordered = list(commits)
    if newest_first:
        ordered = ordered[::-1]
    blocks: list[str] = []
    for commit in ordered:
        lines = [f"commit {commit.sha}"]
        author = commit.author or "unknown"
        email = commit.email or "unknown@example.org"
        lines.append(f"Author: {author} <{email}>")
        lines.append(f"Date:   {commit.date.strftime('%Y-%m-%d %H:%M:%S %z')}")
        lines.append("")
        message = commit.message or "(no message)"
        lines.extend(f"    {text}" for text in message.splitlines())
        lines.append("")
        for change in commit.changes:
            if change.old_path is not None:
                lines.append(
                    f"{change.status}\t{change.old_path}\t{change.path}"
                )
            else:
                lines.append(f"{change.status}\t{change.path}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
