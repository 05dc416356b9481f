"""Unit tests for the VCS substrate and git-log text I/O."""

from datetime import datetime, timezone

import pytest

from repro.heartbeat import Month
from repro.mining import mine_project_activity
from repro.vcs import (
    Commit,
    FileChange,
    FileVersion,
    GitLogError,
    Repository,
    format_git_log,
    parse_date,
    parse_git_log,
    parse_repository,
    synthetic_sha,
    utc,
)

SAMPLE_LOG = """commit 3f786850e387550fdab836ed7e6dc881de23001b
Author: Alice <alice@example.org>
Date:   2016-02-10 09:30:00 +0000

    schema: add comments table

M\tschema.sql
A\tsrc/comments.js
M\tsrc/app.js

commit 89e6c98d92887913cadf06b2adb97f26cde4849b
Author: Bob <bob@example.org>
Date:   2015-12-01 17:05:44 +0200

    initial import

A\tschema.sql
A\tsrc/app.js
A\tREADME.md
"""


class TestParseGitLog:
    def test_commit_count_and_order(self):
        commits = parse_git_log(SAMPLE_LOG)
        assert len(commits) == 2
        assert commits[0].sha.startswith("3f78")  # newest first, as printed

    def test_author_and_email(self):
        commits = parse_git_log(SAMPLE_LOG)
        assert commits[0].author == "Alice"
        assert commits[1].email == "bob@example.org"

    def test_dates_with_offsets(self):
        commits = parse_git_log(SAMPLE_LOG)
        assert commits[1].date.utcoffset().total_seconds() == 7200

    def test_messages(self):
        commits = parse_git_log(SAMPLE_LOG)
        assert commits[0].message == "schema: add comments table"

    def test_file_changes(self):
        commits = parse_git_log(SAMPLE_LOG)
        assert commits[0].files_updated == 3
        statuses = [c.status for c in commits[0].changes]
        assert statuses == ["M", "A", "M"]

    def test_rename_entries(self):
        log = SAMPLE_LOG + (
            "\ncommit aaaa567890123456789012345678901234567890\n"
            "Author: C <c@x>\n"
            "Date:   2016-03-01 10:00:00 +0000\n\n"
            "    move\n\n"
            "R100\told/path.js\tnew/path.js\n"
        )
        commits = parse_git_log(log)
        rename = commits[-1].changes[0]
        assert rename.kind == "R"
        assert rename.path == "new/path.js"
        assert rename.old_path == "old/path.js"

    def test_missing_date_raises(self):
        bad = "commit 3f786850e387\nAuthor: A <a@x>\n\n    msg\n"
        with pytest.raises(GitLogError):
            parse_git_log(bad)

    def test_garbage_before_first_commit_raises(self):
        with pytest.raises(GitLogError):
            parse_git_log("not a log\n" + SAMPLE_LOG)

    def test_empty_log(self):
        assert parse_git_log("") == []

    def test_decorated_commit_line(self):
        log = SAMPLE_LOG.replace(
            "commit 3f786850e387550fdab836ed7e6dc881de23001b",
            "commit 3f786850e387550fdab836ed7e6dc881de23001b (HEAD -> main)",
        )
        assert len(parse_git_log(log)) == 2


class TestRoundTrip:
    def test_format_then_parse(self):
        commits = parse_git_log(SAMPLE_LOG)
        text = format_git_log(commits[::-1], newest_first=True)
        reparsed = parse_git_log(text)
        assert [c.sha for c in reparsed] == [c.sha for c in commits]
        assert [c.files_updated for c in reparsed] == [3, 3]
        assert [c.date for c in reparsed] == [c.date for c in commits]

    def test_format_empty(self):
        assert format_git_log([]) == ""

    def test_multiline_message_roundtrip(self):
        commit = Commit(
            sha=synthetic_sha("x"),
            author="A",
            email="a@x",
            date=utc(2020, 1),
            message="line one\nline two",
            changes=[FileChange("A", "f.txt")],
        )
        reparsed = parse_git_log(format_git_log([commit]))
        assert reparsed[0].message == "line one\nline two"


class TestParseDate:
    def test_iso_with_offset(self):
        moment = parse_date("2015-12-01 17:05:44 +0200")
        assert moment.year == 2015

    def test_iso_t_form(self):
        assert parse_date("2015-12-01T17:05:44+0200").month == 12

    def test_naive_fallback(self):
        assert parse_date("2015-12-01 17:05:44").day == 1

    def test_garbage_raises(self):
        with pytest.raises(GitLogError):
            parse_date("yesterday-ish")

    def test_date_without_offset_reads_as_utc(self):
        assert parse_date("2015-12-01 17:05:44").tzinfo is timezone.utc


#: One commit with an offset, one without: a real clone can print both.
MIXED_OFFSET_LOG = """commit 1111567890123456789012345678901234567890
Author: Alice <alice@example.org>
Date:   2015-03-10 14:22:01 +0200

    with offset

M\tsrc/app.js

commit 2222567890123456789012345678901234567890
Author: Bob <bob@example.org>
Date:   2015-03-09 10:00:00

    without offset

A\tsrc/app.js
"""


class TestMixedOffsets:
    def test_mixed_offset_log_parses_and_sorts(self):
        repo = parse_repository("mixed", MIXED_OFFSET_LOG)
        assert [c.sha[:4] for c in repo.commits] == ["2222", "1111"]
        assert all(c.date.tzinfo is not None for c in repo.commits)
        assert repo.commits[0].date == datetime(
            2015, 3, 9, 10, tzinfo=timezone.utc
        )

    def test_months_follow_the_printed_calendar_date(self):
        # 23:30 at -0200 on March 31st is April 1st in UTC, and sorts
        # after the April 1st 00:30 +0200 commit (March 31st in UTC):
        # each still counts in the month its own date line prints
        log = (
            "commit aaaa\nDate:   2015-03-31 23:30:00 -0200\n\nM\tx\nM\ty\n"
            "commit bbbb\nDate:   2015-04-01 00:30:00 +0200\n\nM\tx\n"
        )
        repo = parse_repository("boundary", log)
        assert [c.sha for c in repo.commits] == ["bbbb", "aaaa"]
        heartbeat = mine_project_activity(repo)
        assert heartbeat.start == Month(2015, 3)
        assert heartbeat.end == Month(2015, 4)
        assert list(heartbeat.values) == [2.0, 1.0]


class TestRepository:
    def test_parse_repository_sorts_chronologically(self):
        repo = parse_repository("demo", SAMPLE_LOG)
        assert repo.commits[0].sha.startswith("89e6")
        assert repo.start_date < repo.end_date

    def test_add_commit_rejects_time_travel(self):
        repo = parse_repository("demo", SAMPLE_LOG)
        stale = Commit(
            sha=synthetic_sha("old"),
            author="X",
            email="x@x",
            date=utc(2010, 1),
            message="too old",
        )
        with pytest.raises(ValueError):
            repo.add_commit(stale)

    def test_commits_touching(self):
        repo = parse_repository("demo", SAMPLE_LOG)
        touching = repo.commits_touching("schema.sql")
        assert len(touching) == 2

    def test_paths(self):
        repo = parse_repository("demo", SAMPLE_LOG)
        assert "README.md" in repo.paths()

    def test_file_versions(self):
        repo = Repository(name="x")
        repo.record_version(
            "schema.sql",
            FileVersion(synthetic_sha(1), utc(2020, 1), "CREATE TABLE t();"),
        )
        assert len(repo.versions_of("schema.sql")) == 1
        assert repo.versions_of("missing.sql") == []

    def test_empty_repo_dates_raise(self):
        with pytest.raises(ValueError):
            Repository(name="x").start_date

    def test_synthetic_sha_deterministic(self):
        assert synthetic_sha("a", 1) == synthetic_sha("a", 1)
        assert synthetic_sha("a", 1) != synthetic_sha("a", 2)
        assert len(synthetic_sha("q")) == 40


class TestFileChange:
    def test_kind_strips_score(self):
        assert FileChange("R086", "b", "a").kind == "R"

    def test_empty_status_rejected(self):
        with pytest.raises(ValueError):
            FileChange("", "p")
