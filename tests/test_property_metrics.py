"""Property-based tests for co-evolution metrics and text pipelines."""

import dataclasses
import random
import string
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings, strategies as st

from repro.coevolution import (
    JointProgress,
    advance_over_source,
    advance_over_time,
    always_in_advance,
    attainment_fraction,
    theta_synchronicity,
)
from repro.migrate import replace_identifiers
from repro.vcs import (
    Commit,
    FileChange,
    format_git_log,
    parse_git_log,
    synthetic_sha,
)


@st.composite
def cumulative_series(draw, max_len=40):
    """A monotone series in (0, 1] ending at exactly 1.0."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    increments = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(increments) or 1.0
    running = 0.0
    series = []
    for inc in increments:
        running += inc / total
        series.append(min(1.0, running))
    series[-1] = 1.0
    return series


@st.composite
def joint_progress(draw):
    project = draw(cumulative_series())
    n = len(project)
    schema = draw(cumulative_series(max_len=n))
    # pad/truncate the schema to the same length
    if len(schema) < n:
        schema = [0.0] * (n - len(schema)) + schema
    return JointProgress.from_series(project, schema[:n])


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(joint_progress())
    def test_synchronicity_bounds_and_monotonicity(self, jp):
        narrow = theta_synchronicity(jp, 0.05)
        wide = theta_synchronicity(jp, 0.10)
        full = theta_synchronicity(jp, 1.0)
        assert 0 <= narrow <= wide <= full <= 1
        assert full == 1.0  # |difference of two [0,1] values| <= 1

    @settings(max_examples=60, deadline=None)
    @given(joint_progress())
    def test_advance_bounds(self, jp):
        for value in (advance_over_source(jp), advance_over_time(jp)):
            if value is not None:
                assert 0 <= value <= 1

    @settings(max_examples=60, deadline=None)
    @given(joint_progress())
    def test_always_flags_consistent_with_advance(self, jp):
        over_time, over_source, over_both = always_in_advance(jp)
        assert over_both == (over_time and over_source)
        if over_time:
            assert advance_over_time(jp) == 1.0
        if over_source:
            assert advance_over_source(jp) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(joint_progress())
    def test_attainment_monotone_in_alpha(self, jp):
        alphas = (0.25, 0.5, 0.75, 0.8, 1.0)
        fractions = [attainment_fraction(jp, a) for a in alphas]
        assert fractions == sorted(fractions)
        assert all(0 < f <= 1 for f in fractions)

    @settings(max_examples=60, deadline=None)
    @given(joint_progress())
    def test_last_month_everything_complete(self, jp):
        assert jp.project[-1] == 1.0
        assert jp.schema[-1] == 1.0
        assert jp.time[-1] == 1.0


_path_chars = st.text(
    alphabet=string.ascii_lowercase + string.digits + "_",
    min_size=1,
    max_size=12,
)


_message_lines = st.text(
    alphabet=string.ascii_letters + string.digits + " .:-",
    min_size=1,
    max_size=30,
)

#: UTC offsets in whole minutes, as ``%z`` prints them (±HHMM).
_offsets = st.integers(min_value=-(24 * 60 - 1), max_value=24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)


@st.composite
def file_changes(draw, i: int, j: int):
    path = f"dir/{draw(_path_chars)}_{i}_{j}.py"
    status = draw(st.sampled_from(["A", "M", "D", "R100", "C075"]))
    if status[0] in "RC":
        return FileChange(status, path, f"old/{draw(_path_chars)}.py")
    return FileChange(status, path)


@st.composite
def commits(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    out = []
    moment = datetime(2015, 1, 1, tzinfo=timezone.utc)
    for i in range(n):
        moment += timedelta(minutes=draw(st.integers(1, 10_000)))
        n_files = draw(st.integers(min_value=1, max_value=5))
        changes = [draw(file_changes(i, j)) for j in range(n_files)]
        # empty, one-line or multi-line (blank lines inside included);
        # the log keeps a message minus its outer whitespace
        lines = draw(st.lists(
            st.one_of(_message_lines, st.just("")), max_size=4
        ))
        out.append(
            Commit(
                sha=synthetic_sha("prop", i),
                author=draw(st.sampled_from(["Dev", "Ann Lee", "X"])),
                email="dev@example.org",
                date=moment.astimezone(draw(_offsets)),
                message="\n".join(lines).strip(),
                changes=changes,
            )
        )
    return out


class TestGitLogRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(commits())
    def test_format_parse_roundtrip(self, commit_list):
        text = format_git_log(commit_list, newest_first=True)
        reparsed = parse_git_log(text)[::-1]  # back to chronological
        expected = [
            dataclasses.replace(
                commit, message=commit.message or "(no message)"
            )
            for commit in commit_list
        ]
        assert reparsed == expected
        assert [c.date.utcoffset() for c in reparsed] == [
            c.date.utcoffset() for c in commit_list
        ]


_identifiers = st.text(
    alphabet=string.ascii_lowercase + "_", min_size=2, max_size=10
).filter(lambda s: not s.startswith("_"))


class TestRewriteProperties:
    @settings(max_examples=60, deadline=None)
    @given(_identifiers, _identifiers)
    def test_rename_then_rename_back_is_identity(self, old, new):
        if old == new:
            return
        sql = f"SELECT {old}, other_col FROM some_table WHERE {old} > 1"
        if new in sql:
            return  # the fresh name must actually be fresh
        forward = replace_identifiers(sql, {old: new})
        back = replace_identifiers(forward, {new: old})
        assert back == sql

    @settings(max_examples=60, deadline=None)
    @given(_identifiers, _identifiers)
    def test_literals_never_rewritten(self, old, new):
        if old == new:
            return
        sql = f"SELECT x FROM t WHERE note = '{old} inside literal'"
        rewritten = replace_identifiers(sql, {old: new})
        assert f"'{old} inside literal'" in rewritten
