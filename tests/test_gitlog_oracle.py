"""Oracle tests for the git-log parser and its date fast path.

``parse_git_log`` dispatches on each line's first character and reads
git's own date shape with ``datetime.fromisoformat``;
``parse_git_log_reference`` tries every regex on every line and reads
dates with strptime alone.  On any text both must return the same
commits — dates equal down to their tzinfo — or raise the same error
with the same message.
"""

import string

from hypothesis import example, given, settings, strategies as st

from repro.corpus import generate_corpus
from repro.corpus.profiles import scaled_profiles
from repro.vcs import (
    parse_date,
    parse_date_reference,
    parse_git_log,
    parse_git_log_reference,
)

#: Every line boundary ``str.splitlines`` honours.
SEPARATORS = (
    "\n", "\r\n", "\r", "\v", "\f",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)

#: Decimal digits from several scripts: strptime's ``\d`` reads them all,
#: the fast path must leave them to it.
DIGITS = "0123456789\u0660\u0662\u0669\uff10\uff15\uff19\u0966\u096b"


def _outcome(fn, text):
    """What ``fn(text)`` did, in a form that compares exactly."""
    try:
        result = fn(text)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(result, list):
        return ("ok", [
            (c.sha, c.author, c.email, repr(c.date), c.message, c.changes)
            for c in result
        ])
    return ("ok", repr(result))


def _two(lo: int, hi: int):
    return st.integers(min_value=lo, max_value=hi).map(lambda n: f"{n:02d}")


@st.composite
def canonical_dates(draw):
    """``YYYY-MM-DD HH:MM:SS ±HHMM``, fields often out of range, digits
    sometimes from another script, sometimes padded with whitespace."""
    text = (
        f"{draw(st.integers(min_value=0, max_value=9999)):04d}"
        f"-{draw(_two(0, 19))}-{draw(_two(0, 39))}"
        f" {draw(_two(0, 29))}:{draw(_two(0, 69))}:{draw(_two(0, 69))}"
        f" {draw(st.sampled_from('+-'))}{draw(_two(0, 29))}{draw(_two(0, 69))}"
    )
    if draw(st.booleans()):
        chars = list(text)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            spot = draw(st.integers(min_value=0, max_value=len(chars) - 1))
            if chars[spot].isdigit():
                chars[spot] = draw(st.sampled_from(DIGITS))
        text = "".join(chars)
    pad = st.sampled_from(["", " ", "\t", "  ", "\u3000"])
    return draw(pad) + text + draw(pad)


_any_date = st.one_of(
    canonical_dates(),
    st.sampled_from([
        "2015-03-10 14:22:01 +0200",
        "2015-03-10 14:22:01",
        "2015-03-10T14:22:01+0200",
        "2015-03-10T14:22:01+02:00",
        "2015-03-10 14:22:01 +02:00",
        "2016-02-29 00:00:00 -0000",
        "2015-02-29 00:00:00 +0000",
        "yesterday",
        "",
    ]),
)

_word = st.text(
    alphabet=string.ascii_letters + string.digits + "_-./ <>@()",
    max_size=12,
)
_path = st.text(alphabet=string.ascii_lowercase + "/._ ", max_size=10)


@st.composite
def commit_lines(draw):
    sha = draw(st.text(alphabet="0123456789abcdef", min_size=3, max_size=41))
    head = draw(st.sampled_from(["commit ", "commit", "Commit "]))
    tail = draw(st.sampled_from(["", " (HEAD -> main)", " (tag", "  ()", "x"]))
    return head + sha + tail


@st.composite
def author_lines(draw):
    head = draw(st.sampled_from(["Author:", "Author: ", "Author:\t"]))
    name = draw(st.sampled_from(
        ["", "Ann", "Ann Lee", " <a@x>", "Bo <b@x> ", "C <c>d>"]
    ))
    return head + name + draw(_word)


@st.composite
def date_lines(draw):
    return draw(st.sampled_from(["Date:   ", "Date:", "Date:\t"])) + draw(
        _any_date
    )


@st.composite
def status_lines(draw):
    # U+0663 is a decimal digit (regex ``\d``); U+00B2 is a digit, not decimal
    status = draw(st.sampled_from([
        "A", "M", "D", "T", "U", "X", "R", "C", "R100", "C075",
        "R\u0663", "C\u00b2", "R1a", "AM", "Z", "r100", "",
    ]))
    parts = [draw(_path) for _ in range(draw(st.integers(1, 3)))]
    return status + "\t" + "\t".join(parts)


@st.composite
def message_lines(draw):
    indent = draw(st.sampled_from(["    ", "     ", "   ", "\t", ""]))
    return indent + draw(_word)


_junk = st.one_of(
    st.sampled_from(["", " ", "Merge: abc def", "  \t", "Date", "Author"]),
    st.text(max_size=12),
)


@st.composite
def git_logs(draw):
    """A git log: mostly well-formed blocks, with junk in between."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.append(draw(commit_lines()))
        lines.extend(draw(st.lists(
            st.one_of(
                author_lines(), date_lines(), status_lines(),
                message_lines(), _junk,
            ),
            max_size=8,
        )))
    if lines and draw(st.booleans()):
        lines.insert(0, draw(_junk))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(SEPARATORS))
    return text


class TestParseGitLogOracle:
    @settings(max_examples=400, deadline=None)
    @given(git_logs())
    @example("commit abcd\nAuthor: A <a@x>\nDate: 2015-03-10 14:22:01 +0200\n")
    @example("commit abcd\nDate:   2015-02-30 10:00:00 +0000\n")
    @example("commit abcd\nAuthor: A\tB\nAuthor: C <c@x>\nDate: 2015-03-10\n")
    @example("commit abcd\nDate: 2015-01-01 00:00:00\nR100\tx\tr\t\nM\tx\t\n")
    def test_matches_reference(self, text):
        assert _outcome(parse_git_log, text) == _outcome(
            parse_git_log_reference, text
        )

    def test_generated_corpus_matches_reference(self):
        for project in generate_corpus(profiles=scaled_profiles(16)):
            text = project.git_log_text
            assert parse_git_log(text) == parse_git_log_reference(text)


class TestParseDateOracle:
    @settings(max_examples=600, deadline=None)
    @given(canonical_dates())
    @example("2015-13-10 14:22:01 +0200")
    @example("2015-03-10 23:59:60 +0200")
    @example("2015-03-10 14:22:01 +0060")
    @example("2015-03-10 14:22:01 +2400")
    @example("2015-03-10 24:00:00 +0000")
    @example("2015-02-29 14:22:01 +0000")
    @example("\u0662\u0660\u0661\u0665-03-10 14:22:01 +0200")
    @example("2015-03-10 14:22:01 -0000")
    def test_matches_strptime(self, text):
        assert _outcome(parse_date, text) == _outcome(
            parse_date_reference, text
        )

    def test_fast_path_values(self):
        moment = parse_date("2015-03-10 14:22:01 -0330")
        assert moment.utcoffset().total_seconds() == -(3 * 3600 + 1800)
        assert (moment.year, moment.month, moment.day) == (2015, 3, 10)
