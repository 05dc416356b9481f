"""Cheap top-level statement segmentation for DDL scripts.

The incremental parse engine exploits the fact that consecutive versions
of a mined DDL file are ~99% identical *statement by statement*.  To
cache per-statement parse work it first needs statement boundaries —
but running the full lexer to find them would cost almost as much as the
parse it is trying to avoid.  This module finds top-level ``;``
boundaries with a single regex-driven scan that only inspects the
characters that can affect statement structure: quote openers, comment
openers, and semicolons.  Everything between those characters is skipped
in bulk.

The scanner mirrors the lexer's lenient consumption rules exactly
(``--``/``#`` line comments, ``/* */`` block comments, ``'`` strings and
backtick identifiers with backslash + doubling escapes, ``"`` doubling
only, ``[...]`` bracket identifiers, ``$tag$ ... $tag$`` dollar quotes,
unterminated regions consuming the rest of the file), so a ``;`` is a
segment boundary here if and only if the lexer would emit a SEMICOLON
token for it.  Two constructs it cannot localise make
:func:`segment_statements` return ``None``, and the caller falls back to
whole-file parsing:

* MySQL's executable comment hint ``/*! ... */`` with a ``;`` anywhere
  in its body — the body is re-lexed and may contain top-level
  semicolons.  Semicolon-free hints (the usual mysqldump ``SET``
  headers) segment normally.
* A dollar tag right after an identifier character (``price$$``,
  ``a$b$``).  The lexer reads the ``$`` signs as part of the word, so
  they open no dollar quote, but the scan only sees the ``$``.

Segments are contiguous and cover the input exactly: concatenating
``segment.text`` for every segment reproduces the original string, so
per-segment lexing composes to the whole-file token stream (with line
numbers offset by ``segment.line - 1``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lexer import _DOLLAR_TAG_RE

#: Characters (and two-character openers) that can affect statement
#: structure.  The scan jumps between matches; plain identifier/number
#: text in between is never inspected.
_SCAN_RE = re.compile(r"--|/\*|[;'\"`$#\[]")

#: Characters that can precede a ``$`` inside one lexer word.
_WORD_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$"
)


@dataclass(frozen=True)
class Segment:
    """One top-level statement slice.

    ``text`` is the exact source slice (leading whitespace/comments and
    the trailing ``;`` included); ``line`` is the 1-based line number of
    the slice's first character in the original script.
    """

    text: str
    line: int


def _skip_quoted(text: str, start: int, quote: str, backslash: bool) -> int:
    """Return the index just past a quoted region opened at ``start``.

    Doubled quotes always escape; backslash escapes apply for ``'`` and
    backtick (matching ``lexer._read_quoted``).  An unterminated quote
    consumes the rest of the input, as in lenient lexing.  Up to its
    first backslash a region closes at the next quote, found with one
    ``str.find``: a doubled quote then reads as a close and a reopen,
    which ends the region where the loop below would.
    """
    end = text.find(quote, start + 1)
    if end != -1 and not (
        backslash and text.find("\\", start + 1, end) != -1
    ):
        return end + 1
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if backslash and ch == "\\" and i + 1 < n:
            i += 2
            continue
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _comment_prefix_end(text: str) -> int:
    """Length of the leading run of whitespace and complete comments.

    Version headers ("-- cosmetic revision N", dump timestamps) change
    every version while the statement they precede does not; splitting
    the comment run into its own segment keeps the statement's cache
    key stable.  Only *complete* comments count (a line comment without
    a trailing newline, or an unterminated block comment, would leave
    the remainder unlexable on its own), and ``/*!`` hints never do —
    they produce tokens.
    """
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if (ch == "-" and text.startswith("--", i)) or ch == "#":
            end = text.find("\n", i)
            if end == -1:
                return i
            i = end + 1
            continue
        if ch == "/" and text.startswith("/*", i) and not text.startswith("/*!", i):
            end = text.find("*/", i + 2)
            if end == -1:
                return i
            i = end + 2
            continue
        break
    return i


def segment_statements(text: str) -> list[Segment] | None:
    """Split ``text`` into top-level statement segments without lexing.

    Returns ``None`` when the input holds a construct the scan cannot
    localise (see the module docstring): a MySQL executable comment
    hint (``/*!``) with a ``;`` in its body, or a dollar tag right
    after an identifier character.  Callers must fall back to
    whole-file parsing in that case.
    """
    boundaries: list[int] = []
    n = len(text)
    i = 0
    search = _SCAN_RE.search
    find = text.find
    while i < n:
        match = search(text, i)
        if match is None:
            break
        j = match.start()
        tok = match.group()
        if tok == ";":
            boundaries.append(j)
            i = j + 1
        elif tok == "--" or tok == "#":
            end = find("\n", j)
            i = n if end == -1 else end
        elif tok == "/*":
            end = find("*/", j + 2)
            if text.startswith("/*!", j):
                # Executable hint: its body is re-lexed, so a ';' in
                # there (even inside a string literal) could be a
                # top-level semicolon this scan cannot see — bail.
                # Semicolon-free hints (the overwhelmingly common
                # mysqldump headers) segment like ordinary comments.
                body = text[j + 2:] if end == -1 else text[j + 2:end]
                if ";" in body:
                    return None
            i = n if end == -1 else end + 2
        elif tok == "'":
            i = _skip_quoted(text, j, "'", backslash=True)
        elif tok == "`":
            i = _skip_quoted(text, j, "`", backslash=True)
        elif tok == '"':
            i = _skip_quoted(text, j, '"', backslash=False)
        elif tok == "[":
            end = find("]", j + 1)
            i = j + 1 if end == -1 else end + 1
        else:  # "$": dollar quote or a '$'-initial bare word
            tag_match = _DOLLAR_TAG_RE.match(text, j)
            if tag_match:
                if j and text[j - 1] in _WORD_CHARS:
                    # the lexer may read this '$' inside a word
                    return None
                tag = tag_match.group(0)
                end = find(tag, tag_match.end())
                i = n if end == -1 else end + len(tag)
            else:
                i = j + 1

    segments: list[Segment] = []
    prev = 0
    line = 1

    def emit(slice_text: str, at_line: int) -> None:
        cut = _comment_prefix_end(slice_text)
        if 0 < cut < len(slice_text):
            prefix = slice_text[:cut]
            segments.append(Segment(prefix, at_line))
            segments.append(Segment(slice_text[cut:], at_line + prefix.count("\n")))
        else:
            segments.append(Segment(slice_text, at_line))

    for boundary in boundaries:
        end = boundary + 1  # include the semicolon
        emit(text[prev:end], line)
        line += text.count("\n", prev, end)
        prev = end
    if prev < n:
        emit(text[prev:], line)
    return segments
