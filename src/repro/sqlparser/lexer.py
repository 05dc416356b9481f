"""A tokenizer for SQL DDL scripts.

Handles the lexical quirks of the two dialects the study corpus uses
(MySQL and PostgreSQL):

* ``--`` line comments, ``#`` line comments (MySQL), ``/* ... */`` block
  comments (including MySQL's executable ``/*! ... */`` hints, whose body
  is re-lexed as ordinary tokens);
* single-quoted strings with ``''`` and backslash escapes;
* backtick-quoted identifiers (MySQL), double-quoted identifiers
  (PostgreSQL / ANSI), bracket-quoted identifiers (for robustness against
  SQL Server flavoured files in the wild);
* dollar-quoted strings (PostgreSQL ``$$ ... $$`` / ``$tag$ ... $tag$``);
* numbers, operators and punctuation.

The lexer never fails: unknown bytes become single-character OP tokens so
the statement splitter downstream can always make progress.
"""

from __future__ import annotations

import re
import sys
from enum import Enum, auto


class TokenType(Enum):
    WORD = auto()        # bare identifier or keyword
    QUOTED = auto()      # quoted identifier (backtick / double-quote / [])
    STRING = auto()      # string literal
    NUMBER = auto()
    OP = auto()          # punctuation / operator character(s)
    SEMICOLON = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()


#: Memo of ``value -> sys.intern(value.upper())``.  DDL vocabulary is
#: small (keywords plus the corpus's identifier pool), so the memo stays
#: bounded while turning every keyword comparison in the parser into a
#: pointer check against interned literals.
_UPPER_MEMO: dict[str, str] = {}


def _interned_upper(value: str) -> str:
    cached = _UPPER_MEMO.get(value)
    if cached is None:
        cached = sys.intern(value.upper())
        _UPPER_MEMO[value] = cached
    return cached


class Token:
    """One lexical token.

    ``value`` is the decoded payload (quotes stripped, escapes resolved for
    identifiers); ``raw`` is the exact source slice.  Implemented with
    ``__slots__`` (tokens are the most-allocated object on the mine hot
    path); equality and hashing follow the ``(type, value, raw, line)``
    tuple exactly as the former frozen dataclass did.
    """

    __slots__ = ("type", "value", "raw", "line", "_upper")

    def __init__(self, type: TokenType, value: str, raw: str, line: int):
        self.type = type
        self.value = value
        self.raw = raw
        self.line = line
        # Only name-like tokens are ever keyword-compared; others
        # resolve ``upper`` lazily through the property below.
        if type is TokenType.WORD or type is TokenType.QUOTED:
            self._upper = _interned_upper(value)
        else:
            self._upper = None

    @property
    def upper(self) -> str:
        cached = self._upper
        return cached if cached is not None else self.value.upper()

    def is_word(self, *words: str) -> bool:
        return self.type is TokenType.WORD and self._upper in words

    def is_name(self) -> bool:
        """Usable as an identifier (bare word or quoted)."""
        return self.type in (TokenType.WORD, TokenType.QUOTED)

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, value={self.value!r}, "
            f"raw={self.raw!r}, line={self.line!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.type is other.type
            and self.value == other.value
            and self.raw == other.raw
            and self.line == other.line
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value, self.raw, self.line))


class LexError(Exception):
    """Raised on irrecoverably malformed input (unterminated quote)."""


_WORD_RE = re.compile(r"[A-Za-z_\$][A-Za-z0-9_\$]*")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
_DOLLAR_TAG_RE = re.compile(r"\$([A-Za-z_]\w*)?\$")

_SINGLE_OPS = {
    ";": TokenType.SEMICOLON,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
}

#: Single compiled master pattern for the common token shapes.  One
#: ``match`` call replaces the per-character dispatch chain for
#: whitespace runs, line comments, bare words, numbers and structural
#: punctuation — the overwhelming majority of tokens in real DDL.
#: Quoting (strings, identifiers, dollar quotes) and block comments
#: stay on the explicit dispatch path below.  ``$``-initial words are
#: excluded here because ``$`` may open a dollar quote.
_MASTER_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>--[^\n]*|\#[^\n]*)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_\$]*)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>[;(),])"
)


def tokenize(text: str, *, strict: bool = False) -> list[Token]:
    """Tokenize an SQL script (single-pass master-regex fast path).

    Behaviour-identical to :func:`tokenize_reference` (the original
    per-character implementation, kept as the equivalence oracle).

    Args:
        text: the script.
        strict: when True, unterminated quotes raise :class:`LexError`;
            when False (the default, suitable for mining files in the
            wild), the remainder of the file is consumed as one token.
    """
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    line = 1
    n = len(text)
    master_match = _MASTER_RE.match
    word_type = TokenType.WORD
    number_type = TokenType.NUMBER

    def advance_lines(chunk: str) -> None:
        nonlocal line
        line += chunk.count("\n")

    while i < n:
        match = master_match(text, i)
        if match is not None:
            # group indices follow _MASTER_RE's alternation order:
            # 1=ws 2=comment 3=word 4=number 5=punct
            kind = match.lastindex
            if kind == 3:
                word = match.group()
                append(Token(word_type, word, word, line))
            elif kind == 1:
                chunk = match.group()
                if "\n" in chunk:
                    line += chunk.count("\n")
            elif kind == 5:
                ch = match.group()
                append(Token(_SINGLE_OPS[ch], ch, ch, line))
            elif kind == 4:
                num = match.group()
                append(Token(number_type, num, num, line))
            # else: line comment — skip
            i = match.end()
            continue

        ch = text[i]

        # /* block comment */  (MySQL executable hints are re-lexed)
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                if strict:
                    raise LexError(f"unterminated block comment at line {line}")
                advance_lines(text[i:])
                break
            body = text[i + 2:end]
            if body.startswith("!"):
                hint = re.sub(r"^!\d*", "", body)
                tokens.extend(
                    Token(t.type, t.value, t.raw, line + _offset_lines(text, i, t))
                    for t in tokenize(hint, strict=strict)
                )
            advance_lines(text[i:end + 2])
            i = end + 2
            continue

        # string literal
        if ch == "'":
            value, raw, consumed = _read_quoted(text, i, "'", strict, line)
            append(Token(TokenType.STRING, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue

        # dollar-quoted string (PostgreSQL) or a '$'-initial bare word
        if ch == "$":
            match = _DOLLAR_TAG_RE.match(text, i)
            if match:
                tag = match.group(0)
                end = text.find(tag, match.end())
                if end == -1:
                    if strict:
                        raise LexError(
                            f"unterminated dollar quote at line {line}"
                        )
                    raw = text[i:]
                    append(
                        Token(TokenType.STRING, text[match.end():], raw, line)
                    )
                    advance_lines(raw)
                    break
                raw = text[i:end + len(tag)]
                append(
                    Token(TokenType.STRING, text[match.end():end], raw, line)
                )
                advance_lines(raw)
                i = end + len(tag)
                continue
            word_match = _WORD_RE.match(text, i)
            assert word_match is not None  # '$' alone matches the word RE
            word = word_match.group(0)
            append(Token(TokenType.WORD, word, word, line))
            i = word_match.end()
            continue

        # quoted identifiers
        if ch == "`":
            value, raw, consumed = _read_quoted(text, i, "`", strict, line)
            append(Token(TokenType.QUOTED, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue
        if ch == '"':
            value, raw, consumed = _read_quoted(text, i, '"', strict, line)
            append(Token(TokenType.QUOTED, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue
        if ch == "[":
            end = text.find("]", i + 1)
            if end == -1:
                append(Token(TokenType.OP, "[", "[", line))
                i += 1
                continue
            raw = text[i:end + 1]
            append(Token(TokenType.QUOTED, text[i + 1:end], raw, line))
            advance_lines(raw)
            i = end + 1
            continue

        # anything else: operator / unknown byte, one character at a time
        append(Token(_SINGLE_OPS.get(ch, TokenType.OP), ch, ch, line))
        i += 1

    return tokens


def tokenize_reference(text: str, *, strict: bool = False) -> list[Token]:
    """The original per-character tokenizer.

    Kept verbatim as the behavioural specification for :func:`tokenize`;
    the equivalence tests run both over the corpus generator's output
    and adversarial scripts and require identical token streams.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(text)

    def advance_lines(chunk: str) -> None:
        nonlocal line
        line += chunk.count("\n")

    while i < n:
        ch = text[i]

        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
            i += 1
            continue

        # -- line comment
        if ch == "-" and text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end
            continue

        # # line comment (MySQL)
        if ch == "#":
            end = text.find("\n", i)
            i = n if end == -1 else end
            continue

        # /* block comment */  (MySQL executable hints are re-lexed)
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                if strict:
                    raise LexError(f"unterminated block comment at line {line}")
                advance_lines(text[i:])
                break
            body = text[i + 2:end]
            if body.startswith("!"):
                hint = re.sub(r"^!\d*", "", body)
                tokens.extend(
                    Token(t.type, t.value, t.raw, line + _offset_lines(text, i, t))
                    for t in tokenize_reference(hint, strict=strict)
                )
            advance_lines(text[i:end + 2])
            i = end + 2
            continue

        # string literal
        if ch == "'":
            value, raw, consumed = _read_quoted_reference(
                text, i, "'", strict, line
            )
            tokens.append(Token(TokenType.STRING, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue

        # dollar-quoted string (PostgreSQL)
        if ch == "$":
            match = _DOLLAR_TAG_RE.match(text, i)
            if match:
                tag = match.group(0)
                end = text.find(tag, match.end())
                if end == -1:
                    if strict:
                        raise LexError(
                            f"unterminated dollar quote at line {line}"
                        )
                    raw = text[i:]
                    tokens.append(
                        Token(TokenType.STRING, text[match.end():], raw, line)
                    )
                    advance_lines(raw)
                    break
                raw = text[i:end + len(tag)]
                tokens.append(
                    Token(TokenType.STRING, text[match.end():end], raw, line)
                )
                advance_lines(raw)
                i = end + len(tag)
                continue

        # quoted identifiers
        if ch == "`":
            value, raw, consumed = _read_quoted_reference(
                text, i, "`", strict, line
            )
            tokens.append(Token(TokenType.QUOTED, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue
        if ch == '"':
            value, raw, consumed = _read_quoted_reference(
                text, i, '"', strict, line
            )
            tokens.append(Token(TokenType.QUOTED, value, raw, line))
            advance_lines(raw)
            i += consumed
            continue
        if ch == "[":
            end = text.find("]", i + 1)
            if end == -1:
                tokens.append(Token(TokenType.OP, "[", "[", line))
                i += 1
                continue
            raw = text[i:end + 1]
            tokens.append(Token(TokenType.QUOTED, text[i + 1:end], raw, line))
            advance_lines(raw)
            i = end + 1
            continue

        # number (ASCII digits only: str.isdigit also accepts Unicode
        # digit-like characters that the number pattern rejects)
        if ch in "0123456789":
            match = _NUMBER_RE.match(text, i)
            assert match is not None
            tokens.append(
                Token(TokenType.NUMBER, match.group(0), match.group(0), line)
            )
            i = match.end()
            continue

        # word
        match = _WORD_RE.match(text, i)
        if match:
            word = match.group(0)
            tokens.append(Token(TokenType.WORD, word, word, line))
            i = match.end()
            continue

        # structural single characters & everything else
        token_type = _SINGLE_OPS.get(ch, TokenType.OP)
        tokens.append(Token(token_type, ch, ch, line))
        i += 1

    return tokens


def _offset_lines(text: str, start: int, token: Token) -> int:
    # line numbers inside re-lexed hint bodies are approximate
    return 0


def _read_quoted(
    text: str, start: int, quote: str, strict: bool, line: int
) -> tuple[str, str, int]:
    """Read a quoted region starting at ``start``.

    Returns ``(decoded_value, raw_slice, consumed_chars)``, as
    :func:`_read_quoted_reference` does.  A region holding no escape
    closes at the next quote, found with one ``str.find``; any other
    region goes through the reference loop.
    """
    end = text.find(quote, start + 1)
    if end != -1 and text[end + 1:end + 2] != quote:
        value = text[start + 1:end]
        if quote == '"' or "\\" not in value:
            return value, text[start:end + 1], end + 1 - start
    return _read_quoted_reference(text, start, quote, strict, line)


def _read_quoted_reference(
    text: str, start: int, quote: str, strict: bool, line: int
) -> tuple[str, str, int]:
    """Read a quoted region starting at ``start``, one character at a time.

    Returns ``(decoded_value, raw_slice, consumed_chars)``.  Doubling the
    quote escapes it; backslash escapes are honoured inside single quotes
    and backticks (MySQL behaviour).
    """
    out: list[str] = []
    i = start + 1
    n = len(text)
    backslash_escapes = quote in ("'", "`")
    while i < n:
        ch = text[i]
        if ch == "\\" and backslash_escapes and i + 1 < n:
            out.append(text[i + 1])
            i += 2
            continue
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:
                out.append(quote)
                i += 2
                continue
            return "".join(out), text[start:i + 1], i + 1 - start
        out.append(ch)
        i += 1
    if strict:
        raise LexError(f"unterminated {quote!r} quote at line {line}")
    return "".join(out), text[start:], n - start
