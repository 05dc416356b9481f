"""Unit tests for the SQL lexer."""

import pytest

from repro.sqlparser import LexError, TokenType, tokenize, tokenize_reference


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


class TestBasics:
    def test_words_and_punctuation(self):
        tokens = tokenize("CREATE TABLE t (a int);")
        assert [t.value for t in tokens] == [
            "CREATE", "TABLE", "t", "(", "a", "int", ")", ";",
        ]

    def test_token_types(self):
        assert kinds("t (,);") == [
            TokenType.WORD,
            TokenType.LPAREN,
            TokenType.COMMA,
            TokenType.RPAREN,
            TokenType.SEMICOLON,
        ]

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e10")
        assert all(t.type is TokenType.NUMBER for t in tokens)

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens] == [1, 2, 3]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize(" \n\t ") == []


class TestComments:
    def test_dash_comment_to_eol(self):
        assert values("a -- comment\nb") == ["a", "b"]

    def test_hash_comment(self):
        assert values("a # comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* hidden */ b") == ["a", "b"]

    def test_block_comment_multiline(self):
        tokens = tokenize("a /* line1\nline2 */ b")
        assert [t.value for t in tokens] == ["a", "b"]
        assert tokens[1].line == 2

    def test_mysql_hint_re_lexed(self):
        assert values("/*!40101 SET NAMES utf8 */") == ["SET", "NAMES", "utf8"]

    def test_unterminated_block_comment_lenient(self):
        assert values("a /* never ends") == ["a"]

    def test_unterminated_block_comment_strict(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends", strict=True)


class TestStrings:
    def test_single_quoted(self):
        tokens = tokenize("'hello'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "hello"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_backslash_escape(self):
        assert tokenize(r"'a\'b'")[0].value == "a'b"

    def test_dollar_quoted(self):
        tokens = tokenize("$$ body; with ; semicolons $$")
        assert tokens[0].type is TokenType.STRING
        assert "semicolons" in tokens[0].value

    def test_tagged_dollar_quote(self):
        tokens = tokenize("$fn$ SELECT 1; $fn$")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value.strip() == "SELECT 1;"

    def test_unterminated_string_strict(self):
        with pytest.raises(LexError):
            tokenize("'open", strict=True)

    def test_unterminated_string_lenient(self):
        tokens = tokenize("'open")
        assert tokens[0].value == "open"


class TestQuotedIdentifiers:
    def test_backticks(self):
        tokens = tokenize("`my table`")
        assert tokens[0].type is TokenType.QUOTED
        assert tokens[0].value == "my table"

    def test_double_quotes(self):
        tokens = tokenize('"MyTable"')
        assert tokens[0].type is TokenType.QUOTED
        assert tokens[0].value == "MyTable"

    def test_brackets(self):
        tokens = tokenize("[weird name]")
        assert tokens[0].type is TokenType.QUOTED
        assert tokens[0].value == "weird name"

    def test_doubled_double_quote(self):
        assert tokenize('"a""b"')[0].value == 'a"b'

    @pytest.mark.parametrize("lex", [tokenize, tokenize_reference])
    def test_multi_line_bracket_advances_the_line(self, lex):
        name, after = lex("[a\nb] c")
        assert (name.value, name.line) == ("a\nb", 1)
        assert after.line == 2

    def test_is_name_helper(self):
        quoted, word = tokenize("`q` w")
        assert quoted.is_name()
        assert word.is_name()
        assert not tokenize("42")[0].is_name()


class TestRobustness:
    def test_unknown_bytes_become_ops(self):
        tokens = tokenize("a @ b")
        assert tokens[1].type is TokenType.OP
        assert tokens[1].value == "@"

    def test_is_word_case_insensitive(self):
        token = tokenize("create")[0]
        assert token.is_word("CREATE")
        assert not token.is_word("TABLE")

    def test_quoted_is_never_keyword(self):
        token = tokenize("`create`")[0]
        assert not token.is_word("CREATE")
