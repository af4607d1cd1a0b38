"""Unit tests for the spec-language lexer."""

import pytest

from repro.errors import SpecSyntaxError
from repro.spec import Token, TokenType, tokenize


def _types(source):
    return [t.type for t in tokenize(source)]


def _values(source):
    return [t.value for t in tokenize(source)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_input_is_just_eof(self):
        (token,) = tokenize("")
        assert token.type is TokenType.EOF

    def test_whitespace_only(self):
        (token,) = tokenize("   \n\t  \n")
        assert token.type is TokenType.EOF

    def test_comments_skipped(self):
        tokens = tokenize("# a comment\nbroker # trailing\n")
        assert [t.type for t in tokens] == [TokenType.KEYWORD, TokenType.EOF]

    def test_identifiers_and_keywords(self):
        tokens = tokenize("principal consumer Alice")
        assert tokens[0].is_keyword("principal")
        assert tokens[1].is_keyword("consumer")
        assert tokens[2].type is TokenType.IDENT
        assert tokens[2].value == "Alice"

    def test_identifier_with_digits_dash_underscore(self):
        assert _values("Broker1 t-1 x_y") == ["Broker1", "t-1", "x_y"]

    def test_braces_and_arrow(self):
        assert _types("{ } ->")[:-1] == [
            TokenType.LBRACE,
            TokenType.RBRACE,
            TokenType.ARROW,
        ]

    def test_strings(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "hello world"

    def test_numbers(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == 42


class TestAmounts:
    @pytest.mark.parametrize(
        "text,cents",
        [("$12", 1200), ("$12.5", 1250), ("$12.50", 1250), ("$0.01", 1), ("$0", 0)],
    )
    def test_amounts_to_cents(self, text, cents):
        token = tokenize(text)[0]
        assert token.type is TokenType.AMOUNT
        assert token.value == cents

    def test_bare_dollar_rejected(self):
        with pytest.raises(SpecSyntaxError, match="digits"):
            tokenize("$ 12")

    def test_three_decimals_rejected(self):
        with pytest.raises(SpecSyntaxError, match="two decimal"):
            tokenize("$1.234")

    def test_trailing_dot_rejected(self):
        with pytest.raises(SpecSyntaxError):
            tokenize("$1.")


class TestErrorsAndPositions:
    def test_unexpected_character(self):
        with pytest.raises(SpecSyntaxError, match="unexpected character"):
            tokenize("principal @")

    def test_unterminated_string(self):
        with pytest.raises(SpecSyntaxError, match="unterminated"):
            tokenize('"abc')

    def test_lone_dash_rejected(self):
        with pytest.raises(SpecSyntaxError, match="'->'"):
            tokenize("a - b")

    def test_positions_are_one_based(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        try:
            tokenize("ok\n   @")
        except SpecSyntaxError as exc:
            assert exc.line == 2
            assert "line 2" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected SpecSyntaxError")

    def test_token_str(self):
        assert "identifier" in str(Token(TokenType.IDENT, "x", 1, 1))
        assert str(tokenize("")[0]) == "end of input"

    @pytest.mark.parametrize(
        "text,shown",
        [("$12", "amount $12.00"), ("$12.5", "amount $12.50"), ("$0.05", "amount $0.05")],
    )
    def test_amount_token_str_shows_dollars(self, text, shown):
        assert str(tokenize(text)[0]) == shown


def _error(source):
    with pytest.raises(SpecSyntaxError) as info:
        tokenize(source)
    return info.value


def _positions(source):
    return [(t.type, t.value, t.line, t.column) for t in tokenize(source)]


class TestScannerPositions:
    def test_tab_and_carriage_return_each_advance_one_column(self):
        assert _positions("a\tb\rc") == [
            (TokenType.IDENT, "a", 1, 1),
            (TokenType.IDENT, "b", 1, 3),
            (TokenType.IDENT, "c", 1, 5),
            (TokenType.EOF, "", 1, 6),
        ]

    def test_crlf_starts_one_new_line(self):
        assert _positions("a\r\n\tb\r\n") == [
            (TokenType.IDENT, "a", 1, 1),
            (TokenType.IDENT, "b", 2, 2),
            (TokenType.EOF, "", 3, 1),
        ]

    def test_comment_at_end_of_input_without_newline(self):
        assert _positions("broker # trailing") == [
            (TokenType.KEYWORD, "broker", 1, 1),
            (TokenType.EOF, "", 1, 18),
        ]

    def test_eof_after_trailing_newline_is_on_the_next_line(self):
        assert tokenize("trust\n")[-1].line == 2
        assert tokenize("trust\n")[-1].column == 1
        assert (tokenize("")[0].line, tokenize("")[0].column) == (1, 1)

    def test_identifier_may_end_in_dash(self):
        assert _positions("a- b ->c") == [
            (TokenType.IDENT, "a-", 1, 1),
            (TokenType.IDENT, "b", 1, 4),
            (TokenType.ARROW, "->", 1, 6),
            (TokenType.IDENT, "c", 1, 8),
            (TokenType.EOF, "", 1, 9),
        ]

    def test_arrow_glued_to_an_identifier_is_absorbed_up_to_the_dash(self):
        error = _error("Source1->Broker1")
        assert "unexpected character '>'" in str(error)
        assert (error.line, error.column) == (1, 9)

    def test_number_then_identifier_without_space(self):
        assert _positions("12ab") == [
            (TokenType.NUMBER, 12, 1, 1),
            (TokenType.IDENT, "ab", 1, 3),
            (TokenType.EOF, "", 1, 5),
        ]

    def test_empty_string_literal(self):
        assert _positions('""') == [
            (TokenType.STRING, "", 1, 1),
            (TokenType.EOF, "", 1, 3),
        ]


class TestScannerErrorPositions:
    @pytest.mark.parametrize(
        "source,message,line,column",
        [
            ("x $1.", "two decimal", 1, 3),
            ("$1.234", "two decimal", 1, 1),
            ("ok\n  $ 12", "digits after '\\$'", 2, 3),
            ("a - b", "'->'", 1, 3),
            ("principal\n\t@", "unexpected character '@'", 2, 2),
        ],
    )
    def test_error_points_at_the_offending_token(self, source, message, line, column):
        error = _error(source)
        assert (error.line, error.column) == (line, column)
        with pytest.raises(SpecSyntaxError, match=message):
            tokenize(source)

    @pytest.mark.parametrize("source", ['a "abc', 'a "ab\ncd"', 'a "'])
    def test_unterminated_string_reported_at_its_opening_quote(self, source):
        error = _error(source)
        assert "unterminated string" in str(error)
        assert (error.line, error.column) == (1, 3)
