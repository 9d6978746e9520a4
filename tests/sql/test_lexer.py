"""Tokenizer tests."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import tokenize
from repro.sql.lexer import parse_date_literal


def kinds(sql):
    return [(t.kind, t.value) for t in tokenize(sql) if t.kind != "eof"]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("SeLeCt FROM") == [("keyword", "select"), ("keyword", "from")]

    def test_identifiers_keep_case(self):
        assert kinds("Trans") == [("ident", "Trans")]

    def test_numbers(self):
        assert kinds("1 2.5 0.1 1e3 2E-2") == [
            ("number", 1),
            ("number", 2.5),
            ("number", 0.1),
            ("number", 1000.0),
            ("number", 0.02),
        ]

    def test_leading_dot_number(self):
        assert kinds(".5") == [("number", 0.5)]

    def test_strings_with_escapes(self):
        assert kinds("'USA' 'it''s'") == [("string", "USA"), ("string", "it's")]

    def test_punctuation(self):
        values = [v for _, v in kinds("<= >= <> != = ( ) , . ;")]
        assert values == ["<=", ">=", "<>", "<>", "=", "(", ")", ",", ".", ";"]

    def test_comments_skipped(self):
        assert kinds("select -- comment here\n 1") == [
            ("keyword", "select"),
            ("number", 1),
        ]

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind == "eof"


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("select\n  faid")
        ident = [t for t in tokens if t.kind == "ident"][0]
        assert (ident.line, ident.column) == (2, 3)


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select #")

    def test_bad_date_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse_date_literal("1990-13-40")

    def test_good_date_literal(self):
        assert parse_date_literal("1990-07-04").year == 1990


# ----------------------------------------------------------------------
# Differential: the master-pattern scanner against the character-by-
# character scanner it replaced, kept here as the oracle
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.lexer import KEYWORDS, PUNCTUATION


def oracle_tokenize(sql):
    """The former scanner, verbatim but for its tuple tokens."""
    return list(_oracle_scan(sql))


def _oracle_scan(sql):
    position = 0
    line = 1
    line_start = 0
    length = len(sql)

    def column():
        return position - line_start + 1

    while position < length:
        char = sql[position]
        if char == "\n":
            line += 1
            position += 1
            line_start = position
            continue
        if char.isspace():
            position += 1
            continue
        if sql.startswith("--", position):
            newline = sql.find("\n", position)
            position = length if newline < 0 else newline
            continue
        start_column = column()
        if char.isdigit() or (char == "." and _oracle_peek_digit(sql, position + 1)):
            text, value, position = _oracle_number(sql, position, line, start_column)
            yield ("number", value, text, line, start_column)
            continue
        if char == "'":
            text, value, position = _oracle_string(sql, position, line, start_column)
            yield ("string", value, text, line, start_column)
            continue
        if char.isalpha() or char == "_":
            end = position + 1
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            text = sql[position:end]
            lowered = text.lower()
            position = end
            if lowered in KEYWORDS:
                yield ("keyword", lowered, text, line, start_column)
            else:
                yield ("ident", text, text, line, start_column)
            continue
        matched = False
        for symbol in PUNCTUATION:
            if sql.startswith(symbol, position):
                value = "<>" if symbol == "!=" else symbol
                yield ("punct", value, symbol, line, start_column)
                position += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {char!r}", line, start_column)
    yield ("eof", None, "", line, position - line_start + 1)


def _oracle_peek_digit(sql, index):
    return index < len(sql) and sql[index].isdigit()


def _oracle_number(sql, position, line, column):
    end = position
    length = len(sql)
    saw_dot = False
    saw_exp = False
    while end < length:
        char = sql[end]
        if char.isdigit():
            end += 1
        elif char == "." and not saw_dot and not saw_exp:
            saw_dot = True
            end += 1
        elif char in "eE" and not saw_exp and end + 1 < length and (
            sql[end + 1].isdigit() or sql[end + 1] in "+-"
        ):
            saw_exp = True
            end += 1
            if sql[end] in "+-":
                end += 1
        else:
            break
    text = sql[position:end]
    try:
        value = float(text) if saw_dot or saw_exp else int(text)
    except ValueError:
        raise SqlSyntaxError(f"bad numeric literal {text!r}", line, column) from None
    return text, value, end


def _oracle_string(sql, position, line, column):
    end = position + 1
    length = len(sql)
    pieces = []
    while end < length:
        char = sql[end]
        if char == "'":
            if end + 1 < length and sql[end + 1] == "'":
                pieces.append("'")
                end += 2
                continue
            return sql[position : end + 1], "".join(pieces), end + 1
        if char == "\n":
            break
        pieces.append(char)
        end += 1
    raise SqlSyntaxError("unterminated string literal", line, column)


def _outcome(scan, sql):
    """Tokens as (kind, value type, value, text, line, column), or the
    error's type, message, line and column."""
    try:
        return [(t[0], type(t[1]), t[1], t[2], t[3], t[4]) for t in scan(sql)]
    except SqlSyntaxError as error:
        return (type(error), str(error), error.line, error.column)


#: pieces the generator strings together: SQL words, every punctuation
#: mark, number and string fragments, comment and quote edges, every
#: kind of whitespace, and characters where ``isdigit``/``isalpha``/
#: ``isspace`` and the regex classes could part ways
_PIECES = (
    sorted(KEYWORDS) + list(PUNCTUATION)
    + ["Trans", "faid", "_x", "a1", "1", "0", "42", "3.", ".5", "1e", "1e5",
       "2E-", "e+", "'", "''", "'it''s'", "--", "-- note\n", "!", "#", "@",
       "\n", "\r\n", "\t", " ", "  ", "\x0b", "\x1c", "\x85", " ",
       " ", "é", "Ä", "ß", "ǅ", "٣", "²", "½", "Ⅷ", "〇", "一", "_"]
)


@settings(max_examples=settings.default.max_examples * 4, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)
       | st.text(max_size=16))
def test_master_pattern_scans_as_the_former_scanner(sql):
    assert _outcome(tokenize, sql) == _outcome(oracle_tokenize, sql)


@pytest.mark.parametrize("sql", [
    "select faid,\n  sum(qty * price) -- total\nfrom Trans\n",
    "'abc''", "'a'''", "'x'''y'", "1e+", "1.2.3", "1e5.3", ".5.", "1²",
    "²", "Ⅷ", "a٣b", "١٢.٥", "x!y", "\n\n  ", "select 'a\nb'",
])
def test_edge_texts_scan_as_the_former_scanner(sql):
    assert _outcome(tokenize, sql) == _outcome(oracle_tokenize, sql)
