"""SQL tokenizer: one compiled master pattern.

Produces a flat list of :class:`Token` tuples with 1-based line/column
positions for error reporting. Keywords are recognized case-insensitively;
identifiers preserve their original spelling but compare case-insensitively
downstream. String literals use single quotes with ``''`` escaping.

Character classes are Python's own predicates: a number starts with a
``str.isdigit`` character (or ``.`` and one), an identifier with a
``str.isalpha`` one or ``_`` and continues with ``str.isalnum`` ones or
``_``. For ASCII text ``\\d`` and ``[^\\W\\d]`` are exactly those; for
other text the pattern is rebuilt once with the digits and numerals
``\\d`` and ``\\w`` disagree on spelled out.
"""

from __future__ import annotations

import datetime
import functools
import re
import sys
from typing import Any, NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset(
    {
        "select", "distinct", "from", "where", "group", "by", "having",
        "order", "asc", "desc", "as", "and", "or", "not", "in", "is",
        "null", "true", "false", "between", "case", "when", "then",
        "else", "end", "join", "inner", "cross", "on", "rollup", "cube",
        "grouping", "sets", "date", "union", "all", "limit",
    }
)

PUNCTUATION = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "+",
               "-", "*", "/", "%", ".", ";")


class Token(NamedTuple):
    """One lexical token. ``kind`` is 'keyword', 'ident', 'number',
    'string', 'punct' or 'eof'; ``value`` is the cooked value."""

    kind: str
    value: Any
    text: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_punct(self, *symbols: str) -> bool:
        return self.kind == "punct" and self.value in symbols


def _master(digit: str, ident_start: str) -> re.Pattern:
    # whitespace, then one alternative per token kind in the order they
    # are tried; the group that matched (``lastindex``) is the kind, and
    # none matched at the end of the text
    return re.compile(
        r"\s*(?:(--[^\n]*)"
        rf"|((?:{digit}+(?:\.{digit}*)?|\.{digit}+)(?:[eE](?:[+-]{digit}*|{digit}+))?)"
        r"|('(?:[^'\n]|'')*'(?!'))"
        rf"|({ident_start}\w*)"
        "|(" + "|".join(map(re.escape, PUNCTUATION)) + r")|(\S)|\Z)"
    )


_ASCII = _master(r"\d", r"[^\W\d]")


@functools.cache
def _unicode() -> re.Pattern:
    """The master pattern for non-ASCII text (built on first use: it
    scans every code point once)."""
    # \w characters that are neither letters nor decimal digits; the
    # digits among them (superscripts, circled digits) start numbers
    numerals = [
        c for c in map(chr, range(sys.maxunicode + 1))
        if c.isalnum() and not c.isalpha() and not c.isdecimal()
    ]
    digits = "".join(c for c in numerals if c.isdigit())
    return _master(
        rf"[\d{re.escape(digits)}]",
        rf"(?![{re.escape(''.join(numerals))}])[^\W\d]",
    )


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; always ends with a single 'eof' token."""
    new = tuple.__new__
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, last = 1, 0, 0
    lines = "\n" in sql  # newlines only ever stand between tokens
    for match in (_ASCII if sql.isascii() else _unicode()).finditer(sql):
        kind = match.lastindex
        if kind is None or kind == 1:  # the end, or a comment
            continue
        start = match.start(kind)
        if lines and sql.count("\n", last, start):
            line += sql.count("\n", last, start)
            line_start = sql.rindex("\n", last, start) + 1
        last = start
        column = start - line_start + 1
        text = match.group(kind)
        if kind == 2:
            try:
                value: Any = (
                    float(text) if "." in text or "e" in text or "E" in text
                    else int(text)
                )
            except ValueError:
                raise SqlSyntaxError(
                    f"bad numeric literal {text!r}", line, column
                ) from None
            append(new(Token, ("number", value, text, line, column)))
        elif kind == 3:
            value = text[1:-1].replace("''", "'")
            append(new(Token, ("string", value, text, line, column)))
        elif kind == 4:
            lowered = text.lower()
            if lowered in KEYWORDS:
                append(new(Token, ("keyword", lowered, text, line, column)))
            else:
                append(new(Token, ("ident", text, text, line, column)))
        elif kind == 5:
            value = "<>" if text == "!=" else text
            append(new(Token, ("punct", value, text, line, column)))
        elif text == "'":
            raise SqlSyntaxError("unterminated string literal", line, column)
        else:
            raise SqlSyntaxError(f"unexpected character {text!r}", line, column)
    if lines and "\n" in sql[last:]:
        line += sql.count("\n", last)
        line_start = sql.rindex("\n") + 1
    append(new(Token, ("eof", None, "", line, len(sql) - line_start + 1)))
    return tokens


def parse_date_literal(text: str, line: int = 0, column: int = 0) -> datetime.date:
    """Parse the body of a ``DATE 'YYYY-MM-DD'`` literal."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise SqlSyntaxError(f"bad date literal {text!r}", line, column) from None
