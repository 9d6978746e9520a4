"""Statement-level SQL: DDL and DML around the SELECT core.

Supported statements (used by the CLI and by ``Database.run_sql``):

* ``CREATE TABLE name (col TYPE [NOT NULL], ..., PRIMARY KEY (...),
  UNIQUE (...), FOREIGN KEY (...) REFERENCES parent (...))``
* ``CREATE SUMMARY TABLE name [REFRESH IMMEDIATE | REFRESH DEFERRED]
  AS select-statement``
* ``DROP SUMMARY TABLE name``
* ``REFRESH SUMMARY TABLE [name [, name ...]]`` (no names ⇒ all)
* ``SET REFRESH AGE ANY | 0 | <n>`` — the session's freshness
  tolerance: how many staged delta batches a deferred summary may lag
  behind and still answer queries
* ``SET SLOW QUERY <ms> | OFF`` — the slow-query log threshold in
  milliseconds (OFF disables the log)
* ``SET QUERY TIMEOUT <ms> | OFF`` — the query governor's wall-clock
  deadline: a timeout during the match phase degrades the query to base
  tables, one during execution raises ``QueryTimeout``
* ``SET QUERY MAXROWS <n> | OFF`` — the governor's high-water cap on
  rows materialized in any one intermediate or result table
* ``SET QUERY MAXMEM <bytes> | OFF`` — the per-query memory budget;
  spill-capable operators degrade to disk when it is exhausted
* ``SET TRACE SAMPLE <rate> | OFF`` — head-sampling probability for
  request spans (process-global, like SLOW QUERY)
* ``INSERT INTO name VALUES (...), (...), ...``
* ``DELETE FROM name VALUES (...), ...``  (exact-row delete; feeds the
  incremental maintenance path)
* ``EXPLAIN [ANALYZE] select-statement`` — ANALYZE executes the query
  and reports phase timings plus the per-AST match verdict table
* plain SELECT statements
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.catalog.types import DataType
from repro.expr.evaluator import evaluate_constant
from repro.refresh.policy import RefreshAge
from repro.sql.ast import SelectStatement
from repro.sql.lexer import Token, tokenize
from repro.sql.parser import _Parser

_TYPE_NAMES = {
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "real": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "varchar": DataType.STRING,
    "char": DataType.STRING,
    "text": DataType.STRING,
    "string": DataType.STRING,
    "date": DataType.DATE,
    "boolean": DataType.BOOLEAN,
}


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType
    nullable: bool


@dataclass(frozen=True)
class KeyDef:
    columns: tuple[str, ...]
    is_primary: bool


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    keys: tuple[KeyDef, ...] = ()
    foreign_keys: tuple[ForeignKeyDef, ...] = ()


@dataclass(frozen=True)
class CreateSummaryTable:
    name: str
    query: SelectStatement
    sql: str  # the defining text, for SummaryTable.sql
    refresh_mode: str = "immediate"  # "immediate" | "deferred"


@dataclass(frozen=True)
class DropSummaryTable:
    name: str


@dataclass(frozen=True)
class RefreshSummaryTables:
    names: tuple[str, ...]  # empty ⇒ refresh every summary table


def _set_status(knob: str, value, unit: str = "") -> str:
    """The status line a session-scoped ``SET`` answers with — one copy,
    so the embedded shell (``Database.run_statement``) and a server
    connection (``Session.apply_set``) cannot word it differently."""
    if value is None:
        return f"{knob} disabled"
    shown = f"{value:g}" if isinstance(value, float) else str(value)
    return f"{knob} set to {shown}{unit}"


@dataclass(frozen=True)
class SetRefreshAge:
    max_pending: int | None  # None ⇒ ANY

    def status(self) -> str:
        return f"refresh age set to {RefreshAge(self.max_pending).describe()}"


@dataclass(frozen=True)
class SetSlowQuery:
    threshold_ms: float | None  # None ⇒ OFF (slow-query log disabled)


@dataclass(frozen=True)
class SetQueryTimeout:
    timeout_ms: float | None  # None ⇒ OFF (no deadline)

    def status(self) -> str:
        return _set_status("query timeout", self.timeout_ms, " ms")


@dataclass(frozen=True)
class SetQueryMaxRows:
    max_rows: int | None  # None ⇒ OFF (no materialized-row cap)

    def status(self) -> str:
        return _set_status("query maxrows", self.max_rows)


@dataclass(frozen=True)
class SetQueryMaxMem:
    max_mem: int | None  # None ⇒ OFF (no per-query memory budget)

    def status(self) -> str:
        return _set_status("query maxmem", self.max_mem, " byte(s)")


@dataclass(frozen=True)
class SetTraceSample:
    rate: float | None  # None ⇒ OFF (request tracing disabled)


@dataclass(frozen=True)
class InsertValues:
    table: str
    rows: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class DeleteValues:
    table: str
    rows: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class Explain:
    query: SelectStatement
    sql: str
    analyze: bool = False


Statement = (
    SelectStatement
    | CreateTable
    | CreateSummaryTable
    | DropSummaryTable
    | RefreshSummaryTables
    | SetRefreshAge
    | SetSlowQuery
    | SetQueryTimeout
    | SetQueryMaxRows
    | SetQueryMaxMem
    | SetTraceSample
    | InsertValues
    | DeleteValues
    | Explain
)


def parse_statement(sql: str) -> Statement:
    """Parse one statement of any supported kind."""
    parser = _StatementParser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.accept_punct(";")
    parser.expect_eof()
    return statement


def split_statements(script: str) -> list[str]:
    """Split a script on top-level semicolons (string-literal aware;
    ``--`` comments are dropped)."""
    pieces: list[str] = []
    current: list[str] = []
    in_string = False
    index = 0
    while index < len(script):
        char = script[index]
        if in_string:
            current.append(char)
            if char == "'":
                if index + 1 < len(script) and script[index + 1] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif script.startswith("--", index):
            end = script.find("\n", index)
            index = len(script) if end < 0 else end
            continue
        elif char == ";":
            text = "".join(current).strip()
            if text:
                pieces.append(text)
            current = []
        else:
            current.append(char)
        index += 1
    tail = "".join(current).strip()
    if tail:
        pieces.append(tail)
    return pieces


class _StatementParser(_Parser):
    def __init__(self, tokens: list[Token], sql: str):
        super().__init__(tokens)
        self._sql = sql

    def parse_statement(self) -> Statement:
        token = self._current
        if token.is_keyword("select"):
            return self.parse_query()
        word = self._ident_or_keyword_value()
        if word == "create":
            return self._parse_create()
        if word == "drop":
            return self._parse_drop()
        if word == "insert":
            return self._parse_insert()
        if word == "delete":
            return self._parse_delete()
        if word == "refresh":
            return self._parse_refresh()
        if word == "set":
            return self._parse_set()
        if word == "explain":
            self._advance()
            analyze = self._accept_word("analyze")
            remainder_start = self._current
            query = self.parse_query()
            return Explain(query, self._text_from(remainder_start), analyze)
        raise self._error(
            "expected SELECT, CREATE, DROP, REFRESH, SET, INSERT, DELETE "
            "or EXPLAIN"
        )

    # ------------------------------------------------------------------
    def _ident_or_keyword_value(self) -> str | None:
        token = self._current
        if token.kind in ("ident", "keyword"):
            return str(token.value).lower()
        return None

    def _expect_word(self, *words: str) -> str:
        value = self._ident_or_keyword_value()
        if value in words:
            self._advance()
            return value
        raise self._error(f"expected {' or '.join(w.upper() for w in words)}")

    def _accept_word(self, *words: str) -> bool:
        if self._ident_or_keyword_value() in words:
            self._advance()
            return True
        return False

    def _text_from(self, token: Token) -> str:
        # Reconstruct source text starting at a token (for summary SQL).
        lines = self._sql.splitlines()
        line_index = token.line - 1
        first = lines[line_index][token.column - 1:]
        rest = lines[line_index + 1:]
        return "\n".join([first, *rest]).rstrip().rstrip(";")

    # ------------------------------------------------------------------
    def _parse_create(self) -> Statement:
        self._expect_word("create")
        if self._accept_word("summary"):
            self._expect_word("table")
            name = self.expect_ident().value
            refresh_mode = "immediate"
            if self._accept_word("refresh"):
                refresh_mode = self._expect_word("immediate", "deferred")
            self.expect_keyword("as")
            start = self._current
            query = self.parse_query()
            return CreateSummaryTable(
                name, query, self._text_from(start), refresh_mode
            )
        self._expect_word("table")
        name = self.expect_ident().value
        self.expect_punct("(")
        columns: list[ColumnDef] = []
        keys: list[KeyDef] = []
        foreign_keys: list[ForeignKeyDef] = []
        while True:
            if self._accept_word("primary"):
                self._expect_word("key")
                keys.append(KeyDef(self._parse_name_list(), is_primary=True))
            elif self._accept_word("unique"):
                self._accept_word("key")
                keys.append(KeyDef(self._parse_name_list(), is_primary=False))
            elif self._accept_word("foreign"):
                self._expect_word("key")
                local = self._parse_name_list()
                self._expect_word("references")
                parent = self.expect_ident().value
                parent_columns = self._parse_name_list()
                foreign_keys.append(ForeignKeyDef(local, parent, parent_columns))
            else:
                columns.append(self._parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return CreateTable(name, tuple(columns), tuple(keys), tuple(foreign_keys))

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect_column_name()
        type_word = self._ident_or_keyword_value()
        if type_word not in _TYPE_NAMES:
            raise self._error(f"unknown column type")
        self._advance()
        if self.accept_punct("("):  # precision args: VARCHAR(20), DECIMAL(10, 2)
            while not self.accept_punct(")"):
                if self._current.kind == "eof":
                    raise self._error("unterminated type arguments")
                self._advance()
        nullable = True
        if self.accept_keyword("not"):
            self.expect_keyword("null")
            nullable = False
        elif self.accept_keyword("null"):
            nullable = True
        return ColumnDef(name, _TYPE_NAMES[type_word], nullable)

    def _parse_name_list(self) -> tuple[str, ...]:
        self.expect_punct("(")
        names = [self._expect_column_name()]
        while self.accept_punct(","):
            names.append(self._expect_column_name())
        self.expect_punct(")")
        return tuple(names)

    # ------------------------------------------------------------------
    def _parse_drop(self) -> DropSummaryTable:
        self._expect_word("drop")
        self._expect_word("summary")
        self._expect_word("table")
        return DropSummaryTable(self.expect_ident().value)

    def _parse_refresh(self) -> RefreshSummaryTables:
        self._expect_word("refresh")
        self._expect_word("summary")
        self._expect_word("table", "tables")
        names: list[str] = []
        if self._current.kind == "ident":
            names.append(self.expect_ident().value)
            while self.accept_punct(","):
                names.append(self.expect_ident().value)
        return RefreshSummaryTables(tuple(names))

    def _parse_set(self) -> Statement:
        self._expect_word("set")
        if self._accept_word("query"):
            return self._parse_set_query()
        if self._accept_word("trace"):
            # SET TRACE SAMPLE <rate>|OFF: head-sampling probability for
            # request spans (docs/OBSERVABILITY.md). Process-global, like
            # SET SLOW QUERY.
            self._expect_word("sample")
            if self._accept_word("off"):
                return SetTraceSample(None)
            value = self._parse_constant()
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 < value <= 1.0
            ):
                raise self._error(
                    "TRACE SAMPLE must be OFF or a rate in (0, 1]"
                )
            return SetTraceSample(float(value))
        if self._accept_word("slow"):
            self._expect_word("query")
            if self._accept_word("off"):
                return SetSlowQuery(None)
            value = self._parse_constant()
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                raise self._error(
                    "SLOW QUERY must be OFF or a non-negative number of "
                    "milliseconds"
                )
            return SetSlowQuery(float(value))
        self._expect_word("refresh")
        self._expect_word("age")
        if self._accept_word("any"):
            return SetRefreshAge(None)
        value = self._parse_constant()
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise self._error("REFRESH AGE must be ANY or a non-negative integer")
        return SetRefreshAge(value)

    def _parse_set_query(
        self,
    ) -> SetQueryTimeout | SetQueryMaxRows | SetQueryMaxMem:
        # SET QUERY TIMEOUT <ms>|OFF, SET QUERY MAXROWS <n>|OFF and
        # SET QUERY MAXMEM <bytes>|OFF: the governor's per-query limits
        # (docs/ROBUSTNESS.md).
        kind = self._expect_word("timeout", "maxrows", "maxmem")
        if kind == "timeout":
            if self._accept_word("off"):
                return SetQueryTimeout(None)
            value = self._parse_constant()
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value <= 0
            ):
                raise self._error(
                    "QUERY TIMEOUT must be OFF or a positive number of "
                    "milliseconds"
                )
            return SetQueryTimeout(float(value))
        if kind == "maxmem":
            if self._accept_word("off"):
                return SetQueryMaxMem(None)
            value = self._parse_constant()
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise self._error(
                    "QUERY MAXMEM must be OFF or a positive byte count"
                )
            return SetQueryMaxMem(value)
        if self._accept_word("off"):
            return SetQueryMaxRows(None)
        value = self._parse_constant()
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise self._error("QUERY MAXROWS must be OFF or a positive integer")
        return SetQueryMaxRows(value)

    def _parse_insert(self) -> InsertValues:
        self._expect_word("insert")
        self._expect_word("into")
        table = self.expect_ident().value
        self._expect_word("values")
        return InsertValues(table, self._parse_rows())

    def _parse_delete(self) -> DeleteValues:
        self._expect_word("delete")
        self.expect_keyword("from")
        table = self.expect_ident().value
        self._expect_word("values")
        return DeleteValues(table, self._parse_rows())

    def _parse_rows(self) -> tuple[tuple[Any, ...], ...]:
        rows = [self._parse_row()]
        while self.accept_punct(","):
            rows.append(self._parse_row())
        return tuple(rows)

    def _parse_row(self) -> tuple[Any, ...]:
        self.expect_punct("(")
        values = [self._parse_constant()]
        while self.accept_punct(","):
            values.append(self._parse_constant())
        self.expect_punct(")")
        return tuple(values)

    def _parse_constant(self) -> Any:
        expr = self.parse_expr()
        try:
            return evaluate_constant(expr)
        except Exception:
            raise self._error("VALUES entries must be constants") from None
