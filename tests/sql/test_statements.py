"""Statement-level SQL: DDL, DML, EXPLAIN parsing and execution."""

import datetime

import pytest

from repro.catalog.types import DataType
from repro.errors import SqlSyntaxError
from repro.sql.statements import (
    CreateSummaryTable,
    CreateTable,
    DeleteValues,
    DropSummaryTable,
    Explain,
    InsertValues,
    SetSlowQuery,
    parse_statement,
    split_statements,
)
from repro.sql.ast import SelectStatement


class TestParseCreateTable:
    def test_columns_and_keys(self):
        statement = parse_statement(
            "create table T (a integer not null, b varchar(10), c date, "
            "primary key (a), unique (b), "
            "foreign key (c) references D (d))"
        )
        assert isinstance(statement, CreateTable)
        assert [c.name for c in statement.columns] == ["a", "b", "c"]
        assert statement.columns[0].nullable is False
        assert statement.columns[1].nullable is True
        assert statement.columns[1].dtype is DataType.STRING
        assert statement.keys[0].is_primary
        assert statement.foreign_keys[0].parent_table == "D"

    def test_type_aliases(self):
        statement = parse_statement(
            "create table T (a int, b bigint, c double, d decimal(10, 2), "
            "e text, f boolean)"
        )
        types = [c.dtype for c in statement.columns]
        assert types == [
            DataType.INTEGER,
            DataType.INTEGER,
            DataType.FLOAT,
            DataType.FLOAT,
            DataType.STRING,
            DataType.BOOLEAN,
        ]

    def test_date_column_name_allowed(self):
        statement = parse_statement("create table T (date date not null)")
        assert statement.columns[0].name == "date"

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("create table T (a blob)")


class TestParseOtherStatements:
    def test_create_summary_table(self):
        statement = parse_statement(
            "create summary table S as select faid, count(*) as c "
            "from Trans group by faid"
        )
        assert isinstance(statement, CreateSummaryTable)
        assert statement.name == "S"
        assert statement.sql.lower().startswith("select")

    def test_drop_summary_table(self):
        statement = parse_statement("drop summary table S")
        assert statement == DropSummaryTable("S")

    def test_insert_values(self):
        statement = parse_statement(
            "insert into T values (1, 'x', date '1990-01-02', null), (2, 'y', date '1991-03-04', 5.5)"
        )
        assert isinstance(statement, InsertValues)
        assert statement.rows[0] == (1, "x", datetime.date(1990, 1, 2), None)
        assert len(statement.rows) == 2

    def test_insert_constant_expressions(self):
        statement = parse_statement("insert into T values (1 + 2, -3)")
        assert statement.rows == ((3, -3),)

    def test_insert_non_constant_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("insert into T values (a + 1)")

    def test_delete_values(self):
        statement = parse_statement("delete from T values (1, 'x')")
        assert isinstance(statement, DeleteValues)

    def test_explain(self):
        statement = parse_statement("explain select tid from Trans")
        assert isinstance(statement, Explain)
        assert statement.analyze is False

    def test_explain_analyze(self):
        statement = parse_statement("explain analyze select tid from Trans")
        assert isinstance(statement, Explain)
        assert statement.analyze is True
        assert statement.sql.lower().startswith("select")

    def test_set_slow_query_threshold(self):
        statement = parse_statement("set slow query 250")
        assert statement == SetSlowQuery(250.0)
        assert parse_statement("set slow query 12.5") == SetSlowQuery(12.5)

    def test_set_slow_query_off(self):
        assert parse_statement("set slow query off") == SetSlowQuery(None)

    def test_set_slow_query_rejects_negative(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("set slow query -5")
        with pytest.raises(SqlSyntaxError):
            parse_statement("set slow query fast")

    def test_set_refresh_age_still_parses(self):
        statement = parse_statement("set refresh age any")
        assert statement.max_pending is None

    def test_set_executor_parallel_is_gone(self):
        # the thread-parallel executor path was removed (docs/EXECUTOR.md)
        for text in ("set executor parallel 2", "SET EXECUTOR PARALLEL OFF"):
            with pytest.raises(SqlSyntaxError):
                parse_statement(text)

    def test_session_set_status_text(self):
        # one copy of the wording, shared by the shell and the server
        for text, status in [
            ("set refresh age any", "refresh age set to ANY"),
            ("set refresh age 3", "refresh age set to 3"),
            ("set query timeout 250", "query timeout set to 250 ms"),
            ("set query timeout 2.5", "query timeout set to 2.5 ms"),
            ("set query timeout off", "query timeout disabled"),
            ("set query maxrows 10", "query maxrows set to 10"),
            ("set query maxrows off", "query maxrows disabled"),
            ("set query maxmem 4096", "query maxmem set to 4096 byte(s)"),
            ("set query maxmem off", "query maxmem disabled"),
        ]:
            assert parse_statement(text).status() == status

    def test_plain_select(self):
        statement = parse_statement("select 1 as one from Trans")
        assert isinstance(statement, SelectStatement)

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("vacuum full")


class TestSplitStatements:
    def test_split_basic(self):
        assert split_statements("select 1; select 2;") == ["select 1", "select 2"]

    def test_semicolon_inside_string(self):
        pieces = split_statements("select 'a;b' as s from T; select 2")
        assert len(pieces) == 2
        assert "'a;b'" in pieces[0]

    def test_escaped_quote_in_string(self):
        pieces = split_statements("select 'it''s; fine' from T")
        assert len(pieces) == 1

    def test_semicolon_inside_comment(self):
        pieces = split_statements("select 1 -- one; two\nfrom T; -- three")
        assert pieces == ["select 1 \nfrom T"]

    def test_trailing_without_semicolon(self):
        assert split_statements("select 1") == ["select 1"]

    def test_empty(self):
        assert split_statements(" ;;  ") == []


class TestRunSql:
    def test_full_lifecycle(self, tiny_db):
        status = tiny_db.run_sql(
            "create summary table S as select faid, count(*) as cnt "
            "from Trans group by faid"
        )
        assert "S created" in status
        result = tiny_db.run_sql("select faid, count(*) as n from Trans group by faid")
        assert sorted(result.rows) == [(10, 3), (20, 3)]
        explain = tiny_db.run_sql(
            "explain select faid, count(*) as n from Trans group by faid"
        )
        assert "rewritten SQL" in explain and "S" in explain
        status = tiny_db.run_sql("drop summary table S")
        assert "dropped" in status

    def test_insert_maintains_summaries(self, tiny_db):
        tiny_db.run_sql(
            "create summary table S as select faid, count(*) as cnt "
            "from Trans group by faid"
        )
        status = tiny_db.run_sql(
            "insert into Trans values "
            "(7, 1, 1, 10, date '1993-01-01', 1, 10.0, 0.0)"
        )
        assert "incremental: S" in status
        result = tiny_db.run_sql(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert sorted(result.rows) == [(10, 4), (20, 3)]

    def test_delete_maintains_summaries(self, tiny_db):
        tiny_db.run_sql(
            "create summary table S as select faid, count(*) as cnt "
            "from Trans group by faid"
        )
        victim = tiny_db.table("Trans").rows[0]
        values = ", ".join(
            f"date '{v}'" if hasattr(v, "isoformat") else repr(v) for v in victim
        )
        tiny_db.run_sql(f"delete from Trans values ({values})")
        result = tiny_db.run_sql(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert sorted(result.rows) == [(10, 2), (20, 3)]

    def test_create_table_and_load(self):
        from repro.engine import Database

        db = Database()
        db.run_sql(
            "create table Fact (id integer not null, v float not null, "
            "primary key (id))"
        )
        db.run_sql("insert into Fact values (1, 2.5), (2, 3.5)")
        result = db.run_sql("select sum(v) as s from Fact")
        assert result.rows == [(6.0,)]

    def test_create_table_bad_fk_rolls_back(self):
        from repro.engine import Database
        from repro.errors import CatalogError

        db = Database()
        with pytest.raises(CatalogError):
            db.run_sql(
                "create table Fact (id integer not null, "
                "foreign key (id) references Missing (x))"
            )
        assert not db.catalog.has_table("Fact")


class TestParseRefreshStatements:
    def test_create_summary_defaults_immediate(self):
        statement = parse_statement(
            "create summary table S as select faid, count(*) as c "
            "from Trans group by faid"
        )
        assert statement.refresh_mode == "immediate"

    def test_create_summary_refresh_deferred(self):
        statement = parse_statement(
            "create summary table S refresh deferred as "
            "select faid, count(*) as c from Trans group by faid"
        )
        assert isinstance(statement, CreateSummaryTable)
        assert statement.refresh_mode == "deferred"
        assert statement.sql.lower().startswith("select")

    def test_create_summary_refresh_immediate_explicit(self):
        statement = parse_statement(
            "create summary table S refresh immediate as "
            "select faid, count(*) as c from Trans group by faid"
        )
        assert statement.refresh_mode == "immediate"

    def test_create_summary_bad_refresh_mode(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement(
                "create summary table S refresh eventually as "
                "select faid from Trans"
            )

    def test_refresh_summary_table_names(self):
        from repro.sql.statements import RefreshSummaryTables

        statement = parse_statement("refresh summary table S1, S2")
        assert statement == RefreshSummaryTables(("S1", "S2"))

    def test_refresh_summary_tables_all(self):
        from repro.sql.statements import RefreshSummaryTables

        statement = parse_statement("refresh summary tables")
        assert statement == RefreshSummaryTables(())

    def test_refresh_requires_summary_keyword(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("refresh table S1")

    def test_set_refresh_age_any(self):
        from repro.sql.statements import SetRefreshAge

        statement = parse_statement("set refresh age any")
        assert statement == SetRefreshAge(None)

    def test_set_refresh_age_zero(self):
        from repro.sql.statements import SetRefreshAge

        statement = parse_statement("set refresh age 0")
        assert statement == SetRefreshAge(0)

    def test_set_refresh_age_bounded(self):
        from repro.sql.statements import SetRefreshAge

        statement = parse_statement("SET REFRESH AGE 5")
        assert statement == SetRefreshAge(5)

    def test_set_refresh_age_invalid(self):
        for bad in (
            "set refresh age -1",
            "set refresh age 1.5",
            "set refresh age soon",
            "set refresh limit 3",
        ):
            with pytest.raises(SqlSyntaxError):
                parse_statement(bad)
