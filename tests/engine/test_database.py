"""Database facade: loading, summary tables, execution modes."""

import pytest

from repro.catalog import Column, DataType, TableSchema, credit_card_catalog
from repro.engine import Database
from repro.errors import CatalogError, TypeMismatchError


class TestSchemaAndLoading:
    def test_tables_created_from_catalog(self):
        db = Database(credit_card_catalog())
        assert len(db.table("Trans")) == 0

    def test_add_table(self):
        db = Database()
        db.add_table(TableSchema("T", [Column("a", DataType.INTEGER)]))
        db.load("T", [(1,), (2,)])
        assert len(db.table("T")) == 2

    def test_load_validates(self, tiny_db):
        with pytest.raises(TypeMismatchError):
            tiny_db.load("PGroup", [("not-an-int", "x")])

    def test_unknown_table(self, tiny_db):
        with pytest.raises(CatalogError):
            tiny_db.table("Nope")


class TestSummaryTables:
    AST = (
        "select faid, year(date) as year, count(*) as cnt "
        "from Trans group by faid, year(date)"
    )

    def test_create_materializes(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.AST)
        assert summary.row_count == 4
        assert tiny_db.catalog.has_table("S1")
        # The AST is queryable like a table.
        result = tiny_db.execute("select * from S1", use_summary_tables=False)
        assert len(result) == 4

    def test_name_collision(self, tiny_db):
        tiny_db.create_summary_table("S1", self.AST)
        with pytest.raises(CatalogError):
            tiny_db.create_summary_table("S1", self.AST)
        with pytest.raises(CatalogError):
            tiny_db.create_summary_table("Trans", self.AST)

    def test_drop(self, tiny_db):
        tiny_db.create_summary_table("S1", self.AST)
        tiny_db.drop_summary_table("S1")
        assert not tiny_db.catalog.has_table("S1")
        with pytest.raises(CatalogError):
            tiny_db.drop_summary_table("S1")

    def test_refresh(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.AST)
        import datetime

        tiny_db.load(
            "Trans",
            [(7, 1, 1, 10, datetime.date(1993, 1, 1), 1, 10.0, 0.0)],
        )
        assert summary.row_count == 4  # stale
        tiny_db.refresh_summary_tables()
        assert summary.row_count == 5

    def test_base_tables(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.AST)
        assert summary.base_tables() == {"trans"}

    def test_disabled_summary_not_used(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.AST)
        summary.enabled = False
        assert tiny_db.rewrite(
            "select faid, count(*) as c from Trans group by faid"
        ) is None


class TestExecutionModes:
    QUERY = "select faid, count(*) as cnt from Trans group by faid"

    def test_execute_uses_summary(self, tiny_db):
        from repro.engine.table import tables_equal

        plain = tiny_db.execute(self.QUERY, use_summary_tables=False)
        tiny_db.create_summary_table(
            "S1",
            "select faid, flid, count(*) as cnt from Trans group by faid, flid",
        )
        with_ast = tiny_db.execute(self.QUERY)
        assert tables_equal(plain, with_ast)

    def test_rewrite_returns_none_without_match(self, tiny_db):
        tiny_db.create_summary_table(
            "S1", "select pgid, count(*) as c from PGroup group by pgid"
        )
        assert tiny_db.rewrite(self.QUERY) is None

    def test_schema_inference_for_summary(self, tiny_db):
        tiny_db.create_summary_table(
            "S1",
            "select faid, sum(price) as total from Trans group by faid",
        )
        schema = tiny_db.catalog.table("S1")
        assert schema.column("faid").dtype is DataType.INTEGER
        assert schema.column("total").dtype is DataType.FLOAT


class TestExplainApi:
    def test_explain_includes_graph_and_rewrite(self, tiny_db):
        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        text = tiny_db.explain(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert "query graph" in text
        assert "rewritten SQL" in text and "S1" in text

    def test_explain_reports_no_rewrite(self, tiny_db):
        text = tiny_db.explain("select tid from Trans")
        assert "no summary-table rewrite" in text
