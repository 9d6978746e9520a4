"""Rewrite application: graph surgery, projections, iterative rerouting."""

import pytest

from repro.engine.table import tables_equal
from repro.qgm.boxes import BaseTableBox, SelectBox


AST_FAID_FLID = (
    "select faid, flid, count(*) as cnt from Trans group by faid, flid"
)


class TestBasicRewrite:
    def test_rewritten_graph_scans_ast(self, tiny_db):
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        scans = {
            box.table_name
            for box in result.graph.boxes()
            if isinstance(box, BaseTableBox)
        }
        assert scans == {"S1"}

    def test_rewrite_preserves_output_signature(self, tiny_db):
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        query = "select faid, count(*) as n from Trans group by faid"
        result = tiny_db.rewrite(query)
        plain = tiny_db.execute(query, use_summary_tables=False)
        rewritten = tiny_db.execute_graph(result.graph)
        assert rewritten.columns == plain.columns

    def test_exact_match_gets_projection(self, tiny_db):
        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        root = result.graph.root
        assert isinstance(root, SelectBox)
        assert root.output_names == ["faid", "n"]

    def test_order_by_survives_rewrite(self, tiny_db):
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid order by n desc"
        )
        assert result.graph.order_by == [("n", False)]
        rewritten = tiny_db.execute_graph(result.graph)
        counts = [row[1] for row in rewritten.rows]
        assert counts == sorted(counts, reverse=True)

    def test_subtree_rewrite_keeps_outer_blocks(self, tiny_db):
        """The derived table matches the AST; the outer block survives."""
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        query = (
            "select mx from (select faid, count(*) as n from Trans "
            "group by faid) as d, "
            "(select max(qty) as mx from Trans) as m where n > 0"
        )
        plain = tiny_db.execute(query, use_summary_tables=False)
        result = tiny_db.rewrite(query)
        assert result is not None
        rewritten = tiny_db.execute_graph(result.graph)
        assert tables_equal(plain, rewritten)

    def test_rewrite_result_sql_is_executable(self, tiny_db):
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        query = "select faid, count(*) as n from Trans group by faid"
        result = tiny_db.rewrite(query)
        via_sql = tiny_db.execute(result.sql, use_summary_tables=False)
        plain = tiny_db.execute(query, use_summary_tables=False)
        assert tables_equal(plain, via_sql)

    def test_explain_lists_applied_matches(self, tiny_db):
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert "S1" in result.explain()


class TestIterativeRerouting:
    def test_two_asts_for_two_subtrees(self, tiny_db):
        """Section 7: iterate matching so one query uses several ASTs."""
        tiny_db.create_summary_table("S1", AST_FAID_FLID)
        tiny_db.create_summary_table(
            "S2", "select pgid, pgname, count(*) as n from PGroup group by pgid, pgname"
        )
        query = (
            "select d1.faid, d1.n, d2.m from "
            "(select faid, count(*) as n from Trans group by faid) as d1, "
            "(select count(*) as m from PGroup) as d2"
        )
        plain = tiny_db.execute(query, use_summary_tables=False)
        result = tiny_db.rewrite(query)
        assert result is not None
        used = {entry.summary.name for entry in result.applied}
        assert used == {"S1", "S2"}
        assert tables_equal(plain, tiny_db.execute_graph(result.graph))

    def test_unrelated_ast_pruned(self, tiny_db):
        tiny_db.create_summary_table(
            "S2", "select pgid, count(*) as n from PGroup group by pgid"
        )
        assert tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        ) is None
