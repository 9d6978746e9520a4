"""Cost-based accept/reject (related problem (b))."""

from repro.rewrite.planner import CostEstimate, CostPlanner
from repro.rewrite.rewriter import rewrite_query


AST = "select faid, flid, count(*) as cnt from Trans group by faid, flid"
QUERY = "select faid, count(*) as n from Trans group by faid"


class TestCostEstimate:
    def test_speedup(self):
        assert CostEstimate(100, 10).speedup == 10.0
        assert CostEstimate(100, 0).speedup == float("inf")


class TestPlanner:
    def test_accepts_profitable_rewrite(self, tiny_db):
        tiny_db.create_summary_table("S1", AST)
        planner = CostPlanner(tiny_db)
        graph = tiny_db.bind(QUERY)
        result = rewrite_query(
            graph, tiny_db.enabled_summary_tables(), accept=planner.accept
        )
        assert result is not None
        assert planner.decisions and planner.decisions[0][2] is True

    def test_rejects_a_summary_larger_than_its_base(self, tiny_db):
        # Three grouping sets over six Trans rows: 6 + 2 + 1 = 9 summary
        # rows replace 6 base rows, a speedup of 2/3.
        tiny_db.create_summary_table(
            "S1",
            "select tid, faid, count(*) as cnt from Trans "
            "group by grouping sets ((tid), (faid), ())",
        )
        query = "select tid, count(*) as n from Trans group by tid"
        summaries = tiny_db.enabled_summary_tables()
        assert rewrite_query(tiny_db.bind(query), summaries) is not None
        planner = CostPlanner(tiny_db)
        result = rewrite_query(
            tiny_db.bind(query), summaries, accept=planner.accept
        )
        assert result is None
        (_, estimate, decision), = planner.decisions
        assert (estimate.replaced_rows, estimate.rewritten_rows) == (6, 9)
        assert estimate.speedup < 1.0 and decision is False

    def test_estimate_counts_rejoin_rows(self, tiny_db):
        tiny_db.create_summary_table(
            "S1",
            "select faid, flid, year(date) as year, count(*) as cnt "
            "from Trans group by faid, flid, year(date)",
        )
        planner = CostPlanner(tiny_db)
        graph = tiny_db.bind(
            "select faid, state, count(*) as n from Trans, Loc "
            "where flid = lid group by faid, state"
        )
        result = rewrite_query(
            graph, tiny_db.enabled_summary_tables(), accept=planner.accept
        )
        assert result is not None
        _, estimate, _ = planner.decisions[0]
        # replaced side includes Trans (6) + Loc (3); rewritten side
        # includes the AST rows + the rejoined Loc rows.
        assert estimate.replaced_rows == 9
        summary = tiny_db.summary_tables["s1"]
        assert estimate.rewritten_rows == summary.row_count + 3
