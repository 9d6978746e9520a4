"""Multi-AST routing: Section 7 iteration + smallest-view preference."""

from repro.qgm.boxes import BaseTableBox


def scans(graph):
    return sorted(
        box.table_name for box in graph.boxes() if isinstance(box, BaseTableBox)
    )


class TestSmallestViewPreference:
    def test_query_routed_to_smallest_covering_ast(self, tiny_db):
        tiny_db.create_summary_table(
            "Fine",
            "select faid, flid, year(date) as y, count(*) as cnt "
            "from Trans group by faid, flid, year(date)",
        )
        tiny_db.create_summary_table(
            "Coarse", "select faid, count(*) as cnt from Trans group by faid"
        )
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert result is not None
        assert scans(result.graph) == ["Coarse"]

    def test_fine_grained_query_needs_fine_view(self, tiny_db):
        tiny_db.create_summary_table(
            "Fine",
            "select faid, flid, count(*) as cnt from Trans group by faid, flid",
        )
        tiny_db.create_summary_table(
            "Coarse", "select faid, count(*) as cnt from Trans group by faid"
        )
        result = tiny_db.rewrite(
            "select faid, flid, count(*) as n from Trans group by faid, flid"
        )
        assert scans(result.graph) == ["Fine"]


class TestIterativeRerouting:
    def test_each_subtree_gets_its_own_ast(self, tiny_db):
        tiny_db.create_summary_table(
            "TransSum", "select faid, count(*) as cnt from Trans group by faid"
        )
        tiny_db.create_summary_table(
            "LocSum",
            "select country, count(*) as cnt from Loc group by country",
        )
        query = (
            "select t.faid, t.n, l.m from "
            "(select faid, count(*) as n from Trans group by faid) as t, "
            "(select count(*) as m from Loc) as l"
        )
        result = tiny_db.rewrite(query)
        assert result is not None
        used = {entry.summary.name for entry in result.applied}
        assert used == {"TransSum", "LocSum"}
        names = scans(result.graph)
        assert "Trans" not in names and "Loc" not in names

    def test_applied_order_recorded(self, tiny_db):
        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        result = tiny_db.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert len(result.applied) == 1
        assert result.summary_tables[0].name == "S1"
        assert "S1" in result.applied[0].describe()


class TestRewrittenGraphIsRematched:
    """§4.2.4 — round two of ``rewrite_query`` matches a graph that round
    one already rewrote, whose compensation boxes name their input
    ``_in``; a 4.2.4 compensation built over such a box used to add that
    child as a rejoin beside its own ``_in`` and die with ``duplicate
    quantifier`` (swallowed by the rewrite sandbox: base plan)."""

    def test_fig11_q10_rewrites_with_every_figure_ast_installed(self):
        from repro.bench.figures import FIGURES, make_database
        from repro.engine.reference import ReferenceExecutor
        from repro.engine.table import tables_equal
        from repro.workloads.datagen import GeneratorConfig

        db = make_database(GeneratorConfig(
            customers=6, accounts_per_customer=2, cities=12,
            transactions_per_account_year=12,
        ))
        for name, sql, _query, _pattern in FIGURES.values():
            if name.lower() not in db.summary_tables:
                db.create_summary_table(name, sql)
        query = FIGURES["fig11_q10"][2]
        result = db.rewrite(query)
        assert result is not None
        assert "Trans" not in scans(result.graph)
        rewritten = db.execute(query)
        assert db.rewrite_stats()["rewrite_errors"] == 0
        base = db.execute(query, use_summary_tables=False)
        reference = ReferenceExecutor(db.tables).run(db.bind(query))
        assert len(base) > 0
        assert tables_equal(rewritten, base)
        assert tables_equal(base, reference)
