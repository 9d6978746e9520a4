"""AST candidate index: pruning must be aggressive but never lossy."""

import pytest

from repro.bench.figures import FIGURES
from repro.rewrite.index import (
    SummarySignature,
    _fk_parent_tables,
    graph_signature,
    plausible,
    prune_candidates,
)


class TestGraphSignature:
    def test_join_query_signature(self, tiny_db):
        graph = tiny_db.bind(
            "select faid, state, count(*) as cnt from Trans, Loc "
            "where flid = lid group by faid, state"
        )
        signature = graph_signature(graph)
        assert signature.base_tables == {"trans", "loc"}
        assert "groupby" in signature.box_kinds
        assert "cnt" in signature.output_columns

    def test_plain_select_signature(self, tiny_db):
        signature = graph_signature(tiny_db.bind("select lid, city from Loc"))
        assert signature.base_tables == {"loc"}
        assert "groupby" not in signature.box_kinds


class TestPlausible:
    FK_PARENTS = frozenset({"loc", "acct", "pgroup", "cust"})

    def sig(self, tables, kinds=("base", "select")):
        return SummarySignature(
            base_tables=frozenset(tables),
            box_kinds=frozenset(kinds),
            grouping_columns=frozenset(),
            output_columns=frozenset(),
        )

    def test_disjoint_tables_pruned(self):
        assert not plausible(
            self.sig({"trans"}), self.sig({"loc"}), self.FK_PARENTS
        )

    def test_extra_fk_parent_kept(self):
        # AST joins Trans x Loc; Loc is an FK parent, so it may be peeled.
        assert plausible(
            self.sig({"trans"}), self.sig({"trans", "loc"}), self.FK_PARENTS
        )

    def test_extra_non_parent_pruned(self):
        assert not plausible(
            self.sig({"trans"}), self.sig({"trans", "other"}), self.FK_PARENTS
        )

    def test_grouped_ast_pruned_for_ungrouped_query(self):
        grouped = self.sig({"trans"}, kinds=("base", "select", "groupby"))
        assert not plausible(self.sig({"trans"}), grouped, self.FK_PARENTS)
        # ...but fine the other way: ungrouped AST, grouped query.
        query = self.sig({"trans"}, kinds=("base", "select", "groupby"))
        assert plausible(query, self.sig({"trans"}), self.FK_PARENTS)


class TestPruneCandidates:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_every_figure_ast_survives_for_its_query(self, tiny_db, figure):
        """The prune must never drop an AST the matcher would accept."""
        ast_name, ast_sql, query, _ = FIGURES[figure]
        tiny_db.create_summary_table(ast_name, ast_sql)
        summary = tiny_db.summary_tables[ast_name.lower()]
        kept = prune_candidates(tiny_db.bind(query), [summary])
        assert kept == [summary]

    def test_unrelated_and_grouped_pruned(self, tiny_db):
        tiny_db.create_summary_table("LOCONLY", "select lid, city from Loc")
        tiny_db.create_summary_table(
            "GROUPED",
            "select faid, count(*) as cnt from Trans group by faid",
        )
        tiny_db.create_summary_table(
            "PLAIN", "select tid, qty, price from Trans where qty > 0"
        )
        summaries = list(tiny_db.summary_tables.values())
        # ungrouped Trans query: the Loc-only AST and the grouped AST go
        kept = prune_candidates(tiny_db.bind("select tid from Trans"), summaries)
        assert [s.name for s in kept] == ["PLAIN"]

    def test_fig05_extra_table_retained(self, tiny_db):
        """AST2 joins Trans x Loc x Acct; Q2 never mentions Loc. Loc is an
        FK parent of Trans, so the peel is possible and AST2 must stay."""
        ast_name, ast_sql, query, _ = FIGURES["fig05_q2"]
        tiny_db.create_summary_table(ast_name, ast_sql)
        summary = tiny_db.summary_tables[ast_name.lower()]
        graph = tiny_db.bind(query)
        assert "loc" not in graph_signature(graph).base_tables
        assert prune_candidates(graph, [summary]) == [summary]

    def test_stats_counters(self, tiny_db):
        from repro.rewrite.cache import RewriteStats

        tiny_db.create_summary_table("LOCONLY", "select lid, city from Loc")
        stats = RewriteStats()
        kept = prune_candidates(
            tiny_db.bind("select tid from Trans"),
            list(tiny_db.summary_tables.values()),
            stats=stats,
        )
        assert kept == []
        assert stats.candidates_considered == 1
        assert stats.candidates_pruned == 1

    def test_signature_extracted_at_registration(self, tiny_db):
        # the first query after CREATE SUMMARY TABLE pays no extraction
        summary = tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        assert summary._signature.base_tables == {"trans"}

    def test_fk_parents_from_catalog(self, tiny_db):
        parents = _fk_parent_tables(tiny_db.catalog)
        assert {"loc", "acct", "pgroup", "cust"} <= parents
        assert "trans" not in parents
