"""Expression translation (Section 6): Figure 15's trace and Table 1's
semantic-inequivalence detection."""

from repro.catalog import credit_card_catalog
from repro.expr import AggCall, BinaryOp, ColumnRef, Literal
from repro.matching.framework import chain_output_in_subsumer_context
from repro.matching.navigator import match_graphs
from repro.matching.translation import (
    ChildTranslator,
    MatchedChildPair,
    trace_translation,
)
from repro.qgm import build_graph

from tests.matching.helpers import assert_no_rewrite, match_roots

CATALOG = credit_card_catalog()

INNER_AST = """
select flid, year(date) as year, count(*) as cnt
from Trans
group by flid, year(date)
"""

HAVING_QUERY = """
select flid, count(*) as cnt
from Trans
group by flid
having count(*) > 2
"""


def _groupby_pair():
    """The (GB-2Q, GB-2A) match of the Figure 15 setting plus the top
    boxes, so tests can translate the HAVING predicate."""
    query = build_graph(HAVING_QUERY, CATALOG, "Q")
    ast = build_graph(INNER_AST, CATALOG, "A")
    ctx = match_graphs(query, ast)
    query_gb = query.root.children()[0]
    ast_gb = ast.root.children()[0]
    match = ctx.get(query_gb, ast_gb)
    assert match is not None
    top_pair = MatchedChildPair(
        query.root.quantifiers()[0], ast.root.quantifiers()[0], match
    )
    return query, ast, top_pair


class TestTranslationThroughGrouping:
    def test_cnt_translates_to_sum_cnt(self):
        """Figure 15: cnt-3Q expands to SUM(cnt-3A)."""
        query, ast, pair = _groupby_pair()
        translator = ChildTranslator([pair], set())
        predicate = query.root.predicates[0]  # count(*) > 2, bound as cnt > 2
        translated = translator.translate(predicate)
        assert translated.contains_aggregate()
        aggs = [n for n in translated.walk() if isinstance(n, AggCall)]
        assert len(aggs) == 1 and aggs[0].func == "sum"
        (arg,) = aggs[0].children()
        assert isinstance(arg, ColumnRef)
        assert arg.qualifier == pair.subsumer_q.name

    def test_translated_predicate_differs_from_subsumer_predicate(self):
        """sum(cnt) > 2 is not cnt > 2: the Table 1 detection."""
        query, ast, pair = _groupby_pair()
        translator = ChildTranslator([pair], set())
        translated = translator.translate(query.root.predicates[0])
        plain = BinaryOp(">", ColumnRef(pair.subsumer_q.name, "cnt"), Literal(2))
        assert translated != plain

    def test_grouping_column_translates_directly(self):
        query, ast, pair = _groupby_pair()
        translator = ChildTranslator([pair], set())
        flid = query.root.output("flid").expr
        translated = translator.translate(flid)
        assert translated == ColumnRef(pair.subsumer_q.name, "flid")

    def test_translation_cached(self):
        query, ast, pair = _groupby_pair()
        translator = ChildTranslator([pair], set())
        ref = query.root.output("cnt").expr
        first = translator.translate(ref)
        second = translator.translate(ref)
        assert first == second


class TestFigure15Trace:
    def test_trace_steps(self):
        query, ast, pair = _groupby_pair()
        steps = trace_translation(
            query.root.predicates[0], [pair], set()
        )
        assert len(steps) >= 3
        assert steps[0].description.startswith("original")
        final = steps[-1].expr
        assert final.contains_aggregate()

    def test_trace_is_stable_for_untranslatable(self):
        expr = Literal(5)
        steps = trace_translation(expr, [], set())
        assert steps[-1].expr == Literal(5)


class TestTable1:
    """The modified AST10 (HAVING count(*) > 2) must not match Q10."""

    def test_having_ast_rejected(self, tiny_db):
        assert_no_rewrite(
            tiny_db,
            HAVING_QUERY,
            """
            select flid, year(date) as year, count(*) as cnt
            from Trans
            group by flid, year(date)
            having count(*) > 2
            """,
        )

    def test_same_having_still_no_textual_match(self):
        # Even textually identical HAVING clauses are not equivalent when
        # the grouping differs (the paper's core point).
        assert match_roots(
            HAVING_QUERY,
            """
            select flid, year(date) as year, count(*) as cnt
            from Trans group by flid, year(date) having count(*) > 2
            """,
        ) is None

    def test_matching_having_same_grouping_is_fine(self):
        match = match_roots(
            HAVING_QUERY,
            "select flid, count(*) as cnt from Trans group by flid "
            "having count(*) > 2",
        )
        assert match is not None


class TestChainOutputInlining:
    def test_exact_match_maps_by_column_map(self):
        query = build_graph("select tid, qty from Trans", CATALOG, "Q")
        ast = build_graph("select tid, qty, price from Trans", CATALOG, "A")
        ctx = match_graphs(query, ast)
        match = ctx.get(query.root, ast.root)
        assert match is not None and match.exact
        expr = chain_output_in_subsumer_context(match, "qty", "r")
        assert expr == ColumnRef("r", "qty")


class TestTranslationHelpers:
    def test_untranslatable_quantifier_raises(self):
        import pytest

        from repro.errors import ReproError
        from repro.expr import ColumnRef
        from repro.matching.translation import ChildTranslator

        translator = ChildTranslator([], set())
        with pytest.raises(ReproError):
            translator.translate(ColumnRef("ghost", "x"))
