"""QGM box primitives: grouping-set canonicalization, nullability,
equivalence lifting, graph utilities."""

import pytest

from repro.catalog import credit_card_catalog
from repro.errors import ReproError
from repro.expr import AggCall, ColumnRef, FuncCall, IsNull, Literal, NaryOp
from repro.qgm import build_graph, canonical_grouping_sets, expand_cube, expand_rollup
from repro.qgm.boxes import cross_combine, expr_nullable


class TestSupergroupExpansion:
    def test_rollup(self):
        assert expand_rollup(("a", "b", "c")) == (
            ("a", "b", "c"), ("a", "b"), ("a",), (),
        )

    def test_rollup_empty(self):
        assert expand_rollup(()) == ((),)

    def test_cube(self):
        assert set(expand_cube(("a", "b"))) == {("a", "b"), ("a",), ("b",), ()}
        assert len(expand_cube(("a", "b", "c"))) == 8

    def test_cross_combine(self):
        left = (("a",),)
        right = (("b",), ())
        assert cross_combine(left, right) == (("a", "b"), ("a",))

    def test_cross_combine_dedupes_shared_columns(self):
        assert cross_combine((("a",),), (("a",),)) == (("a",),)


class TestCanonicalGroupingSets:
    def test_dedupe_and_order(self):
        result = canonical_grouping_sets(
            ("a", "b"), (("b", "a"), ("a", "b"), ("a",), ())
        )
        assert result == (("a", "b"), ("a",), ())

    def test_set_internal_order_follows_items(self):
        result = canonical_grouping_sets(("x", "y", "z"), (("z", "x"),))
        assert result == (("x", "z"),)

    def test_unknown_item_rejected(self):
        with pytest.raises(ReproError):
            canonical_grouping_sets(("a",), (("b",),))

    def test_larger_sets_first(self):
        result = canonical_grouping_sets(("a", "b", "c"), ((), ("b",), ("a", "c")))
        assert result == (("a", "c"), ("b",), ())


class TestNullability:
    def resolve_never_null(self, ref):
        return False

    def resolve_always_null(self, ref):
        return True

    def test_literal(self):
        assert expr_nullable(Literal(None), self.resolve_never_null)
        assert not expr_nullable(Literal(5), self.resolve_never_null)

    def test_column_delegates(self):
        ref = ColumnRef("t", "x")
        assert expr_nullable(ref, self.resolve_always_null)
        assert not expr_nullable(ref, self.resolve_never_null)

    def test_is_null_never_nullable(self):
        expr = IsNull(ColumnRef("t", "x"))
        assert not expr_nullable(expr, self.resolve_always_null)

    def test_count_never_nullable(self):
        assert not expr_nullable(AggCall("count"), self.resolve_always_null)

    def test_sum_follows_argument(self):
        agg = AggCall("sum", ColumnRef("t", "x"))
        assert expr_nullable(agg, self.resolve_always_null)
        assert not expr_nullable(agg, self.resolve_never_null)

    def test_function_propagates(self):
        expr = FuncCall("year", (ColumnRef("t", "d"),))
        assert expr_nullable(expr, self.resolve_always_null)

    def test_coalesce_needs_all_null(self):
        expr = FuncCall("coalesce", (ColumnRef("t", "x"), Literal(0)))
        assert not expr_nullable(expr, self.resolve_always_null)

    def test_arithmetic_any_child(self):
        expr = NaryOp("+", (ColumnRef("t", "x"), Literal(1)))
        assert expr_nullable(expr, self.resolve_always_null)


class TestGraphUtilities:
    def setup_method(self):
        self.catalog = credit_card_catalog()

    def test_boxes_topological(self):
        graph = build_graph(
            "select faid, count(*) as c from Trans group by faid", self.catalog
        )
        boxes = graph.boxes()
        positions = {id(box): i for i, box in enumerate(boxes)}
        for box in boxes:
            for child in box.children():
                assert positions[id(child)] < positions[id(box)]

    def test_base_tables(self):
        graph = build_graph(
            "select faid from Trans, Loc where flid = lid", self.catalog
        )
        assert graph.base_tables() == {"trans", "loc"}

    def test_parents_of(self):
        graph = build_graph("select faid from Trans", self.catalog)
        leaf = graph.root.children()[0]
        parents = graph.parents_of(leaf)
        assert len(parents) == 1 and parents[0][0] is graph.root

    def test_validate_catches_bad_reference(self):
        graph = build_graph("select faid from Trans", self.catalog)
        graph.root.outputs[0].expr = ColumnRef("Nope", "faid")
        with pytest.raises(ReproError):
            graph.validate()

    def test_duplicate_output_rejected(self):
        graph = build_graph("select faid from Trans", self.catalog)
        from repro.qgm.boxes import QCL

        with pytest.raises(ReproError):
            graph.root.add_output(QCL("faid", Literal(1)))

    def test_duplicate_quantifier_rejected(self):
        graph = build_graph("select faid from Trans", self.catalog)
        child = graph.root.children()[0]
        with pytest.raises(ReproError):
            graph.root.add_quantifier("Trans", child)

    def test_missing_output_raises(self):
        graph = build_graph("select faid from Trans", self.catalog)
        with pytest.raises(ReproError):
            graph.root.output("nope")
