"""SQL → QGM binder tests (the Figure 3 construction)."""

import pytest

from repro.catalog import credit_card_catalog
from repro.errors import BindError, UnsupportedSqlError
from repro.expr import AggCall, ColumnRef
from repro.qgm import BaseTableBox, GroupByBox, SelectBox, build_graph


CATALOG = credit_card_catalog()


def build(sql):
    return build_graph(sql, CATALOG)


class TestPlainBlocks:
    def test_single_select_box(self):
        graph = build("select faid, qty from Trans where qty > 1")
        assert isinstance(graph.root, SelectBox)
        assert graph.root.output_names == ["faid", "qty"]
        assert len(graph.root.predicates) == 1

    def test_base_table_leaf(self):
        graph = build("select faid from Trans")
        (leaf,) = graph.root.children()
        assert isinstance(leaf, BaseTableBox)
        assert leaf.table_name == "Trans"

    def test_select_star_expands(self):
        graph = build("select * from PGroup")
        assert graph.root.output_names == ["pgid", "pgname"]

    def test_join_predicates_and_quantifiers(self):
        graph = build("select faid from Trans, Loc where flid = lid")
        names = [q.name for q in graph.root.quantifiers()]
        assert names == ["Trans", "Loc"]

    def test_alias_scoping(self):
        graph = build("select t.faid from Trans as t")
        assert graph.root.quantifiers()[0].name == "t"

    def test_unqualified_resolution(self):
        graph = build("select pgname from Trans, PGroup where fpgid = pgid")
        ref = graph.root.output("pgname").expr
        assert ref == ColumnRef("PGroup", "pgname")

    def test_case_insensitive_names(self):
        graph = build("select FAID from TRANS")
        assert graph.root.output_names == ["faid"]

    def test_distinct_becomes_group_by(self):
        # Footnote 2: SELECT DISTINCT binds as GROUP BY over the outputs.
        graph = build("select distinct faid from Trans")
        groupby = graph.root.children()[0]
        assert isinstance(groupby, GroupByBox)
        assert groupby.grouping_items == ("faid",)

    def test_distinct_with_aggregation_keeps_flag(self):
        graph = build(
            "select distinct faid, count(*) as c from Trans group by faid, flid"
        )
        assert graph.root.distinct


class TestAggregatedBlocks:
    def test_sandwich_structure(self):
        graph = build(
            "select faid, count(*) as cnt from Trans group by faid having count(*) > 1"
        )
        upper = graph.root
        assert isinstance(upper, SelectBox)
        (groupby,) = upper.children()
        assert isinstance(groupby, GroupByBox)
        (lower,) = groupby.children()
        assert isinstance(lower, SelectBox)
        assert len(upper.predicates) == 1  # HAVING

    def test_grouping_expressions_live_in_lower_box(self):
        graph = build(
            "select year(date) as year, count(*) as cnt from Trans group by year(date)"
        )
        groupby = graph.root.children()[0]
        assert groupby.grouping_items == ("year",)
        lower = groupby.children()[0]
        assert lower.output("year").expr is not None

    def test_aggregate_args_are_simple_columns(self):
        graph = build("select sum(qty * price) as v from Trans group by flid")
        groupby = graph.root.children()[0]
        (agg,) = groupby.aggregate_outputs()
        assert isinstance(agg.expr, AggCall)
        assert isinstance(agg.expr.arg, ColumnRef)

    def test_aggregates_deduplicated(self):
        graph = build(
            "select count(*) as a, count(*) as b from Trans group by flid"
        )
        groupby = graph.root.children()[0]
        assert len(groupby.aggregate_outputs()) == 1

    def test_scalar_aggregate_without_group_by(self):
        graph = build("select count(*) as n from Trans")
        groupby = graph.root.children()[0]
        assert groupby.grouping_sets == ((),)

    def test_having_without_group_by(self):
        graph = build("select count(*) as n from Trans having count(*) > 0")
        assert len(graph.root.predicates) == 1

    def test_grouping_sets_canonicalized(self):
        graph = build(
            "select flid, year(date) as year, count(*) as cnt from Trans "
            "group by grouping sets ((flid, year(date)), (year(date)), (flid, year(date)))"
        )
        groupby = graph.root.children()[0]
        assert groupby.grouping_sets == (("flid", "year"), ("year",))

    def test_rollup_expansion(self):
        graph = build(
            "select flid, faid, count(*) as cnt from Trans group by rollup(flid, faid)"
        )
        groupby = graph.root.children()[0]
        assert groupby.grouping_sets == (("flid", "faid"), ("flid",), ())

    def test_cube_expansion(self):
        graph = build(
            "select flid, faid, count(*) as cnt from Trans group by cube(flid, faid)"
        )
        groupby = graph.root.children()[0]
        assert set(groupby.grouping_sets) == {
            ("flid", "faid"), ("flid",), ("faid",), (),
        }

    def test_mixed_supergroup_cross_product(self):
        graph = build(
            "select flid, faid, count(*) as cnt from Trans group by flid, rollup(faid)"
        )
        groupby = graph.root.children()[0]
        assert groupby.grouping_sets == (("flid", "faid"), ("flid",))

    def test_grouped_out_columns_nullable(self):
        graph = build(
            "select flid, faid, count(*) as cnt from Trans group by rollup(flid, faid)"
        )
        groupby = graph.root.children()[0]
        assert groupby.output("faid").nullable
        assert groupby.output("flid").nullable

    def test_select_expression_over_grouping_column(self):
        graph = build(
            "select year(date) % 100 as y2, count(*) as cnt from Trans "
            "group by year(date) % 100"
        )
        assert graph.root.output_names == ["y2", "cnt"]


class TestNestedBlocks:
    def test_derived_table(self):
        graph = build(
            "select year, tcnt from "
            "(select year(date) as year, count(*) as tcnt from Trans "
            "group by year(date)) as t"
        )
        assert isinstance(graph.root, SelectBox)

    def test_derived_table_auto_alias(self):
        graph = build(
            "select year from (select year(date) as year from Trans)"
        )
        assert graph.root.quantifiers()[0].name.startswith("dt")

    def test_scalar_subquery_becomes_quantifier(self):
        graph = build(
            "select lid, (select count(*) from Trans) as n from Loc"
        )
        names = [q.name for q in graph.root.quantifiers()]
        assert "Loc" in names and any(n.startswith("sq") for n in names)

    def test_identical_subqueries_share_quantifier(self):
        graph = build(
            "select (select count(*) from Trans) as a, "
            "(select count(*) from Trans) as b from Loc"
        )
        subqueries = [
            q for q in graph.root.quantifiers() if q.name.startswith("sq")
        ]
        assert len(subqueries) == 1

    def test_non_aggregate_scalar_subquery_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            build("select (select lid from Loc) as x from Trans")

    def test_graph_validates(self):
        graph = build(
            "select tcnt, count(*) as ycnt from "
            "(select year(date) as y, count(*) as tcnt from Trans group by year(date))"
            " group by tcnt"
        )
        graph.validate()


class TestOrderBy:
    def test_order_by_output_name(self):
        graph = build("select faid, qty from Trans order by qty desc")
        assert graph.order_by == [("qty", False)]

    def test_order_by_unknown_name(self):
        with pytest.raises(BindError):
            build("select faid from Trans order by nope")

    def test_order_by_in_subquery_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            build(
                "select x from (select faid as x from Trans order by faid) as d"
            )


class TestBindErrors:
    def test_unknown_table(self):
        with pytest.raises(Exception):
            build("select x from Nope")

    def test_unknown_column(self):
        with pytest.raises(BindError):
            build("select nope from Trans")

    def test_ambiguous_column(self):
        with pytest.raises(BindError):
            build(
                "select status from Acct as a1, Acct as a2 where a1.aid = a2.aid"
            )

    def test_duplicate_alias(self):
        with pytest.raises(BindError):
            build("select 1 as one from Trans t, Loc t")

    def test_non_grouped_column_rejected(self):
        with pytest.raises(BindError):
            build("select faid, count(*) from Trans group by flid")

    def test_non_grouped_column_in_having(self):
        with pytest.raises(BindError):
            build(
                "select flid, count(*) from Trans group by flid having faid > 1"
            )

    def test_select_star_in_grouped_query(self):
        with pytest.raises(BindError):
            build("select * from Trans group by flid")

    def test_nested_aggregate_rejected(self):
        with pytest.raises(BindError):
            build("select sum(count(*)) from Trans group by flid")

    def test_aggregate_without_grouping_context(self):
        with pytest.raises(BindError):
            build("select faid from Trans where count(*) > 1")


@pytest.mark.parametrize(
    "sql",
    [
        "select year(date, 1) as y from Trans",
        "select round(qty, 1, 2) as r from Trans",
        "select tid from Trans where year() > 1990",
        "select coalesce() as c from Trans",
        "select foo(qty) as f from Trans",
        "select flid, round(sum(qty), 1, 2) as r from Trans group by flid",
    ],
)
def test_a_bad_function_call_fails_to_bind(small_db, sql):
    """An unknown name or an argument count outside the built-in's arity
    is a bind error, raised before anything executes."""
    with pytest.raises(BindError):
        small_db.execute(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "select city % 7 as v from Loc",
        "select city - 1 as v from Loc",
        "select city + 1 as v from Loc",
        "select city / 2 as v from Loc",
        "select -city as v from Loc",
        "select v % 7 from (select city as v from Loc) as d",
        "select date - 1 as v from Trans",
        "select '50%d' % 7 as v from Trans",
    ],
)
def test_arithmetic_on_text_or_a_date_fails_to_bind(small_db, sql):
    """A text or date operand of ``+ - * / %`` or unary ``-`` is a bind
    error — not Python's %-formatting of the text, nor a TypeError
    raised mid-execution."""
    with pytest.raises(BindError, match="arithmetic"):
        small_db.execute(sql)


class TestOrderByExpressions:
    def test_order_by_aggregate_expression(self):
        graph = build(
            "select faid, count(*) as n from Trans group by faid "
            "order by count(*) desc"
        )
        assert graph.order_by == [("n", False)]

    def test_order_by_scalar_expression(self):
        graph = build(
            "select faid, qty * price as v from Trans order by price * qty"
        )
        assert graph.order_by == [("v", True)]  # commutativity normalized

    def test_order_by_grouping_expression(self):
        graph = build(
            "select year(date) as y, count(*) as n from Trans "
            "group by year(date) order by year(date)"
        )
        assert graph.order_by == [("y", True)]

    def test_order_by_non_output_expression_rejected(self):
        with pytest.raises(BindError):
            build("select faid from Trans order by qty + 1")
