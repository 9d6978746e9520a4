"""Incremental summary-table maintenance (related problem (c))."""

import datetime

import pytest

from repro.asts.maintenance import maintain_delete, maintain_insert
from repro.engine.table import tables_equal
from repro.errors import MaintenanceError


D = datetime.date
AST = (
    "select faid, year(date) as year, count(*) as cnt, sum(qty) as sqty, "
    "max(price) as hi from Trans group by faid, year(date)"
)
NEW_ROWS = [
    (101, 1, 1, 10, D(1990, 5, 1), 4, 999.0, 0.0),
    (102, 1, 2, 10, D(1993, 6, 1), 2, 5.0, 0.1),
    (103, 2, 3, 20, D(1991, 7, 1), 1, 50.0, 0.2),
]


def recomputed_copy(db, sql):
    return db.execute(sql, use_summary_tables=False)


class TestInsert:
    def test_incremental_matches_recompute(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, AST))

    def test_new_group_appended(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        before = summary.row_count
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        # (10,1990) and (20,1991) already exist; only (10,1993) is new.
        assert summary.row_count == before + 1

    def test_max_updated_on_insert(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        rows = {(r[0], r[1]): r for r in summary.table.rows}
        assert rows[(10, 1990)][4] == 999.0

    def test_base_table_actually_loaded(self, tiny_db):
        tiny_db.create_summary_table("S1", AST)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert len(tiny_db.table("Trans")) == 9

    def test_empty_insert_is_noop(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        before = list(summary.table.rows)
        maintain_insert(tiny_db, "Trans", [])
        assert summary.table.rows == before

    def test_unaffected_summary_skipped(self, tiny_db):
        tiny_db.create_summary_table(
            "SP", "select pgid, count(*) as c from PGroup group by pgid"
        )
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert "SP" in report.unaffected


class TestDelete:
    def test_incremental_delete(self, tiny_db):
        summary = tiny_db.create_summary_table(
            "S1",
            "select faid, year(date) as year, count(*) as cnt, sum(qty) as s "
            "from Trans group by faid, year(date)",
        )
        victim = tiny_db.table("Trans").rows[0]
        report = maintain_delete(tiny_db, "Trans", [victim])
        assert report.was_incremental("S1")
        fresh = recomputed_copy(
            tiny_db,
            "select faid, year(date) as year, count(*) as cnt, sum(qty) as s "
            "from Trans group by faid, year(date)",
        )
        assert tables_equal(summary.table, fresh)

    def test_emptied_group_removed(self, tiny_db):
        summary = tiny_db.create_summary_table(
            "S1",
            "select faid, year(date) as year, count(*) as cnt "
            "from Trans group by faid, year(date)",
        )
        before = summary.row_count
        # tid 6 is the only 1992 transaction.
        victim = [r for r in tiny_db.table("Trans").rows if r[0] == 6][0]
        maintain_delete(tiny_db, "Trans", [victim])
        assert summary.row_count == before - 1

    def test_delete_with_max_recomputes(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        victim = tiny_db.table("Trans").rows[0]
        report = maintain_delete(tiny_db, "Trans", [victim])
        assert "S1" in report.recomputed
        assert tables_equal(summary.table, recomputed_copy(tiny_db, AST))

    def test_delete_missing_row_raises(self, tiny_db):
        tiny_db.create_summary_table("S1", AST)
        ghost = (999, 1, 1, 10, D(1990, 1, 1), 1, 1.0, 0.0)
        with pytest.raises(MaintenanceError):
            maintain_delete(tiny_db, "Trans", [ghost])


class TestFallbacks:
    """One test per fallback class: the view is recomputed (correctly)
    and the reason names the actual cause."""

    def check_reason(self, tiny_db, sql, needle, deleting=False):
        summary = tiny_db.create_summary_table("S1", sql)
        if deleting:
            victim = tiny_db.table("Trans").rows[0]
            report = maintain_delete(tiny_db, "Trans", [victim])
        else:
            report = maintain_insert(tiny_db, "Trans", NEW_ROWS[:1])
        assert "S1" in report.recomputed
        assert needle in report.recomputed["S1"]
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))

    def test_avg_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, avg(qty) as a from Trans group by faid",
            "AVG",
        )

    def test_distinct_aggregate_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(distinct flid) as c from Trans group by faid",
            "DISTINCT",
        )

    def test_having_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(*) as c from Trans group by faid "
            "having count(*) > 0",
            "HAVING",
        )

    def test_self_join_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select t1.faid, count(*) as c from Trans t1, Trans t2 "
            "where t1.faid = t2.faid group by t1.faid",
            "more than once",
        )

    def test_self_join_of_a_select_only_view_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select t1.tid, t2.tid as other from Trans t1, Trans t2 "
            "where t1.faid = t2.faid",
            "more than once",
        )

    def test_nested_aggregation_falls_back(self, tiny_db):
        """§4.2.2 / fig10: AST8 groups the output of an inner GROUP BY.
        Merging per-row deltas into it (as the pre-fix analysis did,
        seeing "a" single aggregation block at the root) adds a
        ``(year, 1)`` group per inserted row. Its first write is the one
        recompute that keeps the inner groups (TestCascade)."""
        from repro.bench.figures import AST8

        self.check_reason(tiny_db, AST8, "nested aggregation")

    def test_select_distinct_falls_back(self, tiny_db):
        # DISTINCT binds as a grouping block without a COUNT(*): inserts
        # merge, deletes cannot tell when a value's last row is gone.
        self.check_reason(
            tiny_db, "select distinct faid from Trans", "COUNT(*)", deleting=True
        )

    def test_limit_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db, "select tid, qty from Trans order by tid desc limit 3", "LIMIT"
        )

    def test_expression_over_aggregates_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(*) + 1 as c from Trans group by faid",
            "computed from",
        )

    def test_union_all_view_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select tid, qty from Trans where qty > 1 "
            "union all select tid, qty from Trans where qty <= 1",
            "union",
        )

    def test_aggregation_block_joined_in_the_root_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select lid, c from Loc, (select flid, count(*) as c from Trans "
            "group by flid) as d where lid = d.flid",
            "not a single aggregation block",
        )

    def test_grouping_column_projected_away_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(*) as c from Trans group by faid, flid",
            "projected away",
        )

    def test_scalar_avg_falls_back(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(*) as c, (select avg(qty) from Trans) as a "
            "from Trans group by faid",
            "AVG",
        )

    def test_scalar_sum_falls_back_on_delete(self, tiny_db):
        self.check_reason(
            tiny_db,
            "select faid, count(*) as c, (select sum(qty) from Trans) as s "
            "from Trans group by faid",
            "SUM",
            deleting=True,
        )

    def test_grand_total_falls_back_on_delete(self, tiny_db):
        self.check_reason(
            tiny_db, "select count(*) as c from Trans", "grand-total", deleting=True
        )

    def test_empty_summary_with_scalar_falls_back(self, tiny_db):
        # No stored row to read totcnt from: the insert that creates the
        # first group cannot know it.
        self.check_reason(
            tiny_db,
            "select faid, count(*) as c, (select count(*) from Trans) as n "
            "from Trans where qty > 3 group by faid",
            "empty",
        )

    def test_join_view_is_maintainable(self, tiny_db):
        # Dimension joins are fine: the delta joins against full tables.
        sql = (
            "select state, count(*) as c from Trans, Loc where flid = lid "
            "group by state"
        )
        summary = tiny_db.create_summary_table("S1", sql)
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))


class TestCascade:
    """Shape (d): a view that discards groups its delta rule needs keeps
    them as hidden auxiliary groups from its first write on, and every
    later write — insert or delete — is incremental and equals a
    recompute. Views whose inner block or outer view has no plan of its
    own still fall back, every time, for that reason."""

    NESTED = (
        "select year, tcnt, count(*) as mcnt from "
        "(select year(date) as year, month(date) as month, count(*) as tcnt "
        "from Trans group by year(date), month(date)) group by year, tcnt"
    )
    NO_COUNT = "select faid, sum(qty) as s from Trans group by faid"
    HAVING = (
        "select faid, count(*) as c from Trans group by faid having count(*) > 2"
    )

    @staticmethod
    def changes(db):
        """Inserts and deletes that create, grow, shrink and empty inner
        groups; yields each statement's report."""
        victims = list(db.table("Trans").rows)
        yield maintain_insert(db, "Trans", NEW_ROWS[:1])
        yield maintain_delete(db, "Trans", victims[:1])
        yield maintain_insert(db, "Trans", NEW_ROWS[1:] + NEW_ROWS[1:])
        yield maintain_delete(db, "Trans", NEW_ROWS[1:])
        yield maintain_delete(db, "Trans", victims[1:] + NEW_ROWS)
        yield maintain_insert(db, "Trans", victims)

    @pytest.mark.parametrize("sql", [NESTED, NO_COUNT, HAVING])
    def test_stays_incremental_and_equals_a_recompute(self, tiny_db, sql):
        summary = tiny_db.create_summary_table("S1", sql)
        assert summary._auxiliary is None  # nothing is built at CREATE
        recomputed = []
        for report in self.changes(tiny_db):
            recomputed.append(report.recomputed.get("S1"))
            assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))
            cascade = summary._auxiliary
            if cascade is not None:
                assert cascade.built
                assert tables_equal(
                    cascade.groups.table, tiny_db.execute_graph(cascade.groups.graph)
                )
        # exactly one recompute: the first write that needed the groups
        # (NO_COUNT's first insert merges without them)
        once = [why for why in recomputed if why is not None]
        assert len(once) == 1 and "auxiliary groups" in once[0]
        assert recomputed.index(once[0]) == (1 if sql == self.NO_COUNT else 0)
        assert tiny_db.metrics.series("maintenance_recomputes", "summary") == {
            "S1": 1
        }

    def test_auxiliary_groups_are_private(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.NESTED)
        tables, catalog = set(tiny_db.tables), set(tiny_db.catalog.tables)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        groups = summary._auxiliary.groups
        assert len(groups.table) and groups.name not in tiny_db.tables
        assert set(tiny_db.tables) == tables
        assert set(tiny_db.catalog.tables) == catalog
        assert list(tiny_db.summary_tables) == ["s1"]

    def test_dropped_with_the_rows_they_explain(self, tiny_db):
        """Like the group index: gone whenever the rows are replaced
        wholesale; a REFRESH (a recompute) builds them again in its own
        scan, so they are never stale."""
        summary = tiny_db.create_summary_table("S1", self.NESTED)
        maintain_insert(tiny_db, "Trans", NEW_ROWS[:1])
        assert summary._auxiliary.built
        tiny_db.load("Trans", NEW_ROWS[1:])  # behind maintenance's back
        tiny_db.refresh_summary_tables(["S1"])
        groups = summary._auxiliary.groups
        assert tables_equal(groups.table, tiny_db.execute_graph(groups.graph))
        summary.replace_contents(recomputed_copy(tiny_db, self.NESTED))
        assert summary._auxiliary is None

    @pytest.mark.parametrize(
        "sql, needle, deleting",
        [
            pytest.param(
                "select year, max(tcnt) as hi, count(*) as n from "
                "(select year(date) as year, month(date) as month, count(*) as tcnt "
                "from Trans group by year(date), month(date)) group by year",
                "'hi' is MAX — not maintainable under deletes",
                False,
                id="outer-max",
            ),
            pytest.param(
                "select year, sum(tcnt) as t from "
                "(select year(date) as year, month(date) as month, count(*) as tcnt "
                "from Trans group by year(date), month(date)) group by year",
                "no COUNT(*) column",
                False,
                id="outer-without-count",
            ),
            pytest.param(
                "select faid, c, count(*) as n from "
                "(select t1.faid, t1.flid, count(*) as c from Trans t1, Trans t2 "
                "where t1.faid = t2.faid group by t1.faid, t1.flid) group by faid, c",
                "more than once",
                False,
                id="nested-over-self-join",
            ),
            pytest.param(
                "select faid, a, count(*) as n from "
                "(select faid, flid, avg(qty) as a from Trans group by faid, flid) "
                "group by faid, a",
                "'a' is AVG",
                False,
                id="avg-inner-aggregate",
            ),
            pytest.param(
                "select faid, max(price) as hi from Trans group by faid",
                "'hi' is MAX — not maintainable under deletes",
                True,
                id="no-count-with-max",
            ),
        ],
    )
    def test_still_falls_back_with_the_actual_cause(
        self, tiny_db, sql, needle, deleting
    ):
        summary = tiny_db.create_summary_table("S1", sql)
        for attempt in range(2):  # every time: nothing was kept
            if deleting:
                victim = tiny_db.table("Trans").rows[0]
                report = maintain_delete(tiny_db, "Trans", [victim])
            else:
                report = maintain_insert(tiny_db, "Trans", NEW_ROWS[attempt:][:1])
            assert needle in report.recomputed["S1"]
            assert "kept as auxiliary groups" not in report.recomputed["S1"]
            assert summary._auxiliary is None
            assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))


class TestSelectOnlyViews:
    """Shape (a): a select-project-join view's change is the view over
    the changed rows — appended on insert, bag-removed on delete."""

    SQL = (
        "select tid, state, qty * price as value from Trans, Loc "
        "where flid = lid and disc > 0.15"
    )

    def test_insert_appends_the_qualifying_rows(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        before = summary.row_count
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert report.was_incremental("S1")
        # only tid 103 has disc > 0.15
        assert summary.row_count == before + 1
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_delete_removes_one_copy_of_a_duplicate(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        twin = tiny_db.table("Trans").rows[0]
        maintain_insert(tiny_db, "Trans", [twin])
        before = summary.row_count
        report = maintain_delete(tiny_db, "Trans", [twin])
        assert report.was_incremental("S1")
        assert summary.row_count == before - 1
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_dimension_insert(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        report = maintain_insert(tiny_db, "Loc", [(4, "Lyon", "XX", "France")])
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_no_group_index_is_built(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert summary._group_index is None


class TestScalarSubqueryViews:
    """Shape (c): groups merge, each scalar follows its own delta and is
    broadcast into its column."""

    SQL = (
        "select flid, count(*) as cnt, (select count(*) from Trans) as totcnt, "
        "(select sum(qty) from Trans where disc > 0.15) as dqty, "
        "(select count(*) from Loc) as cities "
        "from Trans group by flid"
    )

    def test_insert_updates_groups_and_every_row_of_the_scalar(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS)
        assert report.was_incremental("S1")
        assert set(summary.table.column_values("totcnt")) == {9}
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_scalar_over_another_table(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        report = maintain_insert(tiny_db, "Loc", [(4, "Lyon", "XX", "France")])
        assert report.was_incremental("S1")
        assert set(summary.table.column_values("cities")) == {4}
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_delete_with_count_scalars(self, tiny_db):
        sql = (
            "select flid, count(*) as cnt, (select count(*) from Trans) as totcnt "
            "from Trans group by flid"
        )
        summary = tiny_db.create_summary_table("S1", sql)
        # flid 2 has exactly one transaction: its group goes, totcnt drops
        victim = [r for r in tiny_db.table("Trans").rows if r[2] == 2]
        report = maintain_delete(tiny_db, "Trans", victim)
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))

    def test_rows_rejected_by_the_main_block_still_move_the_scalar(self, tiny_db):
        sql = (
            "select flid, count(*) as cnt, (select count(*) from Trans) as totcnt "
            "from Trans where qty > 2 group by flid"
        )
        summary = tiny_db.create_summary_table("S1", sql)
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS[2:])  # qty 1
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))


class TestGroupIndex:
    SQL = "select faid, year(date) as year, count(*) as cnt from Trans group by faid, year(date)"

    def test_built_at_first_maintenance_not_at_creation(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        assert summary._group_index is None
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        keys, index = summary._group_index
        assert keys == (0, 1)
        assert index == {row[:2]: i for i, row in enumerate(summary.table.rows)}

    def test_kept_current_when_groups_are_removed(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        # the first stored group (10, 1990) empties: the last row moves up
        doomed = [r for r in tiny_db.table("Trans").rows if r[3] == 10 and r[4].year == 1990]
        maintain_delete(tiny_db, "Trans", doomed)
        _keys, index = summary._group_index
        assert index == {row[:2]: i for i, row in enumerate(summary.table.rows)}
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))

    def test_dropped_on_wholesale_replacement(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        maintain_insert(tiny_db, "Trans", NEW_ROWS)
        tiny_db.refresh_summary_tables(["S1"])
        assert summary._group_index is None
        assert summary.stats["rows"] == float(summary.row_count)


class TestDimensionTableChanges:
    SQL = (
        "select state, count(*) as c from Trans, Loc where flid = lid "
        "group by state"
    )

    def test_insert_into_dimension_table(self, tiny_db):
        """The delta of a join view w.r.t. a dimension insert joins the
        new dimension rows against the full fact table."""
        summary = tiny_db.create_summary_table("S1", self.SQL)
        report = maintain_insert(tiny_db, "Loc", [(4, "Lyon", "XX", "France")])
        assert report.was_incremental("S1")
        fresh = recomputed_copy(tiny_db, self.SQL)
        assert tables_equal(summary.table, fresh)

    def test_insert_referenced_dimension_rows_update_groups(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", self.SQL)
        # A new city plus transactions in it.
        maintain_insert(tiny_db, "Loc", [(5, "Kyoto", "KY", "Japan")])
        report = maintain_insert(
            tiny_db,
            "Trans",
            [(50, 1, 5, 10, datetime.date(1992, 3, 3), 1, 10.0, 0.0)],
        )
        assert report.was_incremental("S1")
        assert tables_equal(summary.table, recomputed_copy(tiny_db, self.SQL))


class TestFallbackReasonsOnDelete:
    def test_min_max_delete_reason(self, tiny_db):
        sql = (
            "select faid, count(*) as cnt, max(price) as hi "
            "from Trans group by faid"
        )
        summary = tiny_db.create_summary_table("S1", sql)
        victim = tiny_db.table("Trans").rows[0]
        report = maintain_delete(tiny_db, "Trans", [victim])
        assert "S1" in report.recomputed
        assert "MAX" in report.recomputed["S1"]
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))

    def test_missing_count_delete_reason(self, tiny_db):
        # the first delete's reason; later ones cascade (TestCascade)
        sql = "select faid, sum(qty) as s from Trans group by faid"
        summary = tiny_db.create_summary_table("S1", sql)
        victim = tiny_db.table("Trans").rows[0]
        report = maintain_delete(tiny_db, "Trans", [victim])
        assert "S1" in report.recomputed
        assert "COUNT(*)" in report.recomputed["S1"]
        assert tables_equal(summary.table, recomputed_copy(tiny_db, sql))


class TestTargetedMaintenance:
    """maintain_insert/maintain_delete accept a subset of summaries to
    maintain, leaving the rest untouched (used by deferred refresh)."""

    OTHER = "select flid, count(*) as cnt from Trans group by flid"

    def test_insert_subset_only(self, tiny_db):
        touched = tiny_db.create_summary_table("S1", AST)
        skipped = tiny_db.create_summary_table("S2", self.OTHER)
        before = list(skipped.table.rows)
        report = maintain_insert(
            tiny_db, "Trans", NEW_ROWS, summaries=[touched]
        )
        assert report.was_incremental("S1")
        assert "S2" not in report.incremental
        assert "S2" not in report.recomputed
        assert skipped.table.rows == before
        assert tables_equal(touched.table, recomputed_copy(tiny_db, AST))

    def test_delete_subset_only(self, tiny_db):
        # AST uses MAX (not deletable); use a COUNT-only view instead.
        sql = "select faid, count(*) as cnt from Trans group by faid"
        touched = tiny_db.create_summary_table("S1", sql)
        skipped = tiny_db.create_summary_table("S2", self.OTHER)
        before = list(skipped.table.rows)
        victim = tiny_db.table("Trans").rows[0]
        report = maintain_delete(
            tiny_db, "Trans", [victim], summaries=[touched]
        )
        assert report.was_incremental("S1")
        assert skipped.table.rows == before
        assert tables_equal(touched.table, recomputed_copy(tiny_db, sql))

    def test_empty_subset_is_noop(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", AST)
        before = list(summary.table.rows)
        report = maintain_insert(tiny_db, "Trans", NEW_ROWS, summaries=[])
        assert not report.incremental and not report.recomputed
        assert summary.table.rows == before


class TestRecomputeIsObservable:
    """Every full recomputation is counted per summary and leaves a
    ``summary.recompute`` event with its reason."""

    SQL = "select faid, avg(qty) as a from Trans group by faid"

    def test_counter_and_event(self, tiny_db):
        from repro.obs import events

        events.LOG.clear()
        tiny_db.create_summary_table("S1", self.SQL)
        tiny_db.create_summary_table("S2", AST)
        tiny_db.insert_rows("Trans", NEW_ROWS[:1])
        tiny_db.insert_rows("Trans", NEW_ROWS[1:2])
        tiny_db.refresh_summary_tables(["S2"])
        assert tiny_db.metrics.series("maintenance_recomputes", "summary") == {
            "S1": 2, "S2": 1,
        }
        recomputes = [e for e in events.tail() if e["event"] == "summary.recompute"]
        assert [(e["summary"], e["reason"]) for e in recomputes] == [
            ("S1", "'a' is AVG (store SUM and COUNT instead)"),
            ("S1", "'a' is AVG (store SUM and COUNT instead)"),
            ("S2", "REFRESH requested"),
        ]

    def test_status_lists_recomputed_summaries(self, tiny_db):
        import io

        from repro.cli import Shell

        tiny_db.create_summary_table("S1", self.SQL)
        tiny_db.insert_rows("Trans", NEW_ROWS[:1])
        out = io.StringIO()
        Shell(tiny_db, out=out).handle_line("\\status")
        assert "recomputed: S1 x1" in out.getvalue()
