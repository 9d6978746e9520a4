"""End-to-end executor behaviour over the tiny hand-checked database."""

import datetime

import pytest

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table, tables_equal
from repro.errors import ExecutionError
from repro.qgm import build_graph
from repro.resources.broker import BROKER


def rows(db, sql):
    return db.execute(sql, use_summary_tables=False).sorted_rows()


class TestScansAndFilters:
    def test_full_scan(self, tiny_db):
        assert len(rows(tiny_db, "select tid from Trans")) == 6

    def test_where_filter(self, tiny_db):
        result = rows(tiny_db, "select tid from Trans where qty > 1")
        assert result == [(1,), (3,), (5,)]

    def test_predicate_unknown_filters_row(self, tiny_db):
        # No NULLs in data, but constants can produce UNKNOWN.
        result = rows(tiny_db, "select tid from Trans where null = 1")
        assert result == []

    def test_projection_expression(self, tiny_db):
        result = rows(
            tiny_db, "select tid, qty * price as v from Trans where tid = 1"
        )
        assert result == [(1, 220.0)]

    def test_distinct(self, tiny_db):
        result = rows(tiny_db, "select distinct faid from Trans")
        assert result == [(10,), (20,)]


class TestJoins:
    def test_equi_join(self, tiny_db):
        result = rows(
            tiny_db,
            "select tid, city from Trans, Loc where flid = lid and tid = 3",
        )
        assert result == [(3, "Paris")]

    def test_three_way_join(self, tiny_db):
        result = rows(
            tiny_db,
            "select tid, pgname, status from Trans, PGroup, Acct "
            "where fpgid = pgid and faid = aid and tid = 4",
        )
        assert result == [(4, "TV", "silver")]

    def test_cross_join_counts(self, tiny_db):
        result = rows(tiny_db, "select tid, pgid from Trans cross join PGroup")
        assert len(result) == 12

    def test_self_join_with_aliases(self, tiny_db):
        result = rows(
            tiny_db,
            "select t1.tid, t2.tid from Trans t1, Trans t2 "
            "where t1.faid = t2.faid and t1.tid < t2.tid and t1.faid = 20",
        )
        assert result == [(4, 5), (4, 6), (5, 6)]

    def test_join_on_expression_is_residual(self, tiny_db):
        result = rows(
            tiny_db,
            "select tid from Trans, Loc where flid + 0 = lid and tid = 1",
        )
        assert result == [(1,)]

    def test_empty_join_result(self, tiny_db):
        result = rows(
            tiny_db, "select tid from Trans, Loc where flid = lid and lid > 99"
        )
        assert result == []


class TestAggregation:
    def test_group_by_counts(self, tiny_db):
        result = rows(
            tiny_db, "select faid, count(*) as c from Trans group by faid"
        )
        assert result == [(10, 3), (20, 3)]

    def test_group_by_expression(self, tiny_db):
        result = rows(
            tiny_db,
            "select year(date) as y, count(*) as c from Trans group by year(date)",
        )
        assert result == [(1990, 2), (1991, 3), (1992, 1)]

    def test_having(self, tiny_db):
        result = rows(
            tiny_db,
            "select year(date) as y, count(*) as c from Trans "
            "group by year(date) having count(*) >= 2",
        )
        assert result == [(1990, 2), (1991, 3)]

    def test_multiple_aggregates(self, tiny_db):
        result = rows(
            tiny_db,
            "select faid, sum(qty) as q, min(price) as lo, max(price) as hi, "
            "avg(disc) as d from Trans group by faid having faid = 10",
        )
        (row,) = result
        assert row[0:4] == (10, 6, 30.0, 150.0)
        assert abs(row[4] - 0.21666666) < 1e-6

    def test_count_distinct(self, tiny_db):
        result = rows(
            tiny_db,
            "select faid, count(distinct flid) as c from Trans group by faid",
        )
        assert result == [(10, 2), (20, 1)]

    def test_scalar_aggregate(self, tiny_db):
        assert rows(tiny_db, "select count(*) as n from Trans") == [(6,)]

    def test_scalar_aggregate_on_empty_filter(self, tiny_db):
        result = rows(
            tiny_db,
            "select count(*) as n, sum(qty) as s from Trans where qty > 99",
        )
        assert result == [(0, None)]

    def test_group_by_on_empty_input_no_rows(self, tiny_db):
        result = rows(
            tiny_db,
            "select faid, count(*) as n from Trans where qty > 99 group by faid",
        )
        assert result == []


class TestSubqueriesAndOrder:
    def test_scalar_subquery_value(self, tiny_db):
        result = rows(
            tiny_db,
            "select lid, (select count(*) from Trans) as n from Loc where lid = 1",
        )
        assert result == [(1, 6)]

    def test_subquery_in_predicate(self, tiny_db):
        result = rows(
            tiny_db,
            "select faid, count(*) as c from Trans group by faid "
            "having count(*) * 2 = (select count(*) from Trans)",
        )
        assert result == [(10, 3), (20, 3)]

    def test_order_by_applied(self, tiny_db):
        result = tiny_db.execute(
            "select tid, price from Trans order by price desc",
            use_summary_tables=False,
        )
        prices = [row[1] for row in result.rows]
        assert prices == sorted(prices, reverse=True)

    def test_missing_table_data(self, tiny_db):
        from repro.catalog import Column, DataType, TableSchema
        from repro.engine.executor import Executor
        from repro.qgm import build_graph

        tiny_db.catalog.add_table(
            TableSchema("Ghost", [Column("g", DataType.INTEGER)])
        )
        graph = build_graph("select g from Ghost", tiny_db.catalog)
        with pytest.raises(ExecutionError):
            Executor(tiny_db.tables).run(graph)


class TestDerivedTables:
    def test_nested_aggregation(self, tiny_db):
        result = rows(
            tiny_db,
            "select ycnt, count(*) as n from "
            "(select year(date) as y, count(*) as ycnt from Trans "
            " group by year(date)) as t group by ycnt",
        )
        assert result == [(1, 1), (2, 1), (3, 1)]

    def test_shared_subquery_memoized(self, tiny_db):
        # Two references to structurally identical subqueries share one
        # quantifier; execution should still be correct.
        result = rows(
            tiny_db,
            "select (select count(*) from Trans) as a, "
            "(select count(*) from Trans) as b from PGroup where pgid = 1",
        )
        assert result == [(6, 6)]


class TestLimit:
    def test_limit_truncates(self, tiny_db):
        result = tiny_db.execute(
            "select tid from Trans order by tid limit 3",
            use_summary_tables=False,
        )
        assert result.rows == [(1,), (2,), (3,)]

    def test_limit_larger_than_result(self, tiny_db):
        result = tiny_db.execute(
            "select tid from Trans limit 100", use_summary_tables=False
        )
        assert len(result) == 6

    def test_limit_survives_rewrite(self, tiny_db):
        tiny_db.create_summary_table(
            "S", "select faid, count(*) as cnt from Trans group by faid"
        )
        result = tiny_db.execute(
            "select faid, count(*) as n from Trans group by faid "
            "order by n desc limit 1"
        )
        assert len(result) == 1

    def test_limit_in_subquery_rejected(self, tiny_db):
        import pytest

        from repro.errors import UnsupportedSqlError

        with pytest.raises(UnsupportedSqlError):
            tiny_db.execute(
                "select x from (select tid as x from Trans limit 2) as d",
                use_summary_tables=False,
            )

    def test_limit_requires_integer(self, tiny_db):
        import pytest

        from repro.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            tiny_db.execute("select tid from Trans limit 2.5")


class TestHashJoinBuildSide:
    """The hash join must build on the smaller input by *actual*
    cardinality (post-filter), not by declared table order."""

    @staticmethod
    def _db(n_loc, n_trans):
        import datetime

        from repro.catalog import credit_card_catalog
        from repro.engine import Database

        db = Database(credit_card_catalog())
        db.load(
            "Loc",
            [(i, f"city{i}", "CA", "USA") for i in range(1, n_loc + 1)],
        )
        db.load("PGroup", [(1, "TV")])
        db.load("Cust", [(1, "Alice", "CA")])
        db.load("Acct", [(10, 1, "gold")])
        d = datetime.date(1995, 6, 15)
        db.load(
            "Trans",
            [
                (t, 1, (t % n_loc) + 1, 10, d, 1, 10.0, 0.1)
                for t in range(1, n_trans + 1)
            ],
        )
        return db

    @staticmethod
    def _join_builds(db, sql):
        from repro.engine import Executor
        from repro.qgm import build_graph

        executor = Executor(db.tables)
        executor.run(build_graph(sql, db.catalog))
        return executor.stats.join_builds

    def test_builds_on_smaller_side_either_orientation(self):
        sql = "select tid, city from Trans, Loc where flid = lid"
        for n_loc, n_trans in [(3, 50), (50, 3)]:
            builds = self._join_builds(self._db(n_loc, n_trans), sql)
            assert len(builds) == 1
            (build,) = builds
            assert build["build_rows"] == min(n_loc, n_trans)
            assert build["probe_rows"] == max(n_loc, n_trans)
            assert build["build_rows"] <= build["probe_rows"]

    def test_actual_cardinality_after_filter_wins(self):
        # Trans is the big table (50 rows) but the pushed-down filter
        # leaves only 2, so the build side must flip onto Trans.
        db = self._db(3, 50)
        builds = self._join_builds(
            db,
            "select tid, city from Trans, Loc where flid = lid and tid <= 2",
        )
        assert len(builds) == 1
        assert builds[0]["build_rows"] == 2
        assert builds[0]["probe_rows"] == 3


class _Unreadable(list):
    """A column no query below reads: indexing it fails the test."""

    def __getitem__(self, index):
        raise AssertionError("the executor indexed an unread column")


class TestColumnPruning:
    """A SELECT box gathers only the columns it reads after its local
    filters; an unread column is never indexed, on any join path."""

    @staticmethod
    def _db():
        db = Database(credit_card_catalog())
        db.load("PGroup", [(1, "TV"), (2, "Radio")])
        db.load("Cust", [(1, "Alice", "CA")])
        db.load("Acct", [(10, 1, "gold"), (20, 1, "silver")])
        locs = [
            (1, "San Jose", "CA", "USA"),
            (2, "Paris", "IdF", "France"),
            (3, "Austin", "TX", "USA"),
        ]
        trans = [
            (t, t % 2 + 1, t % 3 + 1, 10 * (t % 2 + 1),
             datetime.date(1990 + t % 3, t % 12 + 1, 15),
             t % 4, 10.0 * t + 0.5, 0.1 * (t % 5))
            for t in range(1, 41)
        ]
        # The lists are adopted, not copied: Loc.city and Trans.disc are
        # the unread columns every query below must leave alone.
        for name, data, unread in [("Loc", locs, 1), ("Trans", trans, 7)]:
            columns = [list(c) for c in zip(*data)]
            columns[unread] = _Unreadable(columns[unread])
            schema = db.catalog.table(name)
            db.tables[name.lower()] = Table.from_columns(
                [c.name for c in schema.columns], columns
            )
        return db

    @pytest.mark.parametrize(
        "sql,max_mem",
        [
            ("select tid, qty from Trans where price > 100", None),
            ("select tid, state from Trans, Loc where flid = lid and qty > 1",
             None),
            ("select tid, state from Trans, Loc where tid < 4", None),
            ("select state, count(*) as c, sum(qty * price) as v "
             "from Trans, Loc where flid = lid group by state", 1),
            ("select distinct faid, flid from Trans where qty > 0", None),
            ("select count(*) as c from Trans where qty > 1", None),
            ("select t1.tid, t2.tid from Trans t1, Trans t2 "
             "where t1.faid = t2.faid and t1.tid < t2.tid and t1.qty = 2",
             None),
            ("select flid, count(*) / (select count(*) from Trans) as cntpct "
             "from Trans, Loc where flid = lid and country = 'USA' "
             "group by flid having count(*) > 2", None),
        ],
        ids=[
            "filter", "hash-join", "cross-join", "spilled-join-group-by",
            "distinct", "count-star", "self-join", "fig11_q10",
        ],
    )
    def test_unread_column_is_never_indexed(self, sql, max_mem):
        db = self._db()
        expected = ReferenceExecutor(db.tables).run(build_graph(sql, db.catalog))
        BROKER.reset()
        try:
            result = db.execute(sql, use_summary_tables=False, max_mem=max_mem)
        finally:
            BROKER.reset()
        assert len(result) > 0
        assert tables_equal(result, expected), sql
        if max_mem is not None:
            assert db.metrics.get("executor_spill_count").value >= 2
