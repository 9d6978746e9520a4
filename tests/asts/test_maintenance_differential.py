"""Seeded differential test of incremental maintenance.

Every figure AST (and the web-metrics ASTs) is installed on a small
generated database; a random sequence of inserts and deletes runs
against it, and after *every* statement each summary — and each
summary's hidden auxiliary groups (shape (d)), where it has them — must
equal a fresh evaluation of its defining block — under REFRESH IMMEDIATE
and under REFRESH DEFERRED once the staged deltas are drained.
"""

import datetime
import random

import pytest

from repro.asts import maintenance
from repro.bench.figures import FIGURES, make_database
from repro.engine.executor import Executor
from repro.engine.table import Table, tables_equal
from repro.workloads.datagen import GeneratorConfig
from repro.workloads.webmetrics import build_web_db, install_web_asts

#: 432 ``Trans`` rows (the ledger's reference configuration)
CONFIG = GeneratorConfig(
    customers=6, accounts_per_customer=2, cities=12,
    transactions_per_account_year=12,
)
FIGURE_ASTS = {name: sql for name, sql, _query, _pattern in FIGURES.values()}
#: the figure ASTs that need auxiliary groups: AST8 from its first write
#: (nested aggregation), AST4/AST6 from their first delete (no COUNT(*))
CASCADED = {"AST4", "AST6", "AST8"}
#: more shape (d) views: a nested SUM over a join, HAVING, no COUNT(*)
#: over a join
CASCADE_VIEWS = {
    "NESTED_SUM": (
        "select country, tcnt, count(*) as n, sum(q) as q from "
        "(select country, month(date) as month, count(*) as tcnt, sum(qty) as q "
        "from Trans, Loc where flid = lid group by country, month(date)) "
        "group by country, tcnt"
    ),
    "BUSY": (
        "select flid, count(*) as cnt from Trans group by flid "
        "having count(*) > 36"
    ),
    "STATE_QTY": (
        "select state, sum(qty) as q from Trans, Loc where flid = lid "
        "group by state"
    ),
}
MODES = ["immediate", "deferred"]


def figure_db(mode, extra=()):
    database = make_database(CONFIG)
    for name, sql in {**FIGURE_ASTS, **dict(extra)}.items():
        database.create_summary_table(name, sql, refresh_mode=mode)
    return database


def auxiliary_groups(summary):
    """The summary's built auxiliary groups (a SummaryTable), or None."""
    cascade = summary._auxiliary
    return cascade.groups if cascade is not None and cascade.built else None


def assert_consistent(database, statement):
    database.drain_refresh()
    for summary in database.summary_tables.values():
        fresh = database.execute_graph(summary.graph)
        assert tables_equal(summary.table, fresh), (
            f"{summary.name} drifted after {statement}"
        )
        groups = auxiliary_groups(summary)
        if groups is not None:
            fresh = database.execute_graph(groups.graph)
            assert tables_equal(groups.table, fresh), (
                f"{summary.name}'s auxiliary groups drifted after {statement}"
            )


def random_trans(rng, tid, lids=range(1, 13), aids=range(1, 13)):
    return (
        tid,
        rng.randint(1, 10),
        rng.choice(lids),
        rng.choice(aids),
        datetime.date(rng.choice([1990, 1991, 1992]), rng.randint(1, 12), rng.randint(1, 28)),
        rng.randint(1, 5),
        round(rng.uniform(5.0, 900.0), 2),
        # AST2 keeps disc > 0.1 only: about half the rows are rejected
        rng.choice([0.0, 0.05, 0.1, 0.15, 0.2, 0.25]),
    )


@pytest.mark.parametrize("mode", MODES)
def test_figure_asts_follow_random_changes(mode):
    rng = random.Random(13)
    database = figure_db(mode, CASCADE_VIEWS.items())
    try:
        live = list(database.table("Trans").rows)
        tids = iter(range(10_000, 20_000))

        def insert(rows, what):
            database.insert_rows("Trans", rows)
            live.extend(rows)
            assert_consistent(database, f"{what}: insert {rows!r}")

        def delete(rows, what):
            database.delete_rows("Trans", rows)
            for row in rows:
                live.remove(row)
            assert_consistent(database, f"{what}: delete {rows!r}")

        for step in range(24):
            kind = rng.choice(["insert", "insert_many", "duplicate", "delete", "delete_many"])
            if kind == "insert":
                insert([random_trans(rng, next(tids))], f"step {step}")
            elif kind == "insert_many":
                insert([random_trans(rng, next(tids)) for _ in range(rng.randint(2, 5))], f"step {step}")
            elif kind == "duplicate":
                # the same row twice in one statement, plus a copy of a stored row
                row = random_trans(rng, next(tids))
                insert([row, row, rng.choice(live)], f"step {step}")
            elif kind == "delete":
                delete([rng.choice(live)], f"step {step}")
            else:
                delete(rng.sample(live, rng.randint(2, 5)), f"step {step}")

        # the last row of a group: 1999 exists in no other row
        lonely = (next(tids), 1, 1, 1, datetime.date(1999, 7, 7), 1, 50.0, 0.2)
        insert([lonely], "new group")
        delete([lonely], "last row of a group")
        # ... and of AST8's inner (1999, 7) group, which empties, refills
        # with duplicates, loses one copy, then its last row again
        insert([lonely, lonely], "inner group refilled with duplicates")
        delete([lonely], "one copy of a duplicate")
        delete([lonely], "last row of an inner group")
        # two inner groups of one year trade places in AST8's histogram
        june = (next(tids), 1, 1, 1, datetime.date(1999, 6, 6), 1, 50.0, 0.2)
        insert([lonely, june, june], "inner counts 1 and 2")
        delete([june], "inner counts 1 and 1: one outer group")
        delete([lonely, june], "year emptied")
        cascaded = CASCADED | set(CASCADE_VIEWS)
        assert {
            s.name for s in database.summary_tables.values() if auxiliary_groups(s)
        } == cascaded

        # a dimension insert, then facts that join to it
        database.insert_rows("Loc", [(13, "Lyon", "XX", "France")])
        assert_consistent(database, "dimension insert")
        insert(
            [random_trans(rng, next(tids), lids=[13]) for _ in range(3)],
            "facts in the new city",
        )

        # empty every summary, then refill
        delete(list(live), "delete everything")
        assert all(not len(s.table) for s in database.summary_tables.values())
        assert all(
            not len(auxiliary_groups(database.summary_tables[name.lower()]).table)
            for name in cascaded
        )
        insert([random_trans(rng, next(tids)) for _ in range(4)], "refill")
        insert([random_trans(rng, next(tids))], "after refill")
        delete([live[0]], "after refill")
    finally:
        database.close()


@pytest.mark.parametrize("mode", MODES)
def test_web_asts_follow_random_changes(mode):
    rng = random.Random(14)
    database = build_web_db(views=400)
    install_web_asts(database)
    if mode == "deferred":
        for summary in list(database.summary_tables.values()):
            database.drop_summary_table(summary.name)
            database.create_summary_table(
                summary.name, summary.sql, refresh_mode="deferred"
            )
    try:
        live = list(database.table("PageView").rows)
        pages = len(database.table("Page"))
        visitors = len(database.table("Visitor"))
        for step in range(12):
            if rng.random() < 0.6:
                rows = [
                    (
                        10_000 + 10 * step + i,
                        rng.randint(1, pages),
                        rng.randint(1, visitors),
                        datetime.date(rng.choice([1999, 2000]), rng.randint(1, 12), 5),
                        rng.randint(1, 600),
                        float(rng.randint(1, 500) * 1024),
                    )
                    for i in range(rng.randint(1, 3))
                ]
                database.insert_rows("PageView", rows)
                live.extend(rows)
            else:
                rows = rng.sample(live, rng.randint(1, 3))
                database.delete_rows("PageView", rows)
                for row in rows:
                    live.remove(row)
            assert_consistent(database, f"step {step}: {rows!r}")
        database.insert_rows("Page", [(pages + 1, "/lab/p", "lab")])
        assert_consistent(database, "dimension insert")
        database.insert_rows(
            "PageView", [(20_000, pages + 1, 1, datetime.date(2000, 2, 2), 9, 1024.0)]
        )
        assert_consistent(database, "fact on the new page")
    finally:
        database.close()


class TestNoSilentRecompute:
    """A slide back to recomputation must fail tier-1, not a benchmark."""

    ROW = (10_000, 1, 1, 1, datetime.date(1991, 5, 5), 2, 10.0, 0.2)

    def test_trans_insert_recomputes_only_the_nested_ast(self):
        """... and only once: the recompute that builds AST8's auxiliary
        groups (AST4's and AST6's on their first delete); after each
        summary has been touched once, inserts and deletes alike are
        incremental for all nine."""
        database = figure_db("immediate")
        report = database.insert_rows("Trans", [self.ROW])
        assert set(report.recomputed) == {"AST8"}
        assert "nested aggregation" in report.recomputed["AST8"]
        assert "auxiliary groups" in report.recomputed["AST8"]
        assert set(report.incremental) == set(FIGURE_ASTS) - {"AST8"}
        assert {"AST2", "AST10"} <= set(report.incremental)
        report = database.delete_rows("Trans", [self.ROW])
        assert set(report.recomputed) == {"AST4", "AST6"}
        assert all("COUNT(*)" in why for why in report.recomputed.values())
        assert all("auxiliary groups" in why for why in report.recomputed.values())
        for _ in range(2):
            for change in (database.insert_rows, database.delete_rows):
                report = change("Trans", [self.ROW])
                assert report.recomputed == {}
                assert set(report.incremental) == set(FIGURE_ASTS)
        assert database.metrics.series("maintenance_recomputes", "summary") == {
            name: 1 for name in CASCADED
        }

    def test_steady_state_write_scans_its_delta_only(self, monkeypatch):
        """After the first touch a ``Trans`` insert and a ``Trans``
        delete recompute nothing and no executor scan reads ``Trans``
        (or any stored table the size of it): every scanned input is the
        changed rows, the touched auxiliary groups or a dimension."""
        database = figure_db("immediate", CASCADE_VIEWS.items())
        database.insert_rows("Trans", [self.ROW])
        database.delete_rows("Trans", [self.ROW])
        trans, scanned, recomputed = database.table("Trans"), [], []
        scan = Executor._scan

        def spy_scan(executor, box):
            table = scan(executor, box)
            scanned.append((box.table_name, len(table)))
            assert table is not trans
            return table

        monkeypatch.setattr(Executor, "_scan", spy_scan)
        monkeypatch.setattr(
            maintenance, "recompute", lambda *args: recomputed.append(args)
        )
        database.insert_rows("Trans", [self.ROW])
        database.delete_rows("Trans", [self.ROW])
        assert not recomputed
        assert scanned
        dimensions = max(len(database.table(name)) for name in ("Loc", "Acct"))
        assert max(rows for _, rows in scanned) <= dimensions

    def test_no_stored_table_is_turned_into_rows(self, monkeypatch):
        """O(|delta|), not O(|summary|) or O(|Trans|): neither the base
        table nor a summary is zipped into row tuples on the way."""
        database = figure_db("immediate")
        stored = {id(table) for table in database.tables.values()}
        zipped = []
        materialize = Table._materialize_rows

        def spy(table):
            if id(table) in stored:
                zipped.append(table)
            return materialize(table)

        monkeypatch.setattr(Table, "_materialize_rows", spy)
        database.insert_rows("Trans", [self.ROW])
        database.delete_rows("Trans", [self.ROW])
        assert not zipped

    def test_deferred_drain_recomputes_only_the_nested_ast(self):
        """... on the first drain; AST4 and AST6 on the first drain of a
        delete; no drain after that falls back."""
        database = figure_db("deferred")
        scheduler = database.refresh_scheduler
        try:
            database.insert_rows("Trans", [self.ROW])
            database.drain_refresh()
            assert set(scheduler.last_fallbacks) == {"AST8"}
            assert "auxiliary groups" in scheduler.last_fallbacks["AST8"]
            database.delete_rows("Trans", [self.ROW])
            database.drain_refresh()
            assert set(scheduler.last_fallbacks) == CASCADED
            scheduler.last_fallbacks.clear()
            fallbacks = scheduler.fallback_recomputes
            for change in (database.insert_rows, database.delete_rows) * 2:
                change("Trans", [self.ROW])
                database.drain_refresh()
                assert_consistent(database, change.__name__)
            assert scheduler.last_fallbacks == {}
            assert scheduler.fallback_recomputes == fallbacks
        finally:
            database.close()
