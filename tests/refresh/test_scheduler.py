"""The background refresh scheduler: deferred ingest stages work, drain
applies it (incrementally where possible, recompute fallback otherwise),
and after a drain the deferred summaries are bit-identical to what
immediate maintenance would have produced."""

import datetime

import pytest

from repro.asts.maintenance import apply_pending
from repro.engine.table import tables_equal
from repro.errors import CatalogError
from repro.refresh.log import DeltaBatch

D = datetime.date
COUNT_SUM = (
    "select faid, count(*) as cnt, sum(qty) as sqty "
    "from Trans group by faid"
)
NEW_ROWS = [
    (101, 1, 1, 10, D(1990, 5, 1), 4, 999.0, 0.0),
    (102, 1, 2, 10, D(1993, 6, 1), 2, 5.0, 0.1),
    (103, 2, 3, 20, D(1991, 7, 1), 1, 50.0, 0.2),
]


def recompute(db, sql):
    return db.execute(sql, use_summary_tables=False)


@pytest.fixture
def drained(tiny_db):
    """Always stop the worker thread, even when a test fails."""
    yield tiny_db
    tiny_db.close()


class TestDeferredIngest:
    def test_insert_stages_instead_of_maintaining(self, drained):
        summary = drained.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        report = drained.insert_rows("Trans", NEW_ROWS)
        assert report.deferred == ["S1"]
        assert not report.was_incremental("S1")
        assert "S1" not in report.recomputed
        # base table is updated synchronously
        assert len(drained.table("Trans")) == 9
        # the summary catches up only once the queue drains
        drained.drain_refresh()
        assert summary.refresh.pending_deltas == 0
        assert tables_equal(summary.table, recompute(drained, COUNT_SUM))

    def test_drain_applies_incrementally(self, drained):
        summary = drained.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        for row in NEW_ROWS:
            drained.insert_rows("Trans", [row])
        drained.drain_refresh()
        assert summary.refresh.pending_deltas == 0
        assert tables_equal(summary.table, recompute(drained, COUNT_SUM))
        scheduler = drained.refresh_scheduler
        assert scheduler.refreshes_applied >= 1
        assert scheduler.batches_applied == 3
        assert scheduler.fallback_recomputes == 0
        assert list(scheduler.errors) == []

    def test_mixed_modes_split_inline_vs_staged(self, drained):
        immediate = drained.create_summary_table("IM", COUNT_SUM)
        deferred = drained.create_summary_table(
            "DF",
            "select flid, count(*) as cnt from Trans group by flid",
            refresh_mode="deferred",
        )
        report = drained.insert_rows("Trans", NEW_ROWS)
        assert report.was_incremental("IM")
        assert report.deferred == ["DF"]
        assert tables_equal(immediate.table, recompute(drained, COUNT_SUM))
        drained.drain_refresh()
        assert tables_equal(
            deferred.table,
            recompute(
                drained, "select flid, count(*) as cnt from Trans group by flid"
            ),
        )

    def test_deferred_delete_applies_incrementally(self, drained):
        summary = drained.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        victim = drained.table("Trans").rows[0]
        report = drained.delete_rows("Trans", [victim])
        assert report.deferred == ["S1"]
        drained.drain_refresh()
        assert tables_equal(summary.table, recompute(drained, COUNT_SUM))
        assert drained.refresh_scheduler.fallback_recomputes == 0

    def test_unrelated_deferred_summary_not_staged(self, drained):
        drained.create_summary_table(
            "SP",
            "select pgid, count(*) as c from PGroup group by pgid",
            refresh_mode="deferred",
        )
        report = drained.insert_rows("Trans", NEW_ROWS)
        assert "SP" in report.unaffected
        assert drained.summary_tables["sp"].refresh.pending_deltas == 0
        assert len(drained.delta_log) == 0

    def test_pending_deltas_gauge_in_stats(self, drained):
        drained.create_summary_table("S1", COUNT_SUM, refresh_mode="deferred")
        drained.insert_rows("Trans", NEW_ROWS[:1])
        # gauge may already be drained by the worker; force a stale state
        # deterministically by reading right after staging a second batch
        drained.drain_refresh()
        assert drained.rewrite_stats()["pending_deltas"] == 0
        assert drained.rewrite_stats()["refreshes_applied"] >= 1


class TestFallbacks:
    def test_avg_falls_back_to_recompute(self, drained):
        sql = "select faid, avg(qty) as a from Trans group by faid"
        summary = drained.create_summary_table(
            "S1", sql, refresh_mode="deferred"
        )
        drained.insert_rows("Trans", NEW_ROWS)
        drained.drain_refresh()
        assert tables_equal(summary.table, recompute(drained, sql))
        scheduler = drained.refresh_scheduler
        assert scheduler.fallback_recomputes >= 1
        assert "AVG" in scheduler.last_fallbacks["S1"]

    def test_multi_table_pending_falls_back(self, drained):
        sql = (
            "select state, count(*) as c from Trans, Loc where flid = lid "
            "group by state"
        )
        summary = drained.create_summary_table(
            "S1", sql, refresh_mode="deferred"
        )
        # Two tables change before any refresh runs: the coalesced
        # pending set spans Trans and Loc, so incremental apply refuses.
        batches = [
            DeltaBatch(98, "loc", +1, ((7, "Lyon", "XX", "France"),)),
            DeltaBatch(
                99, "trans", +1, ((70, 1, 7, 10, D(1992, 3, 3), 1, 10.0, 0.0),)
            ),
        ]
        reason = apply_pending(drained, summary, batches)
        assert "more than one base table" in reason

    def test_multi_table_ingest_recovers_via_recompute(self, drained):
        sql = (
            "select state, count(*) as c from Trans, Loc where flid = lid "
            "group by state"
        )
        summary = drained.create_summary_table(
            "S1", sql, refresh_mode="deferred"
        )
        drained.insert_rows("Loc", [(7, "Lyon", "XX", "France")])
        drained.insert_rows(
            "Trans", [(70, 1, 7, 10, D(1992, 3, 3), 1, 10.0, 0.0)]
        )
        drained.drain_refresh()
        assert tables_equal(summary.table, recompute(drained, sql))

    def test_min_max_delete_falls_back(self, drained):
        sql = (
            "select faid, count(*) as cnt, max(price) as hi "
            "from Trans group by faid"
        )
        summary = drained.create_summary_table(
            "S1", sql, refresh_mode="deferred"
        )
        victim = drained.table("Trans").rows[0]
        drained.delete_rows("Trans", [victim])
        drained.drain_refresh()
        assert tables_equal(summary.table, recompute(drained, sql))
        assert drained.refresh_scheduler.fallback_recomputes >= 1


class TestApplyPendingUnit:
    def test_insert_then_delete_batches_commute(self, tiny_db):
        summary = tiny_db.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        row = NEW_ROWS[0]
        # Stage an insert and the delete of the same row: net no-op.
        tiny_db.table("Trans").rows.append(row)
        tiny_db.table("Trans").rows.remove(row)
        before = sorted(summary.table.rows)
        batches = [
            DeltaBatch(1, "trans", +1, (row,)),
            DeltaBatch(2, "trans", -1, (row,)),
        ]
        assert apply_pending(tiny_db, summary, batches) is None
        assert sorted(summary.table.rows) == before

    def test_empty_batch_list_is_noop(self, tiny_db):
        summary = tiny_db.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        assert apply_pending(tiny_db, summary, []) is None


class TestTargetedRefresh:
    def test_refresh_by_name_only_touches_named(self, drained):
        one = drained.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        two = drained.create_summary_table(
            "S2",
            "select flid, count(*) as cnt from Trans group by flid",
            refresh_mode="deferred",
        )
        drained.insert_rows("Trans", NEW_ROWS)
        drained.refresh_scheduler.drain()  # settle the background pass
        # force a stale state for both, bypassing the scheduler
        one.refresh.pending_deltas = 1
        two.refresh.pending_deltas = 1
        drained.refresh_summary_tables(["S1"])
        assert one.refresh.pending_deltas == 0
        assert two.refresh.pending_deltas == 1
        assert tables_equal(one.table, recompute(drained, COUNT_SUM))

    def test_refresh_all_keeps_noarg_behavior(self, tiny_db):
        summary = tiny_db.create_summary_table("S1", COUNT_SUM)
        tiny_db.load("Trans", NEW_ROWS)  # load() skips maintenance
        assert not tables_equal(summary.table, recompute(tiny_db, COUNT_SUM))
        tiny_db.refresh_summary_tables()
        assert tables_equal(summary.table, recompute(tiny_db, COUNT_SUM))

    def test_refresh_unknown_name_raises(self, tiny_db):
        with pytest.raises(CatalogError):
            tiny_db.refresh_summary_tables(["nope"])

    def test_refresh_sql_statement(self, drained):
        drained.create_summary_table("S1", COUNT_SUM, refresh_mode="deferred")
        drained.summary_tables["s1"].refresh.pending_deltas = 2
        status = drained.run_sql("refresh summary table S1")
        assert "S1" in status
        assert drained.summary_tables["s1"].refresh.pending_deltas == 0


class TestLifecycle:
    def test_stop_finishes_queued_work(self, tiny_db):
        summary = tiny_db.create_summary_table(
            "S1", COUNT_SUM, refresh_mode="deferred"
        )
        tiny_db.insert_rows("Trans", NEW_ROWS)
        tiny_db.close()  # stop() drains the queue first
        assert summary.refresh.pending_deltas == 0
        assert tables_equal(summary.table, recompute(tiny_db, COUNT_SUM))

    def test_drain_without_worker_is_noop(self, tiny_db):
        tiny_db.drain_refresh()  # no deferred summaries, thread never ran

    def test_drop_deferred_summary_prunes_log(self, drained):
        drained.create_summary_table("S1", COUNT_SUM, refresh_mode="deferred")
        # The write pipeline's apply stage alone (no scheduler notify),
        # so the batch stays pending.
        drained._write_rows("Trans", [NEW_ROWS[0]], +1)
        assert len(drained.delta_log) == 1
        drained.drop_summary_table("S1")
        assert len(drained.delta_log) == 0
