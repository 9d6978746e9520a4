"""Scheduler fault tolerance: transient failures retry with backoff,
persistent failures quarantine the summary, quarantined summaries never
serve queries, and a successful manual refresh re-admits them."""

import datetime
import io

import pytest

from repro.engine.table import tables_equal
from repro.refresh.policy import RefreshAge
from repro.testing import INJECTOR

D = datetime.date
SUMMARY_SQL = (
    "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
)
AVG_SQL = "select faid, avg(qty) as a from Trans group by faid"
NEW_ROWS = [
    (101, 1, 1, 10, D(1990, 5, 1), 4, 999.0, 0.0),
    (102, 1, 2, 10, D(1993, 6, 1), 2, 5.0, 0.1),
]


def recompute(db, sql):
    return db.execute(sql, use_summary_tables=False)


@pytest.fixture
def fast_db(tiny_db):
    """A database whose scheduler retries quickly (tests stay snappy
    even when a backoff ladder runs to quarantine)."""
    tiny_db._scheduler.retry_base_delay = 0.001
    yield tiny_db
    tiny_db.close()


class TestRetry:
    def test_transient_failure_retries_to_success(self, fast_db):
        summary = fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", times=2):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        scheduler = fast_db.refresh_scheduler
        assert not summary.refresh.quarantined
        assert summary.refresh.pending_deltas == 0
        assert tables_equal(summary.table, recompute(fast_db, SUMMARY_SQL))
        assert scheduler.retries_scheduled == 2
        assert scheduler.quarantines == 0
        assert len(scheduler.errors) == 2
        # success cleared the failure history
        assert scheduler.pending_retries == 0

    def test_error_ring_buffer_is_bounded(self, fast_db):
        scheduler = fast_db.refresh_scheduler
        limit = scheduler.errors.maxlen
        assert limit is not None
        for index in range(limit + 25):
            scheduler.errors.append(f"error {index}")
        assert len(scheduler.errors) == limit
        assert scheduler.errors[0] == "error 25"  # oldest evicted


class TestQuarantine:
    def test_persistent_failure_quarantines(self, fast_db):
        summary = fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        scheduler = fast_db.refresh_scheduler
        assert summary.refresh.quarantined
        assert "refresh failed" in summary.refresh.quarantine_reason
        assert scheduler.quarantines == 1
        assert scheduler.retries_scheduled == scheduler.max_attempts - 1
        stats = fast_db.rewrite_stats()
        assert stats["refresh_quarantines"] == 1
        assert stats["quarantined_summaries"] == 1

    def test_quarantined_summary_never_routes(self, fast_db):
        fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        # At every freshness tolerance — even ANY — the quarantined
        # summary is excluded, and answers come correctly from base.
        for tolerance in (RefreshAge.CURRENT, RefreshAge(5), RefreshAge.ANY):
            assert fast_db.rewrite(SUMMARY_SQL, tolerance=tolerance) is None
            result = fast_db.execute(SUMMARY_SQL, tolerance=tolerance)
            assert tables_equal(result, recompute(fast_db, SUMMARY_SQL))
        assert fast_db.rewrite_stats()["quarantined_rejections"] >= 3

    def test_recompute_fallback_fault_quarantines(self, fast_db):
        # AVG is not self-maintainable → incremental apply refuses →
        # recompute fallback runs — and that's what we poison.
        summary = fast_db.create_summary_table(
            "S1", AVG_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.recompute", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        assert summary.refresh.quarantined
        assert tables_equal(
            fast_db.execute(AVG_SQL), recompute(fast_db, AVG_SQL)
        )

    def test_quarantine_surfaces_in_explain(self, fast_db):
        fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        text = fast_db.explain(SUMMARY_SQL)
        assert "quarantined summaries excluded: 1" in text

    def test_quarantine_surfaces_in_refresh_command(self, fast_db):
        from repro.cli import Shell

        fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        out = io.StringIO()
        shell = Shell(fast_db, out=out)
        shell.handle_line("\\refresh")
        text = out.getvalue()
        assert "QUARANTINED" in text
        assert "1 quarantine(s)" in text

    def test_refresh_status_reports_quarantine(self, fast_db):
        fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("scheduler.apply", every=1):
            fast_db.insert_rows("Trans", NEW_ROWS)
            fast_db.drain_refresh()
        (entry,) = fast_db.status()["refresh"]["summaries"]
        assert entry["quarantined"] is True
        assert "refresh failed" in entry["quarantine_reason"]


class TestReadmission:
    def _poison_and_quarantine(self, db):
        db.create_summary_table("S1", SUMMARY_SQL, refresh_mode="deferred")
        with INJECTOR.injected("scheduler.apply", every=1):
            db.insert_rows("Trans", NEW_ROWS)
            db.drain_refresh()
        assert db.summary_tables["s1"].refresh.quarantined

    def test_manual_refresh_readmits(self, fast_db):
        self._poison_and_quarantine(fast_db)
        fast_db.run_sql("refresh summary table S1")
        summary = fast_db.summary_tables["s1"]
        assert not summary.refresh.quarantined
        assert summary.refresh.quarantine_reason == ""
        assert tables_equal(summary.table, recompute(fast_db, SUMMARY_SQL))
        # ... and it serves queries again.
        result = fast_db.rewrite(SUMMARY_SQL)
        assert result is not None
        assert result.summary_tables[0].name == "S1"

    def test_readmitted_summary_maintains_again(self, fast_db):
        self._poison_and_quarantine(fast_db)
        fast_db.refresh_summary_tables(["S1"])
        summary = fast_db.summary_tables["s1"]
        # With the fault gone and history reset, deferred maintenance
        # works normally after re-admission.
        fast_db.insert_rows(
            "Trans", [(103, 2, 3, 20, D(1991, 7, 1), 1, 50.0, 0.2)]
        )
        fast_db.drain_refresh()
        assert not summary.refresh.quarantined
        assert tables_equal(summary.table, recompute(fast_db, SUMMARY_SQL))

    def test_degraded_ingest_when_delta_log_fails(self, fast_db):
        # A failing delta log must not lose maintenance work: ingest
        # degrades to recomputing affected deferred summaries inline.
        summary = fast_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        with INJECTOR.injected("delta.append", every=1):
            report = fast_db.insert_rows("Trans", NEW_ROWS)
        assert "S1" in report.recomputed
        assert "S1" not in report.deferred
        assert summary.refresh.pending_deltas == 0
        assert len(fast_db.delta_log) == 0  # failed append left no batch
        assert tables_equal(summary.table, recompute(fast_db, SUMMARY_SQL))
        # ... and it can still serve queries immediately.
        result = fast_db.rewrite(SUMMARY_SQL)
        assert result is not None
        # The degradation is surfaced in the scheduler's error ring.
        assert any(
            "delta" in entry for entry in fast_db.refresh_scheduler.errors
        )

    def test_ingest_skips_quarantined_summary(self, fast_db):
        self._poison_and_quarantine(fast_db)
        before = fast_db.delta_log.lsn
        report = fast_db.insert_rows(
            "Trans", [(104, 2, 3, 20, D(1991, 8, 1), 1, 50.0, 0.2)]
        )
        # No staging for a quarantined summary: re-admission recomputes,
        # so delta rows would only pin the log. The write still advances
        # the table's high-water LSN (note_write) so freshness consumers
        # — the staleness gate, the server's result cache — see it.
        assert "S1" in report.unaffected
        assert fast_db.delta_log.lsn > before
        assert fast_db.delta_log.high_water("trans") == fast_db.delta_log.lsn
        assert len(fast_db.delta_log) == 0
