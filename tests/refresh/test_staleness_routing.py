"""Staleness-aware rewrite routing.

The acceptance bar for the deferred-maintenance subsystem: with
tolerance ANY a query rewrites over a stale deferred summary; with
tolerance 0 the same query skips it and answers from base tables — and
the decision cache never serves an entry cached under a different
tolerance or staleness state.
"""

import datetime

import pytest

from repro.refresh.policy import RefreshAge

D = datetime.date
QUERY = "select faid, count(*) as cnt from Trans group by faid"
SUMMARY_SQL = QUERY
NEW_ROW = (201, 1, 1, 10, D(1994, 2, 2), 3, 42.0, 0.0)


@pytest.fixture
def stale_db(tiny_db):
    """A database with one deferred summary that is stale: a row was
    ingested and staged, but the refresh has not been applied."""
    tiny_db.create_summary_table("S1", SUMMARY_SQL, refresh_mode="deferred")
    # Stage by hand (insert_rows would notify the background worker,
    # which could race the test's staleness observations).
    from repro.asts.maintenance import MaintenanceReport

    with tiny_db._maintenance_lock:
        tiny_db.table("Trans").rows.append(NEW_ROW)
        tiny_db._stage_deferred("Trans", [NEW_ROW], +1, MaintenanceReport())
    yield tiny_db
    tiny_db.close()


def used_summaries(result):
    if result is None:
        return []
    return [summary.name for summary in result.summary_tables]


class TestToleranceRouting:
    def test_any_rewrites_over_stale_summary(self, stale_db):
        result = stale_db.rewrite(QUERY, tolerance=RefreshAge.ANY)
        assert used_summaries(result) == ["S1"]

    def test_zero_skips_stale_summary(self, stale_db):
        result = stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT)
        assert result is None
        assert stale_db.rewrite_stats()["stale_rejections"] >= 1

    def test_zero_answers_from_base_tables(self, stale_db):
        # The stale snapshot has not seen NEW_ROW; the fresh answer must.
        strict = stale_db.execute(QUERY, tolerance=RefreshAge.CURRENT)
        truth = stale_db.execute(QUERY, use_summary_tables=False)
        assert sorted(strict.rows) == sorted(truth.rows)

    def test_any_serves_the_stale_snapshot(self, stale_db):
        lagged = stale_db.execute(QUERY, tolerance=RefreshAge.ANY)
        truth = stale_db.execute(QUERY, use_summary_tables=False)
        assert sorted(lagged.rows) != sorted(truth.rows)

    def test_bounded_tolerance(self, stale_db):
        # one pending batch: admitted at lag<=1, rejected at lag 0
        assert used_summaries(stale_db.rewrite(QUERY, tolerance=RefreshAge(1))) == ["S1"]
        assert stale_db.rewrite(QUERY, tolerance=RefreshAge(0)) is None

    def test_session_tolerance_is_the_default(self, stale_db):
        assert stale_db.rewrite(QUERY) is None  # default REFRESH AGE 0
        stale_db.set_refresh_age(None)
        assert used_summaries(stale_db.rewrite(QUERY)) == ["S1"]
        stale_db.set_refresh_age(0)
        assert stale_db.rewrite(QUERY) is None

    def test_set_refresh_age_sql(self, stale_db):
        status = stale_db.run_sql("set refresh age any")
        assert "ANY" in status
        assert used_summaries(stale_db.rewrite(QUERY)) == ["S1"]
        stale_db.run_sql("set refresh age 0")
        assert stale_db.rewrite(QUERY) is None

    def test_fresh_summary_admitted_at_zero(self, stale_db):
        stale_db.drain_refresh()
        result = stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT)
        assert used_summaries(result) == ["S1"]
        # and the served rows now match the base tables exactly
        served = stale_db.execute(QUERY, tolerance=RefreshAge.CURRENT)
        truth = stale_db.execute(QUERY, use_summary_tables=False)
        assert sorted(served.rows) == sorted(truth.rows)

    def test_explain_reports_stale_rejections(self, stale_db):
        text = stale_db.explain(QUERY)
        assert "no summary-table rewrite applies" in text
        assert "stale summaries rejected: 1" in text


class TestDecisionCacheCorrectness:
    """The cache must key on tolerance and validate against the
    admissible set, so a decision cached under one (tolerance,
    staleness) state is never replayed under another."""

    def delta(self, db, fn):
        before = db.rewrite_stats()
        result = fn()
        after = db.rewrite_stats()
        return result, {key: after[key] - before[key] for key in after}

    def test_positive_entry_under_any_not_served_at_zero(self, stale_db):
        # Prime the cache under ANY (positive decision, uses S1).
        _, first = self.delta(
            stale_db, lambda: stale_db.rewrite(QUERY, tolerance=RefreshAge.ANY)
        )
        assert first["cache_misses"] == 1
        # Same fingerprint at tolerance 0: distinct key, so a miss —
        # never a replay of the ANY decision.
        result, second = self.delta(
            stale_db,
            lambda: stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT),
        )
        assert result is None
        assert second["cache_hits"] == 0
        assert second["cache_misses"] == 1

    def test_negative_entry_under_zero_not_served_at_any(self, stale_db):
        assert stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT) is None
        result, delta = self.delta(
            stale_db, lambda: stale_db.rewrite(QUERY, tolerance=RefreshAge.ANY)
        )
        assert used_summaries(result) == ["S1"]
        assert delta["cache_negative_hits"] == 0

    def test_replay_within_same_tolerance(self, stale_db):
        stale_db.rewrite(QUERY, tolerance=RefreshAge.ANY)
        result, delta = self.delta(
            stale_db, lambda: stale_db.rewrite(QUERY, tolerance=RefreshAge.ANY)
        )
        assert used_summaries(result) == ["S1"]
        assert delta["cache_hits"] == 1
        assert delta["matches_attempted"] == 0

    def test_fresh_entry_invalidated_when_summary_goes_stale(self, tiny_db):
        """A positive decision cached while fresh must not survive the
        summary going stale at the same strict tolerance."""
        from repro.asts.maintenance import MaintenanceReport

        tiny_db.create_summary_table("S1", SUMMARY_SQL, refresh_mode="deferred")
        result = tiny_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT)
        assert used_summaries(result) == ["S1"]  # fresh: admitted, cached
        # Stage a delta WITHOUT an epoch bump: only the admissible set
        # changes. The cached entry must still be rejected.
        with tiny_db._maintenance_lock:
            tiny_db.table("Trans").rows.append(NEW_ROW)
            tiny_db._stage_deferred("Trans", [NEW_ROW], +1, MaintenanceReport())
        result, delta = self.delta(
            tiny_db, lambda: tiny_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT)
        )
        assert result is None
        assert delta["cache_hits"] == 0
        assert delta["cache_invalidations"] == 1
        tiny_db.close()

    def test_stale_negative_entry_dropped_after_drain(self, stale_db):
        """A 'no rewrite' decision cached while stale must be revisited
        once the refresh catches up."""
        assert stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT) is None
        stale_db.drain_refresh()
        result, delta = self.delta(
            stale_db,
            lambda: stale_db.rewrite(QUERY, tolerance=RefreshAge.CURRENT),
        )
        assert used_summaries(result) == ["S1"]
        assert delta["cache_negative_hits"] == 0

    def test_tolerances_cache_independently(self, stale_db):
        for tolerance in (RefreshAge.ANY, RefreshAge.CURRENT, RefreshAge(5)):
            stale_db.rewrite(QUERY, tolerance=tolerance)
        # each tolerance now replays its own entry
        for tolerance, expect in (
            (RefreshAge.ANY, ["S1"]),
            (RefreshAge.CURRENT, []),
            (RefreshAge(5), ["S1"]),
        ):
            result, delta = self.delta(
                stale_db, lambda: stale_db.rewrite(QUERY, tolerance=tolerance)
            )
            assert used_summaries(result) == expect
            assert delta["cache_misses"] == 0
