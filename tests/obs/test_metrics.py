"""The metrics registry: metric types, exposition, and the unified
counter surfaces (RewriteStats flush, scheduler counters)."""

from __future__ import annotations

import datetime
import json
import threading
import time

import pytest

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.rewrite.cache import RewriteStats, register_counters
from repro.testing import INJECTOR


class TestMetricTypes:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "cache hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_stats(self):
        hist = Histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 107.5
        assert hist.mean == pytest.approx(26.875)
        cumulative = hist.expose()[0]
        assert cumulative == [(1.0, 1), (10.0, 3), (float("inf"), 4)]

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_timer_and_observe_ms(self):
        registry = MetricsRegistry()
        elapsed = registry.observe_ms("phase_ms", time.perf_counter())
        assert elapsed >= 0.0
        assert registry.histogram("phase_ms").count == 1


class TestExposition:
    def test_to_dict_and_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(2.0)
        dump = registry.to_dict()
        assert dump["c"] == {"type": "counter", "value": 3}
        assert dump["h"]["count"] == 1 and dump["h"]["sum"] == 2.0
        assert json.loads(registry.to_json()) == json.loads(
            json.dumps(dump, sort_keys=True)
        )

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("hits", "cache hits").inc(2)
        registry.histogram("lat_ms", "latency", buckets=(1.0, 10.0)).observe(5.0)
        text = registry.to_prometheus()
        assert "# HELP hits cache hits" in text
        assert "# TYPE hits counter" in text
        assert "hits 2" in text
        assert '# TYPE lat_ms histogram' in text
        assert 'lat_ms_bucket{le="1"} 0' in text
        assert 'lat_ms_bucket{le="10"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 1' in text
        assert "lat_ms_sum 5" in text
        assert "lat_ms_count 1" in text
        assert text.endswith("\n")

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0

    def test_default_buckets_suit_milliseconds(self):
        assert DEFAULT_BUCKETS[0] < 1.0 < DEFAULT_BUCKETS[-1]


AST_SQL = "select faid, count(*) as c from Trans group by faid"
QUERY = "select faid, count(*) as n from Trans group by faid"


class TestRewriteStatsView:
    """RewriteStats is one rewrite's own plain record; the registry sees
    its counts once, when the rewrite is over (the flush)."""

    def test_bare_constructor_and_increments(self):
        stats = RewriteStats()
        stats.cache_hits += 1
        stats.queries += 2
        assert stats.cache_hits == 1
        assert stats.as_dict()["queries"] == 2

    def test_counters_live_in_registry(self):
        registry = MetricsRegistry()
        counters = register_counters(registry)
        stats = RewriteStats()
        stats.cache_misses += 3
        assert registry.counter("rewrite_cache_misses").value == 0
        stats.flush(counters)
        assert registry.counter("rewrite_cache_misses").value == 3

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            RewriteStats().no_such_counter
        with pytest.raises(AttributeError):
            RewriteStats().no_such_counter = 1

    def test_database_shares_one_registry(self):
        db = Database(credit_card_catalog())
        db.create_summary_table("S", AST_SQL)
        db.execute("select faid, count(*) as c from Trans group by faid")
        assert db.metrics.counter("rewrite_queries").value >= 1
        assert db.metrics.counter("scheduler_refreshes_applied").value == 0
        # phase timers land in the same registry
        assert db.metrics.histogram("query_total_ms").count >= 1

    def test_fresh_database_lists_every_counter_at_zero(self):
        db = Database(credit_card_catalog())
        dump = db.metrics.to_prometheus()
        for name in RewriteStats().as_dict():
            assert db.metrics.counter(f"rewrite_{name}").value == 0
            assert f"rewrite_{name} 0\n" in dump

    def test_each_rewrite_flushes_once(self):
        db = Database(credit_card_catalog())
        db.create_summary_table("S", AST_SQL)
        for nth, run in enumerate(
            (db.rewrite, db.execute, db.explain, db.explain_analyze), start=1
        ):
            run(QUERY)
            stats = db.rewrite_stats()
            assert stats["queries"] == nth
            assert stats["cache_hits"] + stats["cache_misses"] == nth
        assert stats["matches_attempted"] == stats["cache_stores"] == 1

    def test_flushes_when_the_match_raises(self):
        db = Database(credit_card_catalog())
        db.create_summary_table("S", AST_SQL)
        with INJECTOR.injected("rewrite.match", times=1):
            text = db.explain(QUERY)
        # the statement's own line and the registry agree
        assert "matches attempted: 1" in text
        assert "rewrite errors sandboxed: 1" in text
        stats = db.rewrite_stats()
        assert stats["queries"] == stats["matches_attempted"] == 1
        assert stats["rewrite_errors"] == 1
        assert stats["cache_stores"] == 0

    def test_flushes_when_the_governor_degrades(self):
        db = Database(credit_card_catalog())
        db.create_summary_table("S", AST_SQL)
        db.governor.match_budget = 1
        assert "budget-exhausted" in db.explain_analyze(QUERY)
        stats = db.rewrite_stats()
        assert stats["queries"] == stats["matches_attempted"] == 1
        assert stats["rewrite_errors"] == 0


class TestThreadSafety:
    def test_counter_under_contention_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        hist = registry.histogram("h")

        def worker():
            for _ in range(2000):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16000
        assert hist.count == 16000
        assert hist.sum == pytest.approx(16000.0)

    def test_registry_consistent_under_scheduler(self):
        """Concurrent ingest drives the background scheduler while the
        foreground thread hammers the same registry — every surface must
        stay consistent (no lost updates, no kind collisions)."""
        db = Database(credit_card_catalog())
        db.load("Loc", [(1, "San Jose", "CA", "USA")])
        db.load("PGroup", [(1, "TV")])
        db.load("Cust", [(1, "Alice", "CA")])
        db.load("Acct", [(10, 1, "gold")])
        db.load("Trans", [(1, 1, 1, 10, datetime.date(1990, 1, 15),
                           1, 10.0, 0.1)])
        db.run_sql(
            "create summary table S refresh deferred as "
            "select faid, count(*) as c from Trans group by faid"
        )

        def ingest():
            for i in range(20):
                db.run_sql(
                    f"insert into Trans values ({100 + i}, 1, 1, 10, "
                    f"date '1991-02-0{1 + i % 9}', 1, 5.0, 0.1)"
                )

        def query():
            for _ in range(20):
                db.execute("select faid, count(*) as c from Trans group by faid")

        threads = [threading.Thread(target=ingest)] + [
            threading.Thread(target=query) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        db.drain_refresh()
        scheduler = db.refresh_scheduler
        # scheduler counters are registry-backed: the property view and
        # the registry read the same storage
        assert (
            db.metrics.counter("scheduler_refreshes_applied").value
            == scheduler.refreshes_applied
        )
        assert scheduler.refreshes_applied >= 1
        assert db.metrics.counter("rewrite_queries").value >= 60
        # exposition never tears mid-update
        text = db.metrics.to_prometheus()
        assert "scheduler_refreshes_applied" in text
        db.refresh_scheduler.stop()
