"""Semantic result cache unit tests: LSN freshness, precise eviction."""

from __future__ import annotations

from repro.engine.table import Table
from repro.obs.metrics import MetricsRegistry
from repro.refresh.log import DeltaLog
from repro.refresh.policy import RefreshAge
from repro.server.result_cache import ResultCache, cache_key


def _table(n=1):
    return Table(["x"], [(i,) for i in range(n)])


def _store(cache, log, key, tables, tolerance, n=1):
    cache.store(key, _table(n), tables, log.change_counts(tables), tolerance)


class TestFreshness:
    def test_fresh_hit_when_nothing_changed(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q1",), RefreshAge.CURRENT, True)
        _store(cache, log, key, ["trans"], RefreshAge.CURRENT)
        table, label = cache.lookup(key)
        assert label == "hit"
        assert list(table.rows) == [(0,)]

    def test_write_turns_current_entry_into_miss_and_evicts(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q1",), RefreshAge.CURRENT, True)
        _store(cache, log, key, ["trans"], RefreshAge.CURRENT)
        log.note_write("Trans")
        assert cache.lookup(key) is None
        assert len(cache) == 0  # permanently dead entries evict on sight

    def test_stale_hit_within_tolerance(self):
        log = DeltaLog()
        cache = ResultCache(log)
        tolerance = RefreshAge(2)
        key = cache_key(("q1",), tolerance, True)
        _store(cache, log, key, ["trans"], tolerance)
        log.note_write("Trans")
        _, label = cache.lookup(key)
        assert label == "stale-hit"
        log.note_write("Trans")
        _, label = cache.lookup(key)
        assert label == "stale-hit"  # lag 2 still admitted
        log.note_write("Trans")
        assert cache.lookup(key) is None  # lag 3 exceeds tolerance

    def test_any_tolerance_never_goes_stale(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q1",), RefreshAge.ANY, True)
        _store(cache, log, key, ["trans"], RefreshAge.ANY)
        for _ in range(10):
            log.note_write("Trans")
        _, label = cache.lookup(key)
        assert label == "stale-hit"

    def test_lag_measured_per_referenced_table(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q1",), RefreshAge.CURRENT, True)
        _store(cache, log, key, ["trans", "loc"], RefreshAge.CURRENT)
        log.note_write("Cust")  # unrelated table
        _, label = cache.lookup(key)
        assert label == "hit"

    def test_snapshot_is_pre_execution(self):
        """A write that landed before the snapshot does not count."""
        log = DeltaLog()
        log.note_write("Trans")
        cache = ResultCache(log)
        key = cache_key(("q1",), RefreshAge.CURRENT, True)
        _store(cache, log, key, ["trans"], RefreshAge.CURRENT)
        _, label = cache.lookup(key)
        assert label == "hit"


class TestEviction:
    def test_invalidate_table_drops_only_dead_dependents(self):
        log = DeltaLog()
        cache = ResultCache(log)
        k_trans = cache_key(("qt",), RefreshAge.CURRENT, True)
        k_loc = cache_key(("ql",), RefreshAge.CURRENT, True)
        k_stale_ok = cache_key(("qs",), RefreshAge.ANY, True)
        _store(cache, log, k_trans, ["trans"], RefreshAge.CURRENT)
        _store(cache, log, k_loc, ["loc"], RefreshAge.CURRENT)
        _store(cache, log, k_stale_ok, ["trans"], RefreshAge.ANY)
        log.note_write("Trans")
        dropped = cache.invalidate_table("Trans")
        assert dropped == 1  # only the tolerance-0 Trans entry dies
        assert cache.lookup(k_loc)[1] == "hit"  # unrelated stays warm
        assert cache.lookup(k_stale_ok)[1] == "stale-hit"

    def test_evict_tables_spares_tolerance_zero_entries(self):
        log = DeltaLog()
        cache = ResultCache(log)
        k_current = cache_key(("qc",), RefreshAge.CURRENT, True)
        k_any = cache_key(("qa",), RefreshAge.ANY, True)
        k_other = cache_key(("qo",), RefreshAge.ANY, True)
        _store(cache, log, k_current, ["trans"], RefreshAge.CURRENT)
        _store(cache, log, k_any, ["trans"], RefreshAge.ANY)
        _store(cache, log, k_other, ["loc"], RefreshAge.ANY)
        dropped = cache.evict_tables(["trans"])
        assert dropped == 1
        # tolerance-0 entries were computed from fully fresh summaries
        assert cache.lookup(k_current)[1] == "hit"
        assert cache.lookup(k_any) is None
        assert cache.lookup(k_other)[1] == "stale-hit" or cache.lookup(
            k_other
        ) is not None

    def test_lru_overflow(self):
        log = DeltaLog()
        cache = ResultCache(log, max_entries=2)
        keys = [cache_key((f"q{i}",), RefreshAge.CURRENT, True) for i in range(3)]
        for key in keys:
            _store(cache, log, key, ["t"], RefreshAge.CURRENT)
        assert len(cache) == 2
        assert cache.lookup(keys[0]) is None  # oldest evicted
        assert cache.lookup(keys[2]) is not None

    def test_entry_weighs_its_table_plus_its_payload(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q",), RefreshAge.CURRENT, True)
        table, payload = _table(3), b"x" * 1000
        cache.store(key, table, ["t"], log.change_counts(["t"]),
                    RefreshAge.CURRENT, payload=payload)
        assert cache.nbytes == table.nbytes_estimate() + 1000
        entry, label = cache.probe(key)
        assert label == "hit"
        assert entry.table is table and entry.payload is payload
        assert cache.lookup(key) == (table, "hit")

    def test_clear(self):
        log = DeltaLog()
        cache = ResultCache(log)
        key = cache_key(("q",), RefreshAge.CURRENT, True)
        _store(cache, log, key, ["t"], RefreshAge.CURRENT)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestMetrics:
    def test_counters_track_hits_misses_evictions(self):
        registry = MetricsRegistry()
        log = DeltaLog()
        cache = ResultCache(log, metrics=registry)
        key = cache_key(("q",), RefreshAge.CURRENT, True)
        assert cache.lookup(key) is None  # miss
        _store(cache, log, key, ["t"], RefreshAge.CURRENT)
        cache.lookup(key)  # hit
        log.note_write("t")
        cache.lookup(key)  # dead -> evict + miss
        assert registry.get("cache.hits").value == 1
        assert registry.get("cache.misses").value == 2
        assert registry.get("cache.evictions").value == 1
        assert registry.get("cache.entries").value == 0

    def test_stale_hits_counted_separately(self):
        registry = MetricsRegistry()
        log = DeltaLog()
        cache = ResultCache(log, metrics=registry)
        key = cache_key(("q",), RefreshAge.ANY, True)
        _store(cache, log, key, ["t"], RefreshAge.ANY)
        log.note_write("t")
        cache.lookup(key)
        assert registry.get("cache.stale_hits").value == 1
        assert registry.get("cache.hits").value == 0
