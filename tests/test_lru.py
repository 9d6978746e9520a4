"""The one bounded LRU every cache sits on: its two bounds, its two
reads, conditional discard, the counts its bulk operations return, and
its lock under a thread storm. The cases the decision cache and the
idempotency-token window were tested with before they moved onto it are
inputs here."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.lru import LRU
from repro.rewrite.cache import CacheEntry, RewriteStats, valid_entry


def run(lru: LRU, script: str) -> None:
    """Apply ``script``: ``put:k`` (value ``k``), ``get:k``, ``peek:k``."""
    for step in script.split():
        op, key = step.split(":")
        if op == "put":
            lru.put(key, key)
        else:
            getattr(lru, op)(key)


def present(lru: LRU) -> set:
    return {key for key, _ in lru.items()}


class TestBounds:
    @pytest.mark.parametrize(
        "maxsize, script, kept",
        [
            # the token window's: four puts into three, the oldest goes
            (3, "put:t0 put:t1 put:t2 put:t3", {"t1", "t2", "t3"}),
            # the decision cache's: three stores into two
            (2, "put:a put:b put:c", {"b", "c"}),
            (1, "put:a put:a put:a", {"a"}),
        ],
        ids=["token-window", "decision-cache", "re-put-same-key"],
    )
    def test_count_bound(self, maxsize, script, kept):
        lru = LRU(maxsize)
        run(lru, script)
        assert present(lru) == kept
        assert len(lru) == len(kept) <= maxsize

    def test_put_returns_how_many_it_evicted(self):
        lru = LRU(2, max_weight=10)
        assert lru.put("a", "a", 4) == 0
        assert lru.put("b", "b", 4) == 0
        assert lru.put("c", "c", 9) == 2  # the weight bound evicts both
        assert present(lru) == {"c"} and lru.weight == 9

    def test_weight_bound(self):
        lru = LRU(100, max_weight=10)
        for key in "abc":
            lru.put(key, key, 4)
        assert present(lru) == {"b", "c"}
        assert lru.weight == 8
        lru.put("b", "b", 1)  # replacing settles the weight, not adds
        assert lru.weight == 5

    def test_oversized_item_refused(self):
        lru = LRU(100, max_weight=10)
        lru.put("a", "a", 4)
        assert lru.put("big", "big", 11) is None
        assert present(lru) == {"a"} and lru.weight == 4

    def test_zero_bound_stores_nothing(self):
        lru = LRU(0)
        assert lru.put("a", "a") is None
        assert len(lru) == 0 and lru.get("a") is None


class TestReads:
    def test_round_trip(self):
        """The token window's put/get."""
        lru = LRU(4096)
        assert lru.get("t1") is None and lru.peek("t1") is None
        lru.put("t1", "1 row inserted")
        assert lru.get("t1") == lru.peek("t1") == "1 row inserted"

    @pytest.mark.parametrize(
        "maxsize, script, kept, gone",
        [
            # the decision cache's: reading "b" makes "c" the victim
            (2, "put:a put:b put:c get:a get:b put:d", {"b", "d"}, {"a", "c"}),
            # the token window's: a re-put refreshes, a read does not
            (2, "put:a put:b put:a put:c", {"a", "c"}, {"b"}),
            (2, "put:a put:b peek:a put:c", {"b", "c"}, {"a"}),
            (2, "put:a put:b get:a put:c", {"a", "c"}, {"b"}),
        ],
        ids=[
            "decision-cache-get-refreshes",
            "token-window-put-refreshes",
            "peek-leaves-recency",
            "get-refreshes",
        ],
    )
    def test_recency(self, maxsize, script, kept, gone):
        lru = LRU(maxsize)
        run(lru, script)
        assert present(lru) == kept
        assert not present(lru) & gone


class TestConditionalDiscard:
    def test_drops_only_the_value_it_names(self):
        lru = LRU(4)
        old, new = ["old"], ["new"]
        lru.put("k", old)
        lru.put("k", new)  # a fresher entry stored meanwhile
        assert lru.discard("k", old) is False
        assert lru.get("k") is new
        assert lru.discard("k", new) is True
        assert lru.discard("k", new) is False
        assert len(lru) == 0

    def test_stale_decision_dropped_and_counted(self):
        """The decision cache's: a stale admissible set is dropped and
        counted."""
        lru, stats = LRU(4), RewriteStats()
        lru.put("k", CacheEntry(frozenset({"a"}), None))
        assert valid_entry(lru, "k", frozenset(), stats) is None
        assert stats.cache_invalidations == 1
        assert len(lru) == 0

    def test_stale_entry_replaced_meanwhile_is_not_counted(self):
        lru, stats = LRU(4), RewriteStats()
        stale = CacheEntry(frozenset({"a"}), None)
        fresh = CacheEntry(frozenset(), None)
        lru.put("k", stale)
        original = lru.get

        def get_then_replace(key):
            value = original(key)
            lru.put(key, fresh)  # another thread stores between the two
            return value

        lru.get = get_then_replace
        assert valid_entry(lru, "k", frozenset(), stats) is None
        assert stats.cache_invalidations == 0
        assert lru.peek("k") is fresh

    def test_token_window_snapshot_and_discard(self):
        lru = LRU(4096)
        for token, status in {"a": "1", "b": "2"}.items():
            lru.put(token, status)
        assert dict(lru.items()) == {"a": "1", "b": "2"}
        assert lru.discard("a", lru.peek("a"))
        assert lru.get("a") is None and lru.get("b") == "2"


class TestReturnValues:
    def test_drop(self):
        lru = LRU(10, max_weight=100)
        for i in range(6):
            lru.put(i, i, 10)
        assert lru.drop(lambda value: value % 2 == 0) == 3
        assert present(lru) == {1, 3, 5} and lru.weight == 30
        assert lru.drop(lambda value: False) == 0

    def test_shed(self):
        lru = LRU(10)
        for key, weight in (("a", 5), ("b", 5), ("c", 5)):
            lru.put(key, key, weight)
        assert lru.shed(6) == (2, 10)  # oldest first until 6 are freed
        assert present(lru) == {"c"} and lru.weight == 5
        assert lru.shed(100) == (1, 5)
        assert lru.shed(1) == (0, 0)

    def test_clear(self):
        lru = LRU(10)
        for key in "abc":
            lru.put(key, key, 2)
        assert lru.clear() == 3
        assert len(lru) == 0 and lru.weight == 0
        assert lru.clear() == 0


def test_threaded_storm_keeps_the_bounds_and_the_weight_ledger():
    """Threads get, validate, discard and put over a few keys while
    another watches ``len`` and ``weight``; a lost update would break the
    bound or the weight ledger."""
    lru = LRU(3, max_weight=12)
    keys = ["k0", "k1", "k2", "k3", "k4"]
    errors: list[Exception] = []
    over: list[tuple[int, int]] = []
    stop = threading.Event()

    def churn(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for i in range(800):
                key = rng.choice(keys)
                value = lru.get(key) if rng.random() < 0.5 else lru.peek(key)
                if value is not None and rng.random() < 0.3:  # "stale"
                    lru.discard(key, value)
                weight = rng.randint(1, 5)
                lru.put(key, (seed, i, weight), weight)
                if i % 200 == 0:
                    lru.shed(rng.randint(1, 6))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def watch() -> None:
        while not stop.is_set():
            size, weight = len(lru), lru.weight
            if size > lru.maxsize or weight > lru.max_weight:
                over.append((size, weight))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher = threading.Thread(target=watch)
        workers = [threading.Thread(target=churn, args=(s,)) for s in range(8)]
        watcher.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers + [watcher])
    assert errors == []
    assert over == []
    assert lru.weight == sum(value[2] for _, value in lru.items())
    assert len(lru) <= 3
