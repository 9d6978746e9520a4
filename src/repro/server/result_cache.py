"""The semantic result cache: fingerprint keys, LSN invalidation.

A wall-clock TTL cache answers "how old is this entry"; the paper's
deferred-maintenance machinery lets us answer the question that
actually matters: **has any data this result was computed from changed
since?** Each cached SELECT result remembers, per referenced base
table, the delta log's change count at the moment execution started
(see :meth:`repro.refresh.log.DeltaLog.change_count`). A lookup
recomputes the lag — the maximum number of changes any referenced
table has absorbed since the snapshot — and serves the entry only when

* ``lag == 0`` — nothing changed: a **fresh hit**, guaranteed equal to
  re-execution; or
* ``tolerance.admits(lag)`` — the session's ``SET REFRESH AGE``
  explicitly tolerates that much staleness: a **stale hit**, labeled
  ``"stale-hit"`` in the response and counted separately in metrics.

The cache key is the query's structural fingerprint
(:func:`repro.qgm.fingerprint.fingerprint` — stable across sessions,
processes, and persist/reload) combined with the session knobs that can
change the *answer*: the freshness tolerance and the
``use_summary_tables`` flag. Knobs that only change *resource limits*
(timeout, maxrows, maxmem) are deliberately not in the
key — equal queries under different limits produce equal rows (the
server re-checks ``MAXROWS`` against a hit's row count before serving
it, mirroring what governed execution would have done).

An entry holds the result twice: the :class:`~repro.engine.table.Table`
(row count for the ``MAXROWS`` re-check; in-process callers) and, when
the server stored it, the table's encoded wire fragment — the exact
bytes the miss sent, sent again on every hit. ``cache.bytes`` weighs
both: the table's estimate plus the fragment's real length.

Invalidation is behavioral first: base-table writes advance change
counts, so fresh lookups simply miss — no scan, no lock on the write
path. Entries the counters have *permanently* killed (the key's
tolerance no longer admits the lag, and counters are monotonic) are
evicted on sight. :meth:`invalidate_table` does the same sweep eagerly
after a write so dead weight never waits for a lookup, and
:meth:`evict_tables` unconditionally drops entries for operations that
change answers without touching base tables — ``REFRESH SUMMARY
TABLE`` and ``DROP SUMMARY TABLE`` make previously-stale summaries
disappear from the plan, so results cached under a stale-tolerant key
may no longer match re-execution. Entries keyed at tolerance 0 are
exempt from that sweep: they were necessarily computed from fully
fresh summaries, so refreshing or dropping a summary cannot change
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.table import Table
from repro.lru import LRU
from repro.obs.metrics import MetricsRegistry
from repro.refresh.policy import RefreshAge


def cache_key(fingerprint_key: tuple, tolerance: RefreshAge,
              use_summary_tables: bool) -> tuple:
    """The full cache key for one (query, session-knobs) pair."""
    return (fingerprint_key, tolerance.key, use_summary_tables)


@dataclass
class CachedResult:
    """One cached SELECT result and its freshness snapshot."""

    table: Table
    base_tables: tuple[str, ...]
    #: per-base-table change counts at the moment execution *started*
    #: (conservative: a write landing mid-execution makes the entry look
    #: staler than it is, never fresher)
    snapshot: dict[str, int]
    tolerance: RefreshAge
    #: ``table`` as the wire's encoded fragment (see
    #: :func:`repro.server.protocol.encode_table_fragment`); ``None``
    #: when the caller stored a bare table
    payload: bytes | None = None
    #: what the entry weighs: ``Table.nbytes_estimate`` of ``table``
    #: plus the exact length of ``payload``
    nbytes: int = 0


class ResultCache:
    """Byte-weighted LRU semantic result cache over one delta log.

    An entry is a result table plus, when the server stored it, the
    table's encoded wire fragment, so a hit is answered without
    serialising a row. Its :class:`repro.lru.LRU` is bounded two ways:
    ``max_entries`` caps the entry count, and ``max_bytes`` (when set)
    caps the resident bytes (estimated for the table, exact for the
    fragment) — one entry holding a million-row result weighs what it
    costs, not 1.
    """

    def __init__(self, log, metrics=None, max_entries: int = 256,
                 max_bytes: int | None = None):
        self._log = log
        self.max_entries = max_entries
        #: byte budget for all resident entries (None = only the
        #: entry-count bound applies); a result that alone exceeds it
        #: is executed but never cached
        self.max_bytes = max_bytes
        self._lru = LRU(max_entries, max_bytes)
        if metrics is None:  # counted all the same, in a private registry
            metrics = MetricsRegistry()
        self.hits = metrics.counter(
            "cache.hits", "Result-cache fresh hits (lag 0)"
        )
        self.stale_hits = metrics.counter(
            "cache.stale_hits",
            "Result-cache hits served stale under SET REFRESH AGE",
        )
        self.misses = metrics.counter(
            "cache.misses", "Result-cache misses (executed and cached)"
        )
        self.evictions = metrics.counter(
            "cache.evictions",
            "Entries dropped: LRU overflow or permanently dead",
        )
        self.invalidations = metrics.counter(
            "cache.invalidations",
            "Entries dropped by explicit eviction (writes/REFRESH/DROP)",
        )
        self.entries_gauge = metrics.gauge(
            "cache.entries", "Result-cache entries currently resident"
        )
        self.bytes_gauge = metrics.gauge(
            "cache.bytes", "Estimated bytes of resident cached results"
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru)

    @property
    def nbytes(self) -> int:
        """Estimated bytes currently held by cached results."""
        return self._lru.weight

    def _update_gauge(self) -> None:
        self.entries_gauge.set(len(self._lru))
        self.bytes_gauge.set(self._lru.weight)

    def _lag(self, entry: CachedResult) -> int:
        return max(
            (
                self._log.change_count(table) - entry.snapshot.get(table, 0)
                for table in entry.base_tables
            ),
            default=0,
        )

    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> tuple[Table, str] | None:
        """``(table, "hit" | "stale-hit")`` when servable, else None:
        :meth:`probe` for callers that want only the table."""
        found = self.probe(key)
        return None if found is None else (found[0].table, found[1])

    def probe(self, key: tuple) -> tuple[CachedResult, str] | None:
        """``(entry, "hit" | "stale-hit")`` when servable, else None.

        A permanently dead entry — its own tolerance no longer admits
        the lag, which monotonic counters can only grow — is evicted on
        the spot.
        """
        entry = self._lru.get(key)
        if entry is None:
            self.misses.inc()
            return None
        lag = self._lag(entry)
        if lag == 0:
            self.hits.inc()
            return entry, "hit"
        if entry.tolerance.admits(lag):
            self.stale_hits.inc()
            return entry, "stale-hit"
        if self._lru.discard(key, entry):
            self.evictions.inc()
            self._update_gauge()
        self.misses.inc()
        return None

    def store(self, key: tuple, table: Table, base_tables, snapshot: dict,
              tolerance: RefreshAge, *, payload: bytes | None = None) -> bool:
        """Cache one executed result (and its encoded ``payload``);
        returns False when it is too big to cache. ``snapshot`` must
        have been taken *before* execution started."""
        nbytes = table.nbytes_estimate() + len(payload or b"")
        entry = CachedResult(
            table,
            tuple(name.lower() for name in base_tables),
            dict(snapshot),
            tolerance,
            payload,
            nbytes,
        )
        evicted = self._lru.put(key, entry, nbytes)
        if evicted is None:
            return False
        self.evictions.inc(evicted)
        self._update_gauge()
        return True

    def shed(self, target: int) -> int:
        """Memory-pressure callback: evict oldest-first until roughly
        ``target`` estimated bytes are freed (or the cache is empty).
        Returns the bytes actually freed."""
        evicted, freed = self._lru.shed(target)
        self.evictions.inc(evicted)
        self._update_gauge()
        return freed

    # ------------------------------------------------------------------
    def invalidate_table(self, table: str) -> int:
        """Eagerly drop entries a write to ``table`` has permanently
        killed (their own tolerance no longer admits the new lag);
        stale-tolerant entries stay warm and will serve labeled stale
        hits. Returns how many entries were dropped."""
        name = table.lower()
        return self._drop(
            lambda entry: name in entry.base_tables
            and not entry.tolerance.admits(self._lag(entry))
        )

    def evict_tables(self, tables) -> int:
        """Unconditionally drop entries referencing any of ``tables``,
        except tolerance-0 entries (provably computed from fully fresh
        summaries, so summary-side changes cannot affect them). Used by
        ``REFRESH SUMMARY TABLE`` and ``DROP SUMMARY TABLE``. Returns
        how many entries were dropped."""
        wanted = {name.lower() for name in tables}
        return self._drop(
            lambda entry: wanted & set(entry.base_tables)
            and entry.tolerance.max_pending != 0
        )

    def _drop(self, dead) -> int:
        dropped = self._lru.drop(dead)
        self.invalidations.inc(dropped)
        self._update_gauge()
        return dropped

    def clear(self) -> int:
        return self._drop(lambda entry: True)
