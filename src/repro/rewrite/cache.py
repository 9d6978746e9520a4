"""The rewrite decision cache and fast-path instrumentation.

Serving the same dashboard queries over and over re-runs the whole
navigator per query even though the decision never changes between DDL
events. :class:`RewriteCache` is a bounded LRU keyed by the structural
fingerprint of the bound query graph (:mod:`repro.qgm.fingerprint`) that
remembers, per query shape:

* **positive** outcomes — the ordered list of :class:`CachedStep`
  replay records (which summary matched which box, with the proven
  compensation chain as a template), so a hit re-applies the rewrite
  directly on the freshly bound graph via
  :func:`repro.rewrite.rewriter.apply_match` without any matching; and
* **negative** outcomes — "no rewrite applies", so the navigator is
  skipped entirely.

The same entry is also filed under the query's constant-free *shape
key* (:func:`repro.qgm.fingerprint.shape_key`), where it is read as a
**plan**: which summary won each rewrite iteration, at which box, by
which pattern, and that the loop then stopped. A statement that misses
its exact key but finds a plan is matched against the planned winner
(plus every summary that holds a constant of its own) instead of the
whole pool — :func:`repro.rewrite.rewriter.rewrite_query`'s ``hint`` —
and its proven compensation is then stored under its exact key like any
cold decision. A plan lives in the same LRU, under the same validation.

Entries are validated against an *epoch* counter that
:class:`repro.engine.database.Database` bumps on every
``create_summary_table`` / ``drop_summary_table`` /
``refresh_summary_tables`` / enable-disable / applied deferred refresh,
plus the exact set of *admissible* summary names — enabled **and** fresh
enough for the query's refresh-age tolerance (which also catches
``summary.enabled`` being toggled directly on the dataclass, and staged
deltas flipping a deferred summary from fresh to stale). The freshness
tolerance itself is part of the cache key, so a decision cached under
``SET REFRESH AGE ANY`` is never served to a ``REFRESH AGE 0`` query or
vice versa. Stale entries are dropped on lookup.

:class:`RewriteStats` holds one rewrite's fast-path counts — what
``EXPLAIN`` renders; flushed into the metrics registry they become the
totals behind ``Database.rewrite_stats()`` and the CLI's ``\\stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import Counter, MetricsRegistry
from repro.qgm.boxes import QGMBox
from repro.qgm.fingerprint import GraphFingerprint

#: fast-path counter names and their one-line help (exposition strings)
_STAT_FIELDS = {
    "queries": "rewrite attempts routed through the fast path",
    "candidates_considered": "summaries seen by the index",
    "candidates_pruned": "... of which pruned without navigation",
    "matches_attempted": "full match_graphs navigations run",
    "rewrites_applied": "accepted (summary, match) applications",
    "cache_hits": "positive decision-cache hits (replays, shape hits)",
    "cache_negative_hits": "cached 'no rewrite applies' hits",
    "cache_shape_hits": "... of both, re-matched under a shape's plan",
    "cache_misses": "fingerprint not cached (or stale)",
    "cache_stores": "decisions written to the cache",
    "cache_invalidations": "exact-key entries dropped as stale on lookup",
    "cache_replay_failures": "replays that fell back to cold path",
    "stale_rejections": "summaries too stale for the query's tolerance",
    "quarantined_rejections": "quarantined summaries kept out of routing",
    "rewrite_errors": "sandboxed rewrite failures (query fell back)",
}


class RewriteStats:
    """One rewrite's fast-path counts: plain ints, private to the run.

    The rewrite stage makes one per statement, hands it down as the
    ``stats=`` argument and keeps it on the run record
    (:class:`repro.engine.pipeline.SelectRun`), which is what ``EXPLAIN``
    renders. The database-wide totals (``Database.rewrite_stats()``,
    ``\\metrics``) are :func:`register_counters`' registry counters;
    :meth:`flush` adds a finished rewrite's counts to them, once.
    """

    __slots__ = tuple(_STAT_FIELDS)

    def __init__(self) -> None:
        for name in _STAT_FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def flush(self, counters: dict[str, Counter]) -> None:
        """Add the non-zero counts to ``counters`` under each one's lock."""
        for name in _STAT_FIELDS:
            value = getattr(self, name)
            if value:
                counters[name].inc(value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RewriteStats({inner})"


def register_counters(registry: MetricsRegistry) -> dict[str, Counter]:
    """The cumulative ``rewrite_<field>`` counters, created at zero so a
    fresh database already lists all of them."""
    return {
        name: registry.counter(f"rewrite_{name}", help)
        for name, help in _STAT_FIELDS.items()
    }


@dataclass(frozen=True)
class CachedStep:
    """One applied (summary, match) pair, in replayable form.

    ``subsumee_index`` locates the matched query box by its position in
    ``graph.boxes()`` *at the time the step ran* — fingerprint equality
    guarantees a freshly bound graph enumerates identically, and the
    rewrite itself is deterministic, so later steps' indices stay valid
    on the intermediate graphs too. ``chain`` is the proven compensation
    template; ``apply_match`` clones it onto the new summary scan, so the
    cached boxes are never mutated.
    """

    summary_name: str
    subsumee_index: int
    chain: tuple[QGMBox, ...]
    column_map: tuple[tuple[str, str], ...]
    pattern: str


@dataclass
class CacheEntry:
    """One cached decision plus its validity stamp.

    ``admissible`` is the exact set of summary names that were enabled
    *and* fresh enough for the query's tolerance when the decision was
    made; any change to that set (DDL, enable/disable, staged deltas,
    applied refreshes) invalidates the entry on lookup.
    """

    epoch: int
    admissible: frozenset[str]
    steps: tuple[CachedStep, ...] | None  # None ⇒ negative (no rewrite)

    @property
    def decision(self) -> tuple[tuple[str, int, str], ...]:
        """What was decided, without the proof: the part of an entry
        that holds for every binding of the query's shape."""
        return tuple(
            (step.summary_name, step.subsumee_index, step.pattern)
            for step in self.steps or ()
        )


#: cache key: the graph fingerprint, the matcher options in effect, and
#: the freshness tolerance (RefreshAge.key) the decision was made under
CacheKey = tuple[GraphFingerprint, tuple, tuple]


def options_key(options: dict | None) -> tuple:
    """A hashable canonical form of the matcher options."""
    if not options:
        return ()
    return tuple(sorted(options.items()))


class RewriteCache:
    """A bounded LRU of rewrite decisions, shared by every thread that
    runs a SELECT: concurrent bindings of one shape read, refresh and
    replace the same plan entry, so each operation holds the lock."""

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        key: CacheKey,
        epoch: int,
        admissible: frozenset[str],
        stats: RewriteStats | None = None,
    ) -> CacheEntry | None:
        """The valid entry for ``key``, refreshed as most recent; stale
        entries are evicted and counted as invalidations."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.epoch == epoch and entry.admissible == admissible:
                self._entries.move_to_end(key)
                return entry
            del self._entries[key]
        if stats is not None:
            stats.cache_invalidations += 1
        return None

    def store(self, key: CacheKey, entry: CacheEntry) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
