"""The background refresh scheduler for deferred summary tables.

A single daemon worker thread drains a bounded, deduplicating queue of
summary-table names that have staged deltas. Work is *batched* twice
over:

* the worker pops every queued name in one sweep (after a short batching
  window that lets a burst of ingest coalesce), and
* per summary, **all** pending delta batches are applied in one pass —
  the staged insert rows are merged into a single summary-delta query
  and the staged delete rows into another, so a thousand small INSERT
  statements cost two delta evaluations instead of a thousand.

Incremental application reuses the summary-delta merge from
:mod:`repro.asts.maintenance` (:func:`~repro.asts.maintenance.apply_pending`);
whenever the summary is not self-maintainable for the pending change
(AVG/DISTINCT, HAVING, deletes against MIN/MAX, deltas spanning several
base tables, ...) the worker falls back to full recomputation and counts
it — never silently degrades. Both the delta evaluations and the full
recompute run on the refresh worker's own thread, over the stored
tables as they are (a write's own reads, under the maintenance lock —
not pinned, unlike a SELECT's).

Fault tolerance: a refresh that raises *unexpectedly* (anything beyond
the ReproError-driven recompute fallback) is retried with exponential
backoff (``retry_base_delay * 2**attempt``) up to ``max_attempts``
total tries, after which the summary is **quarantined** — excluded from
rewrite routing via :func:`repro.rewrite.index.filter_fresh` and the
decision-cache epoch bump, surfaced in ``rewrite_stats()`` / EXPLAIN /
``\\refresh``, and re-admitted only by a successful ``REFRESH SUMMARY
TABLE`` (:meth:`repro.engine.database.Database.refresh_summary_tables`).
Queries keep answering correctly from base tables throughout. Errors
are kept in a bounded ring buffer so a persistently failing summary
cannot grow memory without limit.

Determinism hooks: :meth:`RefreshScheduler.drain` blocks until the queue
is empty, the worker is idle, *and* no retries are outstanding — pending
backoff delays are skipped while draining, so a poisoned summary reaches
its quarantine verdict promptly (tests and benchmarks call ``drain()``
before comparing results). :meth:`RefreshScheduler.stop` finishes queued
work (including outstanding retries) and joins the thread. All mutation
of summary tables happens under the database's maintenance lock,
serializing the worker against ingest — and, because readers pin their
tables under that lock, making each refresh all-or-nothing to a SELECT.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import QueryCancelled, ReproError
from repro.governor import scope as governor_scope
from repro.governor.budget import CancellationToken, QueryBudget
from repro.obs import spans as _spans
from repro.resources.broker import BROKER
from repro.testing import faults


class _DeferRecompute(Exception):
    """Internal: a fallback recompute was postponed because the memory
    broker reports global pressure (recomputation is deferrable work;
    user queries are not). Never escapes the scheduler."""


class RefreshScheduler:
    """Applies staged deltas to deferred summary tables off the ingest path.

    Its tuning is the class attributes below; tests shadow them on an
    instance to speed up retries or widen the batching window."""

    #: queued names at which producers block (backpressure); deduplication
    #: keeps the queue to one entry per deferred summary in practice
    queue_limit = 1024
    #: seconds the worker waits after waking, so a burst of ingest
    #: coalesces into one pass (``drain()`` skips the wait)
    batch_window = 0.005
    max_attempts = 4  # failed refreshes of one summary before quarantine
    retry_base_delay = 0.02  # seconds before the first retry; doubles after
    error_limit = 64  # newest worker errors kept in ``errors``

    def __init__(self, database, registry):
        self._database = database
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        #: name -> monotonic time its backoff expires
        self._retries: dict[str, float] = {}
        #: name -> failures so far (cleared on success/quarantine/refresh)
        self._attempts: dict[str, int] = {}
        self._condition = threading.Condition()
        self._thread: threading.Thread | None = None
        self._running = False
        #: set by the worker (under the lock) the instant it commits to
        #: exiting — ``Thread.is_alive()`` alone can't distinguish a
        #: worker that will loop again from one in final teardown, and
        #: that gap would let ``notify`` strand work on a dead queue
        self._worker_exited = False
        self._busy = False
        self._draining = False
        # Cooperative cancellation of the in-flight refresh: the worker
        # runs each refresh under a governor scope holding this token,
        # so interrupt() / stop(cancel_inflight=True) can stop a stuck
        # apply or recompute at its next executor tick.
        self._inflight_token: CancellationToken | None = None
        self._inflight_name: str | None = None
        #: summaries whose last refresh was cancelled mid-apply — the
        #: merge may be partial, so their next refresh must skip the
        #: incremental path and recompute from base tables
        self._force_recompute: set[str] = set()
        # counters (monotonic; surfaced via Database.rewrite_stats() and,
        # through the shared registry, \metrics / Prometheus exposition)
        self._counters = {
            name: registry.counter(f"scheduler_{name}", help)
            for name, help in (
                ("refreshes_applied", "deferred refresh passes applied"),
                ("fallback_recomputes", "refreshes that fell back to full recompute"),
                ("batches_applied", "delta batches merged into summaries"),
                ("retries_scheduled", "failed refreshes scheduled for retry"),
                ("deferred_recomputes",
                 "fallback recomputes postponed under memory pressure"),
                ("quarantines", "summaries quarantined after repeated failures"),
            )
        }
        #: last fallback reason per summary name (for the \refresh command)
        self.last_fallbacks: dict[str, str] = {}
        #: worker-side errors that survived the per-name guard — a ring
        #: buffer (newest kept) so persistent failures stay bounded
        self.errors: deque[str] = deque(maxlen=self.error_limit)

    # ------------------------------------------------------------------
    # Counters — registry-backed read-only properties (tests and
    # rewrite_stats read them). Increments go through
    # ``self._counters[name].inc()``, which holds the metric's own lock:
    # it either lands before a ``\\metrics reset`` snapshot (and is
    # captured) or after (and starts the new epoch).
    # ------------------------------------------------------------------
    def _counter_value(name):
        return property(lambda self: self._counters[name].value)

    refreshes_applied = _counter_value("refreshes_applied")
    fallback_recomputes = _counter_value("fallback_recomputes")
    batches_applied = _counter_value("batches_applied")
    retries_scheduled = _counter_value("retries_scheduled")
    deferred_recomputes = _counter_value("deferred_recomputes")
    quarantines = _counter_value("quarantines")
    del _counter_value

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def notify(self, names: list[str]) -> None:
        """Enqueue summaries for refresh (deduplicating); starts the
        worker on first use. Must not be called while holding the
        database's maintenance lock — the worker needs that lock to make
        room in a full queue."""
        if not names:
            return
        with self._condition:
            self._ensure_worker()
            for name in names:
                key = name.lower()
                if key in self._queued:
                    continue
                while len(self._queue) >= self.queue_limit:
                    self._condition.wait()
                self._queue.append(key)
                self._queued.add(key)
            self._condition.notify_all()

    def drain(self) -> None:
        """Block until every queued refresh (and outstanding retry) has
        been applied or quarantined."""
        with self._condition:
            if self._thread is None:
                return
            self._draining = True
            self._condition.notify_all()
            while self._queue or self._retries or self._busy:
                self._condition.wait()
            self._draining = False
            self._condition.notify_all()

    def stop(self, cancel_inflight: bool = False) -> None:
        """Stop the worker and join it.

        By default queued work (including retries) is finished first —
        the graceful shutdown tests and ``Database.close()`` rely on
        that. ``cancel_inflight=True`` is the load-shedding variant:
        the queue and retry ladder are discarded, the in-flight
        refresh's token is cancelled (it stops at its next cooperative
        tick and its summary is flagged for a full recompute), and the
        join returns promptly instead of blocking behind a stuck query.

        A concurrent ``notify`` may legitimately restart the worker the
        moment the old one exits; joining a captured reference (rather
        than re-reading ``self._thread``) keeps a racing restart from
        being joined — or clobbered — by this stop.
        """
        with self._condition:
            thread = self._thread
            if thread is None:
                return
            self._running = False
            if cancel_inflight:
                self._queue.clear()
                self._queued.clear()
                self._retries.clear()
                if self._inflight_token is not None:
                    self._inflight_token.cancel("scheduler stopping")
            self._condition.notify_all()
        thread.join()
        with self._condition:
            if self._thread is thread:
                self._thread = None

    def interrupt(self, names: list[str] | None = None) -> bool:
        """Cancel the in-flight refresh cooperatively.

        ``names`` restricts the interrupt to refreshes of those
        summaries (``None`` interrupts whatever is running). Used by
        manual ``REFRESH SUMMARY TABLE`` so it never waits behind a
        stuck worker refresh of the same summary. Returns True when a
        token was cancelled. The cancelled refresh is not a failure:
        the worker flags the summary for a forced recompute and
        requeues it (see :meth:`_on_cancelled`).
        """
        with self._condition:
            token = self._inflight_token
            if token is None:
                return False
            if names is not None:
                keys = {name.lower() for name in names}
                if self._inflight_name not in keys:
                    return False
            token.cancel("refresh interrupted")
            return True

    def reset_attempts(self, name: str) -> None:
        """Forget ``name``'s failure history (a manual refresh
        succeeded, so its next failure starts a fresh backoff ladder —
        and, having fully recomputed, any forced-recompute flag from an
        earlier cancelled merge is satisfied too)."""
        with self._condition:
            self._attempts.pop(name.lower(), None)
            self._retries.pop(name.lower(), None)
            self._force_recompute.discard(name.lower())
            self._condition.notify_all()

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def pending_retries(self) -> int:
        return len(self._retries)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        if (
            self._thread is not None
            and self._thread.is_alive()
            and not self._worker_exited
        ):
            return
        self._running = True
        self._worker_exited = False
        self._thread = threading.Thread(
            target=self._loop, name="refresh-scheduler", daemon=True
        )
        self._thread.start()

    def _due_retries(self) -> list[str]:
        """Retry names whose backoff has expired. While draining or
        stopping, every retry is due — the delay only pacifies the
        steady state, never the determinism hooks."""
        if not self._retries:
            return []
        if self._draining or not self._running:
            return list(self._retries)
        now = time.monotonic()
        return [name for name, due in self._retries.items() if due <= now]

    def _wait_timeout(self) -> float | None:
        """How long the worker may sleep before the next retry is due.

        Must be recomputed immediately before *every* ``Condition.wait``
        — including re-entries after spurious wakeups. ``wait`` can
        return with nothing due and nothing queued, and reusing the
        pre-sleep value there would oversleep a retry whose deadline
        moved closer (or arrived) in the meantime.
        """
        if not self._retries:
            return None
        return max(0.0, min(self._retries.values()) - time.monotonic())

    def _loop(self) -> None:
        while True:
            with self._condition:
                while True:
                    due = self._due_retries()
                    if self._queue or due:
                        break
                    if not self._running and not self._retries:
                        # stopped with nothing left to do; flag the exit
                        # while still holding the lock so a racing
                        # notify() knows to start a replacement
                        self._worker_exited = True
                        return
                    # Recomputed each iteration: a spurious wakeup loops
                    # back here and sleeps for the *remaining* time to
                    # the earliest retry, never the original interval.
                    self._condition.wait(self._wait_timeout())
                if (
                    self.batch_window
                    and self._running
                    and not self._draining
                    and self._queue
                ):
                    # Let a burst of ingest coalesce before sweeping —
                    # but never sleep past the next retry deadline: a
                    # retry due sooner than the window must not wait
                    # behind it.
                    window = self.batch_window
                    next_retry = self._wait_timeout()
                    if next_retry is not None and next_retry < window:
                        window = next_retry
                    if window > 0:
                        self._condition.wait(window)
                    due = self._due_retries()
                names = list(self._queue)
                self._queue.clear()
                self._queued.clear()
                for name in due:
                    self._retries.pop(name, None)
                    if name not in names:
                        names.append(name)
                self._busy = True
                self._condition.notify_all()  # wake blocked producers
            try:
                for name in names:
                    self._process(name)
            finally:
                with self._condition:
                    self._busy = False
                    self._condition.notify_all()

    def _process(self, name: str) -> None:
        """One guarded refresh attempt: success clears the failure
        history, unexpected failure schedules a retry or quarantines."""
        try:
            self._refresh_one(name)
        except QueryCancelled as error:
            # Not a failure: someone (stop(), interrupt(), REFRESH)
            # asked this refresh to yield. No backoff, no quarantine.
            self._on_cancelled(name, error)
        except _DeferRecompute as deferred:
            # Not a failure either: memory pressure postponed the
            # recompute. Retry later without burning an attempt — the
            # backoff ladder is for *broken* summaries, not busy hosts.
            self._on_deferred(name, deferred)
        except Exception as error:  # keep the worker alive
            self._on_failure(name, error)
        else:
            with self._condition:
                self._attempts.pop(name, None)
                self._force_recompute.discard(name)

    def _on_cancelled(self, name: str, error: QueryCancelled) -> None:
        """A refresh was cancelled mid-flight. The incremental merge may
        have partially landed (``last_refresh_lsn`` was *not* advanced),
        so flag the summary for a full recompute and — unless the whole
        scheduler is shutting down — requeue it so it converges without
        waiting for the next ingest."""
        with self._condition:
            self._force_recompute.add(name)
            self.errors.append(
                f"{name}: refresh cancelled ({error}); recompute scheduled"
            )
            if (
                self._running
                and name not in self._queued
                and len(self._queue) < self.queue_limit
            ):
                self._queue.append(name)
                self._queued.add(name)
            self._condition.notify_all()

    def _on_deferred(self, name: str, deferred: "_DeferRecompute") -> None:
        """A fallback recompute yielded to memory pressure: remember
        that the summary still needs a full recompute (its incremental
        state is behind) and schedule a plain retry — no attempt
        counted, no quarantine risk from being deferred repeatedly."""
        with self._condition:
            self._force_recompute.add(name)
            self._retries[name] = time.monotonic() + self.retry_base_delay
            self._counters["deferred_recomputes"].inc()
            self.errors.append(
                f"{name}: recompute deferred under memory pressure "
                f"({deferred})"
            )
            self._condition.notify_all()

    def _on_failure(self, name: str, error: Exception) -> None:
        quarantine = False
        with self._condition:
            attempts = self._attempts.get(name, 0) + 1
            self._attempts[name] = attempts
            self.errors.append(
                f"{name}: attempt {attempts}/{self.max_attempts}: {error}"
            )
            if attempts >= self.max_attempts:
                self._attempts.pop(name, None)
                quarantine = True
            else:
                delay = self.retry_base_delay * (2 ** (attempts - 1))
                self._retries[name] = time.monotonic() + delay
                self._counters["retries_scheduled"].inc()
            self._condition.notify_all()
        if quarantine:
            self._counters["quarantines"].inc()
            reason = (
                f"refresh failed {self.max_attempts} time(s); "
                f"last error: {error}"
            )
            self.last_fallbacks[name] = reason
            self._database.quarantine_summary(name, reason)

    def _refresh_one(self, name: str) -> None:
        """Bring one deferred summary fully up to date with the log.

        Runs under a governor scope holding a fresh cancellation token,
        published as the in-flight token so :meth:`interrupt` and
        :meth:`stop` can stop the apply/recompute at its next executor
        tick. A raised :class:`QueryCancelled` propagates to
        :meth:`_process` (it must *not* be absorbed by the
        incremental-apply fallback below — a cancelled apply means
        "yield now", not "recompute now while still holding the lock").
        """
        database = self._database
        token = CancellationToken()
        with self._condition:
            self._inflight_token = token
            self._inflight_name = name
        tracer = _spans.TRACER
        span = (
            tracer.root_for(
                "refresh.apply", summary=name,
                lsn=database.delta_log.lsn,
            )
            if tracer is not None
            else _spans.NOOP
        )
        try:
            with span:
                with governor_scope.activate(QueryBudget(token=token)):
                    self._refresh_one_locked(name, database)
        finally:
            with self._condition:
                self._inflight_token = None
                self._inflight_name = None

    def _refresh_one_locked(self, name: str, database) -> None:
        from repro.asts.maintenance import apply_pending, recompute

        with database._maintenance_lock:
            summary = database.summary_tables.get(name.lower())
            if (
                summary is None
                or not summary.refresh.is_deferred
                or summary.refresh.quarantined
            ):
                return
            log = database.delta_log
            upto = log.lsn
            batches = log.pending_for(
                summary.base_tables(), summary.refresh.last_refresh_lsn
            )
            with self._condition:
                forced = name in self._force_recompute
            if batches:
                if forced:
                    # A previous refresh of this summary was cancelled
                    # mid-merge: the incremental state is suspect, so
                    # skip straight to the full recompute.
                    reason = "recompute forced after cancelled refresh"
                else:
                    try:
                        faults.fire("scheduler.apply")
                        reason = apply_pending(database, summary, batches)
                    except QueryCancelled:
                        raise
                    except ReproError as error:
                        reason = f"incremental apply failed: {error}"
                if reason is not None:
                    with self._condition:
                        draining = self._draining
                    if BROKER.should_defer() and not draining:
                        # Recomputation re-materializes the whole
                        # summary; under global pressure that is the
                        # first work to postpone. drain() (determinism
                        # hook) still forces it through.
                        raise _DeferRecompute(reason)
                    faults.fire("scheduler.recompute")
                    recompute(database, summary, reason)
                    self._counters["fallback_recomputes"].inc()
                    self.last_fallbacks[summary.name] = reason
                self._counters["refreshes_applied"].inc()
                self._counters["batches_applied"].inc(len(batches))
            summary.refresh.pending_deltas = 0
            summary.refresh.last_refresh_lsn = upto
            database._prune_delta_log()
            database._bump_rewrite_epoch()
