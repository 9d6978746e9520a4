"""The delta log: staged base-table changes awaiting deferred refresh.

Under REFRESH IMMEDIATE, every INSERT/DELETE synchronously maintains
every summary table, so ingest latency grows with the number of ASTs.
The delta log breaks that coupling: a change to a base table that any
*deferred* summary depends on is appended here as a :class:`DeltaBatch`
— the raw rows plus a sign — and applied to those summaries later by the
:class:`repro.refresh.scheduler.RefreshScheduler`.

The log keeps one global, monotonically increasing logical timestamp
(``lsn``). Each deferred summary remembers the LSN of its last refresh
(:class:`repro.refresh.policy.RefreshState`); its pending work is exactly
the batches with a later LSN that touch one of its base tables. Batches
every dependent has consumed are pruned.

Beyond the staged batches, the log keeps two cheap per-table maps that
survive pruning:

* :meth:`high_water` — the LSN of the most recent change to a table
  (*any* change, whether or not a batch was staged for it; ingest into
  tables with no deferred dependents advances it via :meth:`note_write`
  without storing rows). This is the freshness oracle the staleness
  gate (:func:`repro.rewrite.index.filter_fresh`) and the server's
  semantic result cache (:mod:`repro.server.result_cache`) read —
  an O(1) dict lookup instead of a pending-batch scan per query.
* :meth:`change_count` — a monotonic count of changes per table, the
  unit ``SET REFRESH AGE`` tolerances are expressed in (staged delta
  batches); the result cache snapshots it to measure how far a cached
  result has lagged behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.engine.table import Row
from repro.testing import faults


@dataclass(frozen=True)
class DeltaBatch:
    """One staged base-table change.

    ``sign`` is +1 for inserts and -1 for deletes; ``rows`` are full
    tuples of the changed table (the same exact-row form the maintenance
    layer's summary-delta queries consume).
    """

    seq: int  # the LSN assigned at append time
    table: str  # lower-cased base-table name
    sign: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise ValueError(f"delta sign must be +1 or -1, got {self.sign}")


class DeltaLog:
    """An append-only, prunable staging area for base-table deltas."""

    def __init__(self) -> None:
        self._batches: list[DeltaBatch] = []
        self._lsn = 0
        self._high_water: dict[str, int] = {}
        self._change_counts: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def lsn(self) -> int:
        """The logical timestamp of the newest staged change."""
        return self._lsn

    def append(self, table: str, rows: Iterable[Row], sign: int) -> DeltaBatch:
        """Stage one change; assigns and returns the next LSN's batch.

        The fault hook fires before any state changes, so a failed
        append leaves the log untouched (no LSN is consumed).
        """
        faults.fire("delta.append")
        self._lsn += 1
        key = table.lower()
        batch = DeltaBatch(
            self._lsn, key, sign, tuple(tuple(row) for row in rows)
        )
        self._batches.append(batch)
        self._high_water[key] = self._lsn
        self._change_counts[key] = self._change_counts.get(key, 0) + 1
        return batch

    def note_write(self, table: str) -> int:
        """Record a base-table change that stages *no* batch (the table
        has no deferred dependents, so there is nothing to replay later)
        and return the LSN it consumed.

        The change still advances the table's high-water LSN and change
        count: freshness consumers — the staleness gate and the query
        server's semantic result cache — must see every write, not just
        the ones deferred maintenance happens to care about.
        """
        self._lsn += 1
        key = table.lower()
        self._high_water[key] = self._lsn
        self._change_counts[key] = self._change_counts.get(key, 0) + 1
        return self._lsn

    def high_water(self, table: str) -> int:
        """The LSN of the most recent change to ``table`` (0 if never
        changed within this log's lifetime)."""
        return self._high_water.get(table.lower(), 0)

    def change_count(self, table: str) -> int:
        """Monotonic count of changes to ``table`` (batch-staging units,
        the same unit ``SET REFRESH AGE <n>`` tolerances count in)."""
        return self._change_counts.get(table.lower(), 0)

    def change_counts(self, tables: Iterable[str]) -> dict[str, int]:
        """``{table: change_count}`` for each of ``tables``."""
        return {name.lower(): self.change_count(name) for name in tables}

    def pending_for(self, tables: set[str], after: int) -> list[DeltaBatch]:
        """Batches newer than ``after`` touching any of ``tables``, in
        LSN order (the order they must be applied in)."""
        wanted = {name.lower() for name in tables}
        return [
            batch
            for batch in self._batches
            if batch.seq > after and batch.table in wanted
        ]

    def prune(self, keep_after: int) -> int:
        """Drop batches with ``seq <= keep_after`` (every dependent has
        refreshed past them); returns how many were dropped."""
        before = len(self._batches)
        self._batches = [b for b in self._batches if b.seq > keep_after]
        return before - len(self._batches)

    def batches(self) -> list[DeltaBatch]:
        """A snapshot of the staged batches (for persistence/tests)."""
        return list(self._batches)

    def restore(self, lsn: int, batches: Iterable[DeltaBatch]) -> None:
        """Reset the log to a persisted state (see repro.engine.persist).

        Per-table high-water marks are rebuilt from the surviving
        batches. Marks that belonged to pruned batches are lost, which
        is safe: every dependent refreshed past a pruned batch, so the
        ``high_water <= last_refresh_lsn`` freshness test still answers
        "fresh" — and change counts restart conservatively from the
        surviving batches (the result cache starts empty after a reload,
        so no cached snapshot predates the restored counts).
        """
        self._batches = sorted(batches, key=lambda b: b.seq)
        top = self._batches[-1].seq if self._batches else 0
        self._lsn = max(lsn, top)
        self._high_water = {}
        self._change_counts = {}
        for batch in self._batches:
            self._high_water[batch.table] = batch.seq
            self._change_counts[batch.table] = (
                self._change_counts.get(batch.table, 0) + 1
            )
