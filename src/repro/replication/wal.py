"""The write-ahead journal: acknowledged writes survive a SIGKILL.

Every mutation the query server acknowledges — INSERT, DELETE, DDL,
REFRESH — is appended here *before* the reply is sent. A record is one
line, the same ``crc32hex SP json`` framing persistence format v2 uses
(:mod:`repro.engine.persist`), carrying a monotonic LSN, the statement
kind and SQL text, and (for client retries) the idempotency token plus
the status string the original execution produced.

**Group commit.** Appending is two steps: :meth:`WriteAheadLog.stage`
assigns the LSN and buffers the framed line (called by
``Database.run_write`` under the database's writer lock, so journal
order always equals apply order), and
:meth:`WriteAheadLog.commit` waits until the record is durable. The
first committer becomes the *leader*: it writes every buffered line in
one ``write`` + one ``fsync`` while later committers wait on the
condition variable — N concurrent writers pay ~1 fsync, not N.
``sync="fsync"`` (the default) survives OS crashes; ``sync="os"`` skips
the fsync — the bytes are in the kernel, so a SIGKILL'd *process* loses
nothing, but a machine crash may.

**Checkpoint-compaction.** The journal does not grow forever: every
``checkpoint_every`` records the server snapshots the whole database
with :func:`repro.engine.persist.save_counted` into a fresh
``checkpoint-<lsn>/`` directory — re-encoding only the rows edited since
the checkpoint it last committed, the rest taken over as CRC-verified
lines — commits it by atomically renaming ``wal.meta.json`` (which also
carries the dedup-token window), rotates to a new journal segment, and
deletes everything the snapshot covers. The meta rename is the commit
point: the committed directory is never removed before its successor's
rename (a checkpoint at an unchanged LSN writes nothing), and an
orphaned half-written directory is swept on the next recovery.

**Recovery** (:meth:`WriteAheadLog.recover`) loads the checkpoint
snapshot (through ``load_database`` + the ``verify_database``
quarantine pass), replays the journal tail through
``Database.run_write`` with no journal — the write pipeline every
primary and standby write took, so replayed deltas reconverge summaries
bit-identically — truncates a torn trailing
record, and rebuilds the token window from the checkpoint plus the
replayed tail.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ReproError, WalError, WalGapError
from repro.framing import frame, fsync_directory, scan, write_atomic
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.testing import faults

#: journal segment file name pattern; the number is the lowest LSN the
#: segment may contain
_SEGMENT_PATTERN = "journal-%012d.jsonl"
_SEGMENT_PREFIX = "journal-"
_META_NAME = "wal.meta.json"
_CHECKPOINT_PREFIX = "checkpoint-"

META_VERSION = 1

#: statement kinds the journal records (everything else — SELECT,
#: session SETs, EXPLAIN — is not a durable mutation)
KINDS = ("insert", "delete", "ddl", "refresh")


def mutation_kind(statement) -> str | None:
    """The journal ``kind`` for a parsed statement, or ``None`` when the
    statement is not a journaled mutation."""
    from repro.sql.statements import (
        CreateSummaryTable,
        CreateTable,
        DeleteValues,
        DropSummaryTable,
        InsertValues,
        RefreshSummaryTables,
    )

    if isinstance(statement, InsertValues):
        return "insert"
    if isinstance(statement, DeleteValues):
        return "delete"
    if isinstance(statement, (CreateTable, CreateSummaryTable, DropSummaryTable)):
        return "ddl"
    if isinstance(statement, RefreshSummaryTables):
        return "refresh"
    return None


@dataclass(frozen=True)
class WalRecord:
    """One journaled mutation."""

    lsn: int
    kind: str  # "insert" | "delete" | "ddl" | "refresh"
    sql: str
    #: client idempotency token (None for tokenless mutations)
    token: str | None = None
    #: the status string the original execution returned — replayed to
    #: the client when a retry dedups against this record
    status: str = ""
    #: the trace that staged it, shipped beside the record to join the
    #: standby's apply span (in memory only: never part of the payload)
    trace: str | None = field(default=None, compare=False)

    def payload(self) -> str:
        entry: dict = {"lsn": self.lsn, "kind": self.kind, "sql": self.sql}
        if self.token is not None:
            entry["token"] = self.token
        if self.status:
            entry["status"] = self.status
        return json.dumps(entry, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: str) -> "WalRecord":
        entry = json.loads(payload)
        return cls(
            lsn=entry["lsn"],
            kind=entry["kind"],
            sql=entry["sql"],
            token=entry.get("token"),
            status=entry.get("status", ""),
        )


@dataclass
class WalRecovery:
    """What :meth:`WriteAheadLog.recover` found and rebuilt."""

    #: the recovered database (checkpoint snapshot + replayed tail)
    database: object = None
    #: the ``verify_database`` report for the checkpoint snapshot
    #: (None when recovery started from an empty journal, no checkpoint)
    report: object = None
    #: journal records replayed on top of the checkpoint
    replayed: int = 0
    #: the LSN the checkpoint snapshot covers
    checkpoint_lsn: int = 0
    #: recovery anomalies (torn tails truncated, orphan checkpoints)
    anomalies: list[str] = field(default_factory=list)
    #: the rebuilt idempotency-token window
    tokens: dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"journal recovered: checkpoint lsn {self.checkpoint_lsn}, "
            f"{self.replayed} record(s) replayed"
        ]
        for anomaly in self.anomalies:
            lines.append(f"  anomaly: {anomaly}")
        if self.report is not None and not self.report.clean:
            lines.append(self.report.describe())
        return "\n".join(lines)


class WriteAheadLog:
    """A durable, group-committed journal in one directory.

    Construct, then either :meth:`recover` (existing directory) or
    :meth:`begin` (fresh directory, baseline checkpoint of the starting
    database) before the first append.
    """

    def __init__(
        self,
        directory: str | Path,
        sync: str = "fsync",
        checkpoint_every: int = 512,
    ):
        if sync not in ("fsync", "os"):
            raise ValueError(f"sync must be 'fsync' or 'os', got {sync!r}")
        self.directory = Path(directory)
        self.sync = sync
        self.checkpoint_every = max(1, checkpoint_every)
        self._cond = threading.Condition()
        self._next_lsn = 1
        self._durable_lsn = 0
        self._checkpoint_lsn = 0
        self._pending: list[tuple[int, str]] = []
        self._flushing = False
        #: per-record flush failures: lsn → error (consumed by commit)
        self._failed: dict[int, BaseException] = {}
        self._file = None
        self._segment: Path | None = None
        self._broken: str | None = None
        self._closed = False
        self._ready = False
        #: called with a list[WalRecord] after each durable flush — the
        #: replication feed's ship signal (never called under the lock)
        self.on_durable = None
        #: durable batches awaiting on_durable delivery, in LSN order;
        #: delivery is serialized by _notify_lock so two leaders that
        #: finish back-to-back cannot ship their batches out of order
        #: (a subscriber seeing the later batch first would skip the
        #: earlier one as reconnect overlap and lose records)
        self._notify_queue: list[list[WalRecord]] = []
        self._notify_lock = threading.Lock()
        #: records kept in memory since open, for cheap backlog reads
        self._recent: list[WalRecord] = []
        self._recent_cap = 4096
        self.checkpoints = 0
        self.last_checkpoint_ms = 0.0
        #: the snapshot ``wal.meta`` points at: the next checkpoint reuses
        #: its lines and removes it only after its own meta rename
        self._committed: Path | None = None

    # ------------------------------------------------------------------
    # properties
    @property
    def last_lsn(self) -> int:
        """The newest LSN assigned (staged, not necessarily durable)."""
        with self._cond:
            return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        with self._cond:
            return self._durable_lsn

    @property
    def checkpoint_lsn(self) -> int:
        with self._cond:
            return self._checkpoint_lsn

    def exists(self) -> bool:
        """Does the directory already hold a journal to recover?"""
        if (self.directory / _META_NAME).exists():
            return True
        return any(self.directory.glob(_SEGMENT_PREFIX + "*"))

    # ------------------------------------------------------------------
    # lifecycle: begin / recover / close
    def begin(
        self,
        database,
        tokens: dict[str, str] | None = None,
        base_lsn: int = 0,
    ) -> None:
        """Initialize a fresh journal directory around ``database``.

        Writes a baseline checkpoint first, so a database that existed
        before journaling began (``--demo``, ``--open``, a standby's
        bootstrap snapshot) is recoverable from the journal directory
        alone. ``base_lsn`` seeds the LSN sequence — a standby passes
        the primary LSN its snapshot covers, so shipped records keep
        their primary LSNs.
        """
        if self.exists():
            raise WalError(
                f"{self.directory} already contains a journal; recover() it"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._next_lsn = base_lsn + 1
        self._durable_lsn = base_lsn
        self._write_checkpoint(database, tokens or {}, base_lsn)
        self._open_segment(base_lsn + 1)
        self._ready = True

    def recover(self, verify: bool = True) -> WalRecovery:
        """Rebuild the database from the checkpoint plus the journal
        tail; leaves the log open for appends at the next LSN."""
        from repro.engine.database import Database
        from repro.engine.persist import load_database, verify_database
        from repro.sql.statements import parse_statement

        if not self.directory.exists():
            raise WalError(f"{self.directory} does not exist")
        recovery = WalRecovery()
        meta = self._read_meta()
        if meta is not None:
            self._checkpoint_lsn = meta["checkpoint_lsn"]
            recovery.checkpoint_lsn = self._checkpoint_lsn
            recovery.tokens = dict(meta.get("tokens", {}))
            checkpoint_dir = self._committed = (
                self.directory / meta["checkpoint_dir"]
            )
            if not checkpoint_dir.exists():
                raise WalError(
                    f"{_META_NAME} references missing snapshot "
                    f"{checkpoint_dir.name!r}"
                )
            database = load_database(checkpoint_dir)
            if verify:
                recovery.report = verify_database(database)
        else:
            # No checkpoint: the journal began on an empty database.
            database = Database()
        recovery.database = database
        replay_from = self._checkpoint_lsn
        last_seen = self._checkpoint_lsn
        for record in self._scan_segments(recovery.anomalies):
            if record.lsn <= replay_from:
                continue
            if record.lsn <= last_seen:
                raise WalError(
                    f"journal LSNs out of order: {record.lsn} after {last_seen}"
                )
            last_seen = record.lsn
            try:
                database.run_write(parse_statement(record.sql), record.sql)
            except ReproError as error:
                raise WalError(
                    f"journal replay failed at lsn {record.lsn} "
                    f"({record.kind}): {error}"
                ) from error
            if record.token is not None:
                recovery.tokens[record.token] = record.status
            recovery.replayed += 1
        self._sweep_orphans(recovery.anomalies)
        self._next_lsn = last_seen + 1
        self._durable_lsn = last_seen
        active = self._latest_segment()
        if active is not None:
            self._segment = active
            self._file = active.open("a", encoding="utf-8")
        else:
            self._open_segment(self._checkpoint_lsn + 1)
        self._ready = True
        return recovery

    def close(self) -> None:
        """Flush everything staged and close the journal file."""
        with self._cond:
            if self._closed:
                return
        try:
            self.flush()
        finally:
            with self._cond:
                self._closed = True
                if self._file is not None:
                    try:
                        self._file.close()
                    except OSError:  # pragma: no cover
                        pass
                    self._file = None

    # ------------------------------------------------------------------
    # appending (group commit)
    def stage(
        self, kind: str, sql: str, token: str | None = None, status: str = ""
    ) -> int:
        """Assign the next LSN and buffer the record; the caller must
        :meth:`commit` it before acknowledging the mutation. Called
        under the database's writer lock so journal order equals apply
        order."""
        return self.stage_record(
            WalRecord(0, kind, sql, token, status, _spans.current_trace_id())
        )

    def stage_record(self, record: WalRecord) -> int:
        """Buffer ``record`` under the next LSN when its own is 0, else
        under its own: a standby appending a shipped primary record keeps
        the primary's LSN, and may stage one again whose flush failed —
        with nothing pending or in flight, every LSN past the durable one
        failed."""
        stage_pc = time.perf_counter()
        with self._cond:
            self._check_writable()
            faults.fire("wal.append")
            if record.lsn == 0:
                record = replace(record, lsn=self._next_lsn)
            elif record.lsn <= self._durable_lsn or (
                record.lsn < self._next_lsn and (self._pending or self._flushing)
            ):
                raise WalError(
                    f"record lsn {record.lsn} is behind the journal "
                    f"({self._next_lsn - 1})"
                )
            self._failed.pop(record.lsn, None)
            self._next_lsn = record.lsn + 1
            self._pending.append((record.lsn, frame(record.payload()) + "\n"))
            self._stash_recent(record)
        _spans.record("wal.stage", stage_pc, lsn=record.lsn, kind=record.kind)
        return record.lsn

    def commit(self, lsn: int) -> None:
        """Block until ``lsn`` is durable (group commit: the first
        waiter becomes the leader and flushes everyone's buffered
        records in one write + fsync).

        The leader RELEASES the lock for the disk work, so concurrent
        mutations keep staging into the next batch while this one
        syncs — that pipelining is what amortizes the fsync: under an
        ingest storm the next leader finds every record that arrived
        during the previous sync already buffered. Only the leader
        touches the file while ``_flushing`` is set; ``checkpoint`` and
        ``close`` drain through this same protocol before rotating or
        closing the handle."""
        fsync_pc = time.perf_counter()
        try:
            with self._cond:
                while True:
                    # Failure must be checked before the durable
                    # watermark: a later batch can advance _durable_lsn
                    # past an lsn whose own batch failed, and returning
                    # then would acknowledge a record that was never
                    # written.
                    error = self._failed.pop(lsn, None)
                    if error is not None:
                        raise WalError(
                            f"journal write failed: {error}"
                        ) from error
                    if self._broken is not None:
                        raise WalError(self._broken)
                    if self._durable_lsn >= lsn:
                        break
                    if self._flushing or not self._pending:
                        self._cond.wait()
                        continue
                    self._lead_flush()
            _spans.record("wal.fsync", fsync_pc, lsn=lsn)
        finally:
            self._drain_notifications()

    def _lead_flush(self) -> BaseException | None:
        """Become the group-commit leader for the current pending batch.

        Called with the lock held, no flush in flight, and records
        pending; releases the lock for the disk work and reacquires it
        to publish the outcome. On success the durable records are
        queued for ordered ``on_durable`` delivery (see
        :meth:`_drain_notifications`); on failure the error is parked
        in ``_failed`` for each record's own committer and returned."""
        batch = self._pending
        self._pending = []
        self._flushing = True
        flush_error: BaseException | None = None
        self._cond.release()
        try:
            try:
                self._flush_batch(batch)
            except BaseException as error:  # noqa: BLE001
                flush_error = error
        finally:
            self._cond.acquire()
        self._flushing = False
        if flush_error is None:
            self._durable_lsn = max(self._durable_lsn, batch[-1][0])
            notify = [
                r
                for r in self._recent
                if batch[0][0] <= r.lsn <= batch[-1][0]
            ]
            if notify:
                self._notify_queue.append(notify)
        else:
            failed = {failed_lsn for failed_lsn, _ in batch}
            for failed_lsn in failed:
                self._failed[failed_lsn] = flush_error
            # the ring must only ever serve durable records
            self._recent = [
                r for r in self._recent if r.lsn not in failed
            ]
        self._cond.notify_all()
        return flush_error

    def _drain_notifications(self) -> None:
        """Deliver queued durable batches to ``on_durable`` in LSN
        order. Any thread may drain; ``_notify_lock`` serializes
        delivery so batches never reach subscribers out of order, and
        the queue (always popped from the front) preserves the
        leaders' completion order."""
        while True:
            with self._notify_lock:
                with self._cond:
                    if not self._notify_queue:
                        return
                    if self.on_durable is None:
                        self._notify_queue.clear()
                        return
                    batch = self._notify_queue.pop(0)
                    callback = self.on_durable
                callback(batch)

    def append(
        self, kind: str, sql: str, token: str | None = None, status: str = ""
    ) -> int:
        """stage + commit in one call (tests and simple callers)."""
        lsn = self.stage(kind, sql, token=token, status=status)
        self.commit(lsn)
        return lsn

    def flush(self) -> None:
        """Make everything currently staged durable; raises when records
        this call flushed could not be written.

        Drains the pending buffer directly instead of waiting on one
        specific LSN — ``commit(top)`` would hang forever on a record
        whose own committer already consumed its failure and rolled the
        mutation back (the LSN can then never become durable)."""
        try:
            while True:
                with self._cond:
                    if self._broken is not None:
                        raise WalError(self._broken)
                    if self._flushing:
                        self._cond.wait()
                        continue
                    if not self._pending:
                        break
                    error = self._lead_flush()
                    if error is not None:
                        raise WalError(
                            f"journal write failed: {error}"
                        ) from error
        finally:
            self._drain_notifications()

    def _flush_batch(self, batch: list[tuple[int, str]]) -> None:
        """Write one group-commit batch to disk. Called WITHOUT the
        lock by the flush leader (``_flushing`` guarantees exclusive
        file access), so stagers buffer the next batch concurrently."""
        if not batch:
            return
        handle = self._file
        if handle is None:
            raise WalError("journal is closed")
        position = handle.tell()
        try:
            self._fire_disk_full()
            handle.write("".join(line for _, line in batch))
            handle.flush()
            faults.fire("wal.fsync")
            if self.sync == "fsync":
                os.fsync(handle.fileno())
        except BaseException:
            # The file may hold a partial batch. Truncate back to the
            # pre-write position so the journal never carries records
            # whose commit failed; if even that fails, the journal is
            # unusable and every later append must refuse.
            try:
                handle.seek(position)
                handle.truncate(position)
            except OSError as truncate_error:  # pragma: no cover
                self._broken = (
                    "journal unwritable after failed flush "
                    f"({truncate_error}); mutations are disabled"
                )
            raise

    def _check_writable(self) -> None:
        if not self._ready:
            raise WalError("journal not initialized: call begin() or recover()")
        if self._closed:
            raise WalError("journal is closed")
        if self._broken is not None:
            raise WalError(self._broken)

    @staticmethod
    def _fire_disk_full() -> None:
        """The ``wal.disk_full`` injection point, translated to the
        error a genuinely full volume produces so every consumer —
        commit rollback, the server's degradation classifier — exercises
        the real ENOSPC path."""
        try:
            faults.fire("wal.disk_full")
        except faults.InjectedFault as error:
            raise OSError(errno.ENOSPC, "injected disk full") from error

    def probe_writable(self) -> None:
        """Check whether the journal volume can take bytes again: write,
        sync, and remove a tiny probe file. Raises ``OSError`` (ENOSPC)
        while the disk is still full — the server polls this on each
        refused mutation and lifts read-only mode once it succeeds.
        Fires ``wal.disk_full`` so chaos tests control the recovery
        point."""
        self._fire_disk_full()
        probe = self.directory / ".space-probe"
        with probe.open("w", encoding="utf-8") as handle:
            handle.write("probe\n")
            handle.flush()
            if self.sync == "fsync":
                os.fsync(handle.fileno())
        probe.unlink(missing_ok=True)

    def _stash_recent(self, record: WalRecord) -> None:
        self._recent.append(record)
        if len(self._recent) > self._recent_cap:
            del self._recent[: len(self._recent) - self._recent_cap]

    # ------------------------------------------------------------------
    # checkpoint-compaction
    def should_checkpoint(self) -> bool:
        with self._cond:
            return (
                self._next_lsn - 1 - self._checkpoint_lsn
                >= self.checkpoint_every
            )

    def checkpoint(self, database, tokens: dict[str, str] | None = None) -> int:
        """Snapshot ``database``, commit the checkpoint, rotate the
        journal segment, and drop everything the snapshot covers.

        The caller must hold the database's writer lock (no write in
        flight), so the snapshot corresponds exactly to the journal
        prefix up to the returned LSN. Reads and background refreshes
        are unaffected: the snapshot is serialised from one capture of
        pinned tables (:func:`repro.engine.persist.save_counted`), not
        under the database's maintenance lock. With nothing journaled
        since the last checkpoint there is nothing to write.
        """
        started = time.perf_counter()
        self.flush()
        with self._cond:
            self._check_writable()
            lsn = self._next_lsn - 1
            if lsn == self._checkpoint_lsn:
                return lsn  # nothing journaled since: the snapshot stands
        self._fire_disk_full()
        encoded, reused = self._write_checkpoint(database, tokens or {}, lsn)
        self._open_segment(lsn + 1)
        with self._cond:
            self._checkpoint_lsn = lsn
            self.checkpoints += 1
        self._cleanup(lsn)
        self.last_checkpoint_ms = round((time.perf_counter() - started) * 1e3, 3)
        _events.emit(
            "wal.checkpoint", lsn=lsn, checkpoints=self.checkpoints,
            ms=self.last_checkpoint_ms, rows_encoded=encoded, rows_reused=reused,
        )
        return lsn

    def rebase(
        self,
        database,
        tokens: dict[str, str] | None = None,
        base_lsn: int = 0,
    ) -> None:
        """Re-anchor the journal at ``base_lsn`` around a database that
        did NOT come from this journal.

        A standby re-bootstrapping from a fresh primary snapshot (the
        primary compacted past the standby's position) jumps forward
        over records it never saw; its local journal must not keep the
        pre-gap tail, or a later local recovery would replay post-gap
        records on a base that is missing the gap. Writes a checkpoint
        of ``database`` at ``base_lsn``, rotates to a new segment, and
        drops everything older — including the in-memory ring."""
        self.flush()
        with self._cond:
            self._check_writable()
            if base_lsn < self._next_lsn - 1:
                raise WalError(
                    f"cannot rebase backwards: journal is at lsn "
                    f"{self._next_lsn - 1}, rebase target is {base_lsn} "
                    "(this replica has applied records the snapshot "
                    "source does not have)"
                )
            self._next_lsn = base_lsn + 1
            self._durable_lsn = base_lsn
            self._recent = []
        self._write_checkpoint(database, tokens or {}, base_lsn)
        self._open_segment(base_lsn + 1)
        with self._cond:
            self._checkpoint_lsn = base_lsn
            self.checkpoints += 1
        self._cleanup(base_lsn)

    def _write_checkpoint(
        self, database, tokens: dict[str, str], lsn: int
    ) -> tuple[int, int]:
        """Snapshot into a directory the meta does not point at (a crash
        before the rename below recovers from the committed one, so a
        rebase onto its LSN writes beside it), reusing the committed
        snapshot's lines for rows not edited since (``save_counted``)."""
        from repro.engine.persist import save_counted

        name = f"{_CHECKPOINT_PREFIX}{lsn:012d}"
        if self._committed is not None and self._committed.name == name:
            name += ".1"
        target = self.directory / name
        if target.exists():  # a crashed earlier attempt under this name
            shutil.rmtree(target)
        counts = save_counted(database, target, self._committed or target)
        meta = {
            "version": META_VERSION,
            "checkpoint_lsn": lsn,
            "checkpoint_dir": name,
            "tokens": tokens,
        }
        # Under sync="fsync" the rename must survive an OS crash:
        # checkpoint goes on to delete what the old meta points at.
        write_atomic(
            self.directory / _META_NAME, json.dumps(meta, indent=2),
            durable=self.sync == "fsync", fire_faults=False,
        )
        self._committed = target
        return counts

    def _cleanup(self, checkpoint_lsn: int) -> None:
        """Drop the journal segments the new checkpoint covers and every
        snapshot directory but the committed one (best effort —
        leftovers are swept on the next recovery)."""
        for segment in sorted(self.directory.glob(_SEGMENT_PREFIX + "*")):
            if segment == self._segment:
                continue
            if _segment_start(segment) <= checkpoint_lsn:
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover
                    pass
        self._sweep_orphans([])

    def _sweep_orphans(self, anomalies: list[str]) -> None:
        """Remove every checkpoint directory but the one the meta points
        at: superseded ones, and uncommitted ones (a crash landed between
        the snapshot write and the meta rename)."""
        for snapshot in self.directory.glob(_CHECKPOINT_PREFIX + "*"):
            if snapshot != self._committed:
                anomalies.append(
                    f"{snapshot.name}: uncommitted checkpoint swept"
                )
                shutil.rmtree(snapshot, ignore_errors=True)
        for stale in self.directory.glob("*.tmp"):
            stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # reading
    def covers(self, lsn: int) -> bool:
        """Can :meth:`records_after` serve a gap-free backlog from
        ``lsn``? True when every later record is still held — on disk
        past the checkpoint, or in the in-memory ring. False means
        checkpoint compaction deleted part of the backlog and a
        subscriber at ``lsn`` must bootstrap from a snapshot."""
        with self._cond:
            if lsn >= self._checkpoint_lsn:
                return True
            return bool(self._recent) and self._recent[0].lsn <= lsn + 1

    def records_after(self, lsn: int) -> list[WalRecord]:
        """Durable records with an LSN greater than ``lsn``, in order —
        the replication backlog a (re)connecting standby needs. Served
        from the in-memory ring when possible, from disk otherwise.

        Raises :class:`WalGapError` when ``lsn`` predates the
        checkpoint and the ring does not reach back to it: the on-disk
        journal only starts after the checkpoint (compaction deleted the
        older segments), so the backlog would silently skip the records
        in between — the standby's overlap filter cannot detect that,
        and it would diverge."""
        with self._cond:
            durable = self._durable_lsn
            recent = list(self._recent)
            checkpoint = self._checkpoint_lsn
        if recent and recent[0].lsn <= lsn + 1:
            return [r for r in recent if lsn < r.lsn <= durable]
        if lsn < checkpoint:
            raise WalGapError(
                f"journal backlog after lsn {lsn} is gone (checkpoint "
                f"compacted through lsn {checkpoint}); bootstrap from a "
                "fresh snapshot"
            )
        anomalies: list[str] = []
        return [
            record
            for record in self._scan_segments(anomalies, truncate=False)
            if lsn < record.lsn <= durable
        ]

    def _segments(self) -> list[Path]:
        return sorted(self.directory.glob(_SEGMENT_PREFIX + "*.jsonl"))

    def _latest_segment(self) -> Path | None:
        segments = self._segments()
        return segments[-1] if segments else None

    def _scan_segments(self, anomalies: list[str], truncate: bool = True):
        """Yield every journal record on disk in segment order.

        A bad frame at the very end of the *last* segment is a torn
        tail: with ``truncate`` (recovery) the file is physically
        truncated back to the last good record and the scan stops;
        without (backlog reads on a live journal) the scan just stops.
        A bad frame anywhere else is genuine corruption and fatal.
        """
        segments = self._segments()
        for index, segment in enumerate(segments):
            found = scan(segment.read_bytes())
            for number, payload in enumerate(found.payloads, start=1):
                try:
                    yield WalRecord.from_payload(payload)
                except (KeyError, TypeError, ValueError) as error:
                    raise WalError(
                        f"{segment.name}: bad record at line {number}: {error}"
                    ) from error
            if found.bad_line is None:
                continue
            if not (found.tail and index == len(segments) - 1):
                raise WalError(
                    f"{segment.name}: checksum mismatch at line "
                    f"{found.bad_line} (corrupt record inside the journal)"
                )
            if truncate:
                anomalies.append(
                    f"{segment.name}: torn tail at line {found.bad_line} "
                    "truncated (partial or corrupt trailing record)"
                )
                os.truncate(segment, found.bad_offset)
            return

    def _open_segment(self, start_lsn: int) -> None:
        with self._cond:
            if self._file is not None:
                self._file.close()
            self._segment = self.directory / (_SEGMENT_PATTERN % start_lsn)
            self._file = self._segment.open("a", encoding="utf-8")
        if self.sync == "fsync":  # the new segment's directory entry
            fsync_directory(self.directory)

    def _read_meta(self) -> dict | None:
        path = self.directory / _META_NAME
        if not path.exists():
            return None
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise WalError(f"{_META_NAME} is unreadable: {error}") from error
        if meta.get("version") != META_VERSION:
            raise WalError(
                f"unsupported journal meta version {meta.get('version')!r}"
            )
        for key in ("checkpoint_lsn", "checkpoint_dir"):
            if key not in meta:
                raise WalError(f"{_META_NAME}: missing required key {key!r}")
        return meta


def _segment_start(path: Path) -> int:
    try:
        return int(path.stem[len(_SEGMENT_PREFIX):])
    except ValueError:
        return 0

