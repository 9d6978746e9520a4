"""Write-ahead journal unit tests: record framing, group commit,
checkpoint-compaction, torn-tail recovery and the journal's
fault-injection points."""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.persist import save_database
from repro.engine.table import tables_equal
from repro.errors import WalError
from repro.replication import WalRecord, WriteAheadLog, mutation_kind
from repro.sql.statements import parse_statement
from repro.testing import INJECTOR, InjectedFault
from repro.testing.faults import arm_from_env


def empty_db() -> Database:
    return Database(credit_card_catalog())


def insert_sql(aid: int) -> str:
    return f"INSERT INTO Acct VALUES ({aid}, 1, 'open')"


def assert_same_database(left: Database, right: Database) -> None:
    """Bit-identity across every base table."""
    assert sorted(left.catalog.tables) == sorted(right.catalog.tables)
    for name in left.catalog.tables:
        assert tables_equal(left.table(name), right.table(name)), name


# ----------------------------------------------------------------------
class TestMutationKind:
    @pytest.mark.parametrize(
        "sql,kind",
        [
            ("INSERT INTO Acct VALUES (1, 1, 'x')", "insert"),
            ("DELETE FROM Acct VALUES (1, 1, 'x')", "delete"),
            ("CREATE TABLE T (a INTEGER NOT NULL)", "ddl"),
            (
                "CREATE SUMMARY TABLE S AS select faid, count(*) as cnt "
                "from Trans group by faid",
                "ddl",
            ),
            ("DROP SUMMARY TABLE S", "ddl"),
            ("REFRESH SUMMARY TABLES", "refresh"),
            ("SELECT aid FROM Acct", None),
            ("SET REFRESH AGE ANY", None),
        ],
    )
    def test_classification(self, sql, kind):
        assert mutation_kind(parse_statement(sql)) == kind


class TestWalRecord:
    def test_payload_round_trip(self):
        record = WalRecord(7, "insert", insert_sql(1), "tok-1", "1 row")
        back = WalRecord.from_payload(record.payload())
        assert back == record

    def test_token_free_round_trip(self):
        record = WalRecord(1, "ddl", "CREATE TABLE T (a INTEGER)", None, "ok")
        assert WalRecord.from_payload(record.payload()) == record


# ----------------------------------------------------------------------
class TestJournalLifecycle:
    def test_round_trip_recovery(self, tmp_path):
        """Apply + journal a mix of mutations, recover, and get back a
        bit-identical database plus the token window."""
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        statements = [
            insert_sql(100),
            insert_sql(101),
            "DELETE FROM Acct VALUES (100, 1, 'open')",
            "CREATE TABLE Audit (entry INTEGER NOT NULL)",
            "INSERT INTO Audit VALUES (1)",
        ]
        for i, sql in enumerate(statements):
            status = str(db.run_sql(sql))
            kind = mutation_kind(parse_statement(sql))
            wal.append(kind, sql, token=f"tok-{i}", status=status)
        assert wal.durable_lsn == len(statements)
        wal.close()

        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.replayed == len(statements)
        assert not recovered.anomalies
        assert_same_database(recovered.database, db)
        assert set(recovered.tokens) == {f"tok-{i}" for i in range(5)}

    def test_begin_refuses_existing_journal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        wal.close()
        fresh = WriteAheadLog(tmp_path / "wal", sync="os")
        assert fresh.exists()
        with pytest.raises(WalError, match="already contains"):
            fresh.begin(empty_db())

    def test_base_lsn_offsets_the_sequence(self, tmp_path):
        """A standby seeds the sequence at its snapshot's primary LSN,
        so shipped records keep their primary numbering."""
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db(), base_lsn=40)
        assert wal.append("insert", insert_sql(1)) == 41
        lsn = wal.stage_record(
            WalRecord(50, "insert", insert_sql(2), None, "")
        )
        wal.commit(lsn)
        assert wal.durable_lsn == 50
        with pytest.raises(WalError, match="behind the journal"):
            wal.stage_record(WalRecord(7, "insert", insert_sql(3), None, ""))
        wal.close()

    def test_sync_mode_validated(self, tmp_path):
        with pytest.raises(ValueError, match="sync must be"):
            WriteAheadLog(tmp_path / "wal", sync="yolo")

    def test_closed_journal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        wal.close()
        with pytest.raises(WalError):
            wal.append("insert", insert_sql(1))


class TestGroupCommit:
    def test_concurrent_appends_all_durable(self, tmp_path):
        """A thread storm of appends: every record becomes durable, and
        on_durable ships each exactly once."""
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        shipped: list[int] = []
        ship_lock = threading.Lock()

        def on_durable(records):
            with ship_lock:
                shipped.extend(r.lsn for r in records)

        wal.on_durable = on_durable
        threads_n, each = 8, 25

        def worker(tid: int):
            for i in range(each):
                wal.append("insert", insert_sql(tid * 1000 + i))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * each
        assert wal.durable_lsn == total
        assert sorted(shipped) == list(range(1, total + 1))
        records = wal.records_after(0)
        assert [r.lsn for r in records] == list(range(1, total + 1))
        wal.close()

    def test_records_after_serves_backlog_from_disk(self, tmp_path):
        """After recovery the in-memory ring is empty; a standby asking
        for an old LSN is served by scanning the segments."""
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        for i in range(10):
            wal.append("insert", insert_sql(i))
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal", sync="os")
        reopened.recover()
        tail = reopened.records_after(6)
        assert [r.lsn for r in tail] == [7, 8, 9, 10]
        assert tail[0].sql == insert_sql(6)
        reopened.close()


# ----------------------------------------------------------------------
class TestTornTail:
    def write_journal(self, tmp_path, count=5):
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        for i in range(count):
            db.run_sql(insert_sql(100 + i))
            wal.append("insert", insert_sql(100 + i))
        wal.close()
        segments = sorted((tmp_path / "wal").glob("journal-*.jsonl"))
        assert segments
        return db, segments[-1]

    def test_torn_tail_truncated(self, tmp_path):
        """A partial final line (the classic torn write) is truncated
        away: the un-acked record is lost, everything before survives."""
        db, segment = self.write_journal(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data + b'deadbeef {"half a rec')  # no newline
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert any("torn" in a or "truncat" in a for a in recovered.anomalies)
        assert recovered.replayed == 5
        assert_same_database(recovered.database, db)
        # the torn bytes are gone from disk as well
        assert segment.read_bytes() == data

    def test_corrupt_crc_tail_truncated(self, tmp_path):
        """A complete final line whose CRC does not match its payload is
        equally a tail anomaly, not a fatal error."""
        _, segment = self.write_journal(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        bad = b"00000000" + lines[-1][8:]
        segment.write_bytes(b"".join(lines[:-1]) + bad)
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.anomalies
        assert recovered.replayed == 4

    def test_interior_corruption_is_fatal(self, tmp_path):
        """Corruption BEFORE the tail means acknowledged history is gone;
        recovery must refuse rather than silently drop records."""
        _, segment = self.write_journal(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000" + lines[1][8:]
        segment.write_bytes(b"".join(lines))
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "wal", sync="os").recover()

    def test_recovered_journal_accepts_appends_after_truncation(
        self, tmp_path
    ):
        db, segment = self.write_journal(tmp_path)
        with segment.open("ab") as handle:
            handle.write(b"fffff")
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.recover()
        lsn = wal.append("insert", insert_sql(999))
        assert lsn == 6
        wal.close()
        again = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert again.replayed == 6
        assert not again.anomalies


# ----------------------------------------------------------------------
class TestCheckpointCompaction:
    def test_checkpoint_compacts_and_recovers(self, tmp_path):
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os", checkpoint_every=5)
        wal.begin(db)
        for i in range(7):
            db.run_sql(insert_sql(200 + i))
            wal.append("insert", insert_sql(200 + i), token=f"t{i}",
                       status="1 row")
        assert wal.should_checkpoint()
        lsn = wal.checkpoint(db, tokens={f"t{i}": "1 row" for i in range(7)})
        assert lsn == 7 and wal.checkpoint_lsn == 7
        assert not wal.should_checkpoint()
        # post-checkpoint tail
        db.run_sql(insert_sql(300))
        wal.append("insert", insert_sql(300), token="t7", status="1 row")
        wal.close()

        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.checkpoint_lsn == 7
        assert recovered.replayed == 1  # only the tail past the checkpoint
        assert_same_database(recovered.database, db)
        # tokens merge: checkpointed window plus the tail's record tokens
        assert set(recovered.tokens) == {f"t{i}" for i in range(8)}

    def test_checkpoint_drops_stale_segments_and_checkpoints(self, tmp_path):
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os", checkpoint_every=3)
        wal.begin(db)
        for round_n in range(3):
            for i in range(3):
                aid = 400 + round_n * 10 + i
                db.run_sql(insert_sql(aid))
                wal.append("insert", insert_sql(aid))
            wal.checkpoint(db)
        wal.close()
        directory = tmp_path / "wal"
        checkpoints = sorted(directory.glob("checkpoint-*"))
        segments = sorted(directory.glob("journal-*.jsonl"))
        assert len(checkpoints) == 1  # older snapshots compacted away
        assert len(segments) == 1  # one live segment past the checkpoint
        recovered = WriteAheadLog(directory, sync="os").recover()
        assert recovered.checkpoint_lsn == 9
        assert_same_database(recovered.database, db)

    def checkpoint_events(self, tmp_path, monkeypatch, sync):
        """One checkpoint with ``os.open`` / ``os.fsync`` / ``os.replace``
        spied: ("replace", name), ("fsync", None) for a file,
        ("fsync-dir", the journal segments then listed) for the journal
        directory, ("cleanup", None) when the superseded files go."""
        db = empty_db()
        directory = tmp_path / "wal"
        wal = WriteAheadLog(directory, sync=sync)
        wal.begin(db)
        db.run_sql(insert_sql(1))
        wal.append("insert", insert_sql(1))
        events: list[tuple] = []
        open_dirs: dict[int, Path] = {}
        real = {name: getattr(os, name) for name in ("open", "close", "fsync", "replace")}

        def spy_open(path, *args, **kwargs):
            fd = real["open"](path, *args, **kwargs)
            open_dirs[fd] = Path(path)
            return fd

        def spy_close(fd):
            open_dirs.pop(fd, None)
            real["close"](fd)

        def spy_fsync(fd):
            if open_dirs.get(fd) == directory:
                segments = sorted(p.name for p in directory.glob("journal-*"))
                events.append(("fsync-dir", segments))
            else:
                events.append(("fsync", None))
            real["fsync"](fd)

        def spy_replace(source, target):
            real["replace"](source, target)
            events.append(("replace", Path(target).name))

        cleanup = wal._cleanup
        for name, spy in [("open", spy_open), ("close", spy_close),
                          ("fsync", spy_fsync), ("replace", spy_replace)]:
            monkeypatch.setattr(os, name, spy)
        monkeypatch.setattr(
            wal, "_cleanup",
            lambda lsn: (events.append(("cleanup", None)), cleanup(lsn)),
        )
        wal.checkpoint(db)
        monkeypatch.undo()
        segment = wal._segment.name
        wal.close()
        return db, events, segment

    def test_fsync_mode_makes_the_journal_directory_durable(
        self, tmp_path, monkeypatch
    ):
        """``--sync fsync`` survives OS crashes: the ``wal.meta`` rename
        and the new segment's directory entry are on disk before the
        checkpoint deletes the snapshot and segments they supersede."""
        _, events, segment = self.checkpoint_events(tmp_path, monkeypatch, "fsync")
        committed = events.index(("replace", "wal.meta.json"))
        cleaned = events.index(("cleanup", None))
        synced = [
            listing for kind, listing in events[committed:cleaned]
            if kind == "fsync-dir"
        ]
        assert len(synced) == 2
        assert segment not in synced[0]  # after the rename …
        assert segment in synced[1]  # … and after the new segment opens

    def test_os_mode_adds_no_fsync(self, tmp_path, monkeypatch):
        """``--sync os`` (the ledger's mode) pays for the snapshot's own
        fsyncs and nothing else: per file the checkpoint writes — every
        table's, reused lines or not, and the manifest — the file's and
        its directory's (``framing.write_atomic``), as a plain save
        does; no fsync of the journal directory."""
        db, events, _ = self.checkpoint_events(tmp_path, monkeypatch, "os")
        kinds = [kind for kind, _ in events]
        assert "fsync-dir" not in kinds
        (snapshot,) = (tmp_path / "wal").glob("checkpoint-*")
        assert kinds.count("fsync") == 2 * len(list(snapshot.iterdir()))
        calls: list[int] = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), fsync(fd)))
        save_database(db, tmp_path / "plain")
        assert kinds.count("fsync") == len(calls)

    def test_checkpoint_at_an_unchanged_lsn_keeps_the_committed_snapshot(
        self, tmp_path
    ):
        """With no record journaled since the last checkpoint,
        ``checkpoint-<lsn>/`` *is* the committed snapshot: a checkpoint
        there writes nothing, so a fault cannot leave the journal
        pointing at a removed or half-written directory (at the parent
        the directory was removed first and recovery failed with "does
        not contain a saved database")."""
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        with INJECTOR.injected("persist.write", times=1):
            assert wal.checkpoint(db) == 0
        assert wal.checkpoints == 0
        db.run_sql(insert_sql(1))
        wal.append("insert", insert_sql(1))
        assert wal.checkpoint(db) == 1
        with INJECTOR.injected("persist.write", times=1):
            assert wal.checkpoint(db) == 1
        wal.close()
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.checkpoint_lsn == 1 and not recovered.anomalies
        assert_same_database(recovered.database, db)

    def test_rebase_at_the_committed_lsn_writes_beside_it(self, tmp_path):
        """A standby re-bootstrapping at the LSN it already holds: the
        committed snapshot survives a failed rebase, and a successful
        one commits a directory beside it, then drops it."""
        db = empty_db()
        directory = tmp_path / "wal"
        wal = WriteAheadLog(directory, sync="os")
        wal.begin(db)
        db.run_sql(insert_sql(1))
        wal.append("insert", insert_sql(1))
        wal.checkpoint(db)
        other = empty_db()
        other.run_sql(insert_sql(2))
        with INJECTOR.injected("persist.write", times=1):
            with pytest.raises(InjectedFault):
                wal.rebase(other, base_lsn=1)
        survivor = WriteAheadLog(directory, sync="os").recover()
        assert_same_database(survivor.database, db)
        assert any("uncommitted" in a for a in survivor.anomalies)

        wal.rebase(other, base_lsn=1)
        wal.rebase(other, base_lsn=1)  # and back to the plain name
        assert [p.name for p in directory.glob("checkpoint-*")] == [
            "checkpoint-000000000001"
        ]
        wal.close()
        recovered = WriteAheadLog(directory, sync="os").recover()
        assert recovered.checkpoint_lsn == 1 and not recovered.anomalies
        assert_same_database(recovered.database, other)

    def test_orphan_checkpoint_swept_on_recovery(self, tmp_path):
        """A checkpoint directory with no committing meta rename (a crash
        mid-checkpoint) is swept and reported, never loaded."""
        db = empty_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        wal.append("insert", insert_sql(1))
        wal.close()
        orphan = tmp_path / "wal" / "checkpoint-000000009999"
        orphan.mkdir()
        (orphan / "junk.json").write_text("{}")
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert any("uncommitted checkpoint" in a for a in recovered.anomalies)
        assert not orphan.exists()
        assert recovered.checkpoint_lsn == 0 and recovered.replayed == 1


# ----------------------------------------------------------------------
class TestFaultPoints:
    def test_wal_append_fault_leaves_journal_usable(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        with INJECTOR.injected("wal.append", times=1):
            with pytest.raises(InjectedFault):
                wal.append("insert", insert_sql(1))
        # the fault fired before an LSN was assigned: no gap, no damage
        assert wal.append("insert", insert_sql(2)) == 1
        wal.close()
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.replayed == 1

    def test_wal_fsync_fault_fails_commit_and_truncates(self, tmp_path):
        """A failed flush surfaces as WalError, the failed record never
        reaches disk or the replication ring, and later appends (with an
        LSN gap) recover cleanly."""
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        wal.append("insert", insert_sql(1))
        with INJECTOR.injected("wal.fsync", times=1):
            with pytest.raises(WalError, match="journal write failed"):
                wal.append("insert", insert_sql(2))
        assert wal.append("insert", insert_sql(3)) == 3
        assert [r.lsn for r in wal.records_after(0)] == [1, 3]
        wal.close()
        recovered = WriteAheadLog(tmp_path / "wal", sync="os").recover()
        assert recovered.replayed == 2  # lsn 2 was never durable

    def test_fsync_fault_fails_whole_group(self, tmp_path):
        """Group commit shares one flush, so one injected fsync failure
        fails every record in that batch — none is acknowledged."""
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(empty_db())
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def worker(i: int):
            barrier.wait()
            try:
                wal.append("insert", insert_sql(i))
            except WalError as error:
                errors.append(error)

        with INJECTOR.injected("wal.fsync", every=1):
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(errors) == 4
        assert wal.records_after(0) == []
        assert wal.append("insert", insert_sql(99)) == 5

    def test_arm_from_env_round_trip(self):
        try:
            armed = arm_from_env("wal.fsync:every=5,wal.append:times=2")
            assert armed == ["wal.fsync", "wal.append"]
            assert INJECTOR.spec("wal.fsync").every == 5
            assert INJECTOR.spec("wal.append").remaining == 2
        finally:
            INJECTOR.disarm()

    def test_arm_from_env_rejects_typos(self):
        with pytest.raises(ValueError):
            arm_from_env("wal.fsync:evrey=5")
        with pytest.raises(ValueError):
            arm_from_env("wal.fsink:every=5")
        INJECTOR.disarm()
