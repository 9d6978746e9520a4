"""Regression tests for replication-correctness fixes.

Each test pins one way a standby could silently diverge from (or a
client silently change semantics against) its primary:

* the bootstrap snapshot reporting an LSN below the state it captured
  (staged-but-not-yet-fsynced mutations would be re-shipped and
  double-applied);
* the bootstrap snapshot taken while the background refresh worker is
  half-way through a summary (refreshed rows *and* the delta batch that
  produced them would reach the standby, which applies the batch again);
* the journal serving a gapped backlog after checkpoint compaction
  (skipped mutations the tailer's overlap filter cannot detect) — the
  stream must refuse and the standby must re-bootstrap from a fresh
  snapshot;
* an unjournaled server forgetting idempotency tokens (a retry after a
  lost ACK would double-apply);
* a reconnecting client silently dropping session SETs whose replay
  failed.
"""

from __future__ import annotations

import datetime
import threading
import time

import pytest

import repro.asts.maintenance as maintenance_mod
from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.persist import database_from_payload
from repro.engine.table import tables_equal
from repro.errors import WalGapError
from repro.replication import StandbyServer, WriteAheadLog, wait_for_catchup
from repro.server.client import ConnectionLost, ReproClient
from repro.server.server import QueryServer


def insert_sql(aid: int) -> str:
    return f"INSERT INTO Acct VALUES ({aid}, 1, 'open')"


def make_primary(tmp_path, checkpoint_every: int = 512) -> QueryServer:
    db = Database(credit_card_catalog())
    wal = WriteAheadLog(
        tmp_path / "wal-primary", sync="os", checkpoint_every=checkpoint_every
    )
    wal.begin(db)
    server = QueryServer(db, port=0, wal=wal)
    server.start_in_thread()
    return server


def make_standby(tmp_path, address) -> StandbyServer:
    return StandbyServer(
        address,
        wal_dir=str(tmp_path / "wal-standby"),
        sync="os",
        reconnect_backoff=0.05,
        reconnect_cap=0.5,
    )


def stop_server(server: QueryServer) -> None:
    server.stop()
    if server.wal is not None:
        server.wal.close()


# ----------------------------------------------------------------------
class TestSnapshotLsn:
    def test_snapshot_drains_staged_records(self, tmp_path):
        """A mutation applied+staged but whose group-commit fsync has
        not finished is part of the snapshot state — so the snapshot
        LSN must cover it, or the stream re-ships the record and the
        standby double-applies."""
        db = Database(credit_card_catalog())
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        server = QueryServer(db, wal=wal)
        sql = insert_sql(1)
        db.run_sql(sql)
        staged = wal.stage("insert", sql)  # fsync still in flight
        assert wal.durable_lsn < staged
        response = server._snapshot_response()
        # the drain made the staged record durable under the lock, and
        # the reported LSN covers it
        assert wal.durable_lsn == staged
        assert response["lsn"] == staged
        rebuilt = database_from_payload(response["state"])
        assert sorted(rebuilt.table("Acct").rows) == sorted(
            db.table("Acct").rows
        )
        wal.close()


    def test_snapshot_waits_out_a_refresh_in_progress(
        self, tiny_db, monkeypatch
    ):
        """The refresh worker is parked after merging a staged batch
        into the summary and before marking it consumed. The mutation
        lock does not park that worker, so a snapshot taken then must
        not see the half-done refresh: a standby built from it drains to
        summaries equal to their base-table recompute."""
        sql = "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
        tiny_db.create_summary_table("S", sql, refresh_mode="deferred")
        server = QueryServer(tiny_db)
        original = maintenance_mod.apply_pending
        parked, release = threading.Event(), threading.Event()

        def apply_then_park(*args):
            reason = original(*args)
            parked.set()
            assert release.wait(timeout=60)
            return reason

        monkeypatch.setattr(maintenance_mod, "apply_pending", apply_then_park)
        tiny_db.insert_rows(
            "Trans", [(301, 1, 1, 10, datetime.date(1994, 3, 3), 7, 9.0, 0.0)]
        )
        assert parked.wait(timeout=60)
        responses = []
        snapshot = threading.Thread(
            target=lambda: responses.append(server._snapshot_response())
        )
        snapshot.start()
        snapshot.join(timeout=0.3)
        release.set()
        snapshot.join(timeout=60)
        assert not snapshot.is_alive()
        tiny_db.drain_refresh()
        standby = database_from_payload(responses[0]["state"])
        standby.drain_refresh()
        for db in (tiny_db, standby):
            assert db.summary_tables["s"].refresh.pending_deltas == 0
            assert tables_equal(
                db.summary_tables["s"].table,
                db.execute(sql, use_summary_tables=False),
            )
            db.close()


# ----------------------------------------------------------------------
class TestBacklogGap:
    def test_records_after_refuses_gapped_backlog(self, tmp_path):
        db = Database(credit_card_catalog())
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        for i in range(6):
            sql = insert_sql(i)
            db.run_sql(sql)
            wal.append("insert", sql)
        wal.checkpoint(db)
        assert wal.checkpoint_lsn == 6
        # the live ring still reaches back past the checkpoint
        assert wal.covers(0)
        assert [r.lsn for r in wal.records_after(0)] == [1, 2, 3, 4, 5, 6]
        wal.close()
        # after a restart the ring is empty and the pre-checkpoint
        # segments are deleted: position 0 cannot be served gap-free
        reopened = WriteAheadLog(tmp_path / "wal", sync="os")
        reopened.recover()
        assert not reopened.covers(0)
        with pytest.raises(WalGapError, match="bootstrap"):
            reopened.records_after(0)
        assert reopened.covers(reopened.checkpoint_lsn)
        assert reopened.records_after(reopened.checkpoint_lsn) == []
        reopened.close()

    def test_standby_rebootstraps_after_backlog_gap(self, tmp_path):
        """A standby reconnecting below the primary's checkpoint (long
        outage + compaction, ring too short to bridge) must not consume
        a gapped stream: the primary refuses with WalGapError and the
        standby falls back to a fresh snapshot bootstrap, re-anchoring
        its local journal at the snapshot LSN."""
        primary = make_primary(tmp_path, checkpoint_every=8)
        primary.wal._recent_cap = 4  # force the ring not to bridge
        host, port = primary.address
        standby = make_standby(tmp_path, (host, port))
        try:
            with ReproClient(host, port) as client:
                client.query(insert_sql(700))
            standby.start()
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            stalled_lsn = standby.applied_lsn
            standby.stop()
            # while the standby is down: enough writes to checkpoint
            # past its position and age it out of the ring
            with ReproClient(host, port) as client:
                for i in range(12):
                    client.query(insert_sql(701 + i))
            assert primary.wal.checkpoint_lsn > stalled_lsn
            assert not primary.wal.covers(stalled_lsn)
            standby = make_standby(tmp_path, (host, port))
            standby.start()
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            assert tables_equal(
                primary.db.table("Acct"), standby.server.db.table("Acct")
            )
            # the stream resumed after the re-bootstrap: new primary
            # writes keep flowing
            with ReproClient(host, port) as client:
                client.query(insert_sql(750))
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            assert tables_equal(
                primary.db.table("Acct"), standby.server.db.table("Acct")
            )
            # and the rebased local journal recovers cleanly on the
            # next restart (no pre-gap tail left to replay wrongly)
            standby.stop()
            standby = make_standby(tmp_path, (host, port))
            standby.start()
            assert standby.recovery is not None
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            assert tables_equal(
                primary.db.table("Acct"), standby.server.db.table("Acct")
            )
        finally:
            standby.stop()
            stop_server(primary)


# ----------------------------------------------------------------------
class TestUnjournaledDedup:
    def test_unjournaled_server_dedups_tokens(self):
        """Idempotency tokens protect retries even without a journal: a
        second attempt with the same token replays the recorded status
        instead of applying twice."""
        db = Database(credit_card_catalog())
        server = QueryServer(db, port=0)
        server.start_in_thread()
        try:
            with ReproClient(*server.address) as client:
                first = client.query(insert_sql(42), token="tok-1")
                assert not first.deduped
                second = client.query(insert_sql(42), token="tok-1")
                assert second.deduped
                assert second.status == first.status
            rows = [r for r in db.table("Acct").rows if r[0] == 42]
            assert len(rows) == 1
        finally:
            server.stop()


# ----------------------------------------------------------------------
class TestPromoteStopsTailer:
    def test_promote_closes_the_stream_and_joins_the_tailer(self, tmp_path):
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = make_standby(tmp_path, (host, port))
        try:
            with ReproClient(host, port) as client:
                client.query(insert_sql(800))
            standby.start()
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            started = time.monotonic()
            promoted = standby.promote()
            # closing the stream socket unblocks a readline parked in
            # its socket timeout; the join must not eat that timeout
            assert time.monotonic() - started < 5.0
            assert standby._tailer is None
            assert promoted["role"] == "primary"
            with ReproClient(*standby.address) as client:
                client.query(insert_sql(801))
            rows = [
                r for r in standby.server.db.table("Acct").rows
                if r[0] == 801
            ]
            assert len(rows) == 1
        finally:
            standby.stop()
            stop_server(primary)


# ----------------------------------------------------------------------
class TestSetReplay:
    def test_failed_set_replay_fails_the_connection(self, tmp_path):
        """A reconnect whose session-SET replay is rejected must not
        hand back a connection silently missing knobs — with no other
        address to rotate to, the request fails."""
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            client = ReproClient(host, port)
            client.set("SET QUERY MAXROWS 10")
            # simulate a knob the next server refuses to accept
            client._session_sets.append("THIS IS NOT A SET")
            client._disconnect()
            with pytest.raises(ConnectionLost):
                client.request("ping")
            client.close()
        finally:
            stop_server(primary)
