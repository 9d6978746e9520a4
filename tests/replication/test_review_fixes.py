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
  failed;
* any client forging a standby's semi-sync ack;
* a standby ignoring the serve flags its primary honours (cache bounds,
  pool size, admission control), also after a re-bootstrap.
"""

from __future__ import annotations

import datetime
import json
import signal
import socket
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


# ----------------------------------------------------------------------
class TestForgedAck:
    def test_a_client_cannot_ack_for_a_standby(self, tmp_path):
        """Acks count only on a ``repl.stream`` connection: a client's
        ``repl.ack`` request is an unknown op, and a write on a
        semi-sync primary with no standby times out with 0 acks."""
        db = Database(credit_card_catalog())
        wal = WriteAheadLog(tmp_path / "wal-primary", sync="os")
        wal.begin(db)
        server = QueryServer(db, wal=wal, repl_ack=1, repl_ack_timeout_ms=200.0)
        server.start_in_thread()
        try:
            with socket.create_connection(server.address) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"op": "repl.ack", "lsn": 1000000000}\n')
                stream.flush()
                forged = json.loads(stream.readline())
            assert not forged["ok"]
            assert "unknown op" in forged["error"]["message"]
            with ReproClient(*server.address) as client:
                started = time.monotonic()
                reply = client.query(insert_sql(900))
            assert time.monotonic() - started >= 0.2
            assert reply.raw["repl_acks"] == 0
        finally:
            stop_server(server)


# ----------------------------------------------------------------------
class TestStandbyServeFlags:
    @staticmethod
    def limits(server: QueryServer) -> tuple:
        admission = server.db.governor.admission
        return (
            server.cache.max_entries, server.cache.max_bytes,
            server._pool._max_workers, admission.max_concurrent,
            admission.max_queue, admission.queue_timeout_ms,
        )

    def test_standby_forwards_query_server_options(self, tmp_path):
        primary = make_primary(tmp_path)
        standby = StandbyServer(
            primary.address, cache_size=7, cache_max_bytes=4096, max_workers=3
        )
        try:
            standby.start()
            assert self.limits(standby.server)[:3] == (7, 4096, 3)
        finally:
            standby.stop()
            stop_server(primary)

    def test_serve_standby_honours_cache_and_admission_flags(
        self, tmp_path, monkeypatch
    ):
        from repro import cli
        from repro.replication import standby as standby_module

        handlers = {}
        monkeypatch.setattr(signal, "signal", handlers.__setitem__)
        started = []
        start = standby_module.StandbyServer.start

        def start_then_shut_down(self):
            address = start(self)
            started.append(self)
            handlers[signal.SIGTERM](signal.SIGTERM, None)
            return address

        monkeypatch.setattr(
            standby_module.StandbyServer, "start", start_then_shut_down
        )
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            assert cli.serve_main([
                "--standby-of", f"{host}:{port}", "--port", "0",
                "--cache-size", "7", "--cache-bytes", "4096",
                "--workers", "3", "--max-concurrent", "2", "--queue", "5",
                "--queue-timeout-ms", "50",
            ]) == 0
        finally:
            stop_server(primary)
        [standby] = started
        assert self.limits(standby.server) == (7, 4096, 3, 2, 5, 50.0)

    def test_rebootstrap_keeps_admission_limits(self):
        server = QueryServer(Database(credit_card_catalog()))
        try:
            server.db.governor.admission.configure(
                2, max_queue=5, queue_timeout_ms=50.0
            )
            fresh = Database(credit_card_catalog())
            server.reset_database(fresh, lsn=0)
            assert server.db is fresh
            assert self.limits(server)[3:] == (2, 5, 50.0)
        finally:
            server.stop()
