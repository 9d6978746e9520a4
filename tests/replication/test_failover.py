"""Client failover, idempotency-token dedup, standby replication, and
promotion under load.

The exactly-once story under test: a retried mutation whose ACK was
lost (injected at ``client.send``) never double-applies — on the same
primary (dedup window), across a primary restart (tokens ride the
journal), and across a promotion (tokens ship with the records)."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.table import tables_equal
from repro.errors import (
    BudgetExhausted,
    ReadOnlyError,
    ReplicaLagExceeded,
    ReproError,
)
from repro.replication import StandbyServer, WriteAheadLog, wait_for_catchup
from repro.server.client import ConnectionLost, ReproClient
from repro.server.server import QueryServer
from repro.testing import INJECTOR


def make_primary(tmp_path, name="wal-primary", **kwargs):
    db = Database(credit_card_catalog())
    wal = WriteAheadLog(tmp_path / name, sync="os")
    wal.begin(db)
    server = QueryServer(db, port=0, wal=wal, **kwargs)
    server.start_in_thread()
    return server


def stop_server(server: QueryServer) -> None:
    server.stop()
    if server.wal is not None:
        server.wal.close()


def insert_sql(aid: int) -> str:
    return f"INSERT INTO Acct VALUES ({aid}, 1, 'open')"


def acct_rows(db: Database):
    return sorted(db.table("Acct").rows)


# ----------------------------------------------------------------------
# satellite (a): a timed-out reply must never leave a half-read socket
class TestTimeoutHygiene:
    @staticmethod
    def stalling_server(stop: threading.Event):
        """A fake server whose FIRST connection replies with a partial
        line and stalls; later connections answer properly."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        counter = {"n": 0}

        def handle(conn, n):
            try:
                reader = conn.makefile("rb")
                line = reader.readline()
                while line:
                    if n == 1:
                        conn.sendall(b'{"ok": tru')  # cut mid-reply
                        stop.wait(10)
                        return
                    conn.sendall(b'{"ok": true, "status": "pong"}\n')
                    line = reader.readline()
            except OSError:
                pass
            finally:
                conn.close()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                counter["n"] += 1
                threading.Thread(
                    target=handle, args=(conn, counter["n"]), daemon=True
                ).start()

        threading.Thread(target=serve, daemon=True).start()
        return listener, listener.getsockname()

    def test_timeout_discards_the_connection(self):
        """Without retries the caller sees ConnectionLost — and the next
        request runs on a FRESH socket instead of reading the stalled
        reply's leftover bytes (the pre-fix desync)."""
        stop = threading.Event()
        listener, (host, port) = self.stalling_server(stop)
        try:
            client = ReproClient(host, port, timeout=0.4)
            with pytest.raises(ConnectionLost, match="timed out"):
                client.request("ping")
            reply = client.request("ping")  # transparently reconnects
            assert reply["status"] == "pong"
            assert client.reconnects == 1
            client.close()
        finally:
            stop.set()
            listener.close()

    def test_timeout_retries_on_a_fresh_connection(self):
        stop = threading.Event()
        listener, (host, port) = self.stalling_server(stop)
        try:
            client = ReproClient(host, port, timeout=0.4, retries=2, seed=1)
            reply = client.request("ping")
            assert reply["status"] == "pong"
            assert client.retried == 1 and client.reconnects == 1
            client.close()
        finally:
            stop.set()
            listener.close()


# ----------------------------------------------------------------------
class TestIdempotency:
    def test_lost_ack_never_double_applies(self, tmp_path):
        """The canonical retry hazard: the INSERT is applied, the ACK is
        lost in flight, the client retries the same token — the dedup
        window answers, the row exists once."""
        server = make_primary(tmp_path)
        host, port = server.address
        try:
            client = ReproClient(host, port, retries=3, seed=7)
            with INJECTOR.injected("client.send", times=1):
                reply = client.query(insert_sql(999001))
            assert reply.deduped, "the retry should hit the dedup window"
            table = client.query(
                "SELECT aid FROM Acct WHERE aid = 999001"
            ).table
            assert len(table.rows) == 1
            assert server.deduped.value >= 1
            client.close()
        finally:
            stop_server(server)

    def test_concurrent_same_token_applies_once(self, tmp_path):
        """A retry racing the ORIGINAL request (client gave up early)
        parks on the in-flight claim instead of double-applying."""
        server = make_primary(tmp_path)
        host, port = server.address
        replies = []

        def fire():
            with ReproClient(host, port) as racer:
                replies.append(racer.query(insert_sql(999002),
                                           token="race-1").raw)

        try:
            racers = [threading.Thread(target=fire) for _ in range(4)]
            for t in racers:
                t.start()
            for t in racers:
                t.join()
            assert sum(1 for r in replies if r.get("deduped")) == 3
            with ReproClient(host, port) as client:
                table = client.query(
                    "SELECT aid FROM Acct WHERE aid = 999002"
                ).table
                assert len(table.rows) == 1
        finally:
            stop_server(server)

    def test_failed_mutation_token_is_retryable(self, tmp_path):
        """A journal failure rolls the apply back and must NOT poison
        the token: the client's retry (same token) applies for real."""
        server = make_primary(tmp_path)
        host, port = server.address
        try:
            with ReproClient(host, port) as client:
                with INJECTOR.injected("wal.fsync", times=1):
                    with pytest.raises(ReproError):
                        client.query(insert_sql(999003), token="t-fail")
                reply = client.query(insert_sql(999003), token="t-fail")
                assert not reply.deduped
                table = client.query(
                    "SELECT aid FROM Acct WHERE aid = 999003"
                ).table
                assert len(table.rows) == 1
        finally:
            stop_server(server)


# ----------------------------------------------------------------------
class TestStandby:
    def test_bootstrap_catchup_and_lag_gated_reads(self, tmp_path):
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"), sync="os",
            reconnect_backoff=0.05, reconnect_cap=0.5,
        )
        try:
            with ReproClient(host, port) as client:
                for i in range(5):
                    client.query(insert_sql(500 + i))
            sb_host, sb_port = standby.start()
            with ReproClient(host, port) as client:
                client.query(insert_sql(505))  # lands after the snapshot
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            assert tables_equal(
                primary.db.table("Acct"), standby.server.db.table("Acct")
            )
            with ReproClient(sb_host, sb_port) as reader:
                # caught up: lag 0 satisfies the default REFRESH AGE 0
                table = reader.query(
                    "SELECT aid FROM Acct WHERE aid >= 500"
                ).table
                assert len(table.rows) == 6
                status = reader.status()["replication"]
                assert status["role"] == "standby"
                assert status["lag"] == 0
                with pytest.raises(ReadOnlyError, match="read-only standby"):
                    reader.query(insert_sql(999))
        finally:
            standby.stop()
            stop_server(primary)

    def test_replica_lag_gate_honors_refresh_age(self, tiny_db):
        """A standby that knows it is N records behind refuses reads
        whose session tolerance is tighter than N — SET REFRESH AGE is
        the single staleness dial for summaries AND replicas."""
        server = QueryServer(tiny_db, port=0, read_only=True,
                             primary="127.0.0.1:1")
        host, port = server.start_in_thread()
        server.note_primary_durable(server.applied_lsn + 3)
        try:
            with ReproClient(host, port) as client:
                with pytest.raises(ReplicaLagExceeded, match="3 record"):
                    client.query("SELECT aid FROM Acct")
                client.set("SET REFRESH AGE 3")
                assert len(client.query("SELECT aid FROM Acct").table.rows)
                client.set("SET REFRESH AGE ANY")
                assert len(client.query("SELECT aid FROM Acct").table.rows)
        finally:
            server.stop()

    def test_standby_restart_resumes_from_local_journal(self, tmp_path):
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"), sync="os",
            reconnect_backoff=0.05, reconnect_cap=0.5,
        )
        try:
            with ReproClient(host, port) as client:
                client.query(insert_sql(600))
            standby.start()
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            standby.stop()
            with ReproClient(host, port) as client:
                client.query(insert_sql(601))  # while the standby is down
            standby = StandbyServer(
                (host, port), wal_dir=str(tmp_path / "wal-standby"),
                sync="os", reconnect_backoff=0.05, reconnect_cap=0.5,
            )
            standby.start()
            assert standby.recovery is not None, "restart must recover"
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)
            assert tables_equal(
                primary.db.table("Acct"), standby.server.db.table("Acct")
            )
        finally:
            standby.stop()
            stop_server(primary)


# ----------------------------------------------------------------------
class TestFailover:
    def test_mutation_redirects_to_primary(self, tmp_path):
        """A client pointed at the standby rotates on the ReadOnlyError
        redirect hint and lands the write on the primary."""
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"), sync="os",
            reconnect_backoff=0.05, reconnect_cap=0.5,
        )
        try:
            sb_addr = standby.start()
            client = ReproClient(*sb_addr, failover=((host, port),),
                                 retries=2, seed=3)
            reply = client.query(insert_sql(700))
            assert reply.raw.get("lsn") == 1
            assert client.address == (host, port)
            client.close()
            wait_for_catchup(standby, 1, timeout=15)
            assert (700, 1, "open") in standby.server.db.table("Acct").rows
        finally:
            standby.stop()
            stop_server(primary)

    def test_session_sets_replayed_across_failover(self, tmp_path):
        """Session knobs survive a failover: the client replays its SETs
        on the fresh connection, so MAXROWS still bites on server B."""
        a = make_primary(tmp_path, name="wal-a")
        b = make_primary(tmp_path, name="wal-b")
        for server in (a, b):
            with ReproClient(*server.address) as seeder:
                seeder.query(insert_sql(800))
                seeder.query(insert_sql(801))
        client = ReproClient(*a.address, failover=(b.address,),
                             retries=3, seed=5)
        try:
            client.set("SET QUERY MAXROWS 1")
            with pytest.raises(BudgetExhausted):
                client.query("SELECT aid FROM Acct")
            stop_server(a)
            with pytest.raises(BudgetExhausted):
                client.query("SELECT aid FROM Acct")  # failed over to B
            assert client.address == b.address
            table = client.query(
                "SELECT aid FROM Acct WHERE aid = 800"
            ).table
            assert len(table.rows) == 1
        finally:
            client.close()
            stop_server(b)
            if a.wal is not None:
                a.wal.close()

    def test_promote_under_load_exactly_once(self, tmp_path):
        """Writers hammer the primary through failover clients; the
        primary dies mid-storm and the standby is promoted. Every write
        eventually succeeds, and every acknowledged write is applied
        exactly once on the promoted server — the journal's tokens and
        the semi-sync ship made the handoff lossless."""
        primary = make_primary(tmp_path, repl_ack=1,
                               repl_ack_timeout_ms=10_000.0)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"), sync="os",
            reconnect_backoff=0.05, reconnect_cap=0.3,
        )
        try:
            sb_addr = standby.start()
            acked: list[int] = []
            lock = threading.Lock()
            enough = threading.Event()
            failures: list[Exception] = []
            threads_n, each = 4, 15

            def writer(tid: int):
                client = ReproClient(
                    host, port, failover=(sb_addr,), retries=10,
                    backoff=0.05, backoff_cap=0.5, seed=tid, timeout=15,
                )
                for i in range(each):
                    aid = 900_000 + tid * 1000 + i
                    try:
                        client.query(insert_sql(aid))
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)
                        break
                    with lock:
                        acked.append(aid)
                        if len(acked) >= 12:
                            enough.set()
                client.close()

            writers = [
                threading.Thread(target=writer, args=(t,))
                for t in range(threads_n)
            ]
            for w in writers:
                w.start()
            assert enough.wait(timeout=30)
            stop_server(primary)  # the primary dies mid-storm
            standby.promote()
            for w in writers:
                w.join(timeout=60)
            assert not failures, failures[:3]
            assert len(acked) == threads_n * each

            promoted = standby.server
            assert not promoted.read_only
            rows = [r[0] for r in promoted.db.table("Acct").rows]
            for aid in acked:
                assert rows.count(aid) == 1, f"aid {aid} x{rows.count(aid)}"
            assert len(rows) == len(acked)
            # the promoted server keeps journaling: it can itself crash
            # and recover every row it acknowledged
            with ReproClient(*sb_addr) as client:
                status = client.status()["replication"]
                assert status["role"] == "primary"
        finally:
            standby.stop()
            if standby.server is not None and standby.server.wal is not None:
                standby.server.wal.close()

    def test_unreachable_cluster_raises_connection_lost(self):
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))  # bound but never listening
        host, port = dead.getsockname()
        try:
            with pytest.raises(ConnectionLost, match="cannot reach"):
                ReproClient(host, port, timeout=0.5, retries=1)
        finally:
            dead.close()
