"""End-to-end server tests: differential bit-identity, session
isolation, concurrency, and typed governor errors over the wire."""

from __future__ import annotations

import threading

import pytest

from repro.engine.database import Database
from repro.errors import (
    BudgetExhausted,
    QueryRejected,
    QueryTimeout,
    SqlSyntaxError,
)
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.workloads import tpcd, webmetrics
from tests.conftest import fresh_small_db


@pytest.fixture
def served():
    """Factory fixture: serve any database, auto-stop at teardown."""
    servers = []

    def serve(db: Database, **kwargs) -> QueryServer:
        server = QueryServer(db, **kwargs)
        server.start_in_thread()
        servers.append(server)
        return server

    yield serve
    for server in servers:
        server.stop()


@pytest.fixture
def hold_refresh():
    """``hold_refresh(db)`` holds ``db``'s deferred refresh worker before
    it applies anything until the returned event is set (at teardown at
    the latest): a deferred summary stays stale meanwhile, however late
    the next request arrives."""
    gates = []

    def hold(db: Database) -> threading.Event:
        scheduler, gate = db._scheduler, threading.Event()
        refresh = scheduler._refresh_one

        def held(name):
            gate.wait(60)
            refresh(name)

        scheduler._refresh_one = held
        gates.append(gate)
        return gate

    yield hold
    for gate in gates:
        gate.set()


def connect(server: QueryServer) -> ReproClient:
    host, port = server.address
    return ReproClient(host, port)


def assert_identical(remote_table, direct_table):
    """Bit-identity: same columns, same rows, same order, same types."""
    assert list(remote_table.columns) == list(direct_table.columns)
    assert list(remote_table.rows) == list(direct_table.rows)
    for left, right in zip(remote_table.rows, direct_table.rows):
        for a, b in zip(left, right):
            assert type(a) is type(b)


# ----------------------------------------------------------------------
class TestDifferential:
    """Every workload query through the server — cold, warm, and
    stale-tolerant — bit-identical to direct in-process execution."""

    @pytest.mark.parametrize(
        "build,install,queries,ingest",
        [
            (
                lambda: tpcd.build_tpcd_db(orders=250),
                tpcd.install_asts,
                tpcd.QUERIES,
                (
                    "INSERT INTO Lineitem VALUES "
                    "(1, 99, 5, 1000.0, 0.05, 0.02, 'R', 'F', "
                    "DATE '1996-06-15')"
                ),
            ),
            (
                lambda: webmetrics.build_web_db(views=2500),
                webmetrics.install_web_asts,
                webmetrics.QUERIES,
                (
                    "INSERT INTO PageView VALUES "
                    "(999999, 1, 1, DATE '2000-06-15', 30, 1024.0)"
                ),
            ),
        ],
        ids=["tpcd", "webmetrics"],
    )
    def test_cold_warm_stale_bit_identical(
        self, served, build, install, queries, ingest
    ):
        db = build()
        install(db)
        server = served(db)
        with connect(server) as client:
            for sql in queries.values():
                direct = db.execute(sql)
                cold = client.query(sql)
                assert cold.cache == "miss"
                assert_identical(cold.table, direct)
                warm = client.query(sql)
                assert warm.cache == "hit"
                assert_identical(warm.table, direct)
            # Stale-tolerant pass: cache under REFRESH AGE ANY, ingest,
            # and re-read — served stale, labeled, and bit-identical to
            # the execution the cache captured.
            client.set("SET REFRESH AGE ANY")
            captured = {}
            for name, sql in queries.items():
                reply = client.query(sql)
                assert reply.cache == "miss"  # new key: tolerance ANY
                captured[name] = reply.table
            client.query(ingest)
            for name, sql in queries.items():
                stale = client.query(sql)
                assert stale.cache == "stale-hit"
                assert_identical(stale.table, captured[name])

    def test_insert_invalidates_exactly_dependents(self, served):
        db = fresh_small_db()
        server = served(db)
        trans_q = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
        loc_q = "SELECT country, COUNT(*) AS cnt FROM Loc GROUP BY country"
        with connect(server) as client:
            assert client.query(trans_q).cache == "miss"
            assert client.query(loc_q).cache == "miss"
            assert client.query(trans_q).cache == "hit"
            assert client.query(loc_q).cache == "hit"
            client.query(
                "INSERT INTO Trans VALUES "
                "(999991, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
            )
            # the Trans-dependent entry misses; the Loc entry stays warm
            after = client.query(trans_q)
            assert after.cache == "miss"
            assert_identical(after.table, db.execute(trans_q))
            assert client.query(loc_q).cache == "hit"

    def test_cache_disabled_is_bypass(self, served):
        db = fresh_small_db()
        server = served(db, cache_size=0)
        with connect(server) as client:
            sql = "SELECT COUNT(*) AS cnt FROM Trans"
            assert client.query(sql).cache == "bypass"
            assert client.query(sql).cache == "bypass"


# ----------------------------------------------------------------------
class TestSessionIsolation:
    def test_set_knobs_do_not_leak_across_connections(self, served):
        db = fresh_small_db()
        server = served(db)
        sql = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
        with connect(server) as a, connect(server) as b:
            a.set("SET QUERY MAXROWS 1")
            with pytest.raises(BudgetExhausted):
                a.query(sql)
            # b is untouched by a's limit...
            assert len(b.query(sql).table.rows) > 1
            # ...and the shared database's own governor never mutated
            assert db.governor.max_rows is None
            assert a.ping()["session"]["max_rows"] == 1
            assert b.ping()["session"]["max_rows"] == "inherit"

    def test_executor_parallel_knob_is_gone(self, served):
        server = served(fresh_small_db())
        with connect(server) as client:
            for send in (client.set, client.query):
                with pytest.raises(SqlSyntaxError):
                    send("SET EXECUTOR PARALLEL 2")
            assert set(client.ping()["session"]) == {
                "client_id", "refresh_age", "timeout_ms", "max_rows",
                "max_mem", "queries",
            }

    def test_refresh_age_splits_cache_keys_per_session(self, served):
        db = fresh_small_db()
        server = served(db)
        sql = "SELECT COUNT(*) AS cnt FROM Trans"
        with connect(server) as stale_ok, connect(server) as strict:
            stale_ok.set("SET REFRESH AGE ANY")
            before = stale_ok.query(sql)
            assert before.cache == "miss"
            assert strict.query(sql).cache == "miss"  # different key
            strict.query(
                "INSERT INTO Trans VALUES "
                "(999992, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
            )
            stale = stale_ok.query(sql)
            assert stale.cache == "stale-hit"
            assert_identical(stale.table, before.table)  # pre-insert data
            fresh = strict.query(sql)
            assert fresh.cache == "miss"
            assert fresh.table.rows[0][0] == before.table.rows[0][0] + 1

    def test_timeout_is_per_session(self, served):
        db = fresh_small_db()
        server = served(db)
        with connect(server) as impatient, connect(server) as patient:
            impatient.set("SET QUERY TIMEOUT 0.001")
            with pytest.raises(QueryTimeout):
                impatient.query(
                    "SELECT faid, flid, COUNT(*) AS cnt FROM Trans "
                    "GROUP BY faid, flid"
                )
            reply = patient.query(
                "SELECT faid, flid, COUNT(*) AS cnt FROM Trans "
                "GROUP BY faid, flid"
            )
            assert len(reply.table.rows) > 0

    def test_maxrows_checked_on_cache_hit(self, served):
        db = fresh_small_db()
        server = served(db)
        sql = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
        with connect(server) as client:
            assert client.query(sql).cache == "miss"  # cached, many rows
            client.set("SET QUERY MAXROWS 1")
            with pytest.raises(BudgetExhausted):
                client.query(sql)  # hit may not bypass the governor


# ----------------------------------------------------------------------
class TestGovernorOverTheWire:
    def test_admission_overflow_returns_typed_rejection(self, served):
        db = fresh_small_db()
        server = served(db)
        db.governor.admission.configure(1, max_queue=0, queue_timeout_ms=50)
        try:
            with connect(server) as client:
                # Hold the only slot in-process; the remote query must be
                # shed with a typed QueryRejected, not an opaque error.
                with db.governor.admission.admit():
                    with pytest.raises(QueryRejected):
                        client.query("SELECT COUNT(*) AS cnt FROM Trans")
                # slot released: the same query now succeeds
                assert client.query(
                    "SELECT COUNT(*) AS cnt FROM Trans"
                ).table.rows[0][0] > 0
        finally:
            db.governor.admission.configure(None)

    def test_metrics_and_governor_ops(self, served):
        db = fresh_small_db()
        server = served(db)
        with connect(server) as client:
            client.query("SELECT COUNT(*) AS cnt FROM Trans")
            client.query("SELECT COUNT(*) AS cnt FROM Trans")
            metrics = client.metrics()
            assert metrics["cache.hits"]["value"] >= 1
            assert metrics["cache.misses"]["value"] >= 1
            assert metrics["server.requests"]["value"] >= 2
            assert metrics["server.connections"]["value"] >= 1
            governor = client.status()["governor"]
            assert governor["admission"]["enabled"] is False
            assert governor["limits"]["timeout_ms"] is None

    def test_explain_sees_session_tolerance(self, served, hold_refresh):
        db = fresh_small_db()
        db.create_summary_table(
            "SrvAst",
            "select faid, count(*) as cnt from Trans group by faid",
            refresh_mode="deferred",
        )
        server = served(db)
        sql = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
        held = hold_refresh(db)  # else the worker may refresh SrvAst first
        with connect(server) as client:
            client.query(
                "INSERT INTO Trans VALUES "
                "(999993, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
            )
            strict = client.explain(sql)
            assert "SrvAst" not in strict.split("-- rewrite --")[-1] or (
                "no summary-table rewrite" in strict
            )
            held.set()
            client.set("SET REFRESH AGE ANY")
            tolerant = client.explain(sql)
            assert "SrvAst" in tolerant

    def test_explain_analyze_runs_under_the_session_knobs(
        self, served, hold_refresh
    ):
        """EXPLAIN ANALYZE is the query itself, run and rendered: it
        answers to the connection's SET REFRESH AGE and SET QUERY
        limits exactly as the query and plain EXPLAIN do."""
        db = fresh_small_db()
        db.create_summary_table(
            "SrvAst",
            "select faid, count(*) as cnt from Trans group by faid",
            refresh_mode="deferred",
        )
        server = served(db)
        sql = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
        held = hold_refresh(db)  # else the worker may refresh SrvAst first
        with connect(server) as client:
            client.query(
                "INSERT INTO Trans VALUES "
                "(999993, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
            )
            strict = client.explain(sql, analyze=True)
            assert "-- rewritten SQL --" not in strict
            held.set()
            client.set("SET REFRESH AGE ANY")
            rewritten = client.explain(sql).split("-- rewritten SQL --")[1]
            analyzed = client.explain(sql, analyze=True)
            assert "rewritten via" in analyzed
            assert (
                analyzed.split("-- rewritten SQL --")[1].splitlines()[1]
                == rewritten.splitlines()[1]
            )
            assert "FROM SrvAst" in rewritten.splitlines()[1]
            rows = len(client.query(sql).table.rows)
            assert f"-- result: {rows} row(s) --" in analyzed
            client.set("SET QUERY MAXROWS 1")
            with pytest.raises(BudgetExhausted):
                client.query(sql)
            with pytest.raises(BudgetExhausted):
                client.explain(sql, analyze=True)


# ----------------------------------------------------------------------
class TestConcurrency:
    def test_sixteen_clients_mixed_read_ingest(self, served):
        db = fresh_small_db()
        server = served(db)
        host, port = server.address
        queries = [
            "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid",
            "SELECT flid, SUM(price) AS total FROM Trans GROUP BY flid",
            "SELECT COUNT(*) AS cnt FROM Trans",
            "SELECT country, COUNT(*) AS cnt FROM Loc GROUP BY country",
        ]
        errors: list[BaseException] = []
        barrier = threading.Barrier(16, timeout=60)

        def reader(worker: int):
            try:
                with ReproClient(host, port) as client:
                    client.set(f"SET QUERY MAXROWS {100000 + worker}")
                    barrier.wait()
                    for round_no in range(6):
                        sql = queries[(worker + round_no) % len(queries)]
                        reply = client.query(sql)
                        assert len(reply.table.rows) > 0
                    session = client.ping()["session"]
                    assert session["max_rows"] == 100000 + worker
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def ingester(worker: int):
            try:
                with ReproClient(host, port) as client:
                    client.set(f"SET QUERY MAXROWS {200000 + worker}")
                    barrier.wait()
                    for round_no in range(4):
                        tid = 500000 + worker * 100 + round_no
                        status = client.query(
                            f"INSERT INTO Trans VALUES ({tid}, 1, 1, 1, "
                            "DATE '1991-03-15', 1, 25.0, 0.1)"
                        ).status
                        assert "inserted" in status
                        reply = client.query(queries[round_no % len(queries)])
                        assert len(reply.table.rows) > 0
                    session = client.ping()["session"]
                    assert session["max_rows"] == 200000 + worker
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(8)
        ] + [threading.Thread(target=ingester, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors[0]
        # shared knobs never mutated by any session's SETs
        assert db.governor.max_rows is None
        # all 32 ingested rows are visible to a fresh query
        with ReproClient(host, port) as client:
            count = client.query(
                "SELECT COUNT(*) AS cnt FROM Trans WHERE tid >= 500000"
            ).table.rows[0][0]
        assert count == 32
