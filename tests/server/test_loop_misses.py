"""Where a result-cache miss runs: a SELECT of a known token shape whose
last completed run was cheap is answered on the event loop; everything
else keeps its pool thread."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import QueryTimeout, SqlSyntaxError
from repro.obs import spans
from repro.server import server as server_module
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.testing.faults import INJECTOR
from tests.conftest import fresh_small_db

LOOP = "repro-server-loop"
PARKED = "SELECT COUNT(*) AS cnt FROM Trans"
INSERT = (
    "INSERT INTO Trans VALUES "
    "(999990, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
)


def known(n: int) -> str:
    """Statements of one token shape, a different text for each ``n``."""
    return f"SELECT faid, COUNT(*) AS cnt FROM Trans WHERE faid > {n} GROUP BY faid"


@pytest.fixture
def served():
    servers = []

    def serve(**kwargs) -> QueryServer:
        server = QueryServer(fresh_small_db(), **kwargs)
        server.start_in_thread()
        servers.append(server)
        return server

    yield serve
    for server in servers:
        server.stop()


@pytest.fixture
def threads_of(monkeypatch):
    """``db`` → the names of the threads its SELECTs and writes ran on,
    in order; a SELECT of ``PARKED`` waits for ``release``."""
    release = threading.Event()
    parked = threading.Semaphore(0)

    def spy(db) -> list[str]:
        ran = []
        run_select, run_write = db.run_select, db.run_write

        def select(source, sql_text=None, **kwargs):
            ran.append(threading.current_thread().name)
            if sql_text == PARKED:
                parked.release()
                assert release.wait(timeout=30)
            return run_select(source, sql_text, **kwargs)

        def write(*args, **kwargs):
            ran.append(threading.current_thread().name)
            return run_write(*args, **kwargs)

        monkeypatch.setattr(db, "run_select", select)
        monkeypatch.setattr(db, "run_write", write)
        return ran

    spy.release, spy.parked = release, parked
    yield spy
    release.set()


def connect(server: QueryServer) -> ReproClient:
    return ReproClient(*server.address)


def counter(server: QueryServer, name: str) -> int:
    return int(server.db.metrics.get(name).value)


def test_a_known_short_shape_is_answered_while_every_pool_thread_is_parked(
    served, threads_of
):
    server = served(max_workers=2)
    ran = threads_of(server.db)
    with connect(server) as client:
        assert client.query(known(1)).cache == "miss"  # cold: the pool

    def park():
        with connect(server) as client:
            client.query(PARKED)

    parkers = [threading.Thread(target=park) for _ in range(2)]
    for thread in parkers:
        thread.start()
    try:
        for _ in parkers:
            assert threads_of.parked.acquire(timeout=30)
        # both pool threads are inside PARKED: only the loop is left
        with socket.create_connection(server.address, timeout=10) as sock:
            with sock.makefile("rwb") as stream:
                request = {"op": "query", "sql": known(2)}
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                reply = json.loads(stream.readline())
    finally:
        threads_of.release.set()
        for thread in parkers:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in parkers)
    assert reply["ok"] and reply["cache"] == "miss"
    assert reply["table"]["data"]
    assert ran[0] != LOOP and ran[-1] == LOOP
    assert counter(server, "server.misses_loop") == 1
    assert counter(server, "server.misses_pool") == 3


def test_cold_costly_explain_analyze_and_insert_keep_the_pool(
    served, threads_of, monkeypatch
):
    server = served()
    ran = threads_of(server.db)
    with connect(server) as client:
        client.query(known(1))  # cold
        client.query(known(2))  # known and short
        client.explain(known(3), analyze=True)
        client.query("EXPLAIN ANALYZE " + known(4))
        client.query(INSERT)
        monkeypatch.setattr(server_module, "INLINE_MISS_CPU_MS", 0.0)
        client.query(known(5))  # its last run now costs over the bound
    assert [name == LOOP for name in ran] == [
        False, True, False, False, False, False,
    ]
    assert counter(server, "server.misses_loop") == 1
    assert counter(server, "server.misses_pool") == 2


def test_admission_control_sends_every_miss_to_the_pool(served, threads_of):
    server = served()
    ran = threads_of(server.db)
    admission = server.db.governor.admission
    with connect(server) as client:
        client.query(known(1))
        admission.configure(1)
        try:
            client.query(known(2))
            client.query(known(3))
        finally:
            admission.configure(None)
        client.query(known(4))
    assert [name == LOOP for name in ran] == [False, False, False, True]


def send(server: QueryServer, request: dict):
    """A raw connection with ``request`` sent; read its reply line."""
    sock = socket.create_connection(server.address, timeout=10)
    stream = sock.makefile("rwb")
    stream.write(json.dumps(request).encode() + b"\n")
    stream.flush()
    return sock, stream


def test_a_loop_miss_hands_a_write_in_progress_to_the_pool(served, threads_of):
    server = served()
    ran = threads_of(server.db)
    with connect(server) as client:
        client.query(known(1))  # costed: known(2) is routed to the loop
    writing, done = threading.Event(), threading.Event()

    def write():  # what a REFRESH or a scheduler pass does
        with server.db._maintenance_lock:
            writing.set()
            assert done.wait(timeout=30)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert writing.wait(timeout=30)
        sock, stream = send(server, {"op": "query", "sql": known(2)})
        with sock, stream, connect(server) as other:
            # the loop did not wait for the write: it answers others
            assert other.ping()["ok"]
            assert other.query(known(1)).cache == "hit"
            assert writer.is_alive()
            done.set()
            reply = json.loads(stream.readline())
    finally:
        done.set()
        writer.join(timeout=30)
    assert reply["ok"] and reply["cache"] == "miss" and reply["table"]["data"]
    # tried on the loop, waited for the write on a pool thread
    assert [name == LOOP for name in ran] == [False, True, False]
    assert counter(server, "server.misses_loop") == 0
    assert counter(server, "server.misses_pool") == 2
    assert counter(server, "cache.misses") == 2
    with connect(server) as client:
        client.query(known(3))  # the pool's run was costed: the loop again
    assert ran[-1] == LOOP


def test_a_failed_loop_run_sends_its_shape_to_the_pool(served, threads_of):
    server = served()
    ran = threads_of(server.db)

    def product(n: int) -> str:  # Loc x Trans: executor ticks to fail at
        return f"SELECT COUNT(*) AS cnt FROM Loc, Trans WHERE faid > {n}"

    with connect(server) as client:
        client.set("SET QUERY TIMEOUT 60000")
        client.query(product(1))
        with INJECTOR.injected(
            "executor.tick", error=lambda point: QueryTimeout(point)
        ):
            with pytest.raises(QueryTimeout):
                client.query(product(2))  # times out on the loop
        client.query(product(3))  # so this one runs on a pool thread
        client.query(product(4))  # which costed it cheap again
    assert [name == LOOP for name in ran] == [False, True, False, True]


def test_sessions_of_different_tolerances_are_costed_apart(served, threads_of):
    server = served()
    ran = threads_of(server.db)
    with connect(server) as lenient, connect(server) as strict:
        lenient.set("SET REFRESH AGE ANY")
        lenient.query(known(1))
        lenient.query(known(2))
        strict.query(known(3))  # not costed at its own tolerance yet
        strict.query(known(4))
    assert [name == LOOP for name in ran] == [False, True, False, True]


def test_with_and_without_summary_tables_are_costed_apart(served, threads_of):
    server = served()
    ran = threads_of(server.db)
    with connect(server) as client:
        client.query(known(1), use_summary_tables=True)
        client.query(known(2), use_summary_tables=False)  # not costed yet
        client.query(known(3), use_summary_tables=False)
        client.query(known(4), use_summary_tables=True)
    assert [name == LOOP for name in ran] == [False, False, True, True]


def test_session_queries_count_once_per_request_on_both_routes(served):
    server = served()
    with connect(server) as client:
        assert client.query(known(1)).cache == "miss"  # pool
        assert client.query(known(2)).cache == "miss"  # loop
        assert client.query(known(2)).cache == "hit"
        client.query(INSERT)
        assert client.query(known(2)).cache == "miss"  # loop, prepared text
        assert client.ping()["session"]["queries"] == 4
        status = client.status()
    assert status["misses"] == {"loop": 2, "pool": 1}
    assert counter(server, "cache.misses") == 3


def test_a_malformed_select_is_the_same_typed_error_on_either_side(served):
    server = served()
    broken = known(1).replace("GROUP BY faid", "GROUP BY")
    unterminated = "SELECT faid FROM Trans WHERE faid = 'abc"
    with connect(server) as client:
        client.query(known(1))
        for text in (broken, unterminated, broken):
            with pytest.raises(SqlSyntaxError):
                client.query(text)
        assert client.ping()["session"]["queries"] == 4
    assert counter(server, "server.errors") == 3


def test_request_span_names_the_route(served):
    tracer = spans.install(sample_rate=1.0)
    try:
        server = served()
        with connect(server) as client:
            client.query(known(1))
            client.query(known(2))
            client.query(known(2))
        requests = [
            s for s in tracer.buffer.snapshot() if s["name"] == "server.request"
        ]
    finally:
        spans.uninstall()
    assert [s["attrs"]["route"] for s in requests] == ["pool", "loop", "loop"]
    executed = {
        s["trace_id"] for s in tracer.buffer.snapshot() if s["name"] == "db.execute"
    }
    # a hit is answered on the loop too, without running anything
    assert [s["trace_id"] in executed for s in requests] == [True, True, False]
