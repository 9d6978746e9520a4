"""The read reply path: a cache hit is a memo probe, a cache probe and a
socket write of bytes the miss encoded — answered on the event loop,
with the cache probed exactly once per request."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import BudgetExhausted, ReplicaLagExceeded
from repro.obs import spans
from repro.server import server as server_module
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from tests.conftest import fresh_small_db

GROUPED = "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
COUNTED = "SELECT COUNT(*) AS cnt FROM Trans"
INSERT = (
    "INSERT INTO Trans VALUES "
    "(999990, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
)


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


def connect(server: QueryServer) -> ReproClient:
    return ReproClient(*server.address)


def counter(server: QueryServer, name: str) -> int:
    return int(server.db.metrics.get(name).value)


def raw_reply(stream, request: dict) -> bytes:
    stream.write(json.dumps(request).encode() + b"\n")
    stream.flush()
    return stream.readline()


class TestReplyBytes:
    def test_hit_equals_miss_outside_the_envelope(self, served):
        server = served()
        request = {"op": "query", "id": 1, "sql": GROUPED}
        with socket.create_connection(server.address) as sock:
            stream = sock.makefile("rwb")
            miss = raw_reply(stream, request)
            hit = raw_reply(stream, {**request, "id": 2})
        # the envelope is the small head; the table is spliced in last
        miss_head, miss_table = miss.split(b',"table":', 1)
        hit_head, hit_table = hit.split(b',"table":', 1)
        assert miss_table == hit_table
        assert miss_table.startswith(b'{"columns":["faid","cnt"],"data":[[')
        miss_head = json.loads(miss_head + b"}")
        hit_head = json.loads(hit_head + b"}")
        assert (miss_head.pop("cache"), hit_head.pop("cache")) == ("miss", "hit")
        assert (miss_head.pop("id"), hit_head.pop("id")) == (1, 2)
        assert miss_head.pop("elapsed_ms") > 0 and hit_head.pop("elapsed_ms") > 0
        assert miss_head == hit_head == {"ok": True}

    def test_cache_keeps_the_bytes_the_miss_sent(self, served):
        server = served()
        with connect(server) as client:
            reply = client.query(GROUPED)
        [entry] = server.cache._entries.values()
        assert json.loads(entry.payload)["columns"] == reply.table.columns
        assert server.cache.nbytes == (
            entry.table.nbytes_estimate() + len(entry.payload)
        )
        assert counter(server, "cache.bytes") == server.cache.nbytes

    def test_result_over_max_bytes_is_served_but_not_cached(self, served):
        server = served(cache_max_bytes=64)
        with connect(server) as client:
            first = client.query(GROUPED)
            second = client.query(GROUPED)
        assert first.cache == second.cache == "miss"
        assert len(first.table) > 1
        assert list(first.table.rows) == list(second.table.rows)
        assert len(server.cache) == 0 and server.cache.nbytes == 0


class TestHitsOnTheLoop:
    def test_hit_served_while_every_pool_thread_is_parked(
        self, served, monkeypatch
    ):
        server = served(max_workers=2)
        release = threading.Event()
        parked = threading.Semaphore(0)
        execute = server.db.run_select

        def slow(source, sql_text=None, **kwargs):
            if sql_text == COUNTED:
                parked.release()
                assert release.wait(timeout=30)
            return execute(source, sql_text, **kwargs)

        monkeypatch.setattr(server.db, "run_select", slow)
        done = []

        def park():
            with connect(server) as client:
                done.append(client.query(COUNTED).cache)

        with connect(server) as client:
            assert client.query(GROUPED).cache == "miss"
            threads = [threading.Thread(target=park) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                for _ in threads:
                    assert parked.acquire(timeout=30)
                # both pool threads are inside the slow query: only the
                # event loop is left to answer
                assert client.query(GROUPED).cache == "hit"
                assert client.ping()["pong"] is True
            finally:
                release.set()
                for thread in threads:
                    thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert done == ["miss", "miss"]

    def test_one_probe_per_request(self, served):
        server = served()
        with connect(server) as client:
            assert client.query(GROUPED).cache == "miss"  # unknown text
            assert counter(server, "cache.misses") == 1
            assert client.query(GROUPED).cache == "hit"
            client.query(INSERT)
            # known text, dead entry: the loop's probe is the only one
            assert client.query(GROUPED).cache == "miss"
            assert counter(server, "cache.misses") == 2
            assert counter(server, "cache.hits") == 1
            assert client.query(GROUPED).cache == "hit"
            assert client.ping()["session"]["queries"] == 4

    def test_maxrows_checked_on_hit(self, served):
        server = served()
        with connect(server) as client:
            assert client.query(GROUPED).cache == "miss"
            client.set("SET QUERY MAXROWS 1")
            with pytest.raises(BudgetExhausted):
                client.query(GROUPED)
            client.set("SET QUERY MAXROWS OFF")
            assert client.query(GROUPED).cache == "hit"

    def test_standby_lag_checked_on_hit(self, served):
        server = served(read_only=True)
        with connect(server) as client:
            assert client.query(GROUPED).cache == "miss"
            assert client.query(GROUPED).cache == "hit"
            server.note_primary_durable(server.applied_lsn + 3)
            hits = counter(server, "cache.hits")
            with pytest.raises(ReplicaLagExceeded):
                client.query(GROUPED)
            assert counter(server, "cache.hits") == hits + 1  # a hit, gated
            client.set("SET REFRESH AGE 3")
            assert client.query(GROUPED).cache == "miss"  # new key
            assert client.query(GROUPED).cache == "hit"

    def test_epoch_bump_sends_known_text_back_to_the_pool(self, served):
        server = served()
        with connect(server) as client:
            assert client.query(GROUPED).cache == "miss"
            before = server._prepared[GROUPED]
            client.query(
                "CREATE SUMMARY TABLE ByAcct AS "
                "SELECT faid, COUNT(*) AS cnt FROM Trans GROUP BY faid"
            )
            assert client.query(GROUPED).cache == "hit"
            after = server._prepared[GROUPED]
        assert after.epoch == server.db.rewrite_epoch > before.epoch
        assert after.fingerprint_key == before.fingerprint_key


class TestTracedHit:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        spans.uninstall()
        yield
        spans.uninstall()

    def test_request_span_has_a_cache_lookup_child(self, served):
        tracer = spans.install(sample_rate=1.0)
        server = served()
        with connect(server) as client:
            client.query(GROUPED)
            assert client.query(GROUPED).cache == "hit"
        root = [
            s for s in tracer.buffer.snapshot() if s["name"] == "client.request"
        ][-1]
        by_name = {
            s["name"]: s for s in tracer.buffer.for_trace(root["trace_id"])
        }
        assert set(by_name) == {
            "client.request", "client.attempt", "server.request",
            "cache.lookup",
        }
        lookup, request = by_name["cache.lookup"], by_name["server.request"]
        assert lookup["parent_id"] == request["span_id"]
        assert lookup["attrs"]["outcome"] == "hit"


class TestParseAndBindOnce:
    def test_cold_select_parses_and_binds_once_and_a_hit_not_at_all(
        self, served, monkeypatch
    ):
        from repro.engine import database as database_module
        from repro.engine import pipeline as pipeline_module

        calls = {"parse_statement": 0, "build_graph": 0, "fingerprint": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            server_module, "parse_statement",
            counting("parse_statement", server_module.parse_statement),
        )
        # the engine's prepare stage is the only binder and fingerprinter
        assert not hasattr(server_module, "build_graph")
        assert not hasattr(server_module, "fingerprint")
        for module, name in (
            (database_module, "build_graph"),
            (database_module, "fingerprint"),
            (pipeline_module, "fingerprint"),
        ):
            monkeypatch.setattr(
                module, name, counting(name, getattr(module, name))
            )
        server = served()
        server.db.create_summary_table(
            "ByAcctLoc",
            "SELECT faid, flid, COUNT(*) AS cnt FROM Trans GROUP BY faid, flid",
        )
        once = {"parse_statement": 1, "build_graph": 1, "fingerprint": 1}
        with connect(server) as client:
            calls.update(build_graph=0)  # the summary's definition
            # cold: the result-cache key and the rewrite decision share
            # one fingerprint
            assert client.query(GROUPED).cache == "miss"
            assert calls == once
            assert client.query(GROUPED).cache == "hit"
            assert calls == once
            client.query(INSERT)
            calls.update(parse_statement=0, build_graph=0, fingerprint=0)
            # a known text whose entry died: the engine binds the text
            assert client.query(GROUPED).cache == "miss"
            assert calls == {
                "parse_statement": 0, "build_graph": 1, "fingerprint": 1,
            }
