"""End-to-end tracing and the cluster health surface.

The acceptance path: one trace_id minted in :class:`ReproClient` spans
the client attempt (and any retry), the server request, parse,
admission, rewrite, execute, the WAL group commit, and the standby's
apply — and with sampling off, the same round trip records nothing.
"""

import time

import pytest

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.obs import events, spans
from repro.replication import StandbyServer, WriteAheadLog, wait_for_catchup
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.testing import INJECTOR


@pytest.fixture(autouse=True)
def clean_obs():
    spans.uninstall()
    events.LOG.clear()
    yield
    spans.uninstall()
    events.LOG.clear()


def make_primary(tmp_path, **kwargs):
    db = Database(credit_card_catalog())
    wal = WriteAheadLog(tmp_path / "wal-primary", sync="os")
    wal.begin(db)
    server = QueryServer(db, port=0, wal=wal, **kwargs)
    server.start_in_thread()
    return server


def stop_server(server: QueryServer) -> None:
    server.stop()
    if server.wal is not None:
        server.wal.close()


def spans_named(buffer, trace_id: str, name: str) -> list[dict]:
    return [s for s in buffer.for_trace(trace_id) if s["name"] == name]


def wait_for_span(buffer, trace_id: str, name: str, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = spans_named(buffer, trace_id, name)
        if found:
            return found
        time.sleep(0.01)
    raise AssertionError(
        f"span {name!r} never landed for trace {trace_id}: "
        f"{sorted({s['name'] for s in buffer.for_trace(trace_id)})}"
    )


class TestTraceRoundTrip:
    def test_one_trace_id_spans_client_primary_and_standby(self, tmp_path):
        tracer = spans.install(sample_rate=1.0)
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"),
            sync="os", reconnect_backoff=0.05, reconnect_cap=0.5,
        )
        try:
            standby.start()
            with ReproClient(host, port, retries=2, seed=1) as client:
                client.query("INSERT INTO Acct VALUES (900, 1, 'open')")
            wait_for_catchup(standby, primary.applied_lsn, timeout=15)

            [root] = [
                s for s in tracer.buffer.snapshot()
                if s["name"] == "client.request"
            ]
            trace_id = root["trace_id"]
            assert root["parent_id"] is None
            # the standby's apply span finishes just after applied_lsn
            # advances — poll for it rather than racing the tail thread
            [apply_span] = wait_for_span(
                tracer.buffer, trace_id, "standby.apply"
            )
            names = {s["name"] for s in tracer.buffer.for_trace(trace_id)}
            assert {
                "client.request", "client.attempt", "server.request",
                "server.parse", "wal.stage", "wal.fsync", "standby.apply",
            } <= names

            # parenting: attempt and server.request hang off the root,
            # parse/stage/fsync hang off the server.request span
            by_name = {
                s["name"]: s for s in tracer.buffer.for_trace(trace_id)
            }
            assert by_name["client.attempt"]["parent_id"] == root["span_id"]
            server_span = by_name["server.request"]
            assert server_span["parent_id"] == root["span_id"]
            assert by_name["server.parse"]["parent_id"] == (
                server_span["span_id"]
            )
            # both sides group-commit, so the trace holds two fsync
            # spans: the primary's under its request span, the
            # standby's under its apply span
            fsyncs = spans_named(tracer.buffer, trace_id, "wal.fsync")
            [primary_fsync] = [
                s for s in fsyncs
                if s["parent_id"] == server_span["span_id"]
            ]
            assert primary_fsync["attrs"]["lsn"] == primary.applied_lsn
            # the standby joined the shipped trace as a fresh root; its
            # local journaling nests under the apply span
            assert apply_span["parent_id"] is None
            assert apply_span["attrs"]["lsn"] == primary.applied_lsn
            standby_stages = [
                s for s in spans_named(tracer.buffer, trace_id, "wal.stage")
                if s["parent_id"] == apply_span["span_id"]
            ]
            assert len(standby_stages) == 1
        finally:
            standby.stop()
            stop_server(primary)

    def test_select_trace_covers_admission_rewrite_execute(self, tmp_path):
        tracer = spans.install(sample_rate=1.0)
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            with ReproClient(host, port) as client:
                client.query("INSERT INTO Acct VALUES (901, 1, 'open')")
                client.query(
                    "CREATE SUMMARY TABLE ast_status AS "
                    "SELECT status, COUNT(*) AS n FROM Acct GROUP BY status"
                )
                client.query(
                    "SELECT status, COUNT(*) AS n FROM Acct GROUP BY status"
                )
            select_requests = [
                s for s in tracer.buffer.snapshot()
                if s["name"] == "client.request"
            ]
            trace_id = select_requests[-1]["trace_id"]
            names = {s["name"] for s in tracer.buffer.for_trace(trace_id)}
            assert {
                "server.request", "cache.lookup", "admission.wait",
                "db.bind", "db.rewrite", "db.execute",
            } <= names
            [lookup] = spans_named(tracer.buffer, trace_id, "cache.lookup")
            assert lookup["attrs"]["outcome"] == "miss"
            [rewrite] = spans_named(tracer.buffer, trace_id, "db.rewrite")
            assert rewrite["attrs"]["rewritten"] is True
            # the sampled statement's rewrite span carries its match trace
            trace = rewrite["attrs"]["match_trace"]
            assert trace["sql"].startswith("SELECT status")
            assert [
                s["summary"] for s in trace["summaries"] if s["applied"]
            ] == ["ast_status"]
        finally:
            stop_server(primary)

    def test_retry_stays_one_trace(self, tmp_path):
        tracer = spans.install(sample_rate=1.0)
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            with ReproClient(host, port, retries=2, seed=3) as client:
                with INJECTOR.injected("client.send", times=1):
                    reply = client.query(
                        "INSERT INTO Acct VALUES (902, 1, 'open')"
                    )
            assert reply.deduped or reply.status is not None
            [root] = [
                s for s in tracer.buffer.snapshot()
                if s["name"] == "client.request"
            ]
            attempts = spans_named(
                tracer.buffer, root["trace_id"], "client.attempt"
            )
            assert len(attempts) == 2  # the lost ACK and the retry
            assert {a["parent_id"] for a in attempts} == {root["span_id"]}
            failed = [a for a in attempts if "error" in a["attrs"]]
            assert len(failed) == 1
            # the failover event carries the same trace id
            failovers = [
                e for e in events.tail()
                if e["event"] == "client.failover"
            ]
            assert len(failovers) == 1
            assert failovers[0]["trace_id"] == root["trace_id"]
        finally:
            stop_server(primary)

    def test_untraced_client_gets_server_minted_root(self, tmp_path):
        """A request with no trace context still traces server-side:
        the server flips its own sampling coin and mints the root."""
        import json
        import socket

        tracer = spans.install(sample_rate=1.0)
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            with socket.create_connection((host, port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps({
                    "id": 1, "op": "query",
                    "sql": "SELECT COUNT(*) AS n FROM Acct",
                }).encode() + b"\n")
                stream.flush()
                reply = json.loads(stream.readline())
            assert reply["ok"]
            roots = [
                s for s in tracer.buffer.snapshot()
                if s["name"] == "server.request" and s["parent_id"] is None
            ]
            assert roots, "server must mint a root for untraced callers"
            names = {
                s["name"]
                for s in tracer.buffer.for_trace(roots[-1]["trace_id"])
            }
            assert {"server.request", "db.execute"} <= names
        finally:
            stop_server(primary)

    def test_zero_spans_when_sampling_off(self, tmp_path):
        tracer = spans.install(sample_rate=1.0)
        spans.uninstall()  # SET TRACE SAMPLE OFF equivalent
        primary = make_primary(tmp_path)
        host, port = primary.address
        try:
            with ReproClient(host, port, retries=1) as client:
                client.query("INSERT INTO Acct VALUES (903, 1, 'open')")
                client.query("SELECT COUNT(*) AS n FROM Acct")
            assert len(tracer.buffer) == 0
        finally:
            stop_server(primary)


class TestStatusSurface:
    def test_status_aggregates_cluster_health(self, tmp_path):
        spans.install(sample_rate=1.0)
        primary = make_primary(tmp_path)
        host, port = primary.address
        standby = StandbyServer(
            (host, port), wal_dir=str(tmp_path / "wal-standby"),
            sync="os", reconnect_backoff=0.05, reconnect_cap=0.5,
        )
        try:
            standby.start()
            with ReproClient(host, port) as client:
                client.query("INSERT INTO Acct VALUES (910, 1, 'open')")
                client.query("SELECT COUNT(*) AS n FROM Acct")  # miss
                client.query("SELECT COUNT(*) AS n FROM Acct")  # hit
                status = client.status()

            assert status["role"] == "primary"
            assert status["address"] == f"{host}:{port}"
            assert status["requests"] >= 4
            assert status["uptime_s"] >= 0

            replication = status["replication"]
            assert replication["lag"] >= 0
            assert replication["lag_seconds"] >= 0.0
            assert replication["subscribers"] >= 0

            wal = status["wal"]
            assert wal["depth_since_checkpoint"] == (
                wal["last_lsn"] - wal["checkpoint_lsn"]
            )
            assert wal["last_lsn"] >= 1

            cache = status["cache"]
            assert cache["enabled"] is True
            assert cache["hits"] >= 1
            assert cache["misses"] >= 1
            assert 0.0 < cache["hit_rate"] <= 1.0

            governor = status["governor"]
            assert "admission" in governor
            assert "breaker" in governor

            refresh = status["refresh"]
            assert refresh["quarantined"] == []
            assert refresh["queued"] >= 0

            latency = status["latency_ms"]
            assert latency, "live histograms must surface"
            for entry in latency.values():
                assert entry["count"] >= 1
                assert entry["p99"] is not None
                assert entry["p50"] <= entry["p99"]

            tracing = status["tracing"]
            assert tracing["enabled"] is True
            assert tracing["sample_rate"] == 1.0
            assert tracing["spans"] >= 1

            # the standby reports its own role and the primary address
            with ReproClient(*standby.address) as standby_client:
                standby_status = standby_client.status()
            assert standby_status["role"] == "standby"
            assert standby_status["replication"]["primary"] == (
                f"{host}:{port}"
            )
        finally:
            standby.stop()
            stop_server(primary)

    def test_status_without_wal_or_tracer(self):
        db = Database(credit_card_catalog())
        server = QueryServer(db, port=0)
        server.start_in_thread()
        try:
            host, port = server.address
            with ReproClient(host, port) as client:
                status = client.status()
            assert "wal" not in status
            assert status["tracing"] == {"enabled": False}
        finally:
            server.stop()
