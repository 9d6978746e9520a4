"""``status`` is the one state snapshot: every fact the governor
description, the per-summary refresh listing and the replication report
showed is in ``Database.status()`` in process and in the ``status`` op
of a primary and of a standby."""

from __future__ import annotations

import io

import pytest

from repro.catalog import credit_card_catalog
from repro.cli import Shell
from repro.engine import Database
from repro.errors import ReproError
from repro.replication import StandbyServer, WriteAheadLog, wait_for_catchup
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.workloads import populate_credit_db, small_config

GROUPED = (
    "select faid, year(date) as year, count(*) as cnt from Trans "
    "group by faid, year(date)"
)
SLOW = "select flid, count(*) as n from Trans group by flid"

#: what the database is set up to show (see ``database`` below)
LIMITS = {"timeout_ms": 750, "max_rows": 1000, "max_mem": None, "match_budget": 1}
ADMISSION = {"enabled": True, "max_concurrent": 2, "max_queue": 4,
             "queue_timeout_ms": 250, "running": 0, "waiting": 0}
#: the tripped shape and the degraded query's shape, one of them open
BREAKER = {"threshold": 3, "cooldown_s": 30.0, "tracked": 2, "open": 1,
           "half_open_due": 0}
SUMMARIES = [
    {"name": "AST1", "mode": "immediate", "pending_deltas": 0,
     "last_refresh_lsn": 0},
    {"name": "Q", "mode": "immediate", "pending_deltas": 0,
     "last_refresh_lsn": 0, "quarantined": True,
     "quarantine_reason": "poisoned"},
    {"name": "DS", "mode": "deferred", "pending_deltas": 1,
     "last_refresh_lsn": 0},
]


def configure_governor(db: Database) -> None:
    db.governor.admission.configure(2, max_queue=4, queue_timeout_ms=250)
    db.governor.timeout_ms = 750
    db.governor.max_rows = 1000
    db.governor.match_budget = 1


@pytest.fixture
def database():
    """Admission on, a budget-degraded query, a tripped breaker, a slow
    query, a stale deferred summary and a quarantined one."""
    db = Database(credit_card_catalog())
    populate_credit_db(db, small_config())
    db.create_summary_table(
        "AST1",
        "select faid, flid, year(date) as year, count(*) as cnt "
        "from Trans group by faid, flid, year(date)",
    )
    db.create_summary_table(
        "Q", "select faid, count(*) as cnt from Trans group by faid"
    )
    db._scheduler.notify = lambda names: None  # DS stays stale
    db.create_summary_table(
        "DS", "select flid, count(*) as cnt from Trans group by flid",
        refresh_mode="deferred",
    )
    db.run_sql(
        "INSERT INTO Trans VALUES "
        "(999993, 1, 1, 1, DATE '1990-06-15', 1, 10.0, 0.1)"
    )
    db.quarantine_summary("Q", "poisoned")
    configure_governor(db)
    db.execute(GROUPED)  # one pairing is not enough: degraded
    for _ in range(db.governor.breaker.threshold):
        db.governor.breaker.record_timeout("tripped shape")
    db.slow_query_ms = 0
    db.execute(SLOW, use_summary_tables=False)
    db.slow_query_ms = 250
    yield db
    db.close()


def check_database_facts(status: dict, ident: int) -> None:
    governor = status["governor"]
    assert governor["limits"] == LIMITS
    assert ADMISSION.items() <= governor["admission"].items()
    assert BREAKER.items() <= governor["breaker"].items()
    assert status["refresh"]["summaries"] == SUMMARIES
    assert status["slow_query_ms"] == 250
    assert {"limit", "reserved_bytes", "denials", "sheds"} <= status["memory"].keys()
    events = status["events"]
    assert events and all(e["database"] == ident for e in events)
    degraded = [e for e in events if e["event"] == "governor.degraded"]
    assert degraded[-1]["detail"].startswith("match budget of 1 pairings")
    last = [
        e for e in events
        if e["event"] == "governor.degraded" or e["event"].startswith("breaker.")
    ][-1]
    assert (last["event"], last["fingerprint"]) == ("breaker.open", "tripped shape")
    [slow] = [e for e in events if e["event"] == "query.slow"]
    assert slow["sql"] == SLOW and slow["threshold_ms"] == 0
    [quarantine] = [e for e in events if e["event"] == "summary.quarantine"]
    assert (quarantine["summary"], quarantine["reason"]) == ("Q", "poisoned")


def test_in_process_status(database):
    check_database_facts(database.status(), database.ident)


def test_status_op_on_a_primary_and_a_standby(database, tmp_path):
    wal = WriteAheadLog(tmp_path / "wal-primary", sync="os")
    wal.begin(database)
    primary = QueryServer(database, port=0, wal=wal)
    host, port = primary.start_in_thread()
    standby = StandbyServer(
        (host, port), wal_dir=str(tmp_path / "wal-standby"), sync="os",
        reconnect_backoff=0.05, reconnect_cap=0.5,
    )
    try:
        sb_host, sb_port = standby.start()
        replica = standby.server.db
        configure_governor(replica)
        with ReproClient(host, port) as client:
            client.query("INSERT INTO Acct VALUES (500, 1, 'open')")
        wait_for_catchup(standby, primary.applied_lsn, timeout=15)
        with ReproClient(host, port) as client:
            status = client.status()
            for op in ("governor", "repl.status"):
                with pytest.raises(ReproError, match=f"unknown op '{op}'"):
                    client.request(op)
        check_database_facts(status, database.ident)
        assert status["replication"] == {
            "role": "primary", "read_only": False,
            "applied_lsn": primary.applied_lsn, "lag": 0, "lag_seconds": 0.0,
            "dedup_window": len(primary.dedup),
            "durable_lsn": wal.durable_lsn, "checkpoint_lsn": wal.checkpoint_lsn,
            "checkpoints": wal.checkpoints, "sync": "os", "subscribers": 1,
        }
        shell = Shell(out=io.StringIO())
        shell.handle_line(f"\\connect {host}:{port}")
        shell.handle_line("\\status")
        shell.handle_line("\\disconnect")
        text = shell.out.getvalue()
        assert "status (remote): role=primary" in text
        assert "replication: lag 0 record(s) / 0s" in text
        assert "breaker 1 open / 0 half-open (2 tracked; 3 timeouts" in text
        assert "limits: timeout 750 ms, maxrows 1000, maxmem off, match budget 1" in text
        assert "admission: 2 concurrent, 4 queued, 250 ms queue wait" in text
        assert "last event: breaker.open (shape tripped shape)" in text
        assert "slow queries: over 250 ms logged" in text
        assert f" ms  {SLOW}" in text
        with ReproClient(sb_host, sb_port) as client:
            status = client.status()
        replication = status["replication"]
        assert replication["role"] == "standby"
        assert replication["read_only"] is True
        assert replication["primary"] == f"{host}:{port}"
        assert replication["applied_lsn"] == primary.applied_lsn
        assert replication["lag"] == 0 and replication["lag_seconds"] == 0.0
        assert replication["subscribers"] == 0
        assert replication["sync"] == "os"
        assert status["governor"]["limits"] == LIMITS
        assert ADMISSION.items() <= status["governor"]["admission"].items()
        assert [s["name"] for s in status["refresh"]["summaries"]] == [
            s["name"] for s in SUMMARIES
        ]
        assert status["slow_query_ms"] == replica.slow_query_ms
        assert all(e["database"] == replica.ident for e in status["events"])
    finally:
        standby.stop()
        if standby.server is not None and standby.server.wal is not None:
            standby.server.wal.close()
        primary.stop()
        wal.close()
