"""Auxiliary groups are rebuilt, never recovered: whatever interrupts a
write, a refresh or the process, afterwards every summary equals its
defining query and a summary's hidden auxiliary groups (shape (d) of
``repro.asts.maintenance``) either equal their block over the base
tables or are absent — never stale.

One scenario per way the state could be left behind: a journal failure
rolled back by the write pipeline's undo (``Database.run_write``), a
fault at and inside a scheduler apply,
a cancellation during the recompute that builds the groups, save → load,
SIGKILL → journal replay, a standby bootstrapped from a snapshot, and
DROP / re-CREATE. All run on one three-column table created through SQL,
with a nested-aggregation view, a COUNT(*)-less view and a HAVING view.
"""

from __future__ import annotations

import io
import os
import signal

import pytest

from repro.asts import maintenance
from repro.bench.figures import FIGURES, make_database
from repro.cli import Shell
from repro.engine import Database
from repro.engine.persist import load_database, save_database
from repro.engine.table import tables_equal
from repro.errors import MaintenanceError, QueryCancelled, ReproError
from repro.obs import events
from repro.replication import StandbyServer, WriteAheadLog, wait_for_catchup
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.testing import INJECTOR
from repro.workloads.datagen import GeneratorConfig
from tests.replication.test_crash_matrix import launch_server

VIEWS = {
    "NESTED": (
        "select g, c, count(*) as n from "
        "(select g, h, count(*) as c from T group by g, h) group by g, c"
    ),
    "NO_COUNT": "select g, sum(v) as s from T group by g",
    "HAVING_V": "select h, count(*) as c from T group by h having count(*) > 2",
}
#: enough rows that a governed scan of T reaches an executor tick
ROWS = [(i % 5, i % 7, i) for i in range(1500)]
NEW = [(1, 1, 9001), (1, 1, 9001), (6, 9, 9002)]  # a duplicate, a new group


def setup_sql(mode: str = "IMMEDIATE") -> list[str]:
    return [
        "CREATE TABLE T (g INTEGER NOT NULL, h INTEGER NOT NULL, v INTEGER NOT NULL)",
        *(
            f"CREATE SUMMARY TABLE {name} REFRESH {mode} AS {sql}"
            for name, sql in VIEWS.items()
        ),
    ]


def values(rows) -> str:
    return ", ".join(f"({g}, {h}, {v})" for g, h, v in rows)


def insert(rows=NEW) -> str:
    return f"INSERT INTO T VALUES {values(rows)}"


def delete(rows=NEW) -> str:
    return f"DELETE FROM T VALUES {values(rows)}"


def make_db(mode: str = "IMMEDIATE") -> Database:
    db = Database()
    db.run_sql(setup_sql(mode)[0])
    db.load("T", ROWS)
    for statement in setup_sql(mode)[1:]:
        db.run_sql(statement)
    return db


def built(db: Database) -> set[str]:
    """Names of the summaries whose auxiliary groups are built."""
    return {
        summary.name
        for summary in db.summary_tables.values()
        if summary._auxiliary is not None and summary._auxiliary.built
    }


def touch(db: Database) -> None:
    """One insert and one delete: every view has asked for its groups."""
    db.run_sql(insert())
    db.run_sql(delete())
    db.drain_refresh()
    assert built(db) == set(VIEWS)


def assert_never_stale(db: Database) -> None:
    db.drain_refresh()
    assert {s.name for s in db.summary_tables.values()} == set(VIEWS)
    for summary in db.summary_tables.values():
        assert tables_equal(summary.table, db.execute_graph(summary.graph)), (
            f"{summary.name} != its defining query"
        )
        cascade = summary._auxiliary
        if cascade is not None and cascade.built:
            groups = cascade.groups
            assert tables_equal(groups.table, db.execute_graph(groups.graph)), (
                f"{summary.name}'s auxiliary groups are stale"
            )


def primary(tmp_path, db: Database) -> QueryServer:
    wal = WriteAheadLog(tmp_path / "wal-primary", sync="os")
    wal.begin(db)
    server = QueryServer(db, port=0, wal=wal)
    server.start_in_thread()
    return server


def stop(server: QueryServer) -> None:
    server.stop()
    server.wal.close()


def journal_fault_rolled_back(tmp_path, monkeypatch):
    """``wal.append`` fails after the write was applied: the write
    pipeline's undo takes it back by its inverse, through the same
    cascade — an insert (undone by a delete), then a delete (undone by an
    insert)."""
    db = make_db()
    server = primary(tmp_path, db)
    try:
        with ReproClient(*server.address) as client:
            client.query(insert())
            client.query(delete(NEW[:1]))
            assert built(db) == set(VIEWS)
            for statement in (insert(ROWS[:2]), delete(ROWS[:3])):
                rows = len(db.table("T"))
                with INJECTOR.injected("wal.append", times=1):
                    with pytest.raises(ReproError):
                        client.query(statement)
                assert len(db.table("T")) == rows
                assert_never_stale(db)
            client.query(insert(ROWS[:1]))
        assert built(db) == set(VIEWS)  # the undo kept them, it did not rebuild
        assert db.metrics.series("maintenance_recomputes", "summary") == {
            name: 1 for name in VIEWS
        }
        return [db]
    finally:
        stop(server)


def scheduler_apply_fault(tmp_path, monkeypatch):
    """A fault before the apply is retried; a failure *inside* the
    cascade (the outer half never runs) drops the groups with the error
    and the fallback recompute starts over without them."""
    db = make_db("DEFERRED")
    touch(db)
    with INJECTOR.injected("scheduler.apply", times=1):
        db.run_sql(insert())
        db.drain_refresh()
    assert built(db) == set(VIEWS)
    assert_never_stale(db)

    apply, calls = maintenance._apply, []

    def fail_in_the_outer_half(summary, plan, delta, sign):
        calls.append(summary.name)
        if summary.name == "NESTED" and not isinstance(plan, maintenance._CascadePlan):
            raise MaintenanceError("injected: outer view not applied")
        return apply(summary, plan, delta, sign)

    monkeypatch.setattr(maintenance, "_apply", fail_in_the_outer_half)
    db.run_sql(delete())
    db.drain_refresh()
    monkeypatch.undo()
    assert "nested.gb-2a" in calls  # the groups were merged before it failed
    assert "incremental apply failed" in db.refresh_scheduler.last_fallbacks["NESTED"]
    assert built(db) == set(VIEWS) - {"NESTED"}
    return [db]


def cancelled_first_build(tmp_path, monkeypatch):
    """The recompute that builds the groups is cancelled at its first
    executor tick: nothing half-built is kept, the forced recompute that
    follows builds them."""
    db = make_db("DEFERRED")
    INJECTOR.arm("executor.tick", times=1, error=QueryCancelled)
    db.run_sql(insert())
    db.drain_refresh()
    assert INJECTOR.spec("executor.tick") is None  # it fired
    assert any("refresh cancelled" in e for e in db.refresh_scheduler.errors)
    assert_never_stale(db)
    touch(db)
    return [db]


def save_load_first_write(tmp_path, monkeypatch):
    """The save directory holds the three summaries and nothing of their
    groups; the loaded database builds its own at its first write."""
    db = make_db()
    touch(db)
    target = save_database(db, tmp_path / "saved")
    stored = sorted(os.listdir(target))
    assert not any("gb-" in name.lower() for name in stored)
    other = make_db()  # never touched: no groups
    assert stored == sorted(os.listdir(save_database(other, tmp_path / "plain")))
    other.close()
    loaded = load_database(target)
    assert built(loaded) == set()
    report = loaded.insert_rows("T", NEW)
    assert set(report.recomputed) == {"NESTED", "HAVING_V"}
    assert_never_stale(loaded)
    touch(loaded)
    return [db, loaded]


def sigkill_then_replay(tmp_path, monkeypatch):
    """A real ``repro serve`` process is killed after its groups were
    built; journal replay recomputes nothing it did not have to and the
    recovered database builds its own."""
    wal_dir = tmp_path / "wal"
    process, host, port = launch_server(wal_dir)
    try:
        with ReproClient(host, port) as client:
            for statement in setup_sql():
                client.query(statement)
            client.query(insert(ROWS[:200]))
            client.query(insert())
            client.query(delete(NEW[:2]))
            recomputes = client.status()["refresh"]["recomputes"]
            assert recomputes == {name: 1 for name in VIEWS}
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.kill()
        process.wait(timeout=30)
    assert not any("gb-" in name.lower() for name in os.listdir(wal_dir))
    wal = WriteAheadLog(wal_dir, sync="os")
    recovered = wal.recover().database
    wal.close()
    assert len(recovered.table("T")) == 201
    assert_never_stale(recovered)
    touch(recovered)
    return [recovered]


def standby_after_snapshot(tmp_path, monkeypatch):
    """The snapshot a standby bootstraps from carries no groups; its
    apply loop builds its own, once, from the shipped writes."""
    db = make_db()
    server = primary(tmp_path, db)
    standby = StandbyServer(
        server.address, wal_dir=str(tmp_path / "wal-standby"), sync="os",
        reconnect_backoff=0.05, reconnect_cap=0.5,
    )
    try:
        with ReproClient(*server.address) as client:
            client.query(insert())
            client.query(delete(NEW[:1]))
            standby.start()
            wait_for_catchup(standby, server.applied_lsn, timeout=15)
            replica = standby.server.db
            assert built(replica) == set()
            for _ in range(2):
                client.query(insert())
                client.query(delete())
            wait_for_catchup(standby, server.applied_lsn, timeout=15)
        assert built(replica) == set(VIEWS)
        assert replica.metrics.series("maintenance_recomputes", "summary") == {
            name: 1 for name in VIEWS
        }
        assert tables_equal(db.table("T"), replica.table("T"))
        assert_never_stale(replica)
        return [db]
    finally:
        standby.stop()
        stop(server)


def drop_and_recreate(tmp_path, monkeypatch):
    db = make_db()
    touch(db)
    for name in VIEWS:
        db.run_sql(f"DROP SUMMARY TABLE {name}")
    db.run_sql(insert(ROWS[:1]))  # no view, no groups: nothing follows this
    for name, sql in VIEWS.items():
        db.run_sql(f"CREATE SUMMARY TABLE {name} AS {sql}")
    assert all(s._auxiliary is None for s in db.summary_tables.values())
    touch(db)
    return [db]


SCENARIOS = [
    journal_fault_rolled_back,
    scheduler_apply_fault,
    cancelled_first_build,
    save_load_first_write,
    sigkill_then_replay,
    standby_after_snapshot,
    drop_and_recreate,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_auxiliary_groups_are_never_stale(scenario, tmp_path, monkeypatch):
    databases = scenario(tmp_path, monkeypatch)
    try:
        for db in databases:
            assert_never_stale(db)
            # and the state still carries writes of both signs
            db.run_sql(insert(ROWS[:3]))
            db.run_sql(delete(ROWS[:4]))
            assert_never_stale(db)
    finally:
        for db in databases:
            db.close()


def test_the_build_is_one_recompute_per_summary_on_every_surface(tmp_path):
    """Twenty journaled writes over the nine figure ASTs: ``status``, the
    counters, the event log and the shell report AST4, AST6 and AST8
    recomputed once each — the builds — not once per write, and name no
    table but the nine summaries and the base tables."""
    db = make_database(
        GeneratorConfig(
            customers=6, accounts_per_customer=2, cities=12,
            transactions_per_account_year=12,
        )
    )
    asts = {name: sql for name, sql, _query, _pattern in FIGURES.values()}
    for name, sql in asts.items():
        db.create_summary_table(name, sql)
    events.LOG.clear()
    server = primary(tmp_path, db)
    try:
        with ReproClient(*server.address) as client:
            live = []
            for turn in range(1, 21):
                if turn % 4 == 0:
                    row = live.pop(0)
                    client.query(f"DELETE FROM Trans VALUES {row}")
                else:
                    row = (
                        f"({90_000 + turn}, 1, {1 + turn % 12}, 1, "
                        f"date '199{turn % 3}-{1 + turn % 12:02d}-05', 2, 10.0, 0.2)"
                    )
                    client.query(f"INSERT INTO Trans VALUES {row}")
                    live.append(row)
            status = client.status()
            assert status["wal"]["last_lsn"] == 20
            once = {"AST4": 1, "AST6": 1, "AST8": 1}
            assert status["refresh"]["recomputes"] == once
            with pytest.raises(ReproError):
                client.query("select * from ast8.gb-2a")
        assert db.metrics.series("maintenance_recomputes", "summary") == once
        recomputes = [e for e in events.tail(200) if e["event"] == "summary.recompute"]
        assert sorted(e["summary"] for e in recomputes) == sorted(once)
        assert all("kept as auxiliary groups" in e["reason"] for e in recomputes)
        out = io.StringIO()
        shell = Shell(db, out=out)
        shell.handle_line("\\d")
        shell.handle_line("\\status")
        text = out.getvalue()
        listed = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("summary table")
        ]
        assert listed == sorted(asts)
        (recomputed,) = [line for line in text.splitlines() if "recomputed:" in line]
        assert sorted(recomputed.split("recomputed: ")[1].split(", ")) == [
            "AST4 x1", "AST6 x1", "AST8 x1",
        ]
        assert "gb-2a" not in text.lower()
        assert set(db.tables) == set(db.catalog.tables) == {
            *(name.lower() for name in asts), "trans", "loc", "acct", "cust", "pgroup",
        }
        for summary in db.summary_tables.values():
            assert tables_equal(summary.table, db.execute_graph(summary.graph))
    finally:
        stop(server)
        db.close()
