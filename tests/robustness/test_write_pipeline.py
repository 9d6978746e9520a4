"""One write path, one fault matrix.

Every write goes through ``Database.run_write`` whichever way it
arrives: in process, at a primary server, on a standby as a shipped
journal record, or in journal replay. The matrix crosses those entry
points with the faults a write can meet — a summary's maintenance
failing part-way (``maintenance._apply`` raising on its second call,
after one summary took the change), the journal refusing the record
(``wal.append``), its flush failing (``wal.fsync``) and the disk filling
(``wal.disk_full``); journal faults only where a journal is passed — and
checks one rule in every cell: afterwards the base table and every
summary equal their state before the write, no journal holds it, and a
retry equals a clean run.

Beside the matrix, three regressions: a multi-row DELETE naming a
missing row, a standby whose journal refuses a shipped record, and the
process-wide SETs sent to a standby and to a disk-full primary.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.asts import maintenance
from repro.engine import Database
from repro.engine.table import Table, tables_equal
from repro.errors import MaintenanceError, ReproError
from repro.obs import spans
from repro.replication import WalRecord, WriteAheadLog, mutation_kind
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.sql.statements import parse_statement
from repro.testing import INJECTOR

SUMMARIES = {
    "AGG": ("IMMEDIATE", "select a, count(*) as n, sum(b) as s from T group by a"),
    "NESTED": (
        "IMMEDIATE",
        "select n, count(*) as k from "
        "(select a, count(*) as n from T group by a) group by n",
    ),
    "SEL": ("IMMEDIATE", "select a, b from T where b > 15"),
    "LAZY": ("DEFERRED", "select b, count(*) as n from T group by b"),
}
ROWS = [(i % 4, i) for i in range(30)]
WRITES = {
    "insert": "INSERT INTO T VALUES (1, 5), (7, 70)",  # a duplicate, a new group
    "delete": "DELETE FROM T VALUES (1, 17), (2, 2)",
}
FAULTS = ["maintenance", "wal.append", "wal.fsync", "wal.disk_full"]


def make_db() -> Database:
    """``T`` and four summaries — one per delta shape the maintenance of
    a write takes — after one insert and one delete, so every summary
    that keeps auxiliary groups has them."""
    db = Database()
    db.run_sql("CREATE TABLE T (a INTEGER NOT NULL, b INTEGER NOT NULL)")
    db.load("T", ROWS)
    for name, (mode, sql) in SUMMARIES.items():
        db.run_sql(f"CREATE SUMMARY TABLE {name} REFRESH {mode} AS {sql}")
    db.run_sql("INSERT INTO T VALUES (0, 100)")
    db.run_sql("DELETE FROM T VALUES (0, 100)")
    db.drain_refresh()
    return db


def snapshot(db: Database) -> dict[str, Table]:
    db.drain_refresh()
    return {
        name: Table(db.table(name).columns, db.table(name).rows)
        for name in ["T", *SUMMARIES]
    }


def assert_state(db: Database, expected: dict[str, Table]) -> None:
    db.drain_refresh()
    for name, table in expected.items():
        assert tables_equal(db.table(name), table), f"{name} differs"
    for summary in db.summary_tables.values():
        assert tables_equal(summary.table, db.execute_graph(summary.graph)), (
            f"{summary.name} != its defining query"
        )


@contextmanager
def armed(fault: str, monkeypatch):
    """Arm ``fault`` for one write; fail the test if it never fired."""
    if fault != "maintenance":
        with INJECTOR.injected(fault, times=1) as spec:
            yield
        assert spec.triggers == 1
        return
    apply, calls = maintenance._apply, []

    def fail_second(*args):
        calls.append(args[0].name)
        if len(calls) == 2:
            raise MaintenanceError("injected: the second summary apply failed")
        return apply(*args)

    monkeypatch.setattr(maintenance, "_apply", fail_second)
    try:
        yield
    finally:
        monkeypatch.setattr(maintenance, "_apply", apply)
    assert len(calls) >= 2


# ----------------------------------------------------------------------
# The four entry points: ``write(sql)`` returns the status the caller
# sees (None where there is none), ``journal()`` the durable records'
# SQL where a journal is passed.
class InProcess:
    journaled = False

    def __init__(self, tmp_path, monkeypatch):
        self.db = make_db()

    def write(self, sql: str):
        return self.db.run_sql(sql)

    def close(self) -> None:
        self.db.close()


class Primary:
    journaled = True

    def __init__(self, tmp_path, monkeypatch):
        self.db = make_db()
        self.wal = WriteAheadLog(tmp_path / "wal", sync="os")
        self.wal.begin(self.db)
        self.server = QueryServer(self.db, port=0, wal=self.wal)
        self.client = ReproClient(*self.server.start_in_thread())

    def write(self, sql: str):
        return self.client.query(sql).status

    def journal(self) -> list[str]:
        return [record.sql for record in self.wal.records_after(0)]

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.wal.close()
        self.db.close()


class Standby(Primary):
    """A read-only server applying shipped records, as its tailer does."""

    def __init__(self, tmp_path, monkeypatch):
        self.db = make_db()
        self.wal = WriteAheadLog(tmp_path / "wal", sync="os")
        self.wal.begin(self.db)
        self.server = QueryServer(self.db, read_only=True, wal=self.wal)
        self.client = None

    def write(self, sql: str):
        lsn = self.server.applied_lsn + 1
        kind = mutation_kind(parse_statement(sql))
        self.server.apply_replicated(WalRecord(lsn, kind, sql))
        assert self.server.applied_lsn == lsn

    def close(self) -> None:
        self.server.stop()
        self.wal.close()
        self.db.close()


class Recovery:
    """Journal replay: the write is journaled once over the state before
    it and every ``write`` recovers that journal afresh; a replay that
    fails leaves ``db`` the database it was replaying into."""

    journaled = False

    def __init__(self, tmp_path, monkeypatch):
        self.db = make_db()
        self.directory = tmp_path / "wal"
        replaying = self.replaying = []
        run_write = Database.run_write

        def spy(db, *args, **kwargs):
            replaying.append(db)
            return run_write(db, *args, **kwargs)

        monkeypatch.setattr(Database, "run_write", spy)

    def write(self, sql: str):
        if not self.directory.exists():
            wal = WriteAheadLog(self.directory, sync="os")
            wal.begin(self.db)
            wal.append(mutation_kind(parse_statement(sql)), sql)
            wal.close()
        self.db.close()
        wal = WriteAheadLog(self.directory, sync="os")
        try:
            self.db = wal.recover().database
        except BaseException:
            self.db = self.replaying[-1]
            raise
        wal.close()

    def close(self) -> None:
        self.db.close()


ENTRIES = [InProcess, Primary, Standby, Recovery]
CELLS = [
    pytest.param(entry, fault, id=f"{entry.__name__}-{fault}")
    for entry in ENTRIES
    for fault in FAULTS
    if fault == "maintenance" or entry.journaled
]


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("entry, fault", CELLS)
def test_a_failed_write_changes_nothing_and_a_retry_equals_a_clean_run(
    entry, fault, write, tmp_path, monkeypatch
):
    sql = WRITES[write]
    clean = make_db()
    clean_status = clean.run_sql(sql)
    after = snapshot(clean)
    clean.close()
    target = entry(tmp_path, monkeypatch)
    try:
        before = snapshot(target.db)
        with armed(fault, monkeypatch):
            with pytest.raises(Exception):
                target.write(sql)
        assert_state(target.db, before)
        if entry.journaled:
            assert sql not in target.journal()
        status = target.write(sql)
        assert_state(target.db, after)
        if status is not None:
            assert status == clean_status
        if entry.journaled:
            assert target.journal().count(sql) == 1
    finally:
        target.close()


# ----------------------------------------------------------------------
# Regressions
DELETE_ONE_MISSING = "DELETE FROM T VALUES (1, 10), (9, 9)"
QUERY = "select a, count(*) as n, sum(b) as s from T group by a"


def two_row_db() -> Database:
    db = Database()
    db.run_sql("CREATE TABLE T (a INTEGER NOT NULL, b INTEGER NOT NULL)")
    db.run_sql("INSERT INTO T VALUES (1, 10), (1, 20)")
    db.run_sql(f"CREATE SUMMARY TABLE S AS {QUERY}")
    return db


def assert_untouched(db: Database) -> None:
    assert sorted(db.table("T").rows) == [(1, 10), (1, 20)]
    assert db.table("S").rows == [(1, 2, 30)]
    assert db.rewrite(QUERY) is not None
    assert db.execute(QUERY).rows == [(1, 2, 30)]
    assert db.execute(QUERY, use_summary_tables=False).rows == [(1, 2, 30)]


class TestAFailedMultiRowDeleteChangesNothing:
    """The missing second row used to raise after the first was deleted
    from ``T`` and from no summary: the rewritten answer kept (1, 2, 30)
    while the base plan said (1, 1, 20)."""

    def test_in_process(self):
        db = two_row_db()
        with pytest.raises(MaintenanceError, match=r"\(9, 9\) not present"):
            db.run_sql(DELETE_ONE_MISSING)
        assert_untouched(db)
        db.close()

    def test_over_the_wire_with_a_journal(self, tmp_path):
        db = two_row_db()
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        server = QueryServer(db, port=0, wal=wal)
        try:
            with ReproClient(*server.start_in_thread()) as client:
                with pytest.raises(ReproError, match=r"\(9, 9\) not present"):
                    client.query(DELETE_ONE_MISSING)
                assert client.query(QUERY).table.rows == [(1, 2, 30)]
            wal.flush()
            assert wal.last_lsn == 0
            assert wal.records_after(0) == []
            assert_untouched(db)
        finally:
            server.stop()
            wal.close()
            db.close()


def test_a_standby_journal_failure_does_not_double_apply(tmp_path):
    """The standby used to apply the record before its own journal
    refused it, without moving ``applied_lsn``: the re-shipped record
    was applied a second time."""
    db = Database()
    db.run_sql("CREATE TABLE T (a INTEGER NOT NULL, b INTEGER NOT NULL)")
    wal = WriteAheadLog(tmp_path / "wal", sync="os")
    wal.begin(db)
    standby = QueryServer(db, read_only=True, wal=wal)
    record = WalRecord(1, "insert", "INSERT INTO T VALUES (5, 50)")
    try:
        with INJECTOR.injected("wal.append", times=1):
            with pytest.raises(Exception):
                standby.apply_replicated(record)
        assert len(db.table("T")) == 0
        assert standby.applied_lsn == 0
        standby.apply_replicated(record)  # shipped again
        assert db.table("T").rows == [(5, 50)]
        assert standby.applied_lsn == record.lsn
        assert [r.sql for r in wal.records_after(0)] == [record.sql]
    finally:
        standby.stop()
        wal.close()
        db.close()


class TestProcessWideSetsAreNotWrites:
    """``SET SLOW QUERY`` and ``SET TRACE SAMPLE`` are not journaled:
    neither a standby nor a disk-full primary refuses them (both used to
    answer ``ReadOnlyError``)."""

    STATEMENTS = ["SET SLOW QUERY 5", "SET TRACE SAMPLE 0.5", "SET TRACE SAMPLE OFF"]

    @pytest.fixture(autouse=True)
    def no_tracer(self):
        spans.uninstall()
        yield
        spans.uninstall()

    def check(self, server: QueryServer) -> None:
        with ReproClient(*server.address) as client:
            for sql in self.STATEMENTS:
                assert client.query(sql).status
            assert client.set("SET SLOW QUERY OFF")
        assert server.db.slow_query_ms is None

    def test_on_a_standby(self):
        db = Database()
        server = QueryServer(db, port=0, read_only=True)
        server.start_in_thread()
        try:
            self.check(server)
        finally:
            server.stop()
            db.close()

    def test_on_a_disk_full_primary(self, tmp_path):
        db = Database()
        db.run_sql("CREATE TABLE T (a INTEGER NOT NULL, b INTEGER NOT NULL)")
        wal = WriteAheadLog(tmp_path / "wal", sync="os")
        wal.begin(db)
        server = QueryServer(db, port=0, wal=wal)
        server.start_in_thread()
        try:
            with INJECTOR.injected("wal.disk_full", every=1):
                with ReproClient(*server.address) as client:
                    with pytest.raises(ReproError):
                        client.query("INSERT INTO T VALUES (1, 1)")
                assert server.status()["wal"]["disk_full"]
                self.check(server)
                assert server.status()["wal"]["disk_full"]
        finally:
            server.stop()
            wal.close()
            db.close()
