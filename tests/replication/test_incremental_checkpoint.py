"""A checkpoint costs what changed — and writes what a plain save writes.

The oracle is a plain ``save_database`` of the same state: after every
checkpoint of a chain, over every way a stored table changes, the
committed ``checkpoint-<lsn>/`` directory is file for file, byte for
byte that save (``diff -r`` empty) and loads clean.  The work saved is
asserted as a count of framed rows (a spy on ``persist.frame``), never
as a time."""

from __future__ import annotations

import filecmp
import json
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.bench.figures import FIGURES, make_database
from repro.engine import persist
from repro.engine.persist import load_database, save_database, verify_database
from repro.engine.table import RowsView, Table
from repro.obs import events
from repro.replication import WriteAheadLog, mutation_kind
from repro.sql.statements import parse_statement
from repro.workloads.datagen import GeneratorConfig, small_config

TINY = GeneratorConfig(
    customers=6, accounts_per_customer=2, cities=12,
    transactions_per_account_year=12,
)
#: on a keyless table, so duplicates and emptied groups are easy to make
VIEWS = {
    "NESTED": (
        "select g, c, count(*) as n from "
        "(select g, h, count(*) as c from T group by g, h) group by g, c"
    ),
    "NO_COUNT": "select g, sum(v) as s from T group by g",
    "BY_H": "select h, count(*) as c, sum(v) as s from T group by h",
}
DEFERRED = "select g, count(*) as c, sum(v) as s from T group by g"


def figure_database(config):
    """The credit-card database with the nine figure ASTs."""
    db = make_database(config)
    for name, sql, _query, _pattern in FIGURES.values():
        if name.lower() not in db.summary_tables:
            db.create_summary_table(name, sql)
    return db


def build():
    """The figure database plus a keyless table under a nested-aggregation
    view, a COUNT(*)-less view, a plain one and a deferred one."""
    db = figure_database(TINY)
    db.run_sql(
        "CREATE TABLE T (g INTEGER NOT NULL, h INTEGER NOT NULL, v INTEGER NOT NULL)"
    )
    db.load("T", [(i % 5, i % 7, i) for i in range(200)])
    for name, sql in VIEWS.items():
        db.run_sql(f"CREATE SUMMARY TABLE {name} AS {sql}")
    db.run_sql(f"CREATE SUMMARY TABLE LATER REFRESH DEFERRED AS {DEFERRED}")
    return db


def trans(tid: int, *, year: int = 1991, qty: int = 2, disc: float = 0.2) -> str:
    return f"({tid}, 1, 1, 1, DATE '{year}-03-03', {qty}, 10.0, {disc})"


def sql_row(row: tuple) -> str:
    tid, fpgid, flid, faid, date, qty, price, disc = row
    return (
        f"({tid}, {fpgid}, {flid}, {faid}, DATE '{date.isoformat()}', "
        f"{qty}, {price!r}, {disc!r})"
    )


class FrameSpy:
    """Counts the rows ``persist`` encodes (every row line and delta
    line goes through ``persist.frame``)."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = persist.frame

        def spy(payload):
            self.count += 1
            return real(payload)

        monkeypatch.setattr(persist, "frame", spy)

    def during(self, action) -> int:
        before = self.count
        action()
        return self.count - before


class Chain:
    """A database, its journal, and the oracle; with ``monkeypatch``,
    ``framed`` is the number of rows the last checkpoint encoded;
    ``previous`` is the save ``db`` was loaded from."""

    def __init__(self, tmp_path: Path, db=None, monkeypatch=None, previous=None):
        self.tmp = tmp_path
        self.db = db if db is not None else build()
        self.spy = FrameSpy(monkeypatch) if monkeypatch is not None else None
        self.wal = WriteAheadLog(tmp_path / "wal", sync="os")
        self.wal.begin(self.db, previous=previous)
        self.saves = self.framed = 0

    def run(self, sql: str) -> None:
        self.db.run_sql(sql)
        self.wal.append(mutation_kind(parse_statement(sql)), sql)

    def stored_rows(self) -> int:
        return sum(len(table) for table in self.db.tables.values())

    def committed(self) -> Path:
        meta = json.loads((self.wal.directory / "wal.meta.json").read_text())
        return self.wal.directory / meta["checkpoint_dir"]

    def checkpoint(self) -> Path:
        """Checkpoint, then hold it against a plain save of the same
        state (the lock keeps a background refresh out from between).
        At an unchanged LSN nothing is written and the snapshot stands —
        a background refresh since is no journaled record."""
        unchanged = self.wal.last_lsn == self.wal.checkpoint_lsn
        with self.db._maintenance_lock:
            if self.spy is None:
                self.wal.checkpoint(self.db)
            else:
                self.framed = self.spy.during(lambda: self.wal.checkpoint(self.db))
            if unchanged:
                return self.committed()
            self.saves += 1
            plain = save_database(self.db, self.tmp / f"plain-{self.saves}")
        committed = self.committed()
        assert_same_directory(committed, plain)
        loaded = load_database(committed)
        assert verify_database(loaded).clean
        loaded.close()
        return committed


def assert_same_directory(left: Path, right: Path) -> None:
    """``diff -r left right`` is empty."""
    names = sorted(p.name for p in left.iterdir())
    assert names == sorted(p.name for p in right.iterdir())
    for name in names:
        assert filecmp.cmp(left / name, right / name, shallow=False), name


# ----------------------------------------------------------------------
def test_a_chain_takes_over_the_save_it_was_loaded_from(tmp_path, monkeypatch):
    """``serve --open DIR --wal W``: the baseline of a database loaded
    from DIR frames no row and is DIR byte for byte; after a restart,
    the recovered database's first checkpoint frames only what changed
    since the checkpoint it was loaded from."""
    db = figure_database(TINY)
    save_database(db, tmp_path / "db")
    db.close()
    chain = Chain(
        tmp_path, load_database(tmp_path / "db"), monkeypatch, tmp_path / "db"
    )
    assert chain.spy.count == 0
    assert_same_directory(chain.committed(), tmp_path / "db")
    chain.run(f"INSERT INTO Trans VALUES {trans(900001)}")
    chain.wal.close()
    chain.wal = WriteAheadLog(tmp_path / "wal", sync="os")
    chain.db = chain.wal.recover().database
    chain.run(f"INSERT INTO Trans VALUES {trans(900002)}")
    chain.checkpoint()
    assert 0 < chain.framed < chain.stored_rows() // 4
    chain.wal.close()


def test_every_way_a_stored_table_changes(tmp_path):
    chain = Chain(tmp_path)
    db, run, checkpoint = chain.db, chain.run, chain.checkpoint
    rows = list(db.table("Trans").rows)

    run(f"INSERT INTO Trans VALUES {trans(900001)}")  # first need: AST8's groups
    checkpoint()
    run(f"INSERT INTO Trans VALUES {trans(900002)}, {trans(900003, qty=5)}")
    checkpoint()
    run(f"DELETE FROM Trans VALUES {trans(900003, qty=5)}")  # newest
    checkpoint()  # … and the first need of AST4's and AST6's groups
    run(f"DELETE FROM Trans VALUES {sql_row(rows[0])}")  # oldest
    checkpoint()
    run(f"DELETE FROM Trans VALUES {sql_row(rows[len(rows) // 2])}")
    checkpoint()
    run(f"INSERT INTO Trans VALUES {trans(900002)}")  # a duplicate
    run(f"DELETE FROM Trans VALUES {trans(900002)}")  # one of the two
    checkpoint()

    # a group of its own (no other 1987 row): made, emptied — the summary
    # swap-removes its row — and refilled
    run(f"INSERT INTO Trans VALUES {trans(900010, year=1987)}")
    checkpoint()
    run(f"DELETE FROM Trans VALUES {trans(900010, year=1987)}")
    checkpoint()
    run(f"INSERT INTO Trans VALUES {trans(900011, year=1987)}")
    checkpoint()

    # the keyless table: duplicates, a new group, nested aggregation; the
    # deferred summary's deltas are staged at the first checkpoint (the
    # lock keeps the scheduler out), applied at the second
    with db._maintenance_lock:
        run("INSERT INTO T VALUES (1, 1, 9001), (1, 1, 9001), (6, 9, 9002)")
        staged = checkpoint()
        assert (staged / "deltas.jsonl").exists()
    db.drain_refresh()
    chain.wal.append("refresh", "-- drained")  # move the LSN
    assert not (checkpoint() / "deltas.jsonl").exists()
    run("DELETE FROM T VALUES (1, 1, 9001), (6, 9, 9002)")
    db.drain_refresh()
    checkpoint()

    run("REFRESH SUMMARY TABLE AST2")
    checkpoint()
    run("REFRESH SUMMARY TABLE")
    checkpoint()
    run("DROP SUMMARY TABLE BY_H")
    checkpoint()
    run(f"CREATE SUMMARY TABLE BY_H AS {VIEWS['BY_H']}")
    run("INSERT INTO T VALUES (2, 2, 9003)")
    db.drain_refresh()  # (a background refresh is not a journaled record)
    checkpoint()

    # nothing journaled since: nothing is written, the snapshot stands
    before = chain.committed()
    stamp = (before / "catalog.json").stat().st_mtime_ns
    assert checkpoint() == before
    assert (before / "catalog.json").stat().st_mtime_ns == stamp
    assert_same_directory(before, save_database(db, tmp_path / "plain-last"))
    chain.wal.close()
    db.close()


STATEMENTS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert_many", "delete_new", "delete_old", "t_insert",
             "t_delete", "refresh", "recreate", "drain", "checkpoint"]
        ),
        st.integers(0, 10_000),
    ),
    min_size=4, max_size=14,
)


@settings(max_examples=12, deadline=None, derandomize=True, phases=[Phase.generate])
@given(STATEMENTS)
def test_seeded_sequences(tmp_path_factory, sequence):
    chain = Chain(tmp_path_factory.mktemp("chain"))
    db, run = chain.db, chain.run
    inserted: list[str] = []
    t_rows: list[str] = []
    tids = iter(range(900000, 10**6))
    for op, pick in sequence:
        rng = random.Random(pick)
        if op in ("insert", "insert_many"):
            new = [
                trans(next(tids), year=rng.choice([1990, 1991, 1992, 1987]),
                      qty=rng.randint(1, 5), disc=rng.choice([0.0, 0.2]))
                for _ in range(1 if op == "insert" else 3)
            ]
            run(f"INSERT INTO Trans VALUES {', '.join(new)}")
            inserted += new
        elif op == "delete_new" and inserted:
            run(f"DELETE FROM Trans VALUES {inserted.pop(pick % len(inserted))}")
        elif op == "delete_old":
            old = db.table("Trans").rows[pick % 400]
            if old[0] < 900000:
                run(f"DELETE FROM Trans VALUES {sql_row(old)}")
        elif op == "t_insert":
            row = f"({pick % 7}, {pick % 3}, {pick % 4})"
            run(f"INSERT INTO T VALUES {row}, {row}")
            t_rows += [row, row]
        elif op == "t_delete" and t_rows:
            run(f"DELETE FROM T VALUES {t_rows.pop()}")
        elif op == "refresh":
            name = sorted(db.summary_tables)[pick % len(db.summary_tables)]
            run(f"REFRESH SUMMARY TABLE {name}")
        elif op == "recreate":
            run("DROP SUMMARY TABLE NO_COUNT")
            run(f"CREATE SUMMARY TABLE NO_COUNT AS {VIEWS['NO_COUNT']}")
        elif op == "drain":
            db.drain_refresh()
        elif op == "checkpoint":
            chain.checkpoint()
    chain.checkpoint()
    chain.wal.close()
    db.close()


# ----------------------------------------------------------------------
class TouchedRows:
    """An independent count of the rows the writes touched, taken at the
    table's mutators: a row written, appended, or moved to another slot
    (an ordered delete moves every later row up)."""

    def __init__(self, monkeypatch):
        self.count = 0

        def wrap(owner, name, touched):
            real = getattr(owner, name)

            def wrapper(target, *args):
                self.count += touched(target, *args)
                return real(target, *args)

            monkeypatch.setattr(owner, name, wrapper)

        wrap(RowsView, "__setitem__", lambda view, index, row: 1)
        wrap(RowsView, "__delitem__",
             lambda view, index: len(view) - 1 - index % len(view))
        wrap(Table, "extend_trusted", lambda table, rows, *rest: len(rows))
        wrap(Table, "fill_column", lambda table, index, value: len(table))
        wrap(Table, "adopt_columns", lambda table, other: len(other))


def ledger_writes(seed: int, count: int = 32, delete_every: int = 8) -> list[str]:
    """The ledger's writer: one-row inserts, every eighth statement
    deleting the oldest row it inserted."""
    rng = random.Random(seed)
    live: list[str] = []
    statements = []
    for turn in range(1, count + 1):
        if turn % delete_every == 0 and live:
            statements.append(f"DELETE FROM Trans VALUES {live.pop(0)}")
        else:
            live.append(
                f"({10**6 + turn}, {rng.randint(1, 10)}, {rng.randint(1, 12)}, "
                f"{rng.randint(1, 20)}, DATE '{rng.randint(1990, 1992)}-"
                f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}', "
                f"{rng.randint(1, 5)}, {round(rng.uniform(5.0, 900.0), 2)}, "
                f"{rng.choice([0.0, 0.05, 0.1, 0.15, 0.2, 0.25])})"
            )
            statements.append(f"INSERT INTO Trans VALUES {live[-1]}")
    return statements


class TestWorkIsACount:
    @pytest.fixture
    def chain(self, tmp_path, monkeypatch):
        db = figure_database(small_config())
        chain = Chain(tmp_path, db, monkeypatch)
        assert chain.spy.count == chain.stored_rows()  # the baseline: all
        yield chain
        chain.wal.close()
        db.close()

    def test_a_checkpoint_frames_what_the_writes_touched(self, chain, monkeypatch):
        stored = chain.stored_rows()
        touched = TouchedRows(monkeypatch)
        for round_ in range(3):  # the first round carries the cascades' builds
            before = touched.count
            for sql in ledger_writes(seed=round_):
                chain.run(sql)
            written = touched.count - before
            chain.checkpoint()
            assert 0 < chain.framed <= written
        assert chain.framed < stored // 4  # of 1 900 stored rows, a fraction

    def test_the_event_counts_encoded_and_reused_rows(self, chain):
        chain.run(f"INSERT INTO Trans VALUES {trans(900001)}")
        chain.checkpoint()
        chain.run(f"INSERT INTO Trans VALUES {trans(900002)}")
        chain.checkpoint()
        event = [e for e in events.tail(50) if e["event"] == "wal.checkpoint"][-1]
        assert event["rows_encoded"] == chain.framed
        assert event["rows_encoded"] + event["rows_reused"] == chain.stored_rows()
        assert event["ms"] == chain.wal.last_checkpoint_ms > 0

    def test_no_write_no_row(self, chain):
        chain.run(f"INSERT INTO Trans VALUES {trans(900001)}")
        chain.checkpoint()
        # a record that changes no stored table still moves the LSN
        chain.wal.append("refresh", "-- nothing")
        chain.checkpoint()
        assert chain.framed == 0
        # and at an unchanged LSN nothing is written at all
        lsn, checkpoints = chain.wal.checkpoint_lsn, chain.wal.checkpoints
        chain.checkpoint()
        assert chain.framed == 0
        assert (chain.wal.checkpoint_lsn, chain.wal.checkpoints) == (lsn, checkpoints)

    def test_a_refresh_frames_that_summary_and_no_other(self, chain):
        chain.run(f"INSERT INTO Trans VALUES {trans(900001)}")
        chain.checkpoint()
        chain.run("REFRESH SUMMARY TABLE AST2")
        chain.checkpoint()
        assert chain.framed == len(chain.db.table("AST2"))
