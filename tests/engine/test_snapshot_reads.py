"""Readers pin, writers own: a SELECT reads the state between two whole
writes, for every table in its plan, whatever a writer does meanwhile.

The races are staged, not hoped for: a reader is parked inside the
executor while a write runs start to finish on another thread, or a
writer is parked inside maintenance while a reader arrives. Answers are
compared, not the absence of errors — a half-merged group raises
nothing."""

from __future__ import annotations

import datetime
import threading

import pytest

import repro.asts.maintenance as maintenance_mod
from repro.bench import FIGURES, make_database
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.refresh.policy import RefreshAge
from repro.workloads import small_config

AST = "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
QUERY = "select count(*) as cnt, sum(qty) as sqty from Trans"
NEW = (301, 1, 1, 10, datetime.date(1994, 3, 3), 7, 9.0, 0.0)
OLD = (1, 1, 1, 10, datetime.date(1990, 1, 15), 2, 110.0, 0.2)


def read(db, rewritten: bool):
    """QUERY's answer; a stale deferred summary may serve it."""
    run = db.run_select(
        QUERY, use_summary_tables=rewritten, tolerance=RefreshAge.ANY
    )
    assert (run.rewrite is not None) == rewritten
    return run.table.rows[0]


def staged(db):
    """One insert staged for the deferred summary, not applied: the
    summary answers 6 rows, the base tables 7."""
    db.insert_rows("Trans", [NEW])


WRITES = {
    # name: (summary refresh mode, setup, the write, answer after it)
    "insert": ("immediate", None, lambda db: db.insert_rows("Trans", [NEW]), (7, 17)),
    "delete": ("immediate", None, lambda db: db.delete_rows("Trans", [OLD]), (5, 8)),
    "refresh": ("deferred", staged, lambda db: db.refresh_summary_tables(), (7, 17)),
    "deferred_apply": ("deferred", staged, lambda db: db.drain_refresh(), (7, 17)),
}


@pytest.fixture(params=sorted(WRITES))
def scenario(request, tiny_db):
    mode, setup, write, after = WRITES[request.param]
    tiny_db.create_summary_table("S", AST, refresh_mode=mode)
    if setup is not None:
        setup(tiny_db)
    yield tiny_db, write, after
    tiny_db.close()


@pytest.mark.parametrize("rewritten", [False, True], ids=["base", "rewritten"])
def test_a_parked_reader_answers_from_before_the_write(
    scenario, rewritten, monkeypatch
):
    """The reader holds its tables and has read none of their rows when
    a whole write lands; it still answers as of before the write."""
    db, write, after = scenario
    before = read(db, rewritten)
    original = Executor._scan
    reader = threading.current_thread()
    parked = []

    def scan_then_park(self, box):
        table = original(self, box)
        if threading.current_thread() is reader and not parked:
            parked.append(True)
            writer = threading.Thread(target=write, args=(db,))
            writer.start()
            writer.join(timeout=60)
            assert not writer.is_alive()  # a parked reader blocks no write
        return table

    monkeypatch.setattr(Executor, "_scan", scan_then_park)
    during = read(db, rewritten)
    monkeypatch.undo()
    assert parked
    assert during == before
    assert read(db, rewritten) == after == read(db, not rewritten)


@pytest.mark.parametrize("rewritten", [False, True], ids=["base", "rewritten"])
def test_a_reader_waits_out_a_parked_writer(tiny_db, rewritten, monkeypatch):
    """The writer is parked with the row in ``Trans`` and not yet in the
    summary; a reader arriving then neither sees that nor fails — it
    finishes after the write and answers as of after it."""
    db = tiny_db
    db.create_summary_table("S", AST)
    original = maintenance_mod._apply
    parked, release = threading.Event(), threading.Event()

    def park_then_apply(*args):
        parked.set()
        assert release.wait(timeout=60)
        return original(*args)

    monkeypatch.setattr(maintenance_mod, "_apply", park_then_apply)
    writer = threading.Thread(target=db.insert_rows, args=("Trans", [NEW]))
    writer.start()
    assert parked.wait(timeout=60)
    answers = []
    second = threading.Thread(target=lambda: answers.append(read(db, rewritten)))
    second.start()
    second.join(timeout=0.3)
    waited = second.is_alive()
    release.set()
    writer.join(timeout=60)
    second.join(timeout=60)
    assert not writer.is_alive() and not second.is_alive()
    assert waited
    assert answers == [(7, 17)]


def test_a_pinned_view_copies_before_it_is_written_to(tiny_db):
    trans = tiny_db.table("Trans")
    lists = trans.columns_data()
    view = trans.pin()
    assert type(view) is Table and view.rows == trans.rows
    view.rows.append(NEW)
    view.rows[0] = NEW
    del view.rows[1]
    view.fill_column(0, None)
    assert len(view) == 6 and view.rows[-1] == (None, *NEW[1:])
    assert len(trans) == 6 and trans.rows[0] == OLD
    assert all(a is b for a, b in zip(lists, trans.columns_data()))
    assert not any(a is b for a, b in zip(lists, view.columns_data()))


def test_a_result_aliasing_stored_lists_is_born_shared(tiny_db):
    """A pass-through column is not copied for the result — the stored
    list itself, under both names — until somebody edits the result."""
    trans = tiny_db.table("Trans")
    tiny_db.insert_rows("Trans", [NEW])  # Trans owns its lists
    qty = trans.column_data(5)
    result = tiny_db.execute("select qty, qty as again from Trans")
    assert result.column_data(0) is result.column_data(1) is qty
    result.rows.append((0, 1))
    assert result.rows[-2:] == [(7, 7), (0, 1)]
    tiny_db.insert_rows("Trans", [NEW])
    assert len(qty) == 7 and len(trans) == 8 and len(result) == 8


class TestWhatAWriteCopies:
    """The ledger's write cycle — dashboard reads over nine ASTs, then a
    one-row ``INSERT INTO Trans`` — copies the summaries those reads
    pinned and nothing else; never ``Trans``, whose own maintenance
    reads (the recompute that builds AST8's auxiliary groups among them)
    must not pin it; and a steady-state insert, which recomputes
    nothing, copies nothing that no reader pinned."""

    @pytest.fixture
    def db(self):
        db = make_database(small_config())
        for name, sql in dict(
            (ast, sql) for ast, sql, _, _ in FIGURES.values()
        ).items():
            db.create_summary_table(name, sql)
        yield db
        db.close()

    @staticmethod
    def insert(db, monkeypatch, recomputed=()) -> list[Table]:
        """Insert one row; the stored tables whose lists were copied."""
        trans = db.table("Trans")
        row = tuple(trans.rows[0])
        row = (max(trans.column_data(0)) + 1, *row[1:])
        stored = list(db.tables.values())
        copied = []
        original = Table._own

        def spy(table):
            if table._shared and any(table is t for t in stored):
                copied.append(table)
            return original(table)

        with monkeypatch.context() as patch:
            patch.setattr(Table, "_own", spy)
            report = db.insert_rows("Trans", [row])
        assert set(report.recomputed) == set(recomputed)
        return copied

    def test_dashboard_reads_then_an_insert(self, db, monkeypatch):
        trans = db.table("Trans")
        # owns whatever CREATE pinned; builds AST8's auxiliary groups
        self.insert(db, monkeypatch, recomputed={"AST8"})
        lists = trans.columns_data()
        pinned = set()
        for _, _, query, _ in list(FIGURES.values())[:8]:
            run = db.run_select(query)
            assert run.rewrite is not None
            pinned.update(run.overlay)
        copied = self.insert(db, monkeypatch)
        assert all(a is b for a, b in zip(lists, trans.columns_data()))
        assert copied and len(copied) == len({id(t) for t in copied})
        assert {id(t) for t in copied} <= {id(db.tables[n]) for n in pinned}
        assert self.insert(db, monkeypatch) == []

    def test_a_base_plan_read_costs_one_copy_of_trans(self, db, monkeypatch):
        trans = db.table("Trans")
        self.insert(db, monkeypatch, recomputed={"AST8"})
        db.execute(FIGURES["fig02_q1"][2], use_summary_tables=False)
        copied = self.insert(db, monkeypatch)
        assert len(copied) == 1 and copied[0] is trans
        assert self.insert(db, monkeypatch) == []
