"""A stored driver read through its index.

When a SELECT box's driver is a stored table, its first probe is keyed
on one driver column and no driver filter can raise, the loop streams
only the rows the index gives for the build side's keys — when they
are fewer than ``_INDEX_SHARE`` of the driver — instead of every row.
Same loop, same order, same answers:

* a filter that can raise keeps the full scan, so its error is raised;
* random NULL- and duplicate-heavy boxes (``0``/``0.0``/``-0.0`` keys,
  1–3 build keys) return the same cells, compared as ``(type, repr)``
  and in order, fused, on the operator path (a one-byte ``MAXMEM``) and
  in morsels, and the reference executor's as a multiset;
* readers pin, writers own: a pinned reader's index outlives a write;
  an unpinned table's index outlives an append, a delete or an edit of
  other columns, and a refresh or an edit of its column drops it.
"""

from __future__ import annotations

import random
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench import FIGURES, make_database
from repro.catalog import Catalog, Column, DataType, TableSchema
from repro.engine import Database, Executor, tables_equal
from repro.engine import executor as executor_module
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table
from repro.errors import ExecutionError, ReproError
from repro.qgm import build_graph
from repro.resources.broker import BROKER
from repro.workloads import small_config

COLUMNS = ("k", "a", "x")


def _database(**tables) -> Database:
    catalog = Catalog()
    for name in ("ta", "tb", "tc"):
        catalog.add_table(TableSchema(name, [
            Column("k", DataType.FLOAT, nullable=True),
            Column("a", DataType.INTEGER, nullable=True),
            Column("x", DataType.FLOAT, nullable=True),
        ]))
    db = Database(catalog)
    for name in ("ta", "tb", "tc"):
        db.load(name, tables.get(name, []))
    return db


def _cells(run):
    """``(type, repr)`` of every cell, in order, or the exception type."""
    try:
        table = run()
    except ReproError as error:
        return type(error), None
    return [tuple((type(v), repr(v)) for v in row) for row in table.rows], table


def _fused(db, sql, batch_rows=None):
    executor = Executor(db.tables, batch_rows=batch_rows)
    table = executor.run(build_graph(sql, db.catalog))
    return table, executor.stats


def _operators(db, sql):
    BROKER.reset()
    try:
        return db.execute(sql, use_summary_tables=False, max_mem=1)
    finally:
        BROKER.reset()


# ----------------------------------------------------------------------
# A filter that can raise keeps the full scan
# ----------------------------------------------------------------------
#: 40 driver rows, two of them on the one build key; the row with a zero
#: divisor (k = 7) is outside the build keys
DRIVER = [(float(i % 20), i + 1, 0.0 if i == 7 else 0.5) for i in range(40)]
PROBED = [(1.0, 1, 1.0)]


def test_a_raising_driver_filter_keeps_the_full_scan():
    db = _database(ta=DRIVER, tb=PROBED)
    safe = "select t.a from ta t, tb u where t.k = u.k and t.a > 0"
    table, stats = _fused(db, safe)
    assert table.rows == [(2,), (22,)]
    assert stats.index_reads == [
        {"table": "ta", "column": "k", "candidates": 2, "rows": 40}
    ]
    raising = "select t.a from ta t, tb u where t.k = u.k and t.a / t.x > 0"
    with pytest.raises(ExecutionError, match="division by zero"):
        _fused(db, raising)
    with pytest.raises(ExecutionError, match="division by zero"):
        _operators(db, raising)


@pytest.mark.parametrize("predicate, indexed", [
    ("t.a > 0", True),
    ("0 < t.a", True),
    ("t.x >= 0.25", True),
    ("t.k is not null", True),
    ("t.a <> 'z'", True),  # an equality never raises
    ("t.a / 2 > 0", False),
    ("t.a in (1, 2)", False),
])
def test_which_driver_filters_cannot_raise(predicate, indexed):
    db = _database(ta=DRIVER, tb=PROBED)
    sql = f"select t.a from ta t, tb u where t.k = u.k and {predicate}"
    _, stats = _fused(db, sql)
    assert bool(stats.index_reads) is indexed


def test_an_ordering_across_type_families_can_raise():
    """``t.a > 'z'`` raises ``TypeError`` on every row, so a run cannot
    tell the scans apart: the guard is checked on the predicates."""
    db = _database()
    box = build_graph(
        "select t.a from ta t where t.a > 'z' and t.x > 0 and t.k = 'z' "
        "and t.x < null and 1 <= t.a",
        db.catalog,
    ).root
    schema = box.quantifiers()[0].box.schema
    assert [
        executor_module._cannot_raise(p, schema) for p in box.predicates
    ] == [False, True, True, True, True]


def test_the_index_is_not_taken_for_a_large_share():
    """Every key on the build side: the whole column streams."""
    db = _database(ta=DRIVER, tb=[(float(k), 0, 0.0) for k in range(20)])
    _, stats = _fused(db, "select t.a from ta t, tb u where t.k = u.k")
    assert stats.index_reads == []
    assert stats.rows == 60


def test_fig05_q2_explain_analyze_shows_the_index_read():
    """The rewritten query reads AST2 through ``fpgid`` and its original
    reads ``Trans`` the same way: ``rows`` counts the rows actually
    read — the candidates and the build side, not the whole driver."""
    db = make_database(small_config())
    name, ast, query, _ = FIGURES["fig05_q2"]
    db.create_summary_table(name, ast)
    for label, rewritten in (("AST2", True), ("Trans", False)):
        run = db.run_select(query, use_summary_tables=rewritten)
        (read,) = run.executor_stats.index_reads
        assert read["table"] == label and read["column"] == "fpgid"
        assert 0 < read["candidates"] < read["rows"] * executor_module._INDEX_SHARE
        assert run.executor_stats.rows < read["rows"]
    (read,) = db.run_select(query).executor_stats.index_reads
    executor = db.run_sql("EXPLAIN ANALYZE " + query).split("-- executor --")[1]
    assert (
        f"\n  index      AST2.fpgid: {read['candidates']} of "
        f"{len(db.table('AST2'))} rows\n"
    ) in executor.split("\n--")[0] + "\n"


# ----------------------------------------------------------------------
# Differential property
# ----------------------------------------------------------------------
#: driver keys: the build side's, NULL, and others it never holds
_KEYS = [0, 0.0, -0.0, 1, 2.0, None] + [float(k) for k in range(3, 15)]
_INTS = [None, -1, 0, 1, 2, 2, 3]
_FLOATS = [None, -0.0, 0.0, 0.5, 1.5, -2.25]


@st.composite
def _driver(draw) -> list:
    """40–60 rows dealt by a generator of a drawn seed: one draw, not 150."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [
        (rng.choice(_KEYS), rng.choice(_INTS), rng.choice(_FLOATS))
        for _ in range(rng.randint(40, 60))
    ]


_BUILD = st.lists(
    st.tuples(
        st.sampled_from([0, 0.0, -0.0, 1, 2.0, None]),
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, 0.5, 1.5]),
    ),
    min_size=1, max_size=3,
)
_FILTERS = [
    "t.a > {c}", "t.x <= 0.5", "t.k is not null", "t.a = 2", "t.x <> 0.0",
    "t.a / t.x > 0",
]
_OUTPUTS = ["t.k", "t.a", "t.x", "u.a", "t.a * u.x", "t.x / 4", "u.k"]


@st.composite
def _boxes(draw) -> str:
    three = draw(st.booleans())
    tables = "ta t, tb u" + (", tc v" if three else "")
    predicates = ["t.k = u.k"]
    if three:
        predicates.append(draw(st.sampled_from(["t.a = v.a", "v.k = t.a"])))
    # Three boxes in four filter no driver row: the loop's build-side check
    # counts only the rows the index gave, which a filter often leaves
    # fewer than the build side holds — and the box runs again without it.
    if draw(st.integers(0, 3)) == 3:
        for template in draw(
            st.lists(st.sampled_from(_FILTERS), min_size=1, max_size=2)
        ):
            predicates.append(template.format(c=draw(st.sampled_from([-1, 0, 1]))))
    if draw(st.booleans()):
        predicates.append(draw(st.sampled_from(["t.a + u.a > 0", "u.x / t.a < 1"])))
    where = " and ".join(draw(st.permutations(predicates)))
    if draw(st.booleans()):
        outputs = draw(st.lists(st.sampled_from(_OUTPUTS), min_size=1, max_size=3))
        items = ", ".join(f"{o} as o{k}" for k, o in enumerate(outputs))
        return f"select {items} from {tables} where {where}"
    return (
        f"select t.a as g, count(*) as n, sum(t.x) as s from {tables} "
        f"where {where} group by t.a"
    )


def test_indexed_loops_match_the_operator_path_morsels_and_the_reference():
    used = []

    # A quarter of the active profile's count: 25 in tier-1 (the operator
    # path spills every join to disk), 750 under ``--hypothesis-profile=
    # chaos``.
    @settings(max_examples=max(25, settings.default.max_examples // 4),
              deadline=None)
    @given(
        driver=_driver(),
        build=_BUILD,
        third=st.lists(
            st.tuples(*map(st.sampled_from, (_KEYS, _INTS, _FLOATS))), max_size=4
        ),
        sql=_boxes(),
    )
    def check(driver, build, third, sql):
        db = _database(ta=driver, tb=build, tc=third)
        stats = []

        def fused():
            table, run = _fused(db, sql)
            stats.append(run)
            return table

        (cells, table), *others = [
            _cells(way) for way in (
                fused,
                lambda: _operators(db, sql),
                lambda: _fused(db, sql, batch_rows=64)[0],
                lambda: _fused(db, sql, batch_rows=3)[0],
            )
        ]
        for other, _ in others:
            assert other == cells, sql
        if stats:
            used.append(bool(stats[0].index_reads))
        if table is None:
            return
        try:
            expected = ReferenceExecutor(db.tables).run(build_graph(sql, db.catalog))
        except ReproError:
            return  # the reference evaluates predicates in another order
        assert tables_equal(table, expected), sql

    check()
    # the index is read in at least a quarter of the examples that ran
    assert sum(used) * 4 >= len(used) > 0, (sum(used), len(used))


# ----------------------------------------------------------------------
# Readers pin, writers own
# ----------------------------------------------------------------------
def _rebuilt(table: Table, column: int) -> dict:
    index: dict = {}
    for i, value in enumerate(table.column_data(column)):
        if value is not None:
            index.setdefault(value, []).append(i)
    return index


TABLE_WRITES = {
    "insert": lambda t: t.rows.append((1.0, 99, 0.5)),
    "in place": lambda t: t.rows.__setitem__(3, (1.0, 99, 0.5)),
    "delete": lambda t: t.rows.__delitem__(1),
    "refresh": lambda t: t.adopt_columns(Table(COLUMNS, [(1.0, 99, 0.5)] * 3)),
}


@pytest.mark.parametrize("write", sorted(TABLE_WRITES))
def test_a_pinned_index_outlives_a_write(write):
    table = Table(COLUMNS, DRIVER)
    index = table.index(0)
    view = table.pin()
    assert view.index(0) is index
    TABLE_WRITES[write](table)
    assert view.index(0) is index and index == _rebuilt(view, 0)
    assert view.rows == [tuple(row) for row in DRIVER]
    fresh = table.index(0)
    assert fresh is not index and fresh == _rebuilt(table, 0)


@pytest.mark.parametrize("write", sorted(set(TABLE_WRITES) - {"insert", "delete"}))
def test_an_edit_of_an_unpinned_table_drops_its_index(write):
    """A refresh and an overwrite of the indexed column's cell leave the
    index wrong: it is dropped and built again."""
    table = Table(COLUMNS, DRIVER)
    index = table.index(0)
    TABLE_WRITES[write](table)
    assert table.index(0) is not index
    assert table.index(0) == _rebuilt(table, 0)


KEEPING_WRITES = {
    "insert": TABLE_WRITES["insert"],
    "delete": TABLE_WRITES["delete"],
    "delete the last": lambda t: t.rows.__delitem__(-1),
    "delete a key's rows": lambda t: [t.rows.__delitem__(i) for i in (27, 7)],
    "null insert": lambda t: t.rows.extend([(None, 98, 0.5), (3.0, 97, 0.5)]),
    "other column": lambda t: t.rows.__setitem__(3, (3.0, 99, 0.5)),
    "same cell": lambda t: t.rows.__setitem__(-1, DRIVER[-1]),
    "fill other": lambda t: t.fill_column(2, 1.5),
}


@pytest.mark.parametrize("write", sorted(KEEPING_WRITES))
def test_an_edit_that_leaves_an_unpinned_index_right_keeps_it(write):
    """An append adds the new rows' positions; a delete drops its row's
    and moves the later ones down; an overwrite or a fill that changes
    no cell of the indexed column leaves it alone."""
    table = Table(COLUMNS, DRIVER)
    index = table.index(0)
    table.index(1)  # built too: mended or dropped, never stale
    KEEPING_WRITES[write](table)
    assert table.index(0) is index and index == _rebuilt(table, 0)
    assert table.index(1) == _rebuilt(table, 1)
    assert all(rows == sorted(rows) for rows in index.values())


#: per write: (the query, the summary it reads, that summary's refresh
#: mode, the write, the answer before, the answer after)
DB_WRITES = {
    "insert": (
        "select t.a from ta t, tb u where t.k = u.k", None, None,
        lambda db: db.insert_rows("ta", [(1.0, 99, 0.5)]),
        [(2,), (22,)], [(2,), (22,), (99,)],
    ),
    "delete": (
        "select t.a from ta t, tb u where t.k = u.k", None, None,
        lambda db: db.delete_rows("ta", [DRIVER[1]]),
        [(2,), (22,)], [(22,)],
    ),
    # an aggregate summary's group is rewritten in place
    "in place": (
        "select s.n from s, tb u where s.k = u.k",
        "select k, count(*) as n from ta group by k", "immediate",
        lambda db: db.insert_rows("ta", [(1.0, 99, 0.5)]),
        [(2,)], [(3,)],
    ),
    "refresh": (
        "select s.a from s, tb u where s.k = u.k",
        "select k, a from ta", "deferred",
        lambda db: db.refresh_summary_tables(),
        [(2,), (22,)], [(2,), (22,), (99,)],
    ),
}


@pytest.mark.parametrize("write", sorted(DB_WRITES))
def test_a_parked_indexed_reader_answers_from_before_the_write(write, monkeypatch):
    """The reader has its candidate rows and has read none of them when
    a whole write lands on another thread: it answers as of before the
    write from the index it pinned, and the next read as of after it."""
    sql, summary, mode, apply, before, after = DB_WRITES[write]
    db = _database(ta=DRIVER, tb=PROBED)
    if summary is not None:
        db.create_summary_table("s", summary, refresh_mode=mode)
        if mode == "deferred":
            db.insert_rows("ta", [(1.0, 99, 0.5)])  # staged, not applied

    def read():
        run = db.run_select(sql, use_summary_tables=False)
        assert run.executor_stats.index_reads, sql
        return run.table.rows

    assert read() == before
    original = executor_module._candidates
    reader = threading.current_thread()
    seen = []

    def candidates_then_park(driver, filters, probes):
        found = original(driver, filters, probes)
        if threading.current_thread() is reader and not seen:
            box, view = driver.stored
            index = view.index(view.column_index("k"))
            stored = db.table(box.table_name)
            assert stored.index(stored.column_index("k")) is index
            seen.append(index)
            writer = threading.Thread(target=apply, args=(db,))
            writer.start()
            writer.join(timeout=60)
            assert not writer.is_alive()  # a parked reader blocks no write
            assert view.index(view.column_index("k")) is index
            assert stored.index(stored.column_index("k")) is not index
        return found

    monkeypatch.setattr(executor_module, "_candidates", candidates_then_park)
    assert read() == before
    monkeypatch.undo()
    assert seen
    assert read() == after


def test_readers_racing_a_writer_see_whole_writes():
    """Four readers against one writer, a shortened switch interval: a
    reader that took an index built from other lists than the ones it
    gathers from would lose, repeat or misplace a row."""
    driver = [(float(i % 200), i + 1, 0.5) for i in range(400)]
    db = _database(ta=driver, tb=PROBED)
    sql = "select t.a from ta t, tb u where t.k = u.k"
    stop, wrong, indexed = threading.Event(), [], []

    def reader():
        while not stop.is_set():
            run = db.run_select(sql, use_summary_tables=False)
            indexed.append(bool(run.executor_stats.index_reads))
            rows = [a for (a,) in run.table.rows]
            if rows != [2, 202] + list(range(1000, 998 + len(rows))):
                wrong.append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        for j in range(40):
            db.insert_rows("ta", [(1.0, 1000 + j, 0.5)])
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not wrong, wrong[:3]
    assert any(indexed)
    assert db.execute(sql, use_summary_tables=False).rows == [
        (2,), (202,), *((1000 + j,) for j in range(40))
    ]
