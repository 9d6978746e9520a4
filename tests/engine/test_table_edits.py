"""Random edit sequences on one small table: a write copies the column
lists iff a live pin holds them, and a built index survives every edit
that leaves it right.

After every step: each kept pin still reads as it did when it was taken
(indexes built through it included); each index the table has built
equals one built from scratch — an append or a delete while no pin
holds the indexes keeps every one, the same dict, mended in place; and
a write taken while no pin lives keeps the lists it edits in place —
the same list objects, by ``id`` (holding them would make the test a
holder itself).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.table import Table

COLUMNS = ("k", "a", "x")
VALUES = st.one_of(st.none(), st.integers(0, 3))
ROW = st.tuples(VALUES, VALUES, VALUES)
POSITION = st.integers(0, 63)
COLUMN = st.integers(0, 2)
STEPS = st.one_of(
    st.tuples(st.just("append"), ROW),
    st.tuples(st.just("set"), POSITION, ROW),
    st.tuples(st.just("fill"), COLUMN, VALUES),
    st.tuples(st.just("delete"), POSITION),
    st.tuples(st.just("swap-remove"), POSITION),
    st.tuples(st.just("adopt"), st.lists(ROW, max_size=4)),
    st.tuples(st.just("sort"), COLUMN, st.booleans()),
    st.tuples(st.just("pin-kept"), COLUMN),
    st.tuples(st.just("pin-dropped"), COLUMN),
)

#: steps that edit the lists in place: every list keeps its identity
#: but the one ``fill`` replaces (``adopt``/``sort`` replace them all)
IN_PLACE = {"append", "set", "fill", "delete", "swap-remove"}
#: steps that keep every built index, mended, while no pin holds them
MENDING = {"append", "delete"}


def _rebuilt(table: Table, column: int) -> dict:
    index: dict = {}
    for i, value in enumerate(table.column_data(column)):
        if value is not None:
            index.setdefault(value, []).append(i)
    return index


def _apply(table: Table, step: tuple) -> None:
    kind, *args = step
    rows = table.rows
    if kind == "append":
        rows.append(args[0])
    elif kind == "set" and rows:
        rows[args[0] % len(rows)] = args[1]
    elif kind == "fill":
        table.fill_column(*args)
    elif kind == "delete" and rows:
        del rows[args[0] % len(rows)]
    elif kind == "swap-remove" and rows:  # what a summary's emptied group does
        position, last = args[0] % len(rows), rows[-1]
        del rows[-1]
        if position < len(rows):
            rows[position] = last
    elif kind == "adopt":
        table.adopt_columns(Table(COLUMNS, args[0]))
    elif kind == "sort":
        table.sort_by([(COLUMNS[args[0]], args[1])])


# 100 examples in tier-1, the active profile's count under
# ``--hypothesis-profile=chaos``
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(st.lists(ROW, max_size=6), st.lists(STEPS, max_size=25))
def test_writes_copy_iff_held_and_indexes_stay_right(initial, steps):
    table = Table(COLUMNS, initial)
    pins: list[tuple[Table, list]] = []
    for step in steps:
        kind = step[0]
        if kind == "pin-kept":
            view = table.pin()
            view.index(step[1])
            pins.append((view, list(view.rows)))
            del view
        elif kind == "pin-dropped":
            table.pin().index(step[1])  # built through a pin that dies
            pins[:1] = []  # and the oldest kept pin goes too
        else:
            ids = [id(column) for column in table.columns_data()]
            # the indexes themselves may be held: only their dict is pinned
            built = dict(table._indexes)
            unpinned = all(view._indexes is not table._indexes for view, _ in pins)
            _apply(table, step)
            if not pins and kind in IN_PLACE:
                kept = [id(column) for column in table.columns_data()]
                if kind == "fill":
                    ids[step[1]] = kept[step[1]]
                assert kept == ids, step
            if unpinned and kind in MENDING:
                assert all(table._indexes.get(c) is i for c, i in built.items()), step
        _check(table, pins)


def _check(table: Table, pins: list[tuple[Table, list]]) -> None:
    """Every kept pin reads as it did, its indexes included; every index
    the table kept is right, and is then built for every column, so the
    next edit meets them all.  A function of its own, so no view
    outlives the check in a local."""
    for view, snapshot in pins:
        assert view.rows == snapshot
        for column in list(view._indexes):
            assert view.index(column) == _rebuilt(view, column)
    for column in range(len(COLUMNS)):
        index = table.index(column)
        assert index == _rebuilt(table, column)
        assert all(rows == sorted(rows) for rows in index.values())


#: cells that are equal across types (``1``/``1.0``/``True``,
#: ``0.0``/``-0.0``), NULLs, and NaN — one shared object, equal to
#: itself only by identity, and fresh ones, equal to nothing
NAN = float("nan")
CELLS = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, False, 0.0, -0.0, 2, NAN, "a"]),
    st.builds(float, st.just("nan")),
)
WIDE_ROW = st.tuples(CELLS, CELLS, CELLS)


def _scanned(rows: list[tuple], row: tuple, start: int, stop: int | None):
    """``RowsView.index`` of a table with no index built: the scan."""
    return Table(COLUMNS, rows).rows.index(row, start, stop)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(
    st.lists(WIDE_ROW, max_size=40),
    st.sets(COLUMN),
    st.lists(
        st.tuples(st.one_of(WIDE_ROW, st.integers(0, 39)), st.integers(-3, 45),
                  st.one_of(st.none(), st.integers(-3, 45))),
        min_size=1, max_size=8,
    ),
)
def test_a_located_row_is_the_scans(rows, built, probes):
    """A row located through the built indexes is the one the scan
    locates — the first equal row at or after ``start``, the same
    ``ValueError`` — and locating builds no index."""
    table = Table(COLUMNS, rows)
    for column in built:
        table.index(column)
    for probe, start, stop in probes:
        row = rows[probe % len(rows)] if isinstance(probe, int) and rows else probe
        if isinstance(row, int):
            continue
        try:
            want = _scanned(rows, row, start, stop)
        except ValueError:
            want = ValueError
        try:
            got = table.rows.index(row, start, stop)
        except ValueError:
            got = ValueError
        assert got == want, (row, start, stop)
        assert set(table._indexes) == built
