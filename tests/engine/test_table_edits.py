"""Random edit sequences on one small table: a write copies the column
lists iff a live pin holds them, and a built index survives every edit
that leaves it right.

After every step: each kept pin still reads as it did when it was taken
(indexes built through it included); each index the table has built
equals one built from scratch; and a write taken while no pin lives
keeps the lists it edits in place — the same list objects, by ``id``
(holding them would make the test a holder itself).
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


@settings(max_examples=100, deadline=None)
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
            _apply(table, step)
            if not pins and kind in IN_PLACE:
                kept = [id(column) for column in table.columns_data()]
                if kind == "fill":
                    ids[step[1]] = kept[step[1]]
                assert kept == ids, step
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
