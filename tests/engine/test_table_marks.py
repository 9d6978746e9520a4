"""The mark alone: whatever sequence of mutators runs on a marked table,
what :meth:`Table.remark` then reports is true — the rows the marked
state held at ``[0, stable)``, minus the ``edited`` positions, are the
rows the table holds at the same positions now.  That is all a chained
save (``persist.save_counted``) relies on."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import Table

COLUMNS = ["k", "v", "w"]
rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3), st.sampled_from("abc")),
    max_size=12,
)
#: (mutator, operand); positions are taken modulo the current length
ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), rows),
        st.tuples(st.just("set"), st.integers(0, 40)),
        st.tuples(st.just("delete"), st.integers(0, 40)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("swap_remove"), st.integers(0, 40)),
        st.tuples(st.just("fill"), st.integers(0, 9)),
        st.tuples(st.just("sort"), st.booleans()),
        st.tuples(st.just("adopt"), rows),
        st.tuples(st.just("pin"), st.none()),
    ),
    max_size=12,
)


def apply(table: Table, op: str, operand) -> None:
    size = len(table)
    if op == "append":
        table.rows.extend(operand)
    elif op == "fill":
        table.fill_column(1, operand)
    elif op == "sort":
        table.sort_by([("k", operand), ("v", True)])
    elif op == "adopt":
        table.adopt_columns(Table(COLUMNS, operand))
    elif op == "pin":
        table.pin()  # the next edit copies the lists first
    elif size:
        position = operand % size
        if op == "set":
            table.rows[position] = (9, 9, "z")
        elif op == "delete":
            del table.rows[position]
        elif op == "remove":
            table.rows.remove(table.rows[position])  # the first equal row
        elif op == "swap_remove":  # how a summary drops an emptied group
            table.rows[position] = table.rows[-1]
            del table.rows[-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows, ops)
def test_what_the_mark_reports_is_true(start, sequence):
    table = Table(COLUMNS, start)
    assert table.remark("save-0", "save-0") == (0, [])  # never marked
    old = list(table.rows)
    for op, operand in sequence:
        apply(table, op, operand)
    stable, edited = table.remark("save-0", "save-1")
    new = list(table.rows)
    assert 0 <= stable <= min(len(old), len(new))
    assert edited == sorted(set(edited)) and all(i < stable for i in edited)
    for position in set(range(stable)) - set(edited):
        assert old[position] == new[position]
    # the mark moved: the same question about the older save is refused
    assert table.remark("save-0", "save-2") == (0, [])
    assert table.remark("save-2", "save-3") == (len(new), [])


def test_appends_and_overwrites_keep_the_prefix():
    table = Table(COLUMNS, [(i, i, "a") for i in range(10)])
    table.remark(None, "save-0")
    table.rows.extend([(10, 10, "a"), (11, 11, "a")])
    table.rows[3] = (3, 33, "b")
    table.rows[11] = (11, 0, "b")  # a row appended since: not an edit
    assert table.remark("save-0", "save-1") == (10, [3])
    del table.rows[4]
    table.rows[7] = (0, 0, "c")  # moved by the delete: already in the tail
    assert table.remark("save-1", "save-2") == (4, [])


def test_a_first_mark_reports_everything_changed():
    table = Table(COLUMNS, [(1, 1, "a")])
    assert table.remark(None, "save-0") == (0, [])
    table.rows.append((2, 2, "b"))
    assert table.remark("save-0", "save-1") == (1, [])


def test_an_unmarked_table_tracks_nothing():
    table = Table(COLUMNS, [(i, i, "a") for i in range(5)])
    table.rows[2] = (0, 0, "z")
    del table.rows[0]
    table.fill_column(1, 7)
    assert table._stable == 0 and table._edited is None
    table.remark(None, "save-0")
    view = table.pin()  # a pin is a reader's: it carries no mark
    assert view._mark is None and view._stable == 0 and view._edited is None
