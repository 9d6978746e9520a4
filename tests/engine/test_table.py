"""Table storage and validation."""

import datetime
import gc

import pytest

from repro.catalog import Column, DataType, TableSchema
from repro.engine import Table, tables_equal
from repro.engine.persist import (
    database_from_payload,
    database_state_payload,
    load_database,
    save_database,
)
from repro.errors import ExecutionError, TypeMismatchError


SCHEMA = TableSchema(
    "T",
    [
        Column("id", DataType.INTEGER),
        Column("name", DataType.STRING, nullable=True),
        Column("score", DataType.FLOAT, nullable=True),
    ],
)


class TestLoading:
    def test_from_schema(self):
        table = Table.from_schema(SCHEMA, [(1, "a", 1.5), (2, None, None)])
        assert len(table) == 2

    def test_wrong_arity(self):
        with pytest.raises(TypeMismatchError):
            Table.from_schema(SCHEMA, [(1, "a")])

    def test_wrong_type(self):
        with pytest.raises(TypeMismatchError):
            Table.from_schema(SCHEMA, [("x", "a", 1.0)])

    def test_null_in_non_nullable(self):
        with pytest.raises(TypeMismatchError):
            Table.from_schema(SCHEMA, [(None, "a", 1.0)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError):
            Table(["a", "a"])


class TestAccess:
    def test_column_index_and_values(self):
        table = Table(["a", "b"], [(1, 2), (3, 4)])
        assert table.column_index("b") == 1
        assert table.column_values("a") == [1, 3]

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            Table(["a"], []).column_index("b")

    def test_iteration(self):
        table = Table(["a"], [(1,), (2,)])
        assert list(table) == [(1,), (2,)]

    def test_to_dicts(self):
        table = Table(["a", "b"], [(1, 2)])
        assert table.to_dicts() == [{"a": 1, "b": 2}]


class TestSorting:
    def test_sort_by_multiple_keys(self):
        table = Table(["a", "b"], [(2, 1), (1, 2), (1, 1)])
        table.sort_by([("a", True), ("b", False)])
        assert table.rows == [(1, 2), (1, 1), (2, 1)]

    def test_nulls_sort_last_ascending(self):
        table = Table(["a"], [(None,), (1,), (2,)])
        table.sort_by([("a", True)])
        assert table.rows == [(1,), (2,), (None,)]

    def test_sorted_rows_canonical(self):
        table = Table(["a"], [(3,), (None,), (1,)])
        assert table.sorted_rows() == [(1,), (3,), (None,)]


class TestEquality:
    def test_multiset_semantics(self):
        left = Table(["a"], [(1,), (1,), (2,)])
        right = Table(["a"], [(2,), (1,), (1,)])
        assert tables_equal(left, right)
        assert not tables_equal(left, Table(["a"], [(1,), (2,)]))
        assert not tables_equal(left, Table(["a"], [(1,), (2,), (2,)]))

    def test_int_float_equivalence(self):
        assert tables_equal(Table(["a"], [(2,)]), Table(["a"], [(2.0,)]))

    def test_float_tolerance(self):
        left = Table(["a"], [(3006987.095000001,)])
        right = Table(["a"], [(3006987.0949999997,)])
        assert tables_equal(left, right)

    def test_clearly_different_floats(self):
        assert not tables_equal(Table(["a"], [(1.0,)]), Table(["a"], [(1.1,)]))

    def test_nulls_compare_equal(self):
        assert tables_equal(Table(["a"], [(None,)]), Table(["a"], [(None,)]))
        assert not tables_equal(Table(["a"], [(None,)]), Table(["a"], [(0,)]))

    def test_column_count_mismatch(self):
        assert not tables_equal(Table(["a"], []), Table(["a", "b"], []))


class TestPretty:
    def test_pretty_contains_headers_and_null(self):
        table = Table(["name", "n"], [("x", 1), (None, 2)])
        text = table.pretty()
        assert "name" in text and "NULL" in text

    def test_pretty_truncates(self):
        table = Table(["a"], [(i,) for i in range(50)])
        assert "(50 rows)" in table.pretty(limit=3)


class TestRowLookup:
    """``rows.index`` / ``rows.remove`` probe the first column and check
    the rest in place; they must behave like ``list[tuple]``."""

    ROWS = [
        (1, "a", 1.0),
        (0, None, 0.0),
        (None, "n", None),
        (1, "a", 2.0),
        (0, "z", 0.0),
        (1, "a", 2.0),
    ]
    NULLABLE = TableSchema(
        "N",
        [
            Column("id", DataType.INTEGER, nullable=True),
            Column("name", DataType.STRING, nullable=True),
            Column("score", DataType.FLOAT, nullable=True),
        ],
    )

    def tables(self):
        yield Table.from_schema(self.NULLABLE, self.ROWS)

    def test_index_matches_list_semantics(self):
        for table in self.tables():
            for row in self.ROWS + [(2, "a", 1.0), (1, "a", 3.0), (1, "a")]:
                for bounds in [(), (2,), (1, 4), (-3,), (4, 4)]:
                    try:
                        expected = self.ROWS.index(row, *bounds)
                    except ValueError:
                        with pytest.raises(ValueError):
                            table.rows.index(row, *bounds)
                    else:
                        assert table.rows.index(row, *bounds) == expected

    def test_null_placeholder_is_not_the_value_zero(self):
        table = Table.from_schema(self.NULLABLE, [(None, "n", None), (0, "n", None)])
        assert table.rows.index((0, "n", None)) == 1
        assert table.rows.index((None, "n", None)) == 0

    def test_remove_takes_the_first_copy_only(self):
        for table in self.tables():
            table.rows.remove((1, "a", 2.0))
            expected = list(self.ROWS)
            expected.remove((1, "a", 2.0))
            assert list(table.rows) == expected
            with pytest.raises(ValueError):
                table.rows.remove((9, "q", 9.0))

    def test_lookup_never_materializes_the_rows(self):
        table = Table(["id", "name", "score"], self.ROWS)
        table.rows.remove((0, "z", 0.0))
        assert table.rows.index((1, "a", 2.0)) == 3
        assert table._rows_cache is None

    def test_zero_column_table(self):
        table = Table([], [(), ()])
        assert table.rows.index(()) == 0
        table.rows.remove(())
        assert len(table) == 1


class TestColumnReplacement:
    def test_adopt_columns_takes_the_other_tables_storage(self):
        table = Table.from_schema(SCHEMA, [(1, "a", 1.0)])
        list(table.rows)  # populate the row cache
        table.adopt_columns(Table(["x", "y", "z"], [(2, "b", 2.0), (3, "c", 3.0)]))
        assert table.columns == ["id", "name", "score"]
        assert list(table.rows) == [(2, "b", 2.0), (3, "c", 3.0)]
        with pytest.raises(ExecutionError):
            table.adopt_columns(Table(["x"], [(1,)]))

    def test_fill_column(self):
        table = Table.from_schema(SCHEMA, [(1, "a", 1.0), (2, "b", 2.0)])
        list(table.rows)
        table.fill_column(2, 7.5)
        assert list(table.rows) == [(1, "a", 7.5), (2, "b", 7.5)]


class TestOneRepresentation:
    """A table is its column lists however the database came to be in
    memory: ``column_data`` hands out the storage itself, and a write
    appends to that storage instead of replacing it — unless a reader
    has pinned it."""

    AST = "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
    ROW = (301, 1, 1, 10, datetime.date(1994, 3, 3), 1, 9.0, 0.0)

    @pytest.fixture(params=["in_process", "save_load", "payload"])
    def database(self, request, tiny_db, tmp_path):
        tiny_db.create_summary_table("S", self.AST)
        if request.param == "save_load":
            return load_database(save_database(tiny_db, tmp_path / "db"))
        if request.param == "payload":
            return database_from_payload(database_state_payload(tiny_db))
        return tiny_db

    def test_column_data_is_the_storage(self, database):
        tables = list(database.tables.values()) + [
            summary.table for summary in database.summary_tables.values()
        ]
        for table in tables:
            for i, column in enumerate(table.columns_data()):
                assert type(column) is list
                assert table.column_data(i) is table.column_data(i) is column

    def test_an_insert_appends_to_the_same_lists(self, database):
        """The rule: unpinned, an insert appends to the same list objects
        (amortised append kept); pinned, it appends to fresh lists and
        the pinned ones do not change."""
        trans = database.table("Trans")
        database.insert_rows("Trans", [self.ROW])  # owns whatever setup pinned
        before = trans.columns_data()
        database.insert_rows("Trans", [self.ROW])
        for column, after, cell in zip(before, trans.columns_data(), self.ROW):
            assert after is column
            assert len(column) == 8 and column[-1] is cell

        pinned = trans.pin()
        database.insert_rows("Trans", [self.ROW])
        assert len(pinned) == 8 and len(trans) == 9
        for column, held, after in zip(
            before, pinned.columns_data(), trans.columns_data()
        ):
            assert held is column and len(column) == 8
            assert after is not column and len(after) == 9
        owned = trans.columns_data()
        database.insert_rows("Trans", [self.ROW])  # copied once, not per write
        assert all(a is b for a, b in zip(owned, trans.columns_data()))

    def test_values_come_back_as_the_objects_that_went_in(self, database):
        trans = database.table("Trans")
        big = 2**70  # past 64 bits, in an INTEGER column
        trans.rows.append((big, 1, 1, 10, self.ROW[4], 1, 7, 0.0))
        assert trans.rows[-1][0] is trans.column_data(0)[-1] is big
        assert type(trans.rows[-1][6]) is int  # an int in a FLOAT column stays one


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    """``table.rows`` holds the table, not the other way round: a result
    dies with its last reference instead of waiting for a collection
    that then walks its column lists (1.5 ms per 86 400-row
    intermediate, landing on whichever statement runs next)."""
    gc.collect()
    gc.disable()
    try:
        table = Table(["a", "b"], [(i, i) for i in range(10)])
        assert len(table.rows) == 10
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()
