"""In-memory relational tables, stored column-wise.

A :class:`Table` is columnar: one :class:`ColumnStore` per column holds
the values (a typed ``array.array`` plus a null mask for numeric schema
columns, a plain Python list otherwise).  The batch executor reads the
column data directly (:meth:`Table.column_data`), which is what makes
vectorized filtering/joining/grouping possible; everything that predates
the columnar refactor — matching, maintenance, persistence — keeps using
the row-oriented API through :attr:`Table.rows`, a mutable sequence view
that materializes tuples on demand and writes through to the columns.

The benchmarks still measure the effect the paper's ASTs exploit — the
*amount of data scanned* — only now against a competent vectorized
baseline instead of a per-row interpreter (see docs/EXECUTOR.md).
"""

from __future__ import annotations

import datetime
import math
from array import array
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import TableSchema
from repro.catalog.types import DataType, value_matches_type
from repro.errors import ExecutionError, TypeMismatchError

Row = tuple

#: 64-bit bounds for the typed INTEGER backend (array.array('q'))
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ColumnStore:
    """One column's values: a typed array + null mask, or a plain list.

    Two backends:

    * *list* — ``values`` is a Python list with ``None`` inline for SQL
      NULL (``nulls is None``).  The default for strings, dates,
      booleans, and every intermediate/result table.
    * *typed* — ``values`` is an ``array.array`` (``'q'`` for INTEGER,
      ``'d'`` for FLOAT) and ``nulls`` is a per-row null mask
      (``bytearray``; 1 = NULL, the array slot holds a placeholder 0).
      Chosen by :meth:`Table.from_schema` for numeric columns — compact
      storage for the big base tables.

    A typed column *decays* to the list backend the moment a value that
    cannot round-trip exactly is written (a non-float into a FLOAT
    column, an out-of-64-bit-range int, a string after an ALTER-ish
    mutation) — values are never coerced, so row reads always return the
    exact Python objects that were stored.
    """

    __slots__ = ("values", "nulls", "_cache")

    def __init__(self, typecode: str | None = None):
        if typecode is None:
            self.values: Any = []
            self.nulls: bytearray | None = None
        else:
            self.values = array(typecode)
            self.nulls = None  # allocated lazily on the first NULL
        self._cache: list | None = None

    # -- backend predicates --------------------------------------------
    @property
    def is_typed(self) -> bool:
        return isinstance(self.values, array)

    def _fits(self, value: Any) -> bool:
        """Can ``value`` be stored in the typed backend without changing
        its type or value?  (NULL always fits — it goes in the mask.)"""
        if value is None:
            return True
        if self.values.typecode == "d":
            return isinstance(value, float)
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and _INT64_MIN <= value <= _INT64_MAX
        )

    def _decay(self) -> None:
        """Convert the typed backend to a plain list (exact values)."""
        self.values = self.data()
        self.nulls = None
        self._cache = None

    # -- element access ------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def get(self, index: int) -> Any:
        if self.nulls is not None and self.nulls[index]:
            return None
        value = self.values[index]
        return value

    def set(self, index: int, value: Any) -> None:
        self._cache = None
        if not self.is_typed:
            self.values[index] = value
            return
        if not self._fits(value):
            self._decay()
            self.values[index] = value
            return
        if value is None:
            if self.nulls is None:
                self.nulls = bytearray(len(self.values))
            self.nulls[index] = 1
            self.values[index] = 0
        else:
            if self.nulls is not None:
                self.nulls[index] = 0
            self.values[index] = value

    def append(self, value: Any) -> None:
        self._cache = None
        if not self.is_typed:
            self.values.append(value)
            return
        if not self._fits(value):
            self._decay()
            self.values.append(value)
            return
        if value is None:
            if self.nulls is None:
                self.nulls = bytearray(len(self.values))
            self.values.append(0)
            self.nulls.append(1)
        else:
            self.values.append(value)
            if self.nulls is not None:
                self.nulls.append(0)

    def extend(self, values: Iterable[Any]) -> None:
        self._cache = None
        if not self.is_typed:
            self.values.extend(values)
            return
        values = list(values)
        if all(map(self._fits, values)):
            has_null = any(value is None for value in values)
            if has_null and self.nulls is None:
                self.nulls = bytearray(len(self.values))
            if self.nulls is not None:
                self.nulls.extend(1 if v is None else 0 for v in values)
            self.values.extend(0 if v is None else v for v in values)
        else:
            self._decay()
            self.values.extend(values)

    def delete(self, index) -> None:
        self._cache = None
        del self.values[index]
        if self.nulls is not None:
            del self.nulls[index]

    def insert(self, index: int, value: Any) -> None:
        self._cache = None
        if self.is_typed and self._fits(value):
            if value is None:
                if self.nulls is None:
                    self.nulls = bytearray(len(self.values))
                self.values.insert(index, 0)
                self.nulls.insert(index, 1)
                return
            self.values.insert(index, value)
            if self.nulls is not None:
                self.nulls.insert(index, 0)
            return
        if self.is_typed:
            self._decay()
        self.values.insert(index, value)

    def clear(self) -> None:
        self._cache = None
        if self.is_typed:
            del self.values[:]
            self.nulls = None
        else:
            self.values.clear()

    def find(self, value: Any, start: int, stop: int) -> int:
        """First position in ``[start, stop)`` holding ``value`` (NULL
        finds NULL), as one C-level scan; ``ValueError`` if there is none."""
        nulls = self.nulls
        if value is None and self.is_typed:
            if nulls is None:
                raise ValueError("no NULL in column")
            return nulls.index(1, start, stop)
        while True:
            position = self.values.index(value, start, stop)
            if nulls is None or not nulls[position]:
                return position
            start = position + 1  # a NULL's placeholder 0, not the value 0

    # -- batch access (the executor's scan path) -----------------------
    def data(self) -> list:
        """The column as a plain Python list with ``None`` for NULL.

        For list-backed columns this *is* the storage (zero copy — the
        executor treats it as read-only); typed columns materialize once
        and cache until the next mutation.
        """
        if not self.is_typed:
            return self.values
        cached = self._cache
        if cached is not None:
            return cached
        if self.nulls is None:
            materialized = self.values.tolist()
        else:
            materialized = [
                None if null else value
                for value, null in zip(self.values, self.nulls)
            ]
        self._cache = materialized
        return materialized

    def null_count(self) -> int:
        if self.nulls is not None:
            return sum(self.nulls)
        if self.is_typed:
            return 0
        return sum(1 for value in self.values if value is None)

    def nbytes_estimate(self) -> int:
        """Estimated resident bytes of this column's storage.

        Typed columns are exact (array itemsize plus the null mask);
        list columns extrapolate from a small evenly spaced value sample
        — the memory broker charges order-of-magnitude estimates, not
        malloc truth.
        """
        if self.is_typed:
            nbytes = len(self.values) * self.values.itemsize
            if self.nulls is not None:
                nbytes += len(self.nulls)
            return nbytes + 64
        return estimate_values_nbytes(self.values)


#: schema types that get the compact typed backend
_TYPECODES = {DataType.INTEGER: "q", DataType.FLOAT: "d"}


class RowsView(Sequence):
    """A list-like, mutable view of a table's rows.

    Everything written before the columnar refactor treats
    ``table.rows`` as ``list[tuple]`` — iterating, appending, removing,
    indexing, and wholesale replacement via ``rows[:] = ...``.  This
    view keeps that contract over column-wise storage: reads zip the
    columns into tuples on demand, writes fan out to the columns.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "Table"):
        self._table = table

    # -- reads ---------------------------------------------------------
    def __len__(self) -> int:
        return self._table._nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._table._materialize_rows())

    def __getitem__(self, index):
        table = self._table
        if isinstance(index, slice):
            return self._table._materialize_rows()[index]
        if index < 0:
            index += table._nrows
        if not 0 <= index < table._nrows:
            raise IndexError("row index out of range")
        return tuple(store.get(index) for store in table._stores)

    def __eq__(self, other) -> bool:
        if isinstance(other, RowsView):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return self._table._materialize_rows() == other

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._table._materialize_rows())

    def count(self, row) -> int:
        return self._table._materialize_rows().count(tuple(row))

    def index(self, row, start: int = 0, stop: int | None = None) -> int:
        """Position of the first row equal to ``row``: the first column
        is probed with one C-level scan per candidate and the remaining
        cells are compared at that position only — no row is built for
        the positions in between."""
        row = tuple(row)
        table = self._table
        stores = table._stores
        start, stop, _ = slice(start, stop).indices(table._nrows)
        if len(row) == len(stores) and start < stop:
            if not stores:
                return start
            first, rest, tail = stores[0], stores[1:], row[1:]
            try:
                while True:
                    start = first.find(row[0], start, stop)
                    if tuple(store.get(start) for store in rest) == tail:
                        return start
                    start += 1
            except ValueError:
                pass
        raise ValueError(f"{row!r} not in rows")

    # -- writes --------------------------------------------------------
    def append(self, row: Row) -> None:
        self._table._append_row(tuple(row))

    def extend(self, rows: Iterable[Row]) -> None:
        self._table._extend_rows(rows)

    def insert(self, index: int, row: Row) -> None:
        table = self._table
        row = tuple(row)
        if len(row) != len(table._stores) and table._stores:
            raise ExecutionError(
                f"row has {len(row)} values, table has {len(table._stores)}"
            )
        for store, value in zip(table._stores, row):
            store.insert(index, value)
        table._nrows += 1
        table._bump()

    def remove(self, row: Row) -> None:
        del self[self.index(row)]

    def __setitem__(self, index, value) -> None:
        table = self._table
        if isinstance(index, slice):
            rows = [tuple(row) for row in value]
            if index == slice(None):  # rows[:] = ... (full replacement)
                table._replace_rows(rows)
                return
            materialized = table._materialize_rows()[:]
            materialized[index] = rows
            table._replace_rows(materialized)
            return
        if index < 0:
            index += table._nrows
        if not 0 <= index < table._nrows:
            raise IndexError("row assignment index out of range")
        row = tuple(value)
        if len(row) != len(table._stores):
            raise ExecutionError(
                f"row has {len(row)} values, table has {len(table._stores)}"
            )
        for store, cell in zip(table._stores, row):
            store.set(index, cell)
        table._bump()

    def __delitem__(self, index) -> None:
        table = self._table
        if isinstance(index, slice):
            removed = len(range(*index.indices(table._nrows)))
        else:
            if index < 0:
                index += table._nrows
            if not 0 <= index < table._nrows:
                raise IndexError("row index out of range")
            removed = 1
        for store in table._stores:
            store.delete(index)
        table._nrows -= removed
        table._bump()

    def clear(self) -> None:
        self._table._replace_rows([])

    def sort(self, *, key=None, reverse: bool = False) -> None:
        rows = self._table._materialize_rows()[:]
        rows.sort(key=key, reverse=reverse)
        self._table._replace_rows(rows)

    def copy(self) -> list[Row]:
        return self._table._materialize_rows()[:]


class Table:
    """Column names + column stores; ``rows`` is the compatibility view."""

    __slots__ = ("columns", "_stores", "_nrows", "_index", "_rows_cache")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()):
        self.columns = list(columns)
        self._index = {name: i for i, name in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise ExecutionError(f"duplicate column names: {self.columns}")
        self._stores = [ColumnStore() for _ in self.columns]
        self._nrows = 0
        self._rows_cache: list[Row] | None = None
        rows = rows if isinstance(rows, list) else list(rows)
        if rows:
            self._extend_rows(rows)

    # ------------------------------------------------------------------
    @classmethod
    def from_schema(cls, schema: TableSchema, rows: Iterable[Row] = ()) -> "Table":
        table = cls(schema.column_names)
        table._stores = [
            ColumnStore(_TYPECODES.get(column.dtype)) for column in schema.columns
        ]
        table.extend_checked(rows, schema)
        return table

    @classmethod
    def from_columns(
        cls, columns: Sequence[str], data: Sequence[list], nrows: int | None = None
    ) -> "Table":
        """Wrap already-columnar data without a row round-trip.

        ``data`` holds one plain value list per column (``None`` for
        NULL); the lists are adopted, not copied — the executor's output
        path hands over freshly built lists.
        """
        table = cls(columns)
        if len(data) != len(table.columns):
            raise ExecutionError(
                f"{len(data)} columns of data for {len(table.columns)} names"
            )
        if nrows is None:
            nrows = len(data[0]) if data else 0
        for store, values in zip(table._stores, data):
            if len(values) != nrows:
                raise ExecutionError("ragged column data")
            store.values = values
        table._nrows = nrows
        return table

    def extend_checked(self, rows: Iterable[Row], schema: TableSchema) -> None:
        """Append rows, validating arity, types and nullability.

        Validation is column-wise per batch: the batch is transposed
        once, then each column is checked in a single pass (one
        nullability scan, one `isinstance` scan against the dtype's
        allowed runtime types) instead of dispatching
        ``value_matches_type`` per cell.  On failure the offending cell
        is located by a second scan — the error path can afford it.
        """
        rows = [tuple(row) for row in rows] if not isinstance(rows, list) else rows
        if not rows:
            return
        width = len(schema.columns)
        for row in rows:
            if len(row) != width:
                raise TypeMismatchError(
                    f"row has {len(row)} values, table {schema.name!r} has {width}"
                )
        transposed = list(zip(*rows)) if width else []
        for values, column in zip(transposed, schema.columns):
            if not column.nullable and None in values:
                raise TypeMismatchError(
                    f"NULL in non-nullable column {schema.name}.{column.name}"
                )
            allowed = _ALLOWED_TYPES[column.dtype]
            if column.dtype is DataType.INTEGER:
                ok = all(
                    v is None or (type(v) is not bool and isinstance(v, allowed))
                    for v in values
                )
            else:
                ok = all(v is None or isinstance(v, allowed) for v in values)
            if not ok:
                for value in values:
                    if not value_matches_type(value, column.dtype):
                        raise TypeMismatchError(
                            f"value {value!r} does not match "
                            f"{schema.name}.{column.name}: {column.dtype.value}"
                        )
        self.extend_trusted(rows, transposed)

    def extend_trusted(
        self, rows: list[Row], transposed: list[tuple] | None = None
    ) -> None:
        """Append rows that are already known valid (the loader validated
        them, or they were read back out of a validated table) — no
        per-value re-checks, one columnar append per column."""
        if not rows:
            return
        if transposed is None:
            width = len(self._stores)
            for row in rows:
                if len(row) != width:
                    raise ExecutionError(
                        f"row has {len(row)} values, table has {width}"
                    )
            transposed = list(zip(*rows)) if width else []
        for store, values in zip(self._stores, transposed):
            store.extend(values)
        self._nrows += len(rows)
        self._bump()

    # ------------------------------------------------------------------
    # Row-oriented compatibility API
    # ------------------------------------------------------------------
    @property
    def rows(self) -> RowsView:
        # A fresh view per access, not one kept on the table: a kept view
        # and its table form a reference cycle, so every intermediate
        # result would wait for the cycle collector — which then walks
        # its column lists — instead of dying with its last reference.
        return RowsView(self)

    def _materialize_rows(self) -> list[Row]:
        cached = self._rows_cache
        if cached is not None:
            return cached
        if not self._stores:
            materialized: list[Row] = [()] * self._nrows
        else:
            materialized = list(zip(*(store.data() for store in self._stores)))
        self._rows_cache = materialized
        return materialized

    def _replace_rows(self, rows: list[Row]) -> None:
        transposed = list(zip(*rows)) if rows else [()] * len(self._stores)
        for store, values in zip(self._stores, transposed):
            store.clear()
            store.extend(values)
        self._nrows = len(rows)
        self._bump()

    def adopt_columns(self, other: "Table") -> None:
        """Wholesale replacement without a row round trip: take over
        ``other``'s column storage (``other`` must not be used again)."""
        if len(other._stores) != len(self._stores):
            raise ExecutionError(
                f"{len(other._stores)} columns of data for "
                f"{len(self._stores)} names"
            )
        self._stores = other._stores
        self._nrows = other._nrows
        self._bump()

    def fill_column(self, index: int, value: Any) -> None:
        """Set every row's cell in column ``index`` to ``value``."""
        store = ColumnStore()
        store.values = [value] * self._nrows
        self._stores[index] = store
        self._bump()

    def _append_row(self, row: Row) -> None:
        if len(row) != len(self._stores):
            raise ExecutionError(
                f"row has {len(row)} values, table has {len(self._stores)}"
            )
        for store, value in zip(self._stores, row):
            store.append(value)
        self._nrows += 1
        self._bump()

    def _extend_rows(self, rows: Iterable[Row]) -> None:
        rows = [tuple(row) for row in rows]
        if not rows:
            return
        width = len(self._stores)
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"row has {len(row)} values, table has {width}"
                )
        self.extend_trusted(rows)

    def _bump(self) -> None:
        """Invalidate row-materialization caches after any mutation."""
        self._rows_cache = None

    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ExecutionError(
                f"no column {name!r}; have {self.columns}"
            ) from None

    def column_values(self, name: str) -> list[Any]:
        return list(self._stores[self.column_index(name)].data())

    def column_data(self, index: int) -> list[Any]:
        """The executor's scan path: column ``index`` as a plain value
        list (``None`` for NULL).  **Read-only** — list-backed columns
        return the storage itself, zero copy."""
        return self._stores[index].data()

    def columns_data(self) -> list[list[Any]]:
        """All columns as plain value lists (read-only; see
        :meth:`column_data`)."""
        return [store.data() for store in self._stores]

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._materialize_rows())

    # ------------------------------------------------------------------
    def sorted_rows(self) -> list[Row]:
        """Rows in a canonical order, for set-style comparison in tests."""
        return sorted(self._materialize_rows(), key=_row_sort_key)

    def sort_by(self, keys: list[tuple[str, bool]]) -> None:
        """In-place ORDER BY; NULLs sort last on ascending keys.

        Implemented as successive stable sorts, least-significant key
        first; each pass builds its key function exactly once (closing
        over the column index and direction) rather than re-deriving the
        lookup per comparison.
        """
        rows = self._materialize_rows()[:]
        for name, ascending in reversed(keys):
            rows.sort(
                key=_sort_key_for(self.column_index(name), ascending),
                reverse=not ascending,
            )
        self._replace_rows(rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self._materialize_rows()]

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width rendering for examples and docs."""
        shown = self._materialize_rows()[:limit]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max([len(name)] + [len(row[i]) for row in cells])
            for i, name in enumerate(self.columns)
        ]
        header = "  ".join(name.ljust(w) for name, w in zip(self.columns, widths))
        rule = "  ".join("-" * w for w in widths)
        body = [
            "  ".join(value.ljust(w) for value, w in zip(row, widths))
            for row in cells
        ]
        footer = [] if self._nrows <= limit else [f"... ({self._nrows} rows)"]
        return "\n".join([header, rule, *body, *footer])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.columns}, {self._nrows} rows)"

    def nbytes_estimate(self) -> int:
        """Estimated resident bytes of the whole table (see
        :meth:`ColumnStore.nbytes_estimate`); the result cache and the
        memory broker weigh entries and charges with this."""
        return 256 + sum(store.nbytes_estimate() for store in self._stores)


#: sampled per-value costs extrapolate from this many evenly spaced
#: values — enough to smooth skew, cheap enough for hot paths
_SAMPLE_VALUES = 64

#: CPython object sizes are interpreter details; these are deliberately
#: round figures (object header + typical payload on a 64-bit build)
_SCALAR_NBYTES = {
    type(None): 16,
    bool: 28,
    int: 32,
    float: 24,
    datetime.date: 40,
}


def estimate_value_nbytes(value: Any) -> int:
    """Rough resident bytes of one Python value (plus its list slot)."""
    kind = type(value)
    fixed = _SCALAR_NBYTES.get(kind)
    if fixed is not None:
        return fixed + 8
    if kind is str:
        return 56 + len(value) + 8
    if kind in (tuple, list):
        return 64 + sum(estimate_value_nbytes(v) for v in value)
    return 64 + 8


def estimate_values_nbytes(values: Sequence[Any]) -> int:
    """Estimated resident bytes of a plain value list, extrapolated from
    an evenly spaced sample of at most ``_SAMPLE_VALUES`` values."""
    count = len(values)
    if count == 0:
        return 64
    if count <= _SAMPLE_VALUES:
        return 64 + sum(estimate_value_nbytes(v) for v in values)
    step = count // _SAMPLE_VALUES
    sampled = values[::step][:_SAMPLE_VALUES]
    per_value = sum(estimate_value_nbytes(v) for v in sampled) / len(sampled)
    return 64 + int(per_value * count)


def estimate_columns_nbytes(columns: Sequence[Sequence[Any]]) -> int:
    """Estimated resident bytes of raw columnar data (the executor's
    intermediate relations: one plain value list per column)."""
    return sum(estimate_values_nbytes(column) for column in columns)


_ALLOWED_TYPES = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (float, int),
    DataType.STRING: (str,),
    DataType.DATE: (datetime.date,),
    DataType.BOOLEAN: (bool,),
}


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _row_sort_key(row: Row) -> tuple:
    return tuple(_null_aware_key(value, True) for value in row)


def _sort_key_for(index: int, ascending: bool):
    """One ORDER-BY pass's key function, built once per key."""

    def key(row: Row, _index: int = index, _ascending: bool = ascending) -> tuple:
        return _null_aware_key(row[_index], _ascending)

    return key


def _null_aware_key(value: Any, ascending: bool) -> tuple:
    # (null flag, type bucket, value) gives a total order over mixed rows.
    if value is None:
        return (1 if ascending else 0, "", "")
    return (0 if ascending else 1, type(value).__name__, value)


def tables_equal(left: Table, right: Table) -> bool:
    """Multiset equality of rows (column order must agree).

    Floats compare with a relative tolerance: different plans sum in
    different orders, so the low bits legitimately differ.
    """
    if len(left.columns) != len(right.columns):
        return False
    if len(left.rows) != len(right.rows):
        return False
    left_sorted = sorted(left.rows, key=_freeze_row)
    right_sorted = sorted(right.rows, key=_freeze_row)
    return all(
        _rows_close(a, b) for a, b in zip(left_sorted, right_sorted)
    )


def _rows_close(left: Row, right: Row) -> bool:
    for a, b in zip(left, right):
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if not math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9):
                return False
            continue
        if a != b:
            return False
    return True


def _freeze_row(row: Row) -> tuple:
    return tuple(_null_aware_key(_canonical_value(value), True) for value in row)


def _canonical_value(value: Any) -> Any:
    # Sort key only: coarse enough that float noise does not reorder rows
    # relative to their counterpart in the other table.
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value
