"""In-memory relational tables, stored column-wise.

A :class:`Table` is its column lists: one plain Python list per column,
``None`` inline for SQL NULL, the same for every table however it came
to be in memory (built in process, loaded from a save, recovered from
the journal, shipped to a standby, produced by the executor).  The batch
executor reads the lists directly (:meth:`Table.column_data` — the
storage itself, zero copy), which is what makes vectorized
filtering/joining/grouping possible; everything that predates the
columnar refactor — matching, maintenance, persistence — keeps using the
row-oriented API through :attr:`Table.rows`, a mutable sequence view
that materializes tuples on demand and writes through to the columns.

**Readers pin, writers own.**  A column list is edited in place only
while nothing else holds it.  :meth:`Table.pin` marks the table shared
and returns a view over the same lists; every mutator first goes through
:meth:`Table._own`, which copies the lists iff they are marked shared
*and* still held (by reference count).  So a pinned view never changes,
a table whose readers have finished keeps its amortised O(1) append,
and nothing outside this module has to decide whether a list is safe to
read or to edit (docs/EXECUTOR.md, "Columnar tables").  A built index
survives an append (it gains the new positions) and an overwrite of
other columns; a delete or a wholesale replacement drops it.

**…and a table remembers what it edited since its last mark.**  A chain
of saves marks a stored table when it captures it (:meth:`Table.remark`);
from then on rows ``[0, stable)`` still sit in the slots they had at the
mark, except at the *edited* positions: ``rows[i] = …`` adds ``i``,
``del rows[i]`` lowers ``stable`` to ``i``, a wholesale replacement sets
it to 0, appends need nothing.  A table nobody marked has ``stable == 0``
and tracks nothing: one integer compare per overwrite, no memory.

There is no typed-array (``array('q'/'d')`` + null mask) backend: only
in-process databases ever got one (0 typed columns of 20 after save →
load), its scan path copied every column back into a list (8.8 → 20.6 MB
after three aggregates) and its scan time was unresolved against lists
(docs/EXECUTOR.md has the numbers).

The benchmarks still measure the effect the paper's ASTs exploit — the
*amount of data scanned* — only now against a competent vectorized
baseline instead of a per-row interpreter (see docs/EXECUTOR.md).
"""

from __future__ import annotations

import datetime
import math
from collections import defaultdict
from sys import getrefcount
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import TableSchema
from repro.catalog.types import PYTHON_TYPES, DataType, value_matches_type
from repro.errors import ExecutionError, TypeMismatchError

Row = tuple


class RowsView(Sequence):
    """A list-like, mutable view of a table's rows.

    Everything written before the columnar refactor treats
    ``table.rows`` as ``list[tuple]`` — iterating, appending, removing
    and indexing.  This view keeps that contract over column-wise
    storage: reads zip the columns into tuples on demand, writes fan out
    to the columns.
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
            if table._rows_cache is None and table._data:
                # a tail of a large table: slice the columns, then zip
                return list(zip(*[column[index] for column in table._data]))
            return table._materialize_rows()[index]
        index = table._row_position(index)
        return tuple(column[index] for column in table._data)

    def __eq__(self, other) -> bool:
        if isinstance(other, RowsView):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return self._table._materialize_rows() == other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._table._materialize_rows())

    def index(self, row, start: int = 0, stop: int | None = None) -> int:
        """Position of the first row equal to ``row``: the first column
        is probed with one C-level scan per candidate and the remaining
        cells are compared at that position only — no row is built for
        the positions in between."""
        row = tuple(row)
        table = self._table
        data = table._data
        start, stop, _ = slice(start, stop).indices(table._nrows)
        if len(row) == len(data) and start < stop:
            if not data:
                return start
            first, rest, tail = data[0], data[1:], row[1:]
            try:
                while True:
                    start = first.index(row[0], start, stop)
                    if tuple(column[start] for column in rest) == tail:
                        return start
                    start += 1
            except ValueError:
                pass
        raise ValueError(f"{row!r} not in rows")

    # -- writes --------------------------------------------------------
    def append(self, row: Row) -> None:
        self._table.extend_trusted([tuple(row)])

    def extend(self, rows: Iterable[Row]) -> None:
        self._table.extend_trusted([tuple(row) for row in rows])

    def remove(self, row: Row) -> None:
        del self[self.index(row)]

    def __setitem__(self, index: int, value: Row) -> None:
        table = self._table
        index = table._row_position(index)
        row = table._checked_width(tuple(value))
        indexes = table._kept_indexes()
        for number, (column, cell) in enumerate(zip(table._own(), row)):
            if column[index] != cell:
                indexes.pop(number, None)
            column[index] = cell
        if index < table._stable:
            table._edited.add(index)

    def __delitem__(self, index: int) -> None:
        table = self._table
        index = table._row_position(index)
        for column in table._own():
            del column[index]
        table._nrows -= 1
        if index < table._stable:
            table._stable = index  # every later row moved up a slot
        table._bump()


class Table:
    """Column names + one plain value list per column (``None`` inline
    for SQL NULL); ``rows`` is the row-oriented compatibility view."""

    __slots__ = (
        "columns", "_data", "_nrows", "_index", "_rows_cache", "_shared",
        "_mark", "_stable", "_edited", "_indexes",
    )

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()):
        self.columns = list(columns)
        self._index = {name: i for i, name in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise ExecutionError(f"duplicate column names: {self.columns}")
        self._data: list[list[Any]] = [[] for _ in self.columns]
        self._nrows = 0
        self._rows_cache: list[Row] | None = None
        #: someone else may hold ``_data``'s lists: copy before editing
        self._shared = False
        #: the save marked last, the stable prefix since, the edits below it
        self._mark: Any = None
        self._stable = 0
        self._edited: set[int] | None = None
        #: column number -> its :meth:`index`, built on first use
        self._indexes: dict[int, dict] = {}
        self.extend_trusted([tuple(row) for row in rows])

    # ------------------------------------------------------------------
    @classmethod
    def from_schema(cls, schema: TableSchema, rows: Iterable[Row] = ()) -> "Table":
        table = cls(schema.column_names)
        table.extend_checked(rows, schema)
        return table

    @classmethod
    def from_columns(
        cls, columns: Sequence[str], data: Sequence[list],
        nrows: int | None = None, shared: bool = False,
    ) -> "Table":
        """Wrap already-columnar data without a row round-trip.

        ``data`` holds one plain value list per column (``None`` for
        NULL); the lists are adopted, not copied.  ``shared`` says they
        may be another table's storage, or one list under two names (an
        executor result passes scanned columns through): the table is
        born shared and copies them before its first edit.
        """
        table = cls(columns)
        if len(data) != len(table.columns):
            raise ExecutionError(
                f"{len(data)} columns of data for {len(table.columns)} names"
            )
        if nrows is None:
            nrows = len(data[0]) if data else 0
        for values in data:
            if len(values) != nrows:
                raise ExecutionError("ragged column data")
        table._data = list(data)
        table._nrows = nrows
        table._shared = shared
        return table

    # ------------------------------------------------------------------
    # Readers pin, writers own
    # ------------------------------------------------------------------
    def pin(self) -> "Table":
        """The rows as they are now, as a table that never changes.

        The view holds the same lists (no copy) and marks both tables
        shared: the next edit of either copies them if still held.  A
        stored table is pinned while holding the lock its writers hold
        (``Database._maintenance_lock``): that is what makes "now" a
        state between two writes, for every table pinned under one
        acquisition.  A writer reading under its own lock does not pin —
        it would only make its next edit copy.
        """
        self._shared = True
        view = Table.__new__(Table)
        view.columns = self.columns
        view._index = self._index
        view._data = self._data
        view._nrows = self._nrows
        view._rows_cache = None
        view._shared = True
        view._mark, view._stable, view._edited = None, 0, None
        view._indexes = self._indexes
        return view

    def _own(self) -> list[list[Any]]:
        """The write gate: the column lists, safe to edit in place —
        copied first iff marked shared and still held (a count of 2 is
        this table's slot plus the argument; pins are taken under the
        writers' lock, so none appears between the count and the edit)."""
        if self._shared:
            self._shared = False
            if max([getrefcount(self._data), *map(getrefcount, self._data)]) > 2:
                self._data = [list(column) for column in self._data]
        return self._data

    def remark(self, previous: Any, mark: Any) -> tuple[int, list[int]]:
        """``(stable, edited)``: the save ``previous`` holds this table's
        rows ``[0, stable)`` at the same positions, except the ``edited``
        ones — ``(0, [])``, everything changed, when it is not the save
        last marked — and from now on changes are tracked against
        ``mark``.  Called under the lock the table's writers hold."""
        changes = (0, [])
        if previous is not None and self._mark == previous:
            stable = self._stable
            changes = (stable, sorted(i for i in self._edited if i < stable))
        self._mark, self._stable, self._edited = mark, self._nrows, set()
        return changes

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
            allowed = PYTHON_TYPES[column.dtype]
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
            for row in rows:
                self._checked_width(row)
            transposed = list(zip(*rows))
        start = self._nrows
        for column, values in zip(self._own(), transposed):
            column.extend(values)
        self._nrows += len(rows)
        for number, index in self._kept_indexes().items():
            for i, value in enumerate(transposed[number], start):
                if value is not None:
                    index.setdefault(value, []).append(i)

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
        if not self._data:
            materialized: list[Row] = [()] * self._nrows
        else:
            materialized = list(zip(*self._data))
        self._rows_cache = materialized
        return materialized

    def adopt_columns(self, other: "Table") -> None:
        """Wholesale replacement without a row round trip: take over
        ``other``'s column storage (``other`` must not be used again) —
        copied iff ``other`` is shared, as an executor result is."""
        if len(other._data) != len(self._data):
            raise ExecutionError(
                f"{len(other._data)} columns of data for "
                f"{len(self._data)} names"
            )
        self._data = other._own()
        self._shared = False
        self._nrows = other._nrows
        self._stable = 0
        self._bump()

    def fill_column(self, index: int, value: Any) -> None:
        """Set every row's cell in column ``index`` to ``value``."""
        self._own()[index] = [value] * self._nrows
        self._stable = 0
        self._kept_indexes().pop(index, None)

    def _checked_width(self, row: Row) -> Row:
        if len(row) != len(self._data):
            raise ExecutionError(
                f"row has {len(row)} values, table has {len(self._data)}"
            )
        return row

    def _row_position(self, index: int) -> int:
        """``index`` normalised like a list's: negative counts from the end."""
        if index < 0:
            index += self._nrows
        if not 0 <= index < self._nrows:
            raise IndexError("row index out of range")
        return index

    def _bump(self) -> None:
        """After a delete or a replacement: drop the row cache and indexes."""
        self._rows_cache = None
        self._indexes = {}

    def _kept_indexes(self) -> dict:
        """After an edit the caller mends the indexes for: drop the row
        cache; the built indexes, to edit in place — or a fresh ``{}``
        while a pin holds the dict (the slot and the argument make 2)."""
        self._rows_cache = None
        if getrefcount(self._indexes) > 2:
            self._indexes = {}
        return self._indexes

    def index(self, column: int) -> dict:
        """Column ``column``'s values, each to its ascending row numbers;
        NULLs are skipped (they never equi-join).  Built on first use.
        A pin shares the table's indexes — its lists never change — and
        an edit mends or drops them (:meth:`_kept_indexes`), so an index
        always describes the lists it is read with."""
        index = self._indexes.get(column)
        if index is None:
            groups = defaultdict(list)
            for i, value in enumerate(self._data[column]):
                groups[value].append(i)
            groups.pop(None, None)
            index = self._indexes[column] = dict(groups)
        return index

    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ExecutionError(
                f"no column {name!r}; have {self.columns}"
            ) from None

    def column_values(self, name: str) -> list[Any]:
        return list(self._data[self.column_index(name)])

    def column_data(self, index: int) -> list[Any]:
        """The executor's scan path: column ``index`` as a plain value
        list (``None`` for NULL) — the storage itself, zero copy, for
        every table however it was built.  Edits go through the table
        (:meth:`_own`), never through this list; a reader that overlaps
        writers reads a :meth:`pin`."""
        return self._data[index]

    def columns_data(self) -> list[list[Any]]:
        """All columns as plain value lists (see :meth:`column_data`)."""
        return list(self._data)

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
        # fresh lists, not an edit: whoever holds the old ones keeps them
        data = [list(values) for values in zip(*rows)] or [[] for _ in self._data]
        self.adopt_columns(Table.from_columns(self.columns, data, len(rows)))

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
        """Estimated resident bytes of the whole table, extrapolated
        from a small evenly spaced value sample per column — the result
        cache and the memory broker weigh entries and charges with
        order-of-magnitude estimates, not malloc truth."""
        return 256 + estimate_columns_nbytes(self._data)


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
