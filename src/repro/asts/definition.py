"""Automatic Summary Table (AST) definitions.

An AST is a materialized view: an SQL query with aggregation whose result
is stored as a table and used *transparently* during optimization. This
module holds the definition object; materialization and registration live
in :class:`repro.engine.database.Database`, incremental maintenance in
:mod:`repro.asts.maintenance`, and selection in :mod:`repro.asts.advisor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.schema import TableSchema
from repro.engine.table import Table
from repro.qgm.boxes import QueryGraph
from repro.refresh.policy import RefreshState


@dataclass
class SummaryTable:
    """A materialized summary table.

    ``graph`` is the defining query's QGM graph (the subsumer side of
    matching); ``table`` holds the materialized rows; ``schema`` exposes
    the AST as an ordinary table so rewritten queries can scan it.
    ``refresh`` records the refresh mode (immediate | deferred) and, for
    deferred summaries, how far behind the delta log the rows are — the
    rewriter only offers the summary to queries whose freshness
    tolerance admits that staleness.

    Maintenance finds a group's row through :meth:`group_index`, a
    key → row-position map built at the first incremental merge (never at
    creation or load) and kept current by the merge itself;
    :meth:`replace_contents` is the one way the rows are replaced
    wholesale and the one place that index is dropped — and with it
    ``_auxiliary``, the hidden groups of the view's inner aggregation
    block that cascade maintenance (shape (d) in
    :mod:`repro.asts.maintenance`) keeps beside the rows, and ``_plans``,
    the delta plans built for both: private state like the index, never
    stored, listed or matched.
    """

    name: str
    sql: str
    graph: QueryGraph
    schema: TableSchema
    table: Table
    enabled: bool = True
    #: refresh mode plus staleness record (see repro.refresh.policy)
    refresh: RefreshState = field(default_factory=RefreshState)
    #: (key column indexes, key tuple -> row position), see group_index
    _group_index: tuple[tuple[int, ...], dict[tuple, int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: shape (d) maintenance state (repro.asts.maintenance._Cascade)
    _auxiliary: object | None = field(default=None, repr=False, compare=False)
    #: the delta plans built for these rows and that state
    #: (repro.asts.maintenance._plan)
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def row_count(self) -> int:
        return len(self.table)

    def replace_contents(self, data: Table) -> None:
        """Adopt ``data`` (a freshly computed result of the defining
        query, not used again by the caller) as the materialized rows."""
        self.table.adopt_columns(data)
        self._group_index = None
        self._auxiliary = None
        self._plans = {}

    def group_index(self, keys: tuple[int, ...]) -> dict[tuple, int]:
        """Row position by the values of the ``keys`` columns. Whoever
        adds, moves or removes a row keeps the returned dict current."""
        cached = self._group_index
        if cached is not None and cached[0] == keys:
            return cached[1]
        if keys:
            columns = [self.table.column_data(column) for column in keys]
            index = dict(zip(zip(*columns), range(len(self.table))))
        else:  # a grand total: at most one row, keyed by ()
            index = {(): 0} if len(self.table) else {}
        self._group_index = (keys, index)
        return index

    def base_tables(self) -> set[str]:
        """Base tables the AST summarizes (lower-cased names)."""
        return self.graph.base_tables()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SummaryTable({self.name}, {self.row_count} rows)"
