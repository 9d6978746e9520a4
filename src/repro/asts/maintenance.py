"""Incremental maintenance of summary tables — related problem (c).

The paper points to Mumick et al. [10] for keeping ASTs consistent when
base tables change. We implement the summary-delta method on the one
property every supported view shares: under bag semantics a
select-project-join block is *linear* in each table it reads once, so
its change is the block evaluated over the changed rows alone (joined
with the other tables in full) — the base table is never re-read.

One analysis, :func:`_plan`, classifies a view for a changed table and
yields a *delta plan*; ``maintain_insert``, ``maintain_delete`` and
``apply_pending`` all evaluate and apply that plan:

(a) **select-only view** over base tables (WHERE, joins, derived
    tables; AST2): ``Q(ΔT)`` is appended on insert and bag-removed on
    delete.
(b) **one aggregation block** over a select-only input: the block over
    ``ΔT`` gives delta groups, merged into the stored groups — COUNT and
    SUM add (subtract on delete), MIN/MAX compare on insert; a group
    whose COUNT(*) reaches zero is removed.
(c) **an aggregation block plus scalar subqueries**, each a grand-total
    aggregate over its own select-only input (AST10's ``totcnt``):
    groups merge as in (b); each scalar is maintained by its own delta
    and broadcast into its column.
(d) **cascade** — a view that discards groups its delta rule needs
    (aggregation over aggregation: AST8; no COUNT(*) under deletes: AST4,
    AST6; HAVING): the view is split at its innermost aggregation block
    into hidden *auxiliary groups* (that block plus a COUNT(*), shape b)
    and the *outer view* over them. A change merges into the groups;
    the groups it touched — their old rows as a delete, their new rows
    as an insert — are the outer view's changed table, planned and
    applied as (a) or (b) like any other. The groups are state of the
    ``SummaryTable`` like its group index: asked for by the first write
    that needs them, filled by the one recompute that write costs (and
    by every later one), dropped whenever the rows are replaced by
    anyone else, never stored or visible.

Applying a plan touches the delta's rows, not the summary's: a group's
row is found through :meth:`SummaryTable.group_index` and written in
place. Every other shape — AVG or DISTINCT aggregates, a self-join,
MIN/MAX under deletes, an outer view that is itself neither (a) nor (b)
under deletes, ... — is recomputed by :func:`recompute`, which names the
cause in the write's record, counts it and emits a ``summary.recompute``
event: silently degrading would hide exactly the cost [10] is about.
(docs/ALGORITHM.md has the full shape → rule → reason table.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.asts.definition import SummaryTable
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import DataType
from repro.engine.executor import Executor
from repro.engine.pipeline import WriteRun
from repro.engine.table import Row, Table
from repro.errors import MaintenanceError
from repro.expr.nodes import AggCall, ColumnRef
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QCL,
    QGMBox,
    QueryGraph,
    SelectBox,
)
from repro.qgm.bind_cache import _Template
from repro.qgm.build import build_graph


def maintain_insert(
    database,
    table_name: str,
    rows: Iterable[Row],
    summaries: Iterable[SummaryTable] | None = None,
) -> WriteRun:
    """Load ``rows`` into ``table_name`` and bring summary tables up to
    date, incrementally where possible; the returned record's
    ``incremental``/``recomputed``/``unaffected`` say how.

    ``summaries`` restricts maintenance to a subset (the deferred-refresh
    path maintains only REFRESH IMMEDIATE summaries inline and stages the
    rest in the delta log); ``None`` maintains every summary table.
    """
    return _maintain(database, table_name, rows, +1, summaries)


def maintain_delete(
    database,
    table_name: str,
    rows: Iterable[Row],
    summaries: Iterable[SummaryTable] | None = None,
) -> WriteRun:
    """Remove exact ``rows`` from ``table_name`` and maintain summaries
    (``summaries`` restricts the maintained subset as in
    :func:`maintain_insert`)."""
    return _maintain(database, table_name, rows, -1, summaries)


def _maintain(database, table_name, rows, sign, summaries) -> WriteRun:
    """The change to the base table is the write's first; a failure
    after it (the k-th summary's apply raising) takes it back and
    recomputes every summary the write planned, so the write happened to
    the base table and all of ``summaries`` or to none of them."""
    rows = [tuple(row) for row in rows]
    if summaries is None:
        summaries = database.summary_tables.values()
    run = WriteRun()
    # Deltas are evaluated, and deleted rows located, *before* the base
    # table changes, so joins against dimension tables see a consistent
    # state and a missing row changes nothing.
    store = _delta_store(database, table_name, rows)
    table = database.table(table_name)
    positions = _locate(table, rows, table_name) if sign < 0 else []
    staged: list[tuple[SummaryTable, _DeltaPlan | str, _Delta | None]] = []
    for summary in summaries:
        plan = _plan(summary, table_name, sign < 0)
        if plan is None:
            run.unaffected.append(summary.name)
        elif isinstance(plan, str):
            run.recomputed[summary.name] = plan
            staged.append((summary, plan, None))
        else:
            staged.append((summary, plan, _evaluate(plan, store)))

    if sign > 0:
        database.load(table_name, rows)
    for position in positions:
        del table.rows[position]
    try:
        for summary, plan, delta in staged:
            if isinstance(plan, str):
                recompute(database, summary, plan)
            else:
                _apply(summary, plan, delta, sign)
                run.incremental.append(summary.name)
    except BaseException:
        if sign > 0:
            for _ in rows:
                del table.rows[-1]
        else:
            table.rows.extend(rows)
        for summary, *_ in staged:
            recompute(database, summary, "write rolled back")
        raise
    return run


def _locate(table: Table, rows, name: str) -> list[int]:
    """Where deleting exact ``rows`` from ``table`` deletes, last first:
    each row's position, a repeated row's at its next occurrence — what
    removing the rows one by one by value would take, the bytes left
    included, one probe per row — or a MaintenanceError before anything
    changed."""
    taken: dict[Row, int] = {}
    positions = []
    for row in rows:
        try:
            taken[row] = table.rows.index(row, taken.get(row, -1) + 1)
        except ValueError:
            raise MaintenanceError(f"row {row!r} not present in {name!r}") from None
        positions.append(taken[row])
    return sorted(positions, reverse=True)


def apply_pending(database, summary: SummaryTable, batches) -> str | None:
    """Merge staged delta-log batches into one deferred summary table.

    The batching trick that makes deferred refresh cheap: because the
    changed table appears once per block of a maintainable view, a
    batch's delta never touches the changed table's stored contents — so
    *all* staged insert rows collapse into one delta evaluation and all
    staged delete rows into another, regardless of how many
    INSERT/DELETE statements produced them. Inserts apply first so a
    delete can never hit a group or row a staged insert was about to
    create (COUNT/SUM merging is commutative, and deletes against
    MIN/MAX already force recomputation via :func:`_plan`).

    Returns ``None`` when the plan was applied, else the reason the
    summary is not self-maintainable for this pending set — the caller
    (the refresh scheduler) falls back to :func:`recompute`. Requires
    every *other* base table of the summary to be unchanged since the
    summary's last refresh, which holds exactly when the pending batches
    name a single table: any change to a dependency is staged for this
    summary too.
    """
    tables = {batch.table for batch in batches}
    if not tables:
        return None
    if len(tables) > 1:
        return "pending deltas touch more than one base table"
    (table_name,) = tables
    plan = _plan(summary, table_name, any(batch.sign < 0 for batch in batches))
    if plan is None:
        return None  # log over-approximated: the summary is unaffected
    if isinstance(plan, str):
        return plan
    for sign in (+1, -1):
        rows = [row for batch in batches if batch.sign == sign for row in batch.rows]
        if rows:
            store = _delta_store(database, table_name, rows)
            _apply(summary, plan, _evaluate(plan, store), sign)
    return None


def recompute(database, summary: SummaryTable, reason: str) -> None:
    """Replace ``summary``'s rows with its defining query over the base
    tables as they are now. Every full recomputation — maintenance
    fallback, REFRESH, scheduler fallback, recovery rebuild — goes
    through here, so the ``maintenance_recomputes`` counter and the
    ``summary.recompute`` event see them all. A write's own read: the
    caller holds the maintenance lock, so the stored tables are scanned
    as they are, not pinned (a pin would make the next insert copy).

    When a write's plan asked for auxiliary groups (shape (d):
    ``summary._auxiliary``), the same one scan goes through them — the
    block over the base tables, then the view over its groups — so they
    are built, and rebuilt, only ever together with the rows they
    explain."""
    cascade: _Cascade | None = summary._auxiliary
    executor = Executor(database.tables, metrics=database.metrics)
    if cascade is None:
        summary.replace_contents(executor.run(summary.graph))
    else:
        groups = executor.run(cascade.groups.graph)
        summary.replace_contents(
            Executor({cascade.groups.name: groups}).run(cascade.outer)
        )
        cascade.groups.replace_contents(groups)
        cascade.built = True
        summary._auxiliary = cascade  # replace_contents dropped it, and the plans
    database.metrics.counter(
        "maintenance_recomputes",
        "summary tables recomputed from the base tables",
        summary=summary.name,
    ).inc()
    database.emit(
        "summary.recompute",
        summary=summary.name,
        reason=reason,
        rows=summary.row_count,
    )


# ----------------------------------------------------------------------
# View shape → delta plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ScalarPlan:
    """One scalar-subquery output column of a shape (c) view."""

    column: int
    func: str
    #: the grand-total block, evaluated over the delta; None when the
    #: block does not read the changed table
    block: _Template | None


@dataclass(frozen=True)
class _DeltaPlan:
    """How one summary follows a change to one base table. Each block
    holds its graph's executor programs, as a plan template does (with
    no literal slots): emitted once, bound to every write's rows."""

    #: evaluated over the delta store: the rows to append or remove
    #: (shape a) or the delta groups (b, c); None when only scalar
    #: blocks read the changed table
    block: _Template | None
    #: per summary column, its position in ``block``'s output; None for
    #: a scalar-subquery column
    source: tuple[int | None, ...]
    #: summary columns holding the group key; None for shape (a)
    keys: tuple[int, ...] | None = None
    aggregates: tuple[tuple[int, str], ...] = ()  # (summary column, func)
    count: int | None = None  # a COUNT(*) column: detects emptied groups
    scalars: tuple[_ScalarPlan, ...] = ()


@dataclass
class _Delta:
    """A plan evaluated over one set of changed rows."""

    rows: Table | None
    scalars: list  # one delta value (or None: untouched) per plan scalar


class _GroupsNotStored(str):
    """A fallback reason that keeping the groups of the view's innermost
    aggregation block lifts — where shape (d) starts."""


@dataclass
class _Cascade:
    """Shape (d) state of one summary (``SummaryTable._auxiliary``): its
    view split at the innermost aggregation block over a select-only
    input. Private to maintenance — in no catalog, table store or file."""

    #: that block plus a COUNT(*), a summary table of its own (shape b)
    groups: SummaryTable
    #: the view with the block replaced by a scan of ``groups``
    outer: QueryGraph
    #: False until :func:`recompute` has filled ``groups``
    built: bool = False


@dataclass(frozen=True)
class _CascadePlan:
    """Shape (d): ``inner`` merges the change into the auxiliary groups;
    the groups it touched — old rows deleted, new rows inserted — are the
    change ``outer`` carries into the summary."""

    groups: SummaryTable
    inner: _DeltaPlan
    outer: _DeltaPlan


def _plan(summary: SummaryTable, table_name: str, deleting: bool):
    """The summary's delta plan for a change to ``table_name``; ``None``
    when the view does not read that table; a reason string when the
    view (or, for stored scalars, its current contents) is not
    self-maintainable for this change — the caller recomputes. Built
    once per summary state (``summary._plans``, which every recompute
    drops), keyed also on whether the rows are empty: a scalar reads it."""
    changed = table_name.lower()
    key = (changed, deleting, len(summary.table) == 0)
    if key not in summary._plans:
        summary._plans[key] = _analyse(summary, changed, deleting)
    return summary._plans[key]


def _analyse(summary: SummaryTable, changed: str, deleting: bool):
    """:func:`_plan`, built afresh."""
    cascade: _Cascade | None = summary._auxiliary
    direct = None
    if cascade is None or not cascade.built:
        direct = _direct_plan(summary.graph, summary.table, changed, deleting)
        if not isinstance(direct, _GroupsNotStored):
            return direct
        cascade = cascade or _split(summary)
        if cascade is None:
            return direct
    groups = cascade.groups
    inner = _direct_plan(groups.graph, groups.table, changed, deleting)
    if inner is None or isinstance(inner, str):
        return inner
    # a touched group is one delete and one insert, whatever the write was
    outer = _direct_plan(cascade.outer, summary.table, groups.name, True)
    if isinstance(outer, str):
        return f"over auxiliary groups {groups.name}: {outer}"
    if not cascade.built:
        summary._auxiliary = cascade  # filled by the recompute this reason causes
        return f"{direct}; kept as auxiliary groups {groups.name} from this recompute on"
    return _CascadePlan(groups, inner, outer)


def _split(summary: SummaryTable) -> _Cascade | None:
    """``summary``'s view cut at its innermost aggregation block over a
    select-only input; ``None`` when there is no such block or the rest
    of the view reads more than that block."""
    view = build_graph(summary.sql, summary.graph.catalog, label="A")  # ours to cut
    block = _innermost_block(view.root)
    if block is None:
        return None
    # lower-case and not an identifier: no catalog has a table of this name
    name = f"{summary.name}.{block.name}".lower()
    # (the binder outputs every grouping column already) longer than any
    # one output name, so new among them
    count = "_".join(block.output_names + ["rows"])
    block.add_aggregate_output(count, AggCall("count"), nullable=False)
    # bound to no SQL and stored nowhere: the column types are never read
    schema = TableSchema(
        name, [Column(q.name, DataType.FLOAT, q.nullable) for q in block.outputs]
    )
    scan = BaseTableBox(name, schema)
    for _, quantifier in view.parents_of(block):
        quantifier.box = scan
    if view.base_tables() != {name}:
        return None
    root = SelectBox(name)
    over = root.add_quantifier("g", block)
    root.outputs = [QCL(q.name, over.ref(q.name), q.nullable) for q in block.outputs]
    graph = QueryGraph(root, view.catalog)
    return _Cascade(
        SummaryTable(name, "", graph, schema, Table(schema.column_names)), view
    )


def _innermost_block(box: QGMBox) -> GroupByBox | None:
    """The first (depth-first) aggregation block under ``box`` whose
    input is select-only."""
    for child in box.children():
        found = _innermost_block(child)
        if found is not None:
            return found
    if isinstance(box, GroupByBox) and _not_select_only(box.child_quantifier.box) is None:
        return box
    return None


def _direct_plan(graph: QueryGraph, stored: Table, changed: str, deleting: bool):
    """The shape (a)–(c) plan that keeps ``stored`` equal to view
    ``graph`` when table ``changed`` changes; ``None`` when the view
    does not read that table; else the reason there is none — a
    :class:`_GroupsNotStored` where shape (d) may still apply."""
    if changed not in graph.base_tables():
        return None
    root = graph.root
    if not isinstance(root, SelectBox):
        return f"view root is a {_describe(root)}, not a SELECT block"
    if root.distinct:
        return "view is SELECT DISTINCT — duplicates are not tracked"
    if graph.limit is not None:
        return "view has LIMIT — the rows it cut off are not stored"

    if _not_select_only(root) is None:  # shape (a)
        if _occurrences(root, changed) > 1:
            return _SELF_JOIN
        return _DeltaPlan(_Template(graph, {}), tuple(range(len(root.outputs))))

    # Shapes (b) and (c): one aggregation block, scalar blocks beside it.
    main = None
    scalar_blocks: dict[str, tuple[GroupByBox, QCL]] = {}
    for quantifier in root.quantifiers():
        if isinstance(quantifier.box, GroupByBox) and main is None:
            main = quantifier
            continue
        scalar = _scalar_block(quantifier.box)
        if scalar is None:
            return (
                f"view joins {quantifier.name!r} ({_describe(quantifier.box)}) "
                "in its root block — not a single aggregation block"
            )
        scalar_blocks[quantifier.name] = scalar
    if main is None:
        return "view has scalar subqueries but no aggregation block"
    if root.predicates:
        return _GroupsNotStored(
            "HAVING filters the aggregation block — "
            "the groups it rejects are not stored"
        )
    groupby: GroupByBox = main.box
    nested = _not_select_only(groupby.child_quantifier.box)
    if nested is not None:
        return _GroupsNotStored(
            f"nested aggregation: {groupby.name} reads {_describe(nested)}, "
            "whose groups are not stored"
        )
    if deleting and () in groupby.grouping_sets:
        return "grand-total group keeps its row when emptied by deletes"
    if groupby.is_multidimensional and any(
        groupby.child_quantifier.box.output(qcl.expr.name).nullable
        for qcl in groupby.grouping_outputs()
    ):
        return "grouping sets over a nullable column — NULL keys are ambiguous"

    names = groupby.output_names
    source: list[int | None] = []
    keys: list[int] = []
    aggregates: list[tuple[int, str]] = []
    count: int | None = None
    scalars: list[_ScalarPlan] = []
    for column, qcl in enumerate(root.outputs):
        ref = qcl.expr
        if not isinstance(ref, ColumnRef):
            return f"output {qcl.name!r} is computed from the block's columns"
        if ref.qualifier == main.name:
            source.append(names.index(ref.name))
            inner = groupby.output(ref.name)
            if not isinstance(inner.expr, AggCall):
                keys.append(column)
                continue
            reason = _aggregate_reason(qcl.name, inner, deleting)
            if reason is not None:
                return reason
            if inner.expr.func == "count" and inner.expr.arg is None and count is None:
                count = column
            aggregates.append((column, inner.expr.func))
            continue
        scalar = _scalar_plan(
            column, qcl.name, *scalar_blocks[ref.qualifier], graph, changed, deleting
        )
        if isinstance(scalar, str):
            return scalar
        source.append(None)
        scalars.append(scalar)
    projected = {root.outputs[column].expr.name for column in keys}
    if set(groupby.grouping_items) - projected:
        return "a grouping column is projected away — groups are ambiguous"
    if deleting and count is None:
        return _GroupsNotStored("no COUNT(*) column to detect emptied groups")
    if scalars and not len(stored):
        # a scalar's value lives only in its column: no row, no value
        return "summary is empty — its scalar subquery values are not stored"
    reads = _occurrences(groupby, changed)
    if reads > 1:
        return _SELF_JOIN
    return _DeltaPlan(
        _Template(QueryGraph(groupby, graph.catalog), {}) if reads else None,
        tuple(source),
        tuple(keys),
        tuple(aggregates),
        count,
        tuple(scalars),
    )


def _scalar_plan(
    column: int, name: str, block: GroupByBox, inner: QCL,
    graph: QueryGraph, changed: str, deleting: bool,
):
    """The plan for scalar-subquery output ``name`` (grand-total
    ``block``, aggregate ``inner``), or the reason it has none."""
    reason = _aggregate_reason(name, inner, deleting)
    if reason is not None:
        return reason
    if deleting and inner.expr.func == "sum":
        return (
            f"scalar {name!r} is SUM — NULL again once deletes empty its "
            "input, which nothing stored can detect"
        )
    nested = _not_select_only(block.child_quantifier.box)
    if nested is not None:
        return (
            f"nested aggregation: scalar {name!r} reads {_describe(nested)}, "
            "whose groups are not stored"
        )
    reads = _occurrences(block, changed)
    if reads > 1:
        return _SELF_JOIN
    return _ScalarPlan(
        column,
        inner.expr.func,
        _Template(QueryGraph(block, graph.catalog), {}) if reads else None,
    )


_SELF_JOIN = "changed table appears more than once in one block (self-join)"


def _aggregate_reason(name: str, qcl: QCL, deleting: bool) -> str | None:
    """Why aggregate output ``qcl`` cannot be merged, if it cannot."""
    call: AggCall = qcl.expr
    if call.distinct:
        return f"{name!r} uses DISTINCT aggregation"
    if call.func == "avg":
        return f"{name!r} is AVG (store SUM and COUNT instead)"
    if call.func not in ("count", "sum", "min", "max"):
        return f"{name!r} is {call.func.upper()} — no merge rule"
    if deleting and call.func in ("min", "max"):
        return f"{name!r} is {call.func.upper()} — not maintainable under deletes"
    if deleting and call.func == "sum" and qcl.nullable:
        return (
            f"{name!r} is SUM over a nullable column — "
            "deletes cannot tell 0 from NULL"
        )
    return None


def _scalar_block(box: QGMBox) -> tuple[GroupByBox, QCL] | None:
    """(grand-total block, its aggregate output) when ``box`` is a scalar
    subquery projecting exactly one aggregate, else ``None``."""
    if not isinstance(box, SelectBox) or box.predicates or box.distinct:
        return None
    children = box.children()
    if len(children) != 1 or len(box.outputs) != 1:
        return None
    block, ref = children[0], box.outputs[0].expr
    if (
        not isinstance(block, GroupByBox)
        or block.grouping_sets != ((),)
        or not isinstance(ref, ColumnRef)
    ):
        return None
    return block, block.output(ref.name)


def _not_select_only(box: QGMBox) -> QGMBox | None:
    """The first box under (and including) ``box`` that is not a plain
    SELECT or a base table; ``None`` for a select-only subtree."""
    if isinstance(box, BaseTableBox):
        return None
    if not isinstance(box, SelectBox) or box.distinct:
        return box
    for child in box.children():
        found = _not_select_only(child)
        if found is not None:
            return found
    return None


def _occurrences(box: QGMBox, table: str) -> int:
    """How many quantifiers under ``box`` range over base table ``table``."""
    if isinstance(box, BaseTableBox):
        return int(box.table_name.lower() == table)
    return sum(_occurrences(child, table) for child in box.children())


def _describe(box: QGMBox) -> str:
    if isinstance(box, GroupByBox):
        return f"aggregation block {box.name}"
    if isinstance(box, SelectBox) and box.distinct:
        return f"SELECT DISTINCT block {box.name}"
    return f"{box.kind} block {box.name}"


# ----------------------------------------------------------------------
# Evaluating and applying a plan
# ----------------------------------------------------------------------
def _delta_store(database, table_name: str, rows: list[Row]) -> dict[str, Table]:
    """The table store with ``table_name`` replaced by the changed rows."""
    schema = database.catalog.table(table_name)
    store = dict(database.tables)
    store[schema.name.lower()] = Table(schema.column_names, rows)
    return store


def _evaluate(plan, store: dict[str, Table]) -> _Delta:
    if isinstance(plan, _CascadePlan):
        plan = plan.inner  # the outer half is evaluated as it is applied
    executor = Executor(store)

    def run(block: _Template) -> Table:  # bound from the block's programs
        return executor.run(block.graph, (block, ()))

    return _Delta(
        None if plan.block is None else run(plan.block),
        [
            None if scalar.block is None else run(scalar.block).rows[0][0]
            for scalar in plan.scalars
        ],
    )


def _apply(summary: SummaryTable, plan, delta: _Delta, sign: int) -> None:
    if isinstance(plan, _CascadePlan):
        return _cascade(summary, plan, delta, sign)
    rows = summary.table.rows
    if plan.keys is None:  # shape (a): the delta rows are the change
        if sign > 0:
            rows.extend(delta.rows)
        else:
            for position in _locate(summary.table, delta.rows, summary.name):
                del rows[position]
    else:
        stored = rows[0] if plan.scalars else ()
        scalar_values = {
            scalar.column: stored[scalar.column]
            if change is None
            else _combine(scalar.func, stored[scalar.column], change, sign)
            for scalar, change in zip(plan.scalars, delta.scalars)
        }
        if delta.rows is not None:
            _merge_groups(summary, plan, delta.rows, scalar_values, sign)
        for column, value in scalar_values.items():
            if value != stored[column]:
                summary.table.fill_column(column, value)


def _cascade(summary: SummaryTable, plan: _CascadePlan, delta: _Delta, sign: int) -> None:
    groups, inner = plan.groups, plan.inner
    keys = {
        tuple(row[inner.source[column]] for column in inner.keys)
        for row in delta.rows.rows
    }

    def touched() -> list[Row]:
        index, rows = groups.group_index(inner.keys), groups.table.rows
        return [rows[index[key]] for key in keys if key in index]

    old = touched()
    try:
        _apply(groups, inner, delta, sign)
        # inserts first, as in apply_pending: an outer group both halves
        # hit is never emptied in between
        for rows, outer_sign in ((touched(), +1), (old, -1)):
            if rows:
                store = {groups.name: Table(groups.table.columns, rows)}
                _apply(summary, plan.outer, _evaluate(plan.outer, store), outer_sign)
    except BaseException:
        # half-carried groups (and plans over them) are never trusted
        # again: the caller's fallback recompute starts from the base tables
        summary._auxiliary, summary._plans = None, {}
        raise


def _merge_groups(
    summary: SummaryTable, plan: _DeltaPlan, delta: Table, scalar_values: dict, sign: int
) -> None:
    rows = summary.table.rows
    index = summary.group_index(plan.keys)
    source = plan.source
    emptied: list[tuple] = []
    for delta_row in delta.rows:
        key = tuple(delta_row[source[column]] for column in plan.keys)
        position = index.get(key)
        if position is None:
            if sign < 0:
                raise MaintenanceError(
                    f"delete delta for {summary.name} hits unknown group {key!r}"
                )
            index[key] = len(rows)
            rows.append(
                tuple(
                    scalar_values[column] if origin is None else delta_row[origin]
                    for column, origin in enumerate(source)
                )
            )
            continue
        merged = list(rows[position])
        for column, func in plan.aggregates:
            merged[column] = _combine(
                func, merged[column], delta_row[source[column]], sign
            )
        rows[position] = merged
        if sign < 0 and merged[plan.count] == 0:
            emptied.append(key)
    for key in emptied:
        # Swap-remove: the last row fills the hole, so positions (and
        # the index) change for that one row only.
        position = index.pop(key)
        last = rows[-1]
        del rows[-1]
        if position < len(rows):
            rows[position] = last
            index[tuple(last[column] for column in plan.keys)] = position


def _combine(func: str, old, new, sign: int):
    if func == "count":
        return (old or 0) + sign * (new or 0)
    if func == "sum":
        if new is None:
            return old
        if old is None:
            return sign * new if sign > 0 else None
        return old + sign * new
    if func in ("min", "max"):
        if new is None or old is None:
            return old if new is None else new
        return new if (new < old if func == "min" else new > old) else old
    raise MaintenanceError(f"cannot combine aggregate {func!r}")
