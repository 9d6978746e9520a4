"""Columnar batch executor: evaluates a QGM graph over in-memory tables.

This is the substrate the paper takes for granted (DB2's runtime). The
plan is derived directly from the graph:

* SELECT boxes filter each child with its single-quantifier predicates,
  then hash-join children along equality predicates (greedy connected
  order, building on the smaller side, cross join as a last resort),
  apply residual predicates, and project the output expressions.
* GROUP-BY boxes evaluate each grouping set (cuboid) independently and
  union the results with NULL padding, which is exactly the semantics of
  Section 5 / Figure 12.

QGM is semantics, not a plan — any smarter engine would return the same
tables; :mod:`repro.engine.reference` keeps the row-at-a-time oracle.

Execution model (docs/EXECUTOR.md):

* A SELECT box runs as **one generated loop**
  (:func:`repro.expr.vector.compile_loop`): one child, the *driver*,
  streams with its local conjuncts inline and probes the other
  children's hash tables in nested bucket loops; the residual conjuncts
  and output expressions follow, and the loop ends in a *sink* — the
  box's output columns, or, under a GROUP BY that is its only consumer,
  every grouping set and aggregate of that box folded row by row.  The
  rows come out in the order of the operator-at-a-time plan (each join
  building on its smaller input); when a join's actual cardinalities say
  otherwise, or a memory reservation needs materialised inputs to decide
  on spilling, the box runs one operator at a time — each operator one
  such loop.
* Work is cut into **morsels**: the driver is streamed in chunks of
  ``_TICK_EVERY`` rows under a governor scope (``batch_rows`` when
  set), one whole-column chunk otherwise.  Each full morsel, and every
  ``_TICK_EVERY`` rows bucket loops bind inside one, fires the
  ``executor.tick`` fault point and ticks the governor budget, so
  deadlines, cancellation and MAXROWS land mid-loop.
* Execution is serial.  A thread pool over morsels was measured 22–38 %
  slower than this path on the executor-bound workload and removed
  (docs/EXECUTOR.md, "Why there is no thread-parallel path").
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from copy import copy
from itertools import chain
from typing import Mapping, NamedTuple

from repro.catalog.types import DataType, infer_literal_type
from repro.engine import aggregates as _agg
from repro.obs import spans as _spans
from repro.engine.table import Table, estimate_columns_nbytes
from repro.errors import (
    ExecutionError,
    MemoryBudgetExceeded,
    QueryResourceError,
)
from repro.expr.vector import conjuncts, loop_program, view
from repro.governor import scope as governor_scope
from repro.resources import spill as _spill
from repro.testing import faults
from repro.expr.nodes import AggCall, BinaryOp, ColumnRef, Expr, IsNull, Literal
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QGMBox,
    QueryGraph,
    SelectBox,
    UnionAllBox,
)

#: nominal morsel size (rows per batch): what the stats report when no
#: explicit size is set; ungoverned runs stream each loop's whole driver
#: in one batch (a full column pass is the fastest shape in pure Python)
BATCH_ROWS = 4096

#: driver rows between governor checkpoints — governed runs shrink the
#: morsel to this size so the armed overhead is one tick per batch and
#: cancellation/deadlines land promptly mid-loop (the same cadence as the
#: historical row-at-a-time executor)
_TICK_EVERY = 1024

#: per-row memory-charge constants for the two spill-capable operators.
#: Deliberately coarse (a dict slot + a small list + object headers on a
#: 64-bit CPython): the broker bounds order of magnitude, not malloc.
_JOIN_ENTRY_NBYTES = 96
_GROUP_ROW_NBYTES = 48
_STATE_NBYTES = 64

#: spilled operators never fan out beyond this many partition runs
_MAX_SPILL_PARTS = 64

#: a stored driver streams only the rows its index gives for the first
#: probe's build keys when fewer than this share of it: the measured
#: break-even (docs/EXECUTOR.md, "A selection from an index")
_INDEX_SHARE = 0.25


class ExecutorStats:
    """Per-run batch counters (EXPLAIN ANALYZE's ``-- executor --``
    section and the ``executor_batch_*`` metrics)."""

    __slots__ = (
        "batches",
        "rows",
        "batch_rows",
        "join_builds",
        "index_reads",
        "programs",
        "spills",
        "spill_runs",
        "spill_bytes",
    )

    def __init__(self, batch_rows: int):
        self.batches = 0  # morsels processed across all operators
        self.rows = 0  # rows through batch operators (input side)
        self.batch_rows = batch_rows
        #: one entry per hash join: which input became the build side
        self.join_builds: list[dict] = []
        #: one entry per driver read through its index
        self.index_reads: list[dict] = []
        #: loops bound from a template's memoised program, of all loops
        self.programs = [0, 0]
        self.spills = 0  # operators that degraded to spill-to-disk
        self.spill_runs = 0  # temp-file runs written across all spills
        self.spill_bytes = 0  # framed bytes written across all spills

    def describe_lines(self) -> list[str]:
        lines = [
            f"  batch rows {self.batch_rows}",
            f"  batches    {self.batches} ({self.rows} rows)",
        ]
        reused, loops = self.programs
        if reused:
            lines.append(f"  programs   {reused} of {loops} loops reused")
        for build in self.join_builds:
            lines.append(
                f"  hash join  build={build['build']} "
                f"({build['build_rows']} rows), probe "
                f"{build['probe_rows']} rows"
                + (" [spilled]" if build.get("spilled") else "")
            )
        for read in self.index_reads:
            lines.append(
                f"  index      {read['table']}.{read['column']}: "
                f"{read['candidates']} of {read['rows']} rows"
            )
        if self.spills:
            lines.append(
                f"  spill      {self.spills} operator(s), "
                f"{self.spill_runs} run(s), {self.spill_bytes} byte(s)"
            )
        return lines


class _Rel:
    """An intermediate relation: its columns by ColumnRef, and its row
    count.  A column may be a child table's own list — nothing here
    edits one, and the result table built from one is born shared
    (:meth:`Table.from_columns`), so it copies before its first edit.

    Between a SELECT box's operators a relation holds only the columns
    the box reads after its local filters (outputs, join keys, residual
    predicates); a loop reads only the columns its code names.
    ``stored`` is ``(box, table)`` for a stored table read whole."""

    __slots__ = ("cols", "nrows", "stored")

    def __init__(self, cols: dict[ColumnRef, list], nrows: int, stored=None):
        self.cols = cols
        self.nrows = nrows
        self.stored = stored

    @classmethod
    def of(cls, quantifier: str, table: Table, refs: dict, box=None) -> "_Rel":
        """``table`` through ``quantifier`` (over ``box``), by ``refs``' ColumnRefs."""
        key = (quantifier, *table.columns)
        keys = refs.get(key)
        if keys is None:
            keys = refs[key] = [ColumnRef(quantifier, name) for name in table.columns]
        return cls(
            dict(zip(keys, table.columns_data())),
            len(table),
            (box, table) if isinstance(box, BaseTableBox) else None,
        )


class _Ctx:
    """Per-run execution context: governor budget, morsel size, the
    stats the run accumulates, how many quantifiers range over each box
    (by ``id``) and — for a template clone — the template's memo."""

    __slots__ = ("budget", "stats", "chunk", "consumers", "produced",
                 "position", "template", "values")

    def __init__(self, budget, stats, chunk, boxes, origin):
        self.budget = budget
        self.stats = stats
        #: morsel size; ``None`` ⇒ one batch per loop
        self.chunk = chunk
        self.consumers = Counter(
            id(q.box) for box in boxes for q in box.quantifiers()
        )
        #: rows the running governed loop produced in its earlier morsels
        self.produced = 0
        #: the template the graph is a clone of, its literal values, and
        #: each box's position there (the clone's boxes are in its order)
        self.template, self.values = origin or (None, ())
        self.position = {id(box): n for n, box in enumerate(boxes)} if origin else {}

    def memo(self, box, make):
        """``make(box, None)``; for a template clone's box, ``make(its
        template box, its position)``, once per template box."""
        n = self.position.get(id(box))
        if n is None:
            return make(box, None)
        programs = self.template.programs
        if n not in programs:
            programs[n] = make(self.template.boxes[n], n)
        return programs[n]

    def compile(self, key, driver, filters=(), probes=(), residual=(),
                values=(), sink=None, counted=(), pulse=None):
        """:func:`~repro.expr.vector.compile_loop`, emitted once per
        ``key`` on the template (None: from the statement's own
        expressions, every time) and bound to this run. A program
        emitted while a literal class divides as 0 serves this run only:
        it is never filed, so the next nonzero run files one dividing
        inline."""
        stats, literals = self.stats, self.values
        program = key and self.template.programs.get(key)
        stats.programs[1] += 1
        if program and not any(literals[s] == 0 for s in program[1]):
            stats.programs[0] += 1
        else:
            program = loop_program(
                driver, filters, probes, residual, values, sink, counted,
                pulse, key and self.template.probes, literals,
            )
            if key and program[1] is not None:
                self.template.programs.setdefault(key, program)
        return program[0](driver, probes, sink, pulse, literals)

    def tick(self, n: int) -> None:
        """Account one processed morsel of ``n`` rows.

        Mirrors the historical cadence exactly: the ``executor.tick``
        fault point and the budget tick fire only for *full* morsels
        (``n == chunk``), so a six-row governed query still never ticks.
        """
        stats = self.stats
        stats.batches += 1
        stats.rows += n
        budget = self.budget
        if budget is not None and n == self.chunk:
            faults.fire("executor.tick")
            budget.tick(n, "execute")

    def pulse(self, produced: int) -> None:
        """A tick from inside a morsel whose bucket loops bound another
        ``chunk`` rows; it has ``produced`` rows so far (MAXROWS)."""
        faults.fire("executor.tick")
        budget = self.budget
        budget.tick(self.chunk, "execute")
        budget.check_rows(self.produced + produced, "rows")


def _split(sel, size):
    """Cut a selection (range or index list) into morsels of ``size``."""
    n = len(sel)
    if size is None or n <= size:
        return [sel]
    return [sel[k : k + size] for k in range(0, n, size)]


def _take(cols: dict, rows) -> dict:
    """Gather ``rows`` from every column."""
    return {ref: list(view(c, rows)) for ref, c in cols.items()}


class _Append:
    """Sink: one list per value — a SELECT box's output columns, or the
    columns an operator passes on."""

    def __init__(self, values):
        self.values = values
        #: with no columns to measure, the loop counts the rows
        self.counts = not values
        self.columns: list[list] = []
        self.nrows = 0

    def start(self):
        self.columns = [[] for _ in self.values]
        return ("append", [column.append for column in self.columns])

    def end(self, produced) -> None:
        self.nrows = produced if self.counts else len(self.columns[0])

    def pass_through(self, driver: _Rel) -> bool:
        """Take the driver's columns as they are (every value one)."""
        self.columns = [driver.cols[ref] for ref in self.values]
        self.nrows = driver.nrows
        return True


class _Group:
    """Sink: every grouping set and aggregate of one GROUP-BY box, folded
    row by row.  ``values`` are the child's columns as the loop computes
    them (a SELECT box's output expressions, or a child table's
    ColumnRefs), ``names`` their child column names."""

    def __init__(self, box: GroupByBox, names: list[str], values: list):
        self.box = box
        self.values = values
        quantifier = box.child_quantifier.name
        position = {name: k for k, name in enumerate(names)}

        def locate(ref: ColumnRef) -> int:
            if ref.qualifier != quantifier:
                raise ExecutionError(f"GROUP-BY box references foreign {ref!r}")
            if ref.name not in position:
                raise ExecutionError(f"no column {ref.name!r}; have {names}")
            return position[ref.name]

        #: grouping output name -> its value's position
        self.key_of: dict[str, int] = {}
        #: (output name, partial kind, distinct, argument position or None)
        self.specs: list[tuple] = []
        for qcl in box.outputs:
            if isinstance(qcl.expr, AggCall):
                kind, distinct = _agg.spec_kind(qcl.expr)
                arg = qcl.expr.arg
                self.specs.append(
                    (qcl.name, kind, distinct, None if arg is None else locate(arg))
                )
            elif isinstance(qcl.expr, ColumnRef):
                self.key_of[qcl.name] = locate(qcl.expr)
            else:
                raise ExecutionError(
                    f"GROUP-BY output {qcl.name!r} is not a simple column "
                    "or aggregate"
                )
        #: no keys and only COUNT(*): the answer is the input's row count
        self.counts = box.grouping_sets == ((),) and all(
            kind == "count*" and not distinct for _, kind, distinct, _ in self.specs
        )
        #: per grouping set: (keys in first-seen order, each key's first
        #: row number or None, per-spec partial states)
        self.results: list[tuple] = []
        self._parts: list[tuple] = []

    @classmethod
    def fused(cls, box: GroupByBox, _=None) -> "_Group":
        """The sink of ``box`` over the SELECT box below it."""
        child = box.child_quantifier.box
        return cls(box, child.output_names, [q.expr for q in child.outputs])

    def start(self, sets=None, firsts: bool = False):
        if self.counts:
            return None
        aggregates = [
            (position, kind, distinct) for _, kind, distinct, position in self.specs
        ]
        self._parts = [
            (
                [self.key_of[name] for name in grouping_set],
                {},
                [] if firsts else None,
                [[] for _ in aggregates],
            )
            for grouping_set in (self.box.grouping_sets if sets is None else sets)
        ]
        return ("group", self._parts, aggregates)

    def end(self, produced) -> None:
        if self.counts:
            self.results = [([()], None, [[produced] for _ in self.specs])]
        else:
            self.results = [
                (list(groups), firsts, states)
                for _, groups, firsts, states in self._parts
            ]

    def pass_through(self, driver: _Rel) -> bool:
        """A COUNT(*) of plain columns is the driver's row count."""
        if self.counts:
            self.end(driver.nrows)
        return self.counts

    def table(self, results) -> Table:
        """The union of the cuboids, NULL-padding uncovered keys."""
        box = self.box
        cols: list[list] = [[] for _ in box.outputs]
        total = 0
        for grouping_set, (order, _, states) in zip(box.grouping_sets, results):
            if not order and not grouping_set:
                # Grand total over an empty input still yields one row.
                order = [()]
                states = [
                    [_agg.empty_state(kind, distinct)]
                    for _, kind, distinct, _ in self.specs
                ]
            finals = {
                name: [_agg.finalize_state(kind, distinct, s) for s in column]
                for (name, kind, distinct, _), column in zip(self.specs, states)
            }
            key_position = {name: k for k, name in enumerate(grouping_set)}
            for out, name in zip(cols, box.output_names):
                if name in finals:
                    out.extend(finals[name])
                elif name not in key_position:
                    out.extend([None] * len(order))  # grouped-out column
                elif len(grouping_set) == 1:
                    out.extend(order)
                else:
                    out.extend(key[key_position[name]] for key in order)
            total += len(order)
        return Table.from_columns(box.output_names, cols, total)


class Executor:
    """Evaluates query graphs against a table store (name → Table,
    lower-case keys).

    ``metrics`` is an optional :class:`repro.obs.metrics.MetricsRegistry`
    that receives per-run counters (``executor_runs``, ``executor_boxes``,
    ``executor_batch_*``) and an output-cardinality histogram
    (``executor_rows``).  ``batch_rows`` overrides the morsel size
    (benchmarks sweep it); the default is ``_TICK_EVERY`` under a
    governor scope, else one whole-column batch per operator."""

    def __init__(
        self,
        tables: Mapping[str, Table],
        metrics=None,
        batch_rows: int | None = None,
    ):
        self._tables = tables
        self._metrics = metrics
        self._batch_rows = batch_rows
        #: populated by :meth:`run`
        self.stats: ExecutorStats | None = None

    def run(self, graph: QueryGraph, origin=None) -> Table:
        """Execute ``graph`` and return the result (ORDER BY applied).

        ``origin`` — ``(template, values)`` of an untouched template
        clone — makes each box run the program its template box memoised
        (docs/EXECUTOR.md, "A template's program").

        When a governor scope is active on this thread (see
        :mod:`repro.governor.scope`), every morsel boundary ticks the
        budget — deadline expiry raises ``QueryTimeout``, cancellation
        ``QueryCancelled`` — and the rows each loop has produced so far,
        like every materialized result table, are checked against the
        ``SET QUERY MAXROWS`` high-water cap.  Ungoverned runs take
        whole-column batches with no instrumentation in the hot loops.
        """
        run_pc = time.perf_counter()
        budget = governor_scope.current()
        if self._batch_rows is not None:
            chunk = self._batch_rows
        elif budget is not None:
            chunk = _TICK_EVERY
        else:
            chunk = None  # one batch per operator
        stats = ExecutorStats(chunk or BATCH_ROWS)
        self.stats = stats
        ctx = _Ctx(budget, stats, chunk, graph.boxes(), origin)
        memo: dict[int, Table] = {}
        result = self._evaluate(graph.root, memo, ctx)
        if budget is not None:
            budget.check_rows(len(result), "result rows")
        if graph.order_by:
            result.sort_by(graph.order_by)
        if graph.limit is not None and len(result) > graph.limit:
            result = Table.from_columns(
                result.columns,
                [c[: graph.limit] for c in result.columns_data()],
                graph.limit,
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("executor_runs", "graphs executed").inc()
            metrics.counter("executor_boxes", "boxes evaluated").inc(len(memo))
            metrics.histogram("executor_rows", "result cardinality").observe(
                float(len(result))
            )
            metrics.counter(
                "executor_batch_count", "column batches (morsels) processed"
            ).inc(stats.batches)
            metrics.counter(
                "executor_batch_rows", "rows through batch operators"
            ).inc(stats.rows)
            if stats.spills:
                metrics.counter(
                    "executor_spill_count",
                    "operators that degraded to spill-to-disk",
                ).inc(stats.spills)
                metrics.counter(
                    "executor_spill_runs", "spill runs written"
                ).inc(stats.spill_runs)
                metrics.counter(
                    "executor_spill_bytes", "framed spill bytes written"
                ).inc(stats.spill_bytes)
        if _spans.TRACER is not None:
            _spans.record(
                "executor.run", run_pc, boxes=len(memo),
                batches=stats.batches, rows=len(result),
            )
        return result

    # ------------------------------------------------------------------
    def _evaluate(self, box: QGMBox, memo: dict[int, Table], ctx: _Ctx) -> Table:
        cached = memo.get(id(box))
        if cached is not None:
            return cached
        if isinstance(box, BaseTableBox):
            result = self._scan(box)
        elif isinstance(box, SelectBox):
            result = self._evaluate_select(box, memo, ctx)
        elif isinstance(box, GroupByBox):
            result = self._evaluate_groupby(box, memo, ctx)
        elif isinstance(box, UnionAllBox):
            result = self._evaluate_union(box, memo, ctx)
        else:
            raise ExecutionError(f"cannot execute box {box!r}")
        memo[id(box)] = result
        return result

    def _scan(self, box: BaseTableBox) -> Table:
        table = self._tables.get(box.table_name.lower())
        if table is None:
            raise ExecutionError(f"no data loaded for table {box.table_name!r}")
        return table

    def _evaluate_union(self, box: UnionAllBox, memo, ctx: _Ctx) -> Table:
        cols: list[list] = [[] for _ in box.output_names]
        total = 0
        budget = ctx.budget
        for quantifier in box.quantifiers():
            child = self._evaluate(quantifier.box, memo, ctx)
            for out, data in zip(cols, child.columns_data()):
                out.extend(data)
            total += len(child)
            if budget is not None:
                budget.check_rows(total, "unioned rows")
        return Table.from_columns(box.output_names, cols, total)

    # ------------------------------------------------------------------
    # SELECT boxes
    # ------------------------------------------------------------------
    def _evaluate_select(
        self, box: SelectBox, memo, ctx: _Ctx, group: _Group | None = None
    ) -> Table | None:
        """The box's table — or, given the ``group`` sink of the GROUP-BY
        box above it, nothing: its rows are folded into that sink."""
        quantifiers = box.quantifiers()
        if not quantifiers:
            raise ExecutionError("SELECT box with no children")
        plan = ctx.memo(box, _plan)
        rels = {
            q.name: _Rel.of(q.name, self._evaluate(q.box, memo, ctx), plan.refs, q.box)
            for q in quantifiers
        }
        sink = group or _Append(plan.outputs)
        budget = ctx.budget
        reserved = budget is not None and budget.reservation is not None
        counted = ctx.stats.batches, ctx.stats.rows
        if reserved or not self._fused(plan, rels, sink, ctx):
            # a discarded pass leaves the stats as they were (its governor
            # ticks stay charged: that work was done)
            ctx.stats.batches, ctx.stats.rows = counted
            if plan.box is not box:  # the statement's own expressions
                plan = _plan(box)
                sink.values = plan.outputs
            self._operators(plan, rels, sink, ctx)
        if group is not None:
            return None
        cols, nrows = sink.columns, sink.nrows
        if box.distinct:
            cols, nrows = _distinct(cols, nrows)
        if budget is not None:
            budget.check_rows(nrows)
        return Table.from_columns(box.output_names, cols, nrows, shared=True)

    def _fused(self, plan: "_Plan", rels, sink, ctx: _Ctx) -> bool:
        """The box as one loop: the driver streams with its local
        conjuncts inline and probes each other child's hash table, built
        with that child's local conjuncts, in join order.  The operator
        path builds each join on its smaller input, so the loop's rows
        come out in that path's order only while every join would have
        built on the child the loop probes; the counts the loop returns
        check that, and False (the sink's state to be discarded) means
        some join would not have."""
        (first, _), rest = plan.steps[0], plan.steps[1:]
        levels = [(name, [a for a, _ in keys], [b for _, b in keys])
                  for name, keys in rest]
        driver = first
        # Guessed on the children's sizes before filtering: the first
        # join builds on the first child when it is the smaller one.
        swap = bool(levels and levels[0][1]) and (
            rels[first].nrows <= rels[levels[0][0]].nrows
        )
        if swap:
            driver, probe_keys, build_keys = levels[0]
            levels[0] = (first, build_keys, probe_keys)
        # a template box's loops, under the answers their source reads
        key = None if plan.n is None else (plan.n, ctx.budget is not None, swap)
        probes, built = [], []
        for p, (name, probe_keys, build_keys) in enumerate(levels):
            rel = rels[name]
            table, rows = self._build(
                rel, plan.local.get(name, ()), build_keys, ctx, key and (*key, p)
            )
            probes.append((probe_keys, table, rel.cols))
            built.append(rows)
        filters = plan.local.get(driver, ())
        # the rows reaching each keyed probe decide its build side (through
        # an index, probe 0 counts a subset: a check may fail, never pass)
        counted = [
            p for p, (keys, _, _) in enumerate(probes) if keys and (p or filters)
        ]
        sel, read = _candidates(rels[driver], filters, probes)
        counts = dict(zip(counted, self._pipeline(
            rels[driver], sink, ctx, filters, probes, plan.tail, counted, sel, key
        )))
        counts.setdefault(0, rels[driver].nrows)
        builds = []
        for p, (keys, _, _) in enumerate(probes):
            if not keys:
                continue
            left = swap and p == 0  # the probed child is the join's left input
            # the operator path builds on the smaller input, left on a tie
            if not (built[p] <= counts[p] if left else built[p] < counts[p]):
                return False
            builds.append({
                "build": "left" if left else "right",
                "build_rows": built[p],
                "probe_rows": counts[p],
            })
        ctx.stats.join_builds.extend(builds)
        if read:
            ctx.stats.index_reads.append(read)
        return True

    def _operators(self, plan: "_Plan", rels, sink, ctx: _Ctx) -> None:
        """The box one operator at a time: each child filtered down to
        the columns the box reads on, the joins in join order — each
        building on its smaller input by actual cardinality, or spilling
        — then the tail conjuncts and the sink; every operator one loop.
        The path of memory-reserved runs, whose spill decisions need
        materialised inputs, and of a fused loop whose order did not
        hold."""
        rels = dict(rels)
        for name, rel in rels.items():
            keep = [ref for ref in rel.cols if ref in plan.reads]
            filters = plan.local.get(name)
            if filters:
                rels[name] = self._gather(rel, keep, ctx, filters)
            else:
                rels[name] = _Rel({ref: rel.cols[ref] for ref in keep}, rel.nrows)
        (first, _), rest = plan.steps[0], plan.steps[1:]
        joined = rels[first]
        for name, keys in rest:
            joined = self._join(joined, rels[name], keys, ctx)
        self._pipeline(joined, sink, ctx, plan.tail)

    def _pipeline(
        self, driver: _Rel, sink, ctx: _Ctx, filters=(), probes=(),
        residual=(), counted=(), sel=None, key=None,
    ) -> list[int]:
        """One loop over ``driver``'s rows ``sel`` (default all) into
        ``sink`` (``start``ed afresh), its program memoised under ``key``
        (:meth:`_Ctx.compile`); returns the row counts of the
        ``counted`` stages.  Under a governor the loop also counts the
        rows it produced, checked against MAXROWS after every morsel and,
        with its pulse, every ``chunk`` rows its bucket loops bind."""
        if not (filters or probes or residual) and all(
            value in driver.cols for value in sink.values
        ) and sink.pass_through(driver):
            return []
        spec = sink.start()
        checked = ctx.budget is not None
        produced = sink.counts or checked
        stages = [*counted, len(probes)] if produced else list(counted)
        fn = ctx.compile(
            key, driver.cols, filters, probes, residual, sink.values, spec,
            stages, (ctx.chunk, ctx.pulse) if checked and probes else None,
        )
        sel = range(driver.nrows) if sel is None else sel
        counts = self._drive(fn, sel, ctx, checked)
        sink.end(counts[-1] if produced else None)
        return counts[: len(counted)]

    @staticmethod
    def _drive(fn, sel, ctx: _Ctx, checked: bool = False) -> list[int]:
        """Run a compiled loop over ``sel`` morsel by morsel; returns its
        counts summed.  ``checked``: the last count is rows produced.
        A governed loop ends in a checkpoint, so a deadline lands even
        on an input with no full morsel to tick."""
        totals = None
        ctx.produced = 0
        for chunk in _split(sel, ctx.chunk):
            counts = fn(chunk)
            totals = counts if totals is None else [
                a + b for a, b in zip(totals, counts)
            ]
            ctx.tick(len(chunk))
            if checked:
                ctx.produced = totals[-1]
                ctx.budget.check_rows(totals[-1], "rows")
        if ctx.budget is not None:
            ctx.budget.checkpoint("execute")
        return list(totals)

    def _build(self, rel: _Rel, filters, keys, ctx: _Ctx, key=None):
        """Hash ``rel``'s rows that pass ``filters`` by ``keys`` — key →
        row numbers, NULL keys skipped (they never equi-join); with no
        keys, the list of those row numbers.  Returns the table and the
        number of rows that passed."""
        table: dict | list = {} if keys else []
        fn = ctx.compile(
            key, rel.cols, filters, values=keys, sink=("hash", table), counted=(0,)
        )
        (rows,) = self._drive(fn, range(rel.nrows), ctx)
        return table, rows

    def _gather(self, rel: _Rel, refs, ctx: _Ctx, filters=(), probes=()) -> _Rel:
        """The columns ``refs`` of ``rel``'s rows that pass ``filters``,
        joined through ``probes``."""
        sink = _Append(refs)
        self._pipeline(rel, sink, ctx, filters, probes)
        return _Rel(dict(zip(refs, sink.columns)), sink.nrows)

    def _join(self, left: _Rel, right: _Rel, keys, ctx: _Ctx) -> _Rel:
        refs = [*left.cols, *right.cols]
        if not keys:
            # a cross join: left-major, every right row per left row
            everything = list(range(right.nrows))
            return self._gather(left, refs, ctx, probes=[((), everything, right.cols)])
        # Build on the smaller side by *actual* cardinality — the greedy
        # join order optimizes connectivity, not size, so either input
        # may be the small one.
        build_left = left.nrows <= right.nrows
        left_keys = [a for a, _ in keys]
        right_keys = [b for _, b in keys]
        if build_left:
            build, probe, build_keys, probe_keys = left, right, left_keys, right_keys
        else:
            build, probe, build_keys, probe_keys = right, left, right_keys, left_keys
        ctx.stats.join_builds.append(
            {
                "build": "left" if build_left else "right",
                "build_rows": build.nrows,
                "probe_rows": probe.nrows,
            }
        )
        budget = ctx.budget
        reservation = budget.reservation if budget is not None else None
        charged = 0
        if reservation is not None:
            build_key_cols = [build.cols[ref] for ref in build_keys]
            estimate = (
                estimate_columns_nbytes(build_key_cols)
                + build.nrows * _JOIN_ENTRY_NBYTES
            )
            try:
                reservation.charge(estimate)
                charged = estimate
            except MemoryBudgetExceeded:
                ctx.stats.join_builds[-1]["spilled"] = True
                build_take, probe_take = self._hash_join_spilled(
                    build, probe, build_key_cols,
                    [probe.cols[ref] for ref in probe_keys], ctx, estimate,
                )
                return self._gather_join(
                    left, right, build_left, build_take, probe_take
                )
        try:
            table, _ = self._build(build, (), build_keys, ctx)
            return self._gather(
                probe, refs, ctx, probes=[(probe_keys, table, build.cols)]
            )
        finally:
            if charged:
                reservation.release(charged)

    @staticmethod
    def _gather_join(
        left: _Rel, right: _Rel, build_left: bool, build_take, probe_take
    ) -> _Rel:
        if build_left:
            left_take, right_take = build_take, probe_take
        else:
            left_take, right_take = probe_take, build_take
        return _Rel(
            {**_take(left.cols, left_take), **_take(right.cols, right_take)},
            len(left_take),
        )

    def _hash_join_spilled(
        self, build, probe, build_key_cols, probe_key_cols, ctx: _Ctx,
        estimate: int,
    ) -> tuple[list[int], list[int]]:
        """Grace-style spilled hash join, bit-identical to the in-memory
        path.

        The build side's ``(key, row index)`` pairs are partitioned by
        key hash into CRC-framed temp-file runs; each partition is then
        rebuilt as a small bucket table and probed with that partition's
        probe rows. Every key lives in exactly one partition and each
        run preserves ascending build order, so sorting the collected
        ``(probe row, build row)`` pairs reproduces the in-memory output
        order exactly: probe-major, bucket insertion order within.
        """
        budget = ctx.budget
        nparts = _spill_parts(budget.reservation, estimate)
        # NULL keys never equi-join: those rows are in no partition
        build_parts = self._partition(build_key_cols, build.nrows, nparts, ctx, False)
        single = len(build_key_cols) == 1
        pairs: list[tuple[int, int]] = []
        batches = (
            ([_key(build_key_cols, single, i), i] for i in rows)
            for rows in build_parts
        )
        with self._spilled(ctx, batches, "join", "hash join") as runs:
            probe_parts = self._partition(
                probe_key_cols, probe.nrows, nparts, ctx, False
            )
            for run, probe_rows in zip(runs, probe_parts):
                buckets: dict = {}
                get = buckets.get
                for key, build_i in run.read():
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [build_i]
                    else:
                        bucket.append(build_i)
                for i in probe_rows:
                    bucket = get(_key(probe_key_cols, single, i))
                    if bucket is not None:
                        pairs.extend((i, b) for b in bucket)
                ctx.tick(len(probe_rows))
                budget.check_rows(len(pairs), "joined rows")
        # Bucket lists hold ascending build rows, so a plain sort equals
        # the in-memory probe-major emit order.
        pairs.sort()
        return [b for _, b in pairs], [i for i, _ in pairs]

    @staticmethod
    def _partition(key_cols, nrows: int, nparts: int, ctx: _Ctx, nulls: bool):
        """Row numbers by partition, ascending: a row goes to its key's
        hash mod ``nparts`` — with ``nulls=False`` a row whose key holds a
        NULL goes nowhere."""
        parts: list[list[int]] = [[] for _ in range(nparts)]
        single = len(key_cols) == 1
        for chunk in _split(range(nrows), ctx.chunk):
            for i in chunk:
                key = _key(key_cols, single, i)
                if nulls or not (key is None if single else None in key):
                    parts[hash(key) % nparts].append(i)
            ctx.tick(len(chunk))
        return parts

    @staticmethod
    @contextmanager
    def _spilled(ctx: _Ctx, batches, label: str, operator: str):
        """Each batch of records written to its own run, the runs noted
        in the stats and the reservation, and deleted on exit. A run
        that cannot be written (spill disk full, or the armed
        ``executor.spill`` fault) is the bottom of the resource ladder:
        a typed ``QueryResourceError``."""
        runs = []
        try:
            for records in batches:
                try:
                    runs.append(_spill.write_run(records, label=label))
                except (OSError, faults.InjectedFault) as error:
                    raise QueryResourceError(
                        f"{operator} exceeded its memory budget and the "
                        f"spill path failed: {error}"
                    ) from error
            nbytes = sum(run.nbytes for run in runs)
            ctx.budget.reservation.note_spill(len(runs), nbytes)
            stats = ctx.stats
            stats.spills += 1
            stats.spill_runs += len(runs)
            stats.spill_bytes += nbytes
            yield runs
        finally:
            for run in runs:
                run.delete()

    # ------------------------------------------------------------------
    # GROUP-BY boxes
    # ------------------------------------------------------------------
    def _evaluate_groupby(self, box: GroupByBox, memo, ctx: _Ctx) -> Table:
        child_box = box.child_quantifier.box
        budget = ctx.budget
        reservation = budget.reservation if budget is not None else None
        if (
            isinstance(child_box, SelectBox)
            and not child_box.distinct
            and reservation is None
            and ctx.consumers[id(child_box)] == 1
        ):
            # The SELECT box below folds its rows straight into the groups.
            group = copy(ctx.memo(box, _Group.fused))
            self._evaluate_select(child_box, memo, ctx, group)
            memo[id(child_box)] = None  # evaluated, never materialised
            results = group.results
        else:
            child = self._evaluate(child_box, memo, ctx)
            read = {ref.name for qcl in box.outputs for ref in qcl.expr.column_refs()}
            names = [name for name in child.columns if name in read]
            quantifier = box.child_quantifier.name
            group = _Group(box, names, [ColumnRef(quantifier, n) for n in names])
            rel = _Rel.of(quantifier, child, {})
            results = self._group(rel, group, reservation, ctx)
        table = group.table(results)
        if budget is not None:
            budget.check_rows(len(table), "grouped rows")
        return table

    def _group(self, rel: _Rel, group: _Group, reservation, ctx: _Ctx) -> list:
        """A materialised input's cuboids: all in one loop, or — under a
        memory reservation — one at a time, each charged on its own and
        spilled when the charge is denied."""
        if reservation is None or group.counts:
            self._pipeline(rel, group, ctx)
            return group.results
        results = []
        for grouping_set in group.box.grouping_sets:
            key_cols = [
                rel.cols[group.values[group.key_of[name]]] for name in grouping_set
            ]
            estimate = estimate_columns_nbytes(key_cols) + rel.nrows * (
                _GROUP_ROW_NBYTES + _STATE_NBYTES * len(group.specs)
            )
            try:
                reservation.charge(estimate)
            except MemoryBudgetExceeded:
                results.append(
                    self._cuboid_spilled(key_cols, group, grouping_set, rel, ctx)
                )
                continue
            try:
                results += self._fold(rel, group, [grouping_set], ctx)
            finally:
                reservation.release(estimate)
        return results

    def _fold(self, rel: _Rel, group: _Group, sets, ctx: _Ctx, rows=None):
        """``rel``'s ``rows`` (all of them by default) folded into the
        grouping ``sets``; first rows are kept for a row-number list."""
        fn = ctx.compile(
            None, rel.cols, values=group.values,
            sink=group.start(sets, firsts=rows is not None),
        )
        self._drive(fn, range(rel.nrows) if rows is None else rows, ctx)
        group.end(None)
        return group.results

    def _cuboid_spilled(
        self, key_cols, group: _Group, grouping_set, rel: _Rel, ctx: _Ctx
    ):
        """Spill-to-disk GROUP BY for one cuboid, bit-identical to the
        in-memory path.

        Rows are partitioned by group-key hash; each partition's rows
        (ascending, so every group accumulates its inputs in original
        order) are folded into partial states by the generated loop and
        written to a CRC-framed run as ``[first row index, key, states]`` records.
        The runs are then merged with the re-derivation algebra — rules
        (a)–(g) via :func:`repro.engine.aggregates.merge_states` — and
        the groups sorted by first-seen row index, which reproduces the
        serial pass's group order. Bit-identity hinges on every key's
        state coming from ONE sequential pass over all of its rows in
        ascending order: a key's rows never span partitions, and a
        partition is never subdivided, so ``merge_states`` only ever
        sees a key that appears in multiple runs — which cannot happen
        here — making the merge a pure concatenation in practice.
        (Splitting a partition into sub-segments and merging their
        partial states would re-associate float sums — ``fold(a)+
        fold(b)`` instead of ``fold(a+b)`` — and break bit-identity
        for whichever keys straddle the split, a function of the
        per-process hash seed.) ``nparts`` is sized so one partition's
        pass fits the reservation's headroom; under extreme pressure
        the ``_MAX_SPILL_PARTS`` cap wins and the pass may transiently
        exceed it, trading strictness for exactness.
        """
        budget = ctx.budget
        specs = group.specs
        nspecs = len(specs)
        per_row = _GROUP_ROW_NBYTES + _STATE_NBYTES * nspecs
        nparts = _spill_parts(budget.reservation, rel.nrows * per_row)
        parts = self._partition(key_cols, rel.nrows, nparts, ctx, True)

        def batches():
            for rows in parts:
                if rows:
                    ((part_order, part_firsts, part_states),) = self._fold(
                        rel, group, [grouping_set], ctx, rows
                    )
                    yield (
                        [part_firsts[g], key, [states[g] for states in part_states]]
                        for g, key in enumerate(part_order)
                    )

        group_of: dict = {}
        order: list = []
        firsts: list[int] = []
        merged: list[list] = [[] for _ in specs]
        with self._spilled(ctx, batches(), "group", "GROUP BY") as runs:
            for run in runs:
                for first, key, states in run.read():
                    gid = group_of.get(key)
                    if gid is None:
                        group_of[key] = len(order)
                        order.append(key)
                        firsts.append(first)
                        for s in range(nspecs):
                            merged[s].append(states[s])
                    else:
                        if first < firsts[gid]:
                            firsts[gid] = first
                        for s, (_, kind, distinct, _) in enumerate(specs):
                            merged[s][gid] = _agg.merge_states(
                                kind, distinct, merged[s][gid], states[s]
                            )
                budget.check_rows(len(order), "grouped rows")
        permutation = sorted(range(len(order)), key=firsts.__getitem__)
        return (
            [order[g] for g in permutation],
            None,
            [[column[g] for g in permutation] for column in merged],
        )


def _spill_parts(reservation, estimate: int) -> int:
    """Partitions enough for one to fit the reservation's headroom."""
    headroom = reservation.headroom() or 0
    if headroom <= 0:
        return 8
    return min(_MAX_SPILL_PARTS, max(2, -(-estimate // headroom)))


_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_NUMBERS = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN})


def _cannot_raise(expr: Expr, schema) -> bool:
    """``IS [NOT] NULL`` of a column, or a comparison of a column with a
    literal: ``=``/``<>`` with any, an ordering with NULL or a value of
    the column's declared family (numbers, strings or dates)."""
    if isinstance(expr, IsNull):
        return isinstance(expr.operand, ColumnRef)
    if not isinstance(expr, BinaryOp) or expr.op not in _COMPARISONS:
        return False
    column, literal = expr.left, expr.right
    if isinstance(column, Literal):
        column, literal = literal, column
    if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)):
        return False
    if expr.op in ("=", "<>") or literal.value is None:
        return True
    kinds = {infer_literal_type(literal.value), schema.column(column.name).dtype}
    return len(kinds) == 1 or kinds <= _NUMBERS


def _candidates(driver: _Rel, filters, probes) -> tuple:
    """``(rows, read)``: off a stored driver's index, the rows the first
    probe's build keys can match, ascending, and the stats entry of that
    read — when the probe's key is one driver column, no driver filter
    can raise (a skipped row would skip its error) and the rows are
    fewer than ``_INDEX_SHARE`` of the driver; else ``(None, None)``.
    The probe still runs, so the index only drops rows it rejects."""
    if driver.stored is None or not probes or len(probes[0][0]) != 1:
        return None, None
    box, table = driver.stored
    if not all(_cannot_raise(f, box.schema) for f in filters):
        return None, None
    ((key,), build, _) = probes[0]
    index = table.index(table.column_index(key.name))
    lists = [rows for rows in map(index.get, build) if rows is not None]
    count = sum(map(len, lists))
    if count >= _INDEX_SHARE * driver.nrows:
        return None, None
    rows = lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
    return rows, {"table": box.table_name, "column": key.name,
                  "candidates": count, "rows": driver.nrows}


def _key(key_cols, single: bool, i: int):
    """Row ``i``'s equi-join or group key: the value, or a tuple of them."""
    return key_cols[0][i] if single else tuple(col[i] for col in key_cols)


# ----------------------------------------------------------------------
# SELECT-box helpers
# ----------------------------------------------------------------------
class _EquiJoin:
    """One cross-quantifier equality predicate, trackable as used."""

    def __init__(self, predicate: Expr, left: ColumnRef, right: ColumnRef):
        self.predicate = predicate
        self.left = left
        self.right = right
        self.used = False


def _classify_predicates(
    box: SelectBox,
) -> tuple[dict[str, list[Expr]], list[_EquiJoin], list[Expr]]:
    local: dict[str, list[Expr]] = {}
    equijoins: list[_EquiJoin] = []
    residual: list[Expr] = []
    for predicate in box.predicates:
        qualifiers = {ref.qualifier for ref in predicate.column_refs()}
        if len(qualifiers) == 1:
            local.setdefault(next(iter(qualifiers)), []).append(predicate)
            continue
        if (
            isinstance(predicate, BinaryOp)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
            and predicate.left.qualifier != predicate.right.qualifier
        ):
            equijoins.append(_EquiJoin(predicate, predicate.left, predicate.right))
            continue
        residual.append(predicate)
    return local, equijoins, residual


class _Plan(NamedTuple):
    """A SELECT box's plan, fixed before a row is read: the box (with its
    position in its template, or None), each child's local conjuncts, the
    join order with each step's hash keys, the conjuncts left for after
    the joins, every column read after the local filters, and the output
    expressions."""

    box: SelectBox
    n: int | None
    local: dict[str, list[Expr]]
    #: (child, [(joined-side ref, child-side ref)]); the first has none
    steps: list[tuple[str, list]]
    tail: list[Expr]
    reads: set[ColumnRef]
    outputs: list[Expr]
    refs: dict[tuple, list[ColumnRef]]  # (child, *its columns): refs


def _plan(box: SelectBox, n: int | None = None) -> _Plan:
    local, equijoins, residual = _classify_predicates(box)
    steps = _join_order(box.quantifiers(), equijoins)
    tail = _conjuncts(
        [join.predicate for join in equijoins if not join.used] + residual
    )
    local = {name: _conjuncts(predicates) for name, predicates in local.items()}
    outputs = [q.expr for q in box.outputs]
    reads = {ref for _, keys in steps for pair in keys for ref in pair}
    for expr in chain(outputs, tail):
        reads.update(expr.column_refs())
    return _Plan(box, n, local, steps, tail, reads, outputs, {})


def _join_order(quantifiers, equijoins: list[_EquiJoin]) -> list[tuple]:
    """Greedy connected order: the child with the most join edges first,
    then the first child joined to those before it, a cross join as a
    last resort.  Each step's hash keys are the equi-join predicates
    between it and the children before it, which are marked used."""
    remaining = list(quantifiers)
    links: dict[str, set[str]] = {}
    for join in equijoins:
        links.setdefault(join.left.qualifier, set()).add(join.right.qualifier)
        links.setdefault(join.right.qualifier, set()).add(join.left.qualifier)
    steps: list[tuple] = []
    joined: set[str] = set()
    while remaining:
        if not joined:
            quantifier = max(remaining, key=lambda q: len(links.get(q.name, ())))
        else:
            quantifier = next(
                (q for q in remaining if links.get(q.name, set()) & joined),
                remaining[0],
            )
        remaining.remove(quantifier)
        keys = []
        for join in equijoins:
            for new, old in ((join.left, join.right), (join.right, join.left)):
                if (
                    not join.used
                    and new.qualifier == quantifier.name
                    and old.qualifier in joined
                ):
                    keys.append((old, new))
                    join.used = True
        steps.append((quantifier.name, keys))
        joined.add(quantifier.name)
    return steps


def _conjuncts(predicates) -> list[Expr]:
    """Every top-level AND operand, in order: each a loop tests per row."""
    return [c for predicate in predicates for c in conjuncts(predicate)]


def _distinct(cols: list[list], nrows: int) -> tuple[list[list], int]:
    """First occurrence of every row, in order."""
    if nrows == 0 or not cols:
        return cols, nrows
    seen: set = set()
    add = seen.add
    keep: list[int] = []
    append = keep.append
    position = 0
    for row in zip(*cols):
        if row not in seen:
            add(row)
            append(position)
        position += 1
    if len(keep) == nrows:
        return cols, nrows
    return [[c[i] for i in keep] for c in cols], len(keep)
