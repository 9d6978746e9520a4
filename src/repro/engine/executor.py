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

* Relations flow between operators as **columns** — one plain value
  list per column — not as tuples.  Filtering applies each predicate
  conjunct as a compiled batch function (:mod:`repro.expr.vector`) over
  a *selection vector* of surviving row indices, then gathers once.
* Work is cut into **morsels**: selection vectors are processed in
  chunks of ``BATCH_ROWS`` rows (``_TICK_EVERY`` under a governor scope,
  preserving the historical tick cadence).  Each completed full morsel
  fires the ``executor.tick`` fault point and ticks the governor budget,
  so deadlines and cancellation land mid-operator.
* Execution is serial.  A thread pool over morsels was measured 22–38 %
  slower than this path on the executor-bound workload and removed
  (docs/EXECUTOR.md, "Why there is no thread-parallel path").
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Mapping

from repro.engine import aggregates as _agg
from repro.obs import spans as _spans
from repro.engine.table import Table, estimate_columns_nbytes
from repro.errors import (
    ExecutionError,
    MemoryBudgetExceeded,
    QueryResourceError,
)
from repro.expr.vector import compile_vector, conjuncts
from repro.governor import scope as governor_scope
from repro.resources import spill as _spill
from repro.testing import faults
from repro.expr.nodes import AggCall, BinaryOp, ColumnRef, Expr
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QGMBox,
    QueryGraph,
    SelectBox,
    UnionAllBox,
)

#: nominal morsel size (rows per batch): what the stats report, and the
#: governed cross join's tick threshold, when no explicit size is set;
#: ungoverned runs use one batch per operator (a full column pass is the
#: fastest shape for pure-Python list comprehensions)
BATCH_ROWS = 4096

#: rows between governor checkpoints in the executor's hot loops —
#: governed runs shrink the morsel to this size so the armed overhead is
#: one tick per batch and cancellation/deadlines land promptly mid-join
#: (the same cadence as the historical row-at-a-time executor)
_TICK_EVERY = 1024

#: per-row memory-charge constants for the two spill-capable operators.
#: Deliberately coarse (a dict slot + a small list + object headers on a
#: 64-bit CPython): the broker bounds order of magnitude, not malloc.
_JOIN_ENTRY_NBYTES = 96
_GROUP_ROW_NBYTES = 48
_STATE_NBYTES = 64

#: spilled operators never fan out beyond this many partition runs
_MAX_SPILL_PARTS = 64


class ExecutorStats:
    """Per-run batch counters (EXPLAIN ANALYZE's ``-- executor --``
    section and the ``executor_batch_*`` metrics)."""

    __slots__ = (
        "batches",
        "rows",
        "batch_rows",
        "join_builds",
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
        self.spills = 0  # operators that degraded to spill-to-disk
        self.spill_runs = 0  # temp-file runs written across all spills
        self.spill_bytes = 0  # framed bytes written across all spills

    def describe_lines(self) -> list[str]:
        lines = [
            f"  batch rows {self.batch_rows}",
            f"  batches    {self.batches} ({self.rows} rows)",
        ]
        for build in self.join_builds:
            lines.append(
                f"  hash join  build={build['build']} "
                f"({build['build_rows']} rows), probe "
                f"{build['probe_rows']} rows"
                + (" [spilled]" if build.get("spilled") else "")
            )
        if self.spills:
            lines.append(
                f"  spill      {self.spills} operator(s), "
                f"{self.spill_runs} run(s), {self.spill_bytes} byte(s)"
            )
        return lines


class _Rel:
    """An intermediate relation: one plain value list per column, some
    of them possibly a child table's own lists — nothing here edits a
    column, and the result table built from one is born shared
    (:meth:`Table.from_columns`), so it copies before its first edit.

    Inside a SELECT box a column the box never reads after its local
    filters (not an output, a join key or a residual predicate) is a
    ``None`` slot: it keeps its position, so ``index_of`` is unchanged,
    and every gather (:func:`_take`) skips it."""

    __slots__ = ("cols", "nrows")

    def __init__(self, cols: list[list], nrows: int):
        self.cols = cols
        self.nrows = nrows


class _Ctx:
    """Per-run execution context: governor budget, morsel size, and
    the stats the run accumulates."""

    __slots__ = ("budget", "stats", "chunk")

    def __init__(self, budget, stats, chunk):
        self.budget = budget
        self.stats = stats
        #: morsel size; ``None`` ⇒ single batch per operator
        self.chunk = chunk

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


def _split(sel, size):
    """Cut a selection (range or index list) into morsels of ``size``."""
    n = len(sel)
    if size is None or n <= size:
        return [sel]
    return [sel[k : k + size] for k in range(0, n, size)]


def _take(cols, rows) -> list:
    """Gather ``rows`` from every column; a ``None`` slot stays ``None``."""
    return [None if c is None else [c[i] for i in rows] for c in cols]


def _make_resolver(cols, index_of):
    def resolve(ref, _cols=cols, _index=index_of):
        return _cols[_index[ref]]

    return resolve


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

    def run(self, graph: QueryGraph) -> Table:
        """Execute ``graph`` and return the result (ORDER BY applied).

        When a governor scope is active on this thread (see
        :mod:`repro.governor.scope`), every morsel boundary ticks the
        budget — deadline expiry raises ``QueryTimeout``, cancellation
        ``QueryCancelled`` — and every materialized intermediate/result
        table is checked against the ``SET QUERY MAXROWS`` high-water
        cap.  Ungoverned runs take whole-column batches with no
        instrumentation in the hot loops.
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
        ctx = _Ctx(budget, stats, chunk)
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

    @staticmethod
    def _rel_of(table: Table) -> _Rel:
        return _Rel(table.columns_data(), len(table))

    @staticmethod
    def _to_table(names, rel: _Rel) -> Table:
        return Table.from_columns(names, rel.cols, rel.nrows, shared=True)

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
    def _evaluate_select(self, box: SelectBox, memo, ctx: _Ctx) -> Table:
        quantifiers = box.quantifiers()
        child_tables = {
            q.name: self._evaluate(q.box, memo, ctx) for q in quantifiers
        }

        local, equijoins, residual = _classify_predicates(box)
        reads = {ref for join in equijoins for ref in (join.left, join.right)}
        for expr in chain([q.expr for q in box.outputs], residual):
            reads.update(expr.column_refs())

        # Filter each child early with its single-quantifier predicates;
        # only the columns the box reads afterwards are carried on.
        child_rels: dict[str, _Rel] = {}
        for quantifier in quantifiers:
            table = child_tables[quantifier.name]
            rel = self._rel_of(table)
            keep = [
                col if ColumnRef(quantifier.name, name) in reads else None
                for name, col in zip(table.columns, rel.cols)
            ]
            predicates = local.get(quantifier.name, [])
            if predicates:
                index = {
                    ColumnRef(quantifier.name, name): i
                    for i, name in enumerate(table.columns)
                }
                rel = self._filter_rel(rel, predicates, index, ctx, keep)
            else:
                rel = _Rel(keep, rel.nrows)
            child_rels[quantifier.name] = rel

        joined, index_of = self._join_children(
            quantifiers, child_tables, child_rels, equijoins, ctx
        )
        leftover = [pair.predicate for pair in equijoins if not pair.used] + residual
        if leftover:
            joined = self._filter_rel(joined, leftover, index_of, ctx)

        out = self._project_rel(joined, [q.expr for q in box.outputs], index_of, ctx)
        if box.distinct:
            out = self._distinct_rel(out)
        if ctx.budget is not None:
            ctx.budget.check_rows(out.nrows)
        return self._to_table(box.output_names, out)

    def _filter_rel(
        self, rel: _Rel, predicates, index_of, ctx: _Ctx, keep=None
    ) -> _Rel:
        """Apply predicates as sequential selection passes, then gather
        the surviving rows of ``keep`` (default: all of ``rel``'s
        columns; the predicates always read ``rel``'s).

        Each top-level AND conjunct shrinks the selection before the
        next one runs — the row interpreter's short-circuit order, which
        is what keeps guarded expressions (``y <> 0 AND x / y > 1``)
        from evaluating where they shouldn't."""
        cols = rel.cols
        if keep is None:
            keep = cols
        fns = [
            compile_vector(conjunct)
            for predicate in predicates
            for conjunct in conjuncts(predicate)
        ]
        resolve = _make_resolver(cols, index_of)
        sel = range(rel.nrows)
        for fn in fns:
            if not len(sel):
                break
            parts = []
            for chunk in _split(sel, ctx.chunk):
                values = fn(resolve, chunk)
                parts.append([i for i, v in zip(chunk, values) if v is True])
                ctx.tick(len(chunk))
            sel = parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))
        if type(sel) is range and len(sel) == rel.nrows:
            return _Rel(keep, rel.nrows)
        return _Rel(_take(keep, sel), len(sel))

    def _join_children(
        self, quantifiers, child_tables, child_rels, equijoins, ctx: _Ctx
    ) -> tuple[_Rel, dict[ColumnRef, int]]:
        """Greedy hash-join of the children; returns the joined relation
        plus a QNC index map."""
        if not quantifiers:
            raise ExecutionError("SELECT box with no children")

        remaining = list(quantifiers)
        links: dict[str, set[str]] = {}
        for join in equijoins:
            links.setdefault(join.left.qualifier, set()).add(join.right.qualifier)
            links.setdefault(join.right.qualifier, set()).add(join.left.qualifier)

        def pop_next(joined_names: set[str]):
            if not joined_names:
                # Start with the child most constrained by join edges.
                best = max(remaining, key=lambda q: len(links.get(q.name, ())))
                remaining.remove(best)
                return best
            for candidate in remaining:
                if links.get(candidate.name, set()) & joined_names:
                    remaining.remove(candidate)
                    return candidate
            return remaining.pop(0)

        index_of: dict[ColumnRef, int] = {}
        joined: _Rel | None = None
        joined_names: set[str] = set()
        width = 0
        while remaining:
            quantifier = pop_next(joined_names)
            table = child_tables[quantifier.name]
            rel = child_rels[quantifier.name]
            offset = width
            for i, name in enumerate(table.columns):
                index_of[ColumnRef(quantifier.name, name)] = offset + i
            if joined is None:
                joined = rel
                joined_names = {quantifier.name}
                width = len(table.columns)
                continue
            # Hash keys: every unused equi-join predicate connecting the
            # new child to the already-joined side.
            keys: list[tuple[int, int]] = []  # (joined index, new-child index)
            for join in equijoins:
                if join.used:
                    continue
                sides = {
                    join.left.qualifier: join.left,
                    join.right.qualifier: join.right,
                }
                if quantifier.name not in sides:
                    continue
                other = set(sides) - {quantifier.name}
                if not other or next(iter(other)) not in joined_names:
                    continue
                new_ref = sides[quantifier.name]
                old_ref = sides[next(iter(other))]
                keys.append((index_of[old_ref], table.column_index(new_ref.name)))
                join.used = True
            joined = self._hash_join(joined, rel, keys, ctx)
            joined_names.add(quantifier.name)
            width += len(table.columns)
        return joined, index_of

    def _hash_join(
        self, left: _Rel, right: _Rel, keys: list[tuple[int, int]], ctx: _Ctx
    ) -> _Rel:
        if not keys:
            return self._cross_join(left, right, ctx)
        # Build on the smaller side by *actual* cardinality — the greedy
        # join order optimizes connectivity, not size, so either input
        # may be the small one.
        build_left = left.nrows <= right.nrows
        if build_left:
            build, probe = left, right
            build_key_cols = [left.cols[i] for i, _ in keys]
            probe_key_cols = [right.cols[j] for _, j in keys]
        else:
            build, probe = right, left
            build_key_cols = [right.cols[j] for _, j in keys]
            probe_key_cols = [left.cols[i] for i, _ in keys]
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
                    build, probe, build_key_cols, probe_key_cols,
                    ctx, estimate,
                )
                return self._gather_join(
                    left, right, build_left, build_take, probe_take
                )
        try:
            buckets = self._build_buckets(build_key_cols, build.nrows, ctx)
            single = len(probe_key_cols) == 1
            build_take: list[int] = []
            probe_take: list[int] = []
            extend_b = build_take.extend
            append_p = probe_take.append
            get = buckets.get
            for chunk in _split(range(probe.nrows), ctx.chunk):
                if single:
                    col = probe_key_cols[0]
                    for i in chunk:
                        bucket = get(col[i])
                        if bucket is None:
                            continue
                        extend_b(bucket)
                        if len(bucket) == 1:
                            append_p(i)
                        else:
                            probe_take.extend([i] * len(bucket))
                else:
                    for i in chunk:
                        bucket = get(tuple(col[i] for col in probe_key_cols))
                        if bucket is None:
                            continue
                        extend_b(bucket)
                        probe_take.extend([i] * len(bucket))
                ctx.tick(len(chunk))
                if budget is not None:
                    # MAXROWS high-water *while* the output grows, so a
                    # row explosion is caught mid-join rather than after.
                    budget.check_rows(len(build_take), "joined rows")
        finally:
            if charged:
                reservation.release(charged)
        return self._gather_join(left, right, build_left, build_take, probe_take)

    @staticmethod
    def _gather_join(
        left: _Rel, right: _Rel, build_left: bool, build_take, probe_take
    ) -> _Rel:
        if build_left:
            left_take, right_take = build_take, probe_take
        else:
            left_take, right_take = probe_take, build_take
        return _Rel(
            _take(left.cols, left_take) + _take(right.cols, right_take),
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

        A run that cannot be written (spill disk full, or the armed
        ``executor.spill`` fault) is the bottom of the resource ladder:
        the query fails with a typed ``QueryResourceError``.
        """
        budget = ctx.budget
        reservation = budget.reservation
        headroom = reservation.headroom() or 0
        if headroom > 0:
            nparts = min(_MAX_SPILL_PARTS, max(2, -(-estimate // headroom)))
        else:
            nparts = 8
        single = len(build_key_cols) == 1

        def partition_ids(key_cols, nrows: int) -> list[int]:
            """Partition id per row; -1 for NULL keys (never equi-join)."""
            pids = [-1] * nrows
            for chunk in _split(range(nrows), ctx.chunk):
                if single:
                    col = key_cols[0]
                    for i in chunk:
                        value = col[i]
                        if value is not None:
                            pids[i] = hash(value) % nparts
                else:
                    for i in chunk:
                        key = tuple(col[i] for col in key_cols)
                        if None not in key:
                            pids[i] = hash(key) % nparts
                ctx.tick(len(chunk))
            return pids

        build_pids = partition_ids(build_key_cols, build.nrows)
        runs = []
        pairs: list[tuple[int, int]] = []
        try:
            for p in range(nparts):
                if single:
                    col = build_key_cols[0]
                    records = (
                        [col[i], i]
                        for i in range(build.nrows)
                        if build_pids[i] == p
                    )
                else:
                    records = (
                        [tuple(col[i] for col in build_key_cols), i]
                        for i in range(build.nrows)
                        if build_pids[i] == p
                    )
                try:
                    runs.append(_spill.write_run(records, label="join"))
                except (OSError, faults.InjectedFault) as error:
                    raise QueryResourceError(
                        "hash join exceeded its memory budget and the "
                        f"spill path failed: {error}"
                    ) from error
            self._note_spill(ctx, runs)
            probe_pids = partition_ids(probe_key_cols, probe.nrows)
            probe_by_part: list[list[int]] = [[] for _ in range(nparts)]
            for i, pid in enumerate(probe_pids):
                if pid >= 0:
                    probe_by_part[pid].append(i)
            probe_single = len(probe_key_cols) == 1
            for p, run in enumerate(runs):
                buckets: dict = {}
                get = buckets.get
                for key, build_i in run.read():
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [build_i]
                    else:
                        bucket.append(build_i)
                probe_rows = probe_by_part[p]
                if probe_single:
                    col = probe_key_cols[0]
                    for i in probe_rows:
                        bucket = get(col[i])
                        if bucket is not None:
                            pairs.extend((i, b) for b in bucket)
                else:
                    for i in probe_rows:
                        bucket = get(
                            tuple(col[i] for col in probe_key_cols)
                        )
                        if bucket is not None:
                            pairs.extend((i, b) for b in bucket)
                ctx.tick(len(probe_rows))
                if budget is not None:
                    budget.check_rows(len(pairs), "joined rows")
        finally:
            for run in runs:
                run.delete()
        # Bucket lists hold ascending build rows, so a plain sort equals
        # the in-memory probe-major emit order.
        pairs.sort()
        return [b for _, b in pairs], [i for i, _ in pairs]

    @staticmethod
    def _note_spill(ctx: _Ctx, runs) -> None:
        nbytes = sum(run.nbytes for run in runs)
        reservation = ctx.budget.reservation
        reservation.note_spill(len(runs), nbytes)
        stats = ctx.stats
        stats.spills += 1
        stats.spill_runs += len(runs)
        stats.spill_bytes += nbytes

    def _build_buckets(self, key_cols, nrows: int, ctx: _Ctx) -> dict:
        """Hash-side build: key → list of build-row indices (NULL keys
        never equi-join and are skipped)."""
        buckets: dict = {}
        single = len(key_cols) == 1
        for chunk in _split(range(nrows), ctx.chunk):
            if single:
                col = key_cols[0]
                get = buckets.get
                for i in chunk:
                    value = col[i]
                    if value is None:
                        continue
                    bucket = get(value)
                    if bucket is None:
                        buckets[value] = [i]
                    else:
                        bucket.append(i)
            else:
                get = buckets.get
                for i in chunk:
                    key = tuple(col[i] for col in key_cols)
                    if any(value is None for value in key):
                        continue
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [i]
                    else:
                        bucket.append(i)
            ctx.tick(len(chunk))
        return buckets

    def _cross_join(self, left: _Rel, right: _Rel, ctx: _Ctx) -> _Rel:
        ln, rn = left.nrows, right.nrows
        if ln == 0 or rn == 0:
            return self._gather_join(left, right, True, [], [])
        left_take: list[int] = []
        right_take: list[int] = []
        right_range = range(rn)
        budget = ctx.budget
        if budget is None:
            for i in range(ln):
                left_take.extend([i] * rn)
                right_take.extend(right_range)
        else:
            threshold = ctx.chunk or BATCH_ROWS
            pending = 0
            for i in range(ln):
                left_take.extend([i] * rn)
                right_take.extend(right_range)
                pending += rn
                if pending >= threshold:
                    faults.fire("executor.tick")
                    budget.tick(pending, "execute")
                    budget.check_rows(len(left_take), "joined rows")
                    pending = 0
        ctx.stats.batches += 1
        ctx.stats.rows += len(left_take)
        return self._gather_join(left, right, True, left_take, right_take)

    def _project_rel(self, rel: _Rel, exprs: list[Expr], index_of, ctx: _Ctx) -> _Rel:
        cols = rel.cols
        nrows = rel.nrows
        resolve = _make_resolver(cols, index_of)
        out_cols: list[list] = []
        for expr in exprs:
            if isinstance(expr, ColumnRef):
                out_cols.append(cols[index_of[expr]])
                continue
            fn = compile_vector(expr)
            chunks = _split(range(nrows), ctx.chunk)
            if len(chunks) == 1:
                column = fn(resolve, chunks[0])
                ctx.tick(nrows)
            else:
                column = []
                for chunk in chunks:
                    column.extend(fn(resolve, chunk))
                    ctx.tick(len(chunk))
            out_cols.append(column)
        return _Rel(out_cols, nrows)

    @staticmethod
    def _distinct_rel(rel: _Rel) -> _Rel:
        if rel.nrows == 0 or not rel.cols:
            return rel
        seen: set = set()
        add = seen.add
        keep: list[int] = []
        append = keep.append
        position = 0
        for row in zip(*rel.cols):
            if row not in seen:
                add(row)
                append(position)
            position += 1
        if len(keep) == rel.nrows:
            return rel
        return _Rel(_take(rel.cols, keep), len(keep))

    # ------------------------------------------------------------------
    # GROUP-BY boxes
    # ------------------------------------------------------------------
    def _evaluate_groupby(self, box: GroupByBox, memo, ctx: _Ctx) -> Table:
        child = self._evaluate(box.child_quantifier.box, memo, ctx)
        rel = self._rel_of(child)
        quantifier_name = box.child_quantifier.name

        def child_index(ref: ColumnRef) -> int:
            if ref.qualifier != quantifier_name:
                raise ExecutionError(f"GROUP-BY box references foreign {ref!r}")
            return child.column_index(ref.name)

        # Column index feeding each grouping output, by output name.
        grouping_source: dict[str, int] = {}
        # (name, call, arg index, partial kind, distinct)
        specs: list[tuple] = []
        for qcl in box.outputs:
            if isinstance(qcl.expr, AggCall):
                call = qcl.expr
                arg_index = child_index(call.arg) if call.arg is not None else None
                kind, distinct = _agg.spec_kind(call)
                specs.append((qcl.name, call, arg_index, kind, distinct))
            elif isinstance(qcl.expr, ColumnRef):
                grouping_source[qcl.name] = child_index(qcl.expr)
            else:
                raise ExecutionError(
                    f"GROUP-BY output {qcl.name!r} is not a simple column "
                    "or aggregate"
                )

        cuboids = [
            self._evaluate_cuboid(box, rel, grouping_set, grouping_source, specs, ctx)
            for grouping_set in box.grouping_sets
        ]
        if len(cuboids) == 1:
            out = cuboids[0]
            total = out.nrows
        else:
            cols: list[list] = [[] for _ in box.output_names]
            total = 0
            for cuboid in cuboids:
                for out_col, col in zip(cols, cuboid.cols):
                    out_col.extend(col)
                total += cuboid.nrows
            out = _Rel(cols, total)
        if ctx.budget is not None:
            ctx.budget.check_rows(total, "grouped rows")
        return self._to_table(box.output_names, out)

    def _evaluate_cuboid(
        self, box, rel: _Rel, grouping_set, grouping_source, specs, ctx: _Ctx
    ) -> _Rel:
        key_indexes = [grouping_source[name] for name in grouping_set]
        key_cols = [rel.cols[i] for i in key_indexes]

        budget = ctx.budget
        reservation = budget.reservation if budget is not None else None
        charged = 0
        spilled = False
        if reservation is not None:
            estimate = (
                estimate_columns_nbytes(key_cols)
                + rel.nrows
                * (_GROUP_ROW_NBYTES + _STATE_NBYTES * len(specs))
            )
            try:
                reservation.charge(estimate)
                charged = estimate
            except MemoryBudgetExceeded:
                spilled = True
        try:
            if spilled:
                order, states = self._cuboid_spilled(
                    key_cols, specs, rel, ctx
                )
            else:
                order, _, states = self._cuboid_pass(
                    key_cols, specs, rel, range(rel.nrows), ctx
                )
        finally:
            if charged:
                reservation.release(charged)
        if not order and not grouping_set:
            # Grand total over an empty input still yields one row.
            order = [()]
            states = [
                [_agg.empty_state(kind, distinct)]
                for (_, _, _, kind, distinct) in specs
            ]

        ngroups = len(order)
        single = len(key_indexes) == 1
        aggregate_values = {
            name: [_agg.finalize_state(kind, distinct, s) for s in spec_states]
            for (name, _, _, kind, distinct), spec_states in zip(specs, states)
        }
        in_set = set(grouping_set)
        key_position = {name: i for i, name in enumerate(grouping_set)}
        out_cols: list[list] = []
        for qcl in box.outputs:
            if qcl.name in aggregate_values:
                out_cols.append(aggregate_values[qcl.name])
            elif qcl.name in in_set:
                position = key_position[qcl.name]
                if single:
                    out_cols.append(list(order))
                else:
                    out_cols.append([key[position] for key in order])
            else:
                out_cols.append([None] * ngroups)  # grouped-out column
        return _Rel(out_cols, ngroups)

    def _cuboid_pass(self, key_cols, specs, rel: _Rel, rows, ctx: _Ctx):
        """One group-by pass over ``rows`` (ascending row indices — every
        row in memory, one partition's when spilling): first-seen key
        order, a group id per row, then one tight kernel loop per
        aggregate.  Returns ``(keys in order, each key's first row
        index, per-spec partial states)``; the first rows let the spill
        merge restore the whole input's first-seen order."""
        group_of: dict = {}
        order: list = []
        first_at: list[int] = []  # position in ``rows`` of each new key
        gids: list[int] = []
        gid_append = gids.append
        nkeys = len(key_cols)
        for chunk in _split(rows, ctx.chunk):
            if nkeys == 1:
                col = key_cols[0]
                get = group_of.get
                for i in chunk:
                    value = col[i]
                    gid = get(value)
                    if gid is None:
                        gid = group_of[value] = len(order)
                        order.append(value)
                        first_at.append(len(gids))
                    gid_append(gid)
            elif nkeys == 0:
                if not order and len(chunk):
                    order.append(())
                    first_at.append(0)
                gids.extend([0] * len(chunk))
            else:
                gathered = [[col[i] for i in chunk] for col in key_cols]
                get = group_of.get
                for key in zip(*gathered):
                    gid = get(key)
                    if gid is None:
                        gid = group_of[key] = len(order)
                        order.append(key)
                        first_at.append(len(gids))
                    gid_append(gid)
            ctx.tick(len(chunk))
        ngroups = len(order)
        states = []
        arg_cache: dict[int, list] = {}
        budget = ctx.budget
        full = type(rows) is range and len(rows) == rel.nrows
        for _, _, arg_index, kind, distinct in specs:
            if arg_index is None:
                values = None
            else:
                values = arg_cache.get(arg_index)
                if values is None:
                    col = rel.cols[arg_index]
                    values = col if full else [col[i] for i in rows]
                    arg_cache[arg_index] = values
            states.append(
                _agg.partial_states(kind, distinct, gids, ngroups, values)
            )
            if budget is not None:
                budget.checkpoint("execute")
        return order, [rows[p] for p in first_at], states

    def _cuboid_spilled(self, key_cols, specs, rel: _Rel, ctx: _Ctx):
        """Spill-to-disk GROUP BY for one cuboid, bit-identical to the
        in-memory path.

        Rows are partitioned by group-key hash; each partition's rows
        (ascending, so every group accumulates its inputs in original
        order) are aggregated into partial states and written to a
        CRC-framed run as ``[first row index, key, states]`` records.
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
        reservation = budget.reservation
        nspecs = len(specs)
        per_row = _GROUP_ROW_NBYTES + _STATE_NBYTES * nspecs
        headroom = reservation.headroom() or 0
        if headroom > 0:
            nparts = min(
                _MAX_SPILL_PARTS, max(2, -(-(rel.nrows * per_row) // headroom))
            )
        else:
            nparts = 8
        nkeys = len(key_cols)
        pids = [0] * rel.nrows
        for chunk in _split(range(rel.nrows), ctx.chunk):
            if nkeys == 1:
                col = key_cols[0]
                for i in chunk:
                    pids[i] = hash(col[i]) % nparts
            elif nkeys > 1:
                for i in chunk:
                    pids[i] = hash(tuple(col[i] for col in key_cols)) % nparts
            ctx.tick(len(chunk))
        rows_by_part: list[list[int]] = [[] for _ in range(nparts)]
        for i, pid in enumerate(pids):
            rows_by_part[pid].append(i)
        runs = []
        group_of: dict = {}
        order: list = []
        firsts: list[int] = []
        merged: list[list] = [[] for _ in specs]
        try:
            for rows in rows_by_part:
                if not rows:
                    continue
                part_order, part_firsts, part_states = self._cuboid_pass(
                    key_cols, specs, rel, rows, ctx
                )
                records = (
                    [
                        part_firsts[g],
                        key,
                        [part_states[s][g] for s in range(nspecs)],
                    ]
                    for g, key in enumerate(part_order)
                )
                try:
                    runs.append(_spill.write_run(records, label="group"))
                except (OSError, faults.InjectedFault) as error:
                    raise QueryResourceError(
                        "GROUP BY exceeded its memory budget and the "
                        f"spill path failed: {error}"
                    ) from error
            self._note_spill(ctx, runs)
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
                        for s, (_, _, _, kind, distinct) in enumerate(specs):
                            merged[s][gid] = _agg.merge_states(
                                kind, distinct, merged[s][gid], states[s]
                            )
                budget.check_rows(len(order), "grouped rows")
        finally:
            for run in runs:
                run.delete()
        permutation = sorted(range(len(order)), key=firsts.__getitem__)
        return (
            [order[g] for g in permutation],
            [[column[g] for g in permutation] for column in merged],
        )


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
