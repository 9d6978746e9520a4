"""The `Database` facade — the library's main entry point.

Ties together the catalog, the table store, the executor, summary-table
management, and (lazily, to keep layering clean) the matcher/rewriter::

    db = Database(credit_card_catalog())
    db.load("Trans", rows)
    db.create_summary_table("AST1", "SELECT faid, flid, ... GROUP BY ...")
    result = db.execute(my_query)                 # rewritten automatically
    raw = db.execute(my_query, use_summary_tables=False)

Rewriting runs through a three-layer *matching fast path* (see
docs/ALGORITHM.md, "The matching fast path"): a bounded LRU of SELECT
text shapes binds a known shape by substitution and replays its proven
rewrite decisions without matching at all, an AST signature index
prunes implausible candidates before any navigation, and expression
normalization/hashing is memoized. ``rewrite_stats()`` exposes the
counters; ``configure_fast_path(cache=False)`` turns the shape cache off.

There is one way to run a SELECT — **prepare → sandboxed rewrite →
execute** — and :class:`SelectRun` is its per-run record. ``execute``,
``run_statement``, ``explain`` (stops after the rewrite stage),
``explain_analyze`` (renders the record), ``create_summary_table`` and
the query server all go through the same three stage functions (see
DESIGN.md, "SELECT pipeline"). There is one way to run a write —
:meth:`Database.run_write`, whose record is :class:`WriteRun` — behind
``run_statement``, ``insert_rows``/``delete_rows``, the query server, a
standby's apply loop and journal replay (DESIGN.md, "write pipeline").
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Iterable

from repro.catalog.schema import Catalog, Column, TableSchema
from repro.catalog.types import DataType, infer_literal_type
from repro.engine.executor import Executor
from repro.engine.pipeline import SelectRun, WriteRun, render_analyze, render_explain
from repro.engine.table import Row, Table
from repro.errors import (
    CatalogError,
    MatchBudgetExceeded,
    QueryCancelled,
    ReproError,
    WriteInProgress,
)
from repro.governor import QueryGovernor
from repro.governor import scope as governor_scope
from repro.governor.governor import UNSET
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MatchTrace
from repro.qgm.bind_cache import SHAPE_CACHE_SIZE, BindCache, lex
from repro.qgm.boxes import QueryGraph
from repro.qgm.build import build_graph
from repro.qgm.fingerprint import bind_constants
from repro.sql.parser import parse

#: default slow-query log threshold, milliseconds (see docs/OBSERVABILITY.md;
#: override per session with ``SET SLOW QUERY <ms>`` or ``SET SLOW QUERY OFF``)
DEFAULT_SLOW_QUERY_MS = 100.0

#: how many of a database's newest event-log entries ``status()`` carries
STATUS_EVENTS = 32

_IDENTS = itertools.count(1)  # Database.ident


class Database:
    """An in-memory database with automatic summary tables.

    Its shape cache holds :data:`~repro.qgm.bind_cache.SHAPE_CACHE_SIZE`
    SELECT text shapes, each with its rewrite decisions
    (:meth:`configure_fast_path` turns it off).
    """

    def __init__(self, catalog: Catalog | None = None):
        #: this database among the process's, on each event it emits
        self.ident = next(_IDENTS)
        self.catalog = catalog or Catalog()
        self.tables: dict[str, Table] = {}
        self.summary_tables: dict[str, "SummaryTable"] = {}
        # Lazily imported (like the matcher/rewriter) to avoid an import
        # cycle through repro.rewrite → repro.asts → repro.engine.
        from repro.refresh.log import DeltaLog
        from repro.refresh.policy import RefreshAge
        from repro.refresh.scheduler import RefreshScheduler
        from repro.rewrite.cache import register_counters

        for schema in self.catalog.tables.values():
            self.tables[schema.name.lower()] = Table.from_schema(schema)
        #: the unified metrics registry — fast-path counters (each
        #: rewrite's RewriteStats, flushed once), scheduler counters,
        #: phase timers, slow-query counts all land here; dump with
        #: \metrics / to_prometheus()
        self.metrics = MetricsRegistry()
        self._rewrite_counters = register_counters(self.metrics)
        #: the shape cache: per SELECT token-stream shape its bound
        #: templates and its rewrite decisions
        self._bind_cache = BindCache(self.metrics)
        self._rewrite_epoch = 0
        # Deferred maintenance: staged base-table deltas, the background
        # refresh worker, and the session's freshness tolerance
        # (SET REFRESH AGE; 0 = only fully fresh summaries match).
        self._delta_log = DeltaLog()
        self._scheduler = RefreshScheduler(self, registry=self.metrics)
        self._maintenance_lock = threading.RLock()
        # The one writer lock: every write (run_write — DML, DDL, full
        # refreshes) runs under it, and so do the query server's
        # snapshot and checkpoint. Queries do
        # NOT take it — the rewrite fast path stays lock-free and is
        # kept safe by (a) capturing the decision-cache epoch before
        # matching and bumping it only after a mutation completes, and
        # (b) executing against pins of the tables the graph reads,
        # taken under _maintenance_lock (see _execute).
        # Lock order where both are held: _catalog_lock, then
        # _maintenance_lock.
        self._catalog_lock = threading.RLock()
        self.refresh_age = RefreshAge.CURRENT
        #: the slow-query threshold (SET SLOW QUERY <ms>|OFF); a slower
        #: statement emits a ``query.slow`` event
        self.slow_query_ms: float | None = DEFAULT_SLOW_QUERY_MS
        # Query governor: SET QUERY TIMEOUT/MAXROWS limits, admission
        # control, and the per-shape circuit breaker (see
        # docs/ROBUSTNESS.md, "Query governor & load shedding"). Fully
        # disarmed by default — open_scope() returns None and every
        # instrumentation site short-circuits.
        self.governor = QueryGovernor(metrics=self.metrics, emit=self.emit)

    def emit(self, event: str, **fields) -> dict:
        """``event`` onto the process's event log, tagged :attr:`ident`."""
        return _events.emit(event, database=self.ident, **fields)

    # ------------------------------------------------------------------
    # Data definition / loading
    # ------------------------------------------------------------------
    def add_table(self, schema: TableSchema) -> None:
        """Register a new base table (empty until loaded)."""
        with self._catalog_lock:
            self.catalog.add_table(schema)
            self.tables[schema.name.lower()] = Table.from_schema(schema)

    def load(self, table_name: str, rows: Iterable[Row]) -> int:
        """Append validated rows to a base table; returns the new count.

        Loading does *not* refresh summary tables — call
        :meth:`refresh_summary_tables` or use :meth:`insert_rows` for
        incremental maintenance.
        """
        schema = self.catalog.table(table_name)
        table = self.tables[schema.name.lower()]
        with self._maintenance_lock:  # a write: readers pin under it
            table.extend_checked(rows, schema)
        return len(table)

    def table(self, name: str) -> Table:
        """The stored table itself. Reading it while another thread
        writes is the caller's race; SELECTs do not have it (they read
        pins, see :meth:`_execute`)."""
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"no table named {name!r}")
        return self.tables[key]

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def bind(self, sql: str, label: str = "Q") -> QueryGraph:
        """Parse + bind SQL against this database's catalog."""
        return build_graph(sql, self.catalog, label=label)

    def execute(
        self, sql: str, use_summary_tables: bool = True, **overrides
    ) -> Table:
        """Run a query, rewriting it over summary tables when possible.

        ``overrides`` are :meth:`run_select`'s per-query keyword
        arguments (``tolerance``, ``token``, ``timeout_ms``,
        ``max_rows``, ``max_mem``, ``client``)."""
        return self.run_select(
            sql, use_summary_tables=use_summary_tables, **overrides
        ).table

    def prepare_select(
        self, source: str, sql_text: str | None = None, label: str = "Q",
        lexed=None,
    ) -> SelectRun:
        """Pipeline stage 1: bind SELECT text ``source`` (``sql_text`` is
        its text again when the run will be traced or slow-logged)
        exactly once. ``lexed`` is the text's
        :func:`~repro.qgm.bind_cache.lex`, if the caller took it.

        The text goes through the shape cache (:mod:`repro.qgm.bind_cache`):
        a known token-stream shape is bound by substituting into its
        template, with no parse and no bind (the graph is cloned when
        asked for); the record says how (:attr:`SelectRun.bound`) and
        carries the shape's entry, where the rewrite stage finds its
        decisions. The query server prepares a statement first to key
        its result cache on :meth:`SelectRun.result_key`, then hands the
        same record to :meth:`run_select`, so a cold SELECT is bound and
        fingerprinted once. The epoch is read *before* binding: a catalog
        mutation racing the bind leaves the record (and a template filed
        meanwhile) looking stale, never fresh."""
        from repro.rewrite.cache import RewriteStats

        epoch = self._rewrite_epoch
        started = time.perf_counter()
        phases = {}

        def bind(statement):
            phases.setdefault("parse", (time.perf_counter() - started) * 1e3)
            return build_graph(statement, self.catalog, label=label)

        tokens, spelling, values = lexed = lexed or lex(source, label)
        stats, entry, template = RewriteStats(), None, None
        if self._bind_cache.entries.maxsize > 0:
            graph, bound, entry, template = self._bind_cache.bind(
                lexed, epoch, bind, stats
            )
        else:
            graph, bound = bind(parse(tokens)), "cold"
        phases["bind"] = self.metrics.observe_ms("phase_bind_ms", started)
        _spans.record("db.bind", started)
        run = SelectRun(source, sql_text, label, graph, epoch, phases, stats,
                        template=template, values=values)
        run.bound, run.spelling, run.entry = bound, spelling, entry
        return run

    def shape_cost(self, spelling, variant) -> float | None:
        """Thread-CPU milliseconds of the last completed run of the SELECT
        text shape ``spelling`` (:attr:`SelectRun.spelling`) under this
        catalog, per ``variant`` of the run, or None."""
        return self._bind_cache.costs(spelling, self._rewrite_epoch).get(variant)

    def note_shape_cost(self, spelling, epoch: int, variant, ms: float) -> None:
        """Record :meth:`shape_cost` for a run bound under ``epoch``."""
        self._bind_cache.costs(spelling, epoch)[variant] = ms

    def run_select(
        self, source, sql_text: str | None = None, *,
        use_summary_tables: bool = True, tolerance=None, token=None,
        timeout_ms=UNSET, max_rows=UNSET, max_mem=UNSET,
        client: str | None = None, force_trace: bool = False,
        wait: bool = True, lexed=None,
    ) -> SelectRun:
        """The SELECT pipeline — prepare → sandboxed rewrite → execute —
        behind every entry point; returns the run's :class:`SelectRun`.

        ``source`` is SELECT text or a record from
        :meth:`prepare_select`. ``tolerance`` is
        a per-query freshness override (a
        :class:`repro.refresh.policy.RefreshAge`); by default the
        session's ``refresh_age`` decides how stale a REFRESH DEFERRED
        summary may be and still serve this query. ``token`` is an
        optional :class:`repro.governor.CancellationToken` another
        thread may trigger to stop this query cooperatively.
        ``timeout_ms`` / ``max_rows`` / ``max_mem`` override the
        database-level governor limits for this one query — the query
        server passes each connection's ``SET`` state through them
        (:meth:`repro.server.session.Session.overrides`), so per-client
        knobs never mutate shared state. ``client`` tags ``query.slow``
        events with the submitting connection's id; ``force_trace``
        records a match trace in an unsampled statement too (EXPLAIN
        ANALYZE). ``wait=False`` raises :class:`~repro.errors.
        WriteInProgress` where the run would wait for a write to finish
        (:meth:`_execute`): the query server's event loop never waits.
        ``lexed`` is the text's :func:`~repro.qgm.bind_cache.lex`, if the
        caller took it.

        Governed end to end: admission control may shed the query
        (:class:`~repro.errors.QueryRejected`) before any work happens,
        and the governor scope — when any limit or ``token`` is set —
        stays active across bind, match, and execute."""
        with self._governed(token, timeout_ms, max_rows, max_mem) as budget:
            run = self._run_stages(
                source, sql_text, use_summary_tables, tolerance,
                client, force_trace, wait, lexed,
            )
        run.budget = budget
        return run

    def rerun(
        self, plan, sql_text: str, *, use_summary_tables: bool = True,
        tolerance=None, token=None, timeout_ms=UNSET, max_rows=UNSET,
        max_mem=UNSET, client: str | None = None, wait: bool = True,
    ) -> Table | None:
        """Execute ``plan`` — :meth:`SelectRun.plan` of an earlier run of
        the SELECT text ``sql_text`` — again: no lex, no bind, no rewrite
        decision. The keywords are :meth:`run_select`'s but ``lexed`` and
        ``force_trace``, and so are the admission, the governor scope,
        the pins, the execute and total timers and the slow-query event. Returns None, having run
        nothing, when the plan no longer holds: it was bound against
        another catalog (a standby re-bootstrapped under the request) or
        epoch, the summaries admissible under ``tolerance`` are not the
        ones it was decided under, or the statement is sampled for
        tracing (its ``db.rewrite`` span needs a match trace). The
        plan's summaries are looked up by name on every run, never kept."""
        sampled = _spans.TRACER is not None and _spans.active() is not None
        if sampled or plan.epoch != self._rewrite_epoch or (
            plan.graph.catalog is not self.catalog
        ) or plan.admissible != self._admissible(use_summary_tables, tolerance):
            return None
        try:
            overlay = {
                name: self.summary_tables[name].table for name in plan.summaries
            }
        except KeyError:  # dropped since the epoch was read
            return None
        with self._governed(token, timeout_ms, max_rows, max_mem):
            started = time.perf_counter()
            table = self._execute(plan.graph, overlay, wait, clone=True)[0]
            self.metrics.observe_ms("phase_execute_ms", started)
            _spans.record("db.execute", started)
            total = self.metrics.observe_ms("query_total_ms", started)
            self._note_slow_query(sql_text, total, client=client)
        return table

    @contextmanager
    def _governed(self, token, timeout_ms, max_rows, max_mem):
        """Admission, then the query's governor scope (None: disarmed)
        active across the body; its reserved bytes go back to the broker
        however the body ends."""
        admit_pc = time.perf_counter()
        with self.governor.admission.admit():
            _spans.record("admission.wait", admit_pc)
            budget = self.governor.open_scope(
                token, timeout_ms=timeout_ms, max_rows=max_rows,
                max_mem=max_mem,
            )
            try:
                with governor_scope.activate(budget):
                    yield budget
            finally:
                if budget is not None and budget.reservation is not None:
                    budget.reservation.close()

    def _admissible(self, use_summary_tables: bool, tolerance) -> frozenset | None:
        """The names of the summaries a rewrite decision would be offered
        now (:attr:`SelectRun.admissible`); None: no rewrite stage."""
        from repro.rewrite.index import filter_fresh

        if not (use_summary_tables and self.summary_tables):
            return None
        return frozenset(s.name.lower() for s in filter_fresh(
            self.enabled_summary_tables(), tolerance or self.refresh_age,
            self._delta_log,
        ))

    def _run_stages(
        self, source, sql_text, use_summary_tables: bool, tolerance,
        client: str | None, force_trace: bool, wait: bool, lexed,
    ) -> SelectRun:
        """The three stages with their phase timers (bind/match/execute,
        milliseconds) in the metrics registry, spans, the match trace
        (this statement's own, kept on the record, handed down to the
        matcher and carried by a sampled statement's ``db.rewrite``
        span), and the slow-query event."""
        metrics = self.metrics
        total_start = time.perf_counter()
        if isinstance(source, SelectRun):
            run, sql_text = source, source.sql
        else:
            sql_text = source if sql_text is None else sql_text
            run = self.prepare_select(source, sql_text, lexed=lexed)
        sampled = _spans.TRACER is not None and _spans.active() is not None
        trace = run.trace = (
            MatchTrace(sql_text) if force_trace or sampled else None
        )
        if use_summary_tables and self.summary_tables:
            started = time.perf_counter()
            self._rewrite_stage(run, tolerance)
            run.phases["match"] = metrics.observe_ms("phase_match_ms", started)
            if trace is not None:
                # apply_match timed "compensate" inside the match window
                run.phases["match"] = max(
                    0.0, run.phases["match"] - trace.phases.get("compensate", 0.0)
                )
                if sampled:
                    _spans.record(
                        "db.rewrite", started, rewritten=run.rewrite is not None,
                        match_trace=trace.as_dict(),
                    )
        started = time.perf_counter()
        # an untouched template clone: a plan's, or not cloned yet
        run.clone = run.planned or "graph" not in vars(run)
        run.table, run.executor_stats = self._execute(
            run.graph, run.overlay, wait, run.clone
        )
        run.phases["execute"] = metrics.observe_ms("phase_execute_ms", started)
        _spans.record("db.execute", started)
        run.phases["total"] = metrics.observe_ms("query_total_ms", total_start)
        self._note_slow_query(sql_text, run.phases["total"], client=client)
        return run

    def _note_slow_query(
        self, sql_text: str | None, total_ms: float, client: str | None = None
    ) -> None:
        threshold = self.slow_query_ms
        if threshold is None or total_ms < threshold:
            return
        self.metrics.counter(
            "slow_queries_total", "queries over the SET SLOW QUERY threshold"
        ).inc()
        self.emit(
            "query.slow",
            sql=sql_text if sql_text is not None else "(bound graph)",
            ms=round(total_ms, 3), threshold_ms=threshold, client=client,
        )

    def execute_graph(
        self, graph: QueryGraph, overlay: dict | None = None
    ) -> Table:
        """Run a bound (possibly rewritten) graph; ``overlay`` holds the
        table objects of the summaries a rewrite matched, so a ``DROP
        SUMMARY TABLE`` racing this query cannot yank one out from under
        the plan. See :meth:`_execute` for what the run reads."""
        return self._execute(graph, overlay)[0]

    def _execute(
        self, graph: QueryGraph, overlay: dict | None, wait: bool = True,
        clone: bool = False,
    ):
        """Pipeline stage 3, the one place a SELECT meets stored tables:
        returns the result and the run's
        :class:`~repro.engine.executor.ExecutorStats`.

        The tables the graph reads are pinned (:meth:`Table.pin`) under
        one acquisition of the lock every write holds from start to
        finish, and the executor runs on the pins after releasing it. So
        the statement sees, for *all* its tables, the state between two
        whole writes — never a half-appended row, a half-merged group or
        a base table ahead of its summary — and never waits for more
        than the write in progress — or, with ``wait=False``, raises
        :class:`~repro.errors.WriteInProgress` instead of waiting.
        ``clone``: ``graph`` is an untouched template clone, whose boxes
        run their template's memoised programs."""
        overlay = overlay or {}
        if not self._maintenance_lock.acquire(blocking=wait):
            raise WriteInProgress("a write holds the tables this query reads")
        try:
            pins = {}
            for name in graph.base_tables():
                table = overlay.get(name, self.tables.get(name))
                if table is not None:
                    pins[name] = table.pin()
        finally:
            self._maintenance_lock.release()
        executor = Executor(pins, metrics=self.metrics)
        return executor.run(graph, clone and graph.origin), executor.stats

    def run_sql(self, sql: str, use_summary_tables: bool = True):
        """Execute one statement of any supported kind (SELECT, CREATE
        TABLE, CREATE SUMMARY TABLE, DROP SUMMARY TABLE, INSERT, DELETE,
        EXPLAIN). Returns a :class:`~repro.engine.table.Table` for
        SELECT/EXPLAIN, otherwise a status string. A SELECT is lexed once
        and run from its text (:meth:`run_select`), never parsed here."""
        from repro.sql.statements import parse_statement

        started = time.perf_counter()
        lexed = lex(sql, "Q")
        if lexed[0][0].is_keyword("select"):
            return self.run_select(
                sql, sql, use_summary_tables=use_summary_tables, lexed=lexed
            ).table
        statement = parse_statement(sql)
        self.metrics.observe_ms("phase_parse_ms", started)
        return self.run_statement(statement, sql, use_summary_tables)

    def run_statement(
        self, statement, sql: str, use_summary_tables: bool = True
    ):
        """Execute one already-parsed statement (see :meth:`run_sql`); a
        SELECT runs from its text ``sql``, through the shape cache."""
        from repro.replication.wal import mutation_kind
        from repro.sql.ast import SelectStatement, UnionAll
        from repro.sql.statements import (
            Explain,
            SetQueryMaxMem,
            SetQueryMaxRows,
            SetQueryTimeout,
            SetRefreshAge,
            SetSlowQuery,
            SetTraceSample,
        )

        if isinstance(statement, (SelectStatement, UnionAll)):
            return self.run_select(
                sql, sql, use_summary_tables=use_summary_tables
            ).table
        if isinstance(statement, Explain):
            if statement.analyze:
                return self.explain_analyze(statement.sql)
            return self.explain(statement.sql)
        if mutation_kind(statement) is not None:
            return self.run_write(statement, sql).status
        if isinstance(statement, SetRefreshAge):
            self.set_refresh_age(statement.max_pending)
            return statement.status()
        if isinstance(statement, SetSlowQuery):
            self.slow_query_ms = statement.threshold_ms
            if statement.threshold_ms is None:
                return "slow query log disabled"
            return f"slow query threshold set to {statement.threshold_ms:g} ms"
        if isinstance(statement, SetQueryTimeout):
            self.governor.timeout_ms = statement.timeout_ms
            return statement.status()
        if isinstance(statement, SetQueryMaxRows):
            self.governor.max_rows = statement.max_rows
            return statement.status()
        if isinstance(statement, SetQueryMaxMem):
            self.governor.max_mem = statement.max_mem
            return statement.status()
        if isinstance(statement, SetTraceSample):
            _spans.set_sample_rate(statement.rate)
            if statement.rate is None:
                return "request tracing disabled"
            return f"trace sample rate set to {statement.rate:g}"
        raise ReproError(f"unsupported statement {statement!r}")

    def _apply_create_table(self, statement) -> None:
        from repro.catalog.schema import (
            Column,
            ForeignKeyConstraint,
            TableSchema,
            UniqueKey,
        )

        schema = TableSchema(
            statement.name,
            [Column(c.name, c.dtype, c.nullable) for c in statement.columns],
            keys=[UniqueKey(k.columns, k.is_primary) for k in statement.keys],
        )
        self.add_table(schema)
        try:
            for fk in statement.foreign_keys:
                self.catalog.add_foreign_key(
                    ForeignKeyConstraint(
                        statement.name, fk.columns, fk.parent_table, fk.parent_columns
                    )
                )
        except Exception:
            self._drop_table(statement.name)
            raise

    def _drop_table(self, name: str) -> None:
        """Take back a CREATE TABLE."""
        self.catalog.drop_table(name)
        self.tables.pop(name.lower(), None)
        self._bump_rewrite_epoch()

    def explain(self, sql: str, tolerance=None) -> str:
        """EXPLAIN output: the QGM graph, the matching decision, the
        rewritten SQL/graph when a summary table applies, and the
        statement's own matching fast-path counts — the pipeline,
        stopped after the rewrite stage. ``tolerance`` is a per-call
        freshness override (the query server passes the connection's
        ``SET REFRESH AGE`` so remote EXPLAIN sees the same staleness
        gate the session's queries would). The SQL is bound exactly
        once: the graph is rendered first, then the same graph goes to
        the rewrite stage (which mutates it in place on success)."""
        from repro.qgm.display import render_graph

        run = self.prepare_select(sql)
        graph_text = render_graph(run.graph)
        self._rewrite_stage(run, tolerance)
        return render_explain(run, graph_text)

    def explain_analyze(self, sql: str, **overrides) -> str:
        """``EXPLAIN ANALYZE``: execute the query through
        :meth:`run_select` (``overrides`` are its keyword arguments)
        under a forced match trace and render the run's record — the
        timed phase breakdown (parse/bind/match/compensate/execute,
        milliseconds) plus the per-AST match verdict table: for every
        enabled summary table, either the matched pattern section or
        the named reject reason (see ``docs/OBSERVABILITY.md``) — and how
        the bind cache bound the text."""
        run = self.run_select(sql, sql, force_trace=True, **overrides)
        return render_analyze(run, bool(self.summary_tables))

    def _rewrite_stage(self, run: SelectRun, tolerance=None) -> None:
        """Pipeline stage 2, the rewrite *sandbox* — the one place a
        rewrite failure is caught. On return ``run.graph`` is the graph
        to execute and ``run.overlay`` pins the matched summaries' table
        objects for the executor, even if a concurrent ``DROP SUMMARY
        TABLE`` removes them from the store before execution starts.

        Rewriting is an optimization — it may improve a query plan but
        must never fail or corrupt a query answer (the paper's engine
        has the same contract). Any exception the rewrite path raises is
        caught here, counted as ``rewrite_errors``, and the query falls
        back to base-table execution. Because a failed rewrite can leave
        the in-place-mutated graph partially rewritten, the fallback
        re-binds a pristine graph from ``run.source``, the SQL text,
        rather than trusting the possibly-dirty one.

        Two governor errors get special treatment: a cancellation is the
        caller's explicit request to stop, so it propagates rather than
        degrades; a match budget running out is the governor's graceful
        degradation — matching is abandoned (recorded as a
        ``budget-exhausted`` verdict, never an error), the deadline is
        disarmed so the base-table plan can finish, and the circuit
        breaker remembers the shape.
        """
        try:
            run.rewrite = self._rewrite_bound(run, tolerance=tolerance)
            return
        except QueryCancelled:
            raise
        except MatchBudgetExceeded as error:
            self._note_degradation(error, run.trace)
            run.degraded = str(error)
        except Exception as error:
            run.rewrite_stats.rewrite_errors += 1
            self._rewrite_counters["rewrite_errors"].inc()
            run.rewrite_error = f"{type(error).__name__}: {error}"
            self.emit("rewrite.sandboxed", error=run.rewrite_error)
        run.graph = build_graph(run.source, self.catalog, label=run.label)

    def _note_degradation(self, error: MatchBudgetExceeded, trace) -> None:
        """Record one match-phase budget exhaustion: mark the scope
        degraded (disarming its deadline so execution completes), feed
        the circuit breaker, bump the metrics counter, and fill the
        verdicts of the run's ``trace`` so EXPLAIN ANALYZE shows
        ``budget-exhausted`` instead of an empty match table."""
        detail = str(error)
        budget = governor_scope.current()
        if budget is not None:
            budget.mark_degraded(detail)
            if budget.fingerprint is not None:
                self.governor.breaker.record_timeout(budget.fingerprint)
        self.governor.note_degradation()
        self.emit("governor.degraded", detail=detail)
        if trace is not None:
            # The attempt the budget interrupted has neither a pattern
            # nor a reject reason; later summaries were never begun.
            seen = set()
            for attempt in trace.summaries:
                seen.add(attempt.name.lower())
                if (
                    attempt.reason is None
                    and attempt.pattern is None
                    and not attempt.applied
                ):
                    attempt.reason = "budget-exhausted"
                    attempt.detail = detail
            for summary in self.enabled_summary_tables():
                if summary.name.lower() not in seen:
                    trace.verdict(summary.name, "budget-exhausted", detail)

    def rewrite(self, sql: str | QueryGraph, tolerance=None):
        """Attempt a summary-table rewrite of SELECT text ``sql``, bound
        as :meth:`prepare_select` binds it; returns a
        :class:`repro.rewrite.rewriter.RewriteResult` or None.
        ``tolerance`` overrides the session's ``refresh_age`` for this
        query. A bound :class:`QueryGraph` (rewritten *in place* on
        success) has no text shape: its skeleton
        (:func:`~repro.qgm.fingerprint.literal_slots`) keys its shape
        cache entry.
        """
        from repro.rewrite.cache import RewriteStats

        if isinstance(sql, str):
            run = self.prepare_select(sql)
        else:
            epoch, stats = self._rewrite_epoch, RewriteStats()
            run = SelectRun(None, None, "Q", sql, epoch, {}, stats)
            run.spelling = skeleton = run.constants()[0]
            if self._bind_cache.entries.maxsize > 0:
                run.entry = self._bind_cache.entry(
                    skeleton, epoch, stats
                ) or self._bind_cache.add(skeleton, epoch)
        return self._rewrite_bound(run, tolerance)

    def _rewrite_bound(self, run: SelectRun, tolerance=None):
        """One rewrite decision for ``run`` (:meth:`_decide_rewrite`),
        counted: its :class:`~repro.rewrite.cache.RewriteStats` is
        flushed into the database-wide ``rewrite_*`` counters exactly
        once, also when the match raises or the governor degrades it."""
        try:
            return self._decide_rewrite(run, tolerance)
        finally:
            run.rewrite_stats.flush(self._rewrite_counters)

    def _decide_rewrite(self, run: SelectRun, tolerance):
        """The matching fast path: staleness gate + index pruning + the
        decisions on the run's shape entry around
        :func:`repro.rewrite.rewriter.rewrite_query`. The run's
        ``rewrite_stats`` and ``trace`` (None: untraced) are its own
        records and are handed down, never shared."""
        from repro.rewrite.cache import (
            CacheEntry, cached_steps, obligations, pivots, substitution,
            valid_entry,
        )
        from repro.rewrite.index import filter_fresh
        from repro.rewrite.rewriter import instantiate, rewrite_query

        stats, trace = run.rewrite_stats, run.trace
        if tolerance is None:
            tolerance = self.refresh_age
        # Match-phase gate: a deadline that already expired (during
        # parse/bind) or a triggered token stops matching before the
        # navigator starts work it cannot afford. Raises
        # MatchBudgetExceeded, which the sandbox turns into base-table
        # execution — never an error.
        budget = governor_scope.current()
        if budget is not None:
            budget.enter_match()
        stats.queries += 1
        # The shape entry serves only under the epoch it was filed at,
        # read BEFORE matching: a catalog mutation landing while this
        # decision is in flight leaves the entry stale, so what is stored
        # below is never found again.
        shape = run.entry
        if shape is not None and shape.epoch != self._rewrite_epoch:
            shape = None
        summaries = filter_fresh(
            self.enabled_summary_tables(), tolerance, self._delta_log,
            stats=stats, trace=trace,
        )
        named = {s.name.lower(): s for s in summaries}
        admissible = run.admissible = frozenset(named)
        found = key = entry = changed = None
        if shape is not None:
            # taken *before* rewrite_query mutates the graph in place
            skeleton, kept, holes = run.constants()
            found = bind_constants(kept, holes)
        if found is not None:
            form, binding = found
            among = shape.pivots.get(admissible)
            if among is None:
                among = shape.pivots[admissible] = pivots(summaries)
            key = (
                tolerance.key, skeleton, form, obligations(binding, among)
            )
            entry = valid_entry(shape.decisions, key, admissible, stats)
            if entry is not None:
                changed = entry.changes(binding)
                if entry.serves(changed):
                    if changed:
                        stats.cache_shape_hits += 1
                    if trace is not None:
                        self._trace_cache_hit(trace, admissible, entry.steps)
                    if entry.steps is None:
                        stats.cache_negative_hits += 1
                        return None
                    stats.cache_hits += 1
                    # the summaries admitted above, never the live dict:
                    # a concurrent DROP must not pull one out mid-flight
                    result = entry.plan(run.template, run.values, named)
                    if not result:
                        result = instantiate(run.graph, entry.steps, named,
                                             substitution(changed), trace)
                        entry.file_plan(run.template, run.values, binding,
                                        named, result)
                    else:
                        run.planned, run.graph = True, result.graph
                    return result
        if run.entry is not None:
            stats.cache_misses += 1
        # Everything from here on is per shape: a shape that
        # repeatedly timed out during matching skips the navigator for a
        # cool-down, whatever constants it arrives with.
        breaker = self.governor.breaker
        if budget is not None:
            budget.fingerprint = run.spelling
        if breaker.active and breaker.should_skip(run.spelling):
            self.governor.note_breaker_skip()
            run.admissible = None  # no decision a rerun may stand on
            if trace is not None:
                for summary in summaries:
                    trace.verdict(
                        summary.name, "circuit-open",
                        "match skipped during breaker cool-down",
                    )
            return None
        result = rewrite_query(run.graph, summaries, stats=stats, trace=trace)
        # The match phase completed: this shape is healthy.
        breaker.record_success(run.spelling)
        if key is not None:
            steps = cached_steps(result)
            if entry is None:
                shape.decisions.put(key, CacheEntry(admissible, steps, binding))
                stats.cache_stores += 1
            elif not entry.cold_only:
                entry.confirm(changed, steps)
        return result

    def _trace_cache_hit(self, t, admissible: frozenset[str], steps) -> None:
        """Record per-summary ``cache-hit`` verdicts so warm queries never
        show an empty match table (the navigator did not run, but the
        cached decision still names each admissible summary's outcome)."""
        won = {step.summary_name: step.pattern for step in steps or ()}
        for key in sorted(admissible):
            summary = self.summary_tables.get(key)
            name = summary.name if summary is not None else key
            if key in won:
                t.verdict(
                    name, "cache-hit",
                    "decision cache instantiated this shape's proven match",
                    applied=True, pattern=won[key],
                )
            else:
                t.verdict(name, "cache-hit", (
                    "cached decision: no rewrite applies to this query shape"
                    if steps is None else "cached decision chose another summary"
                ))

    # ------------------------------------------------------------------
    # Fast-path introspection and control
    # ------------------------------------------------------------------
    def rewrite_stats(self) -> dict[str, int]:
        """Cumulative matching fast-path counters (see
        :class:`repro.rewrite.cache.RewriteStats`) merged with the
        deferred-refresh subsystem's counters: ``pending_deltas`` (a
        gauge — staged delta batches summed over deferred summaries),
        ``refreshes_applied``, ``fallback_recomputes``."""
        stats = {
            name: counter.value
            for name, counter in self._rewrite_counters.items()
        }
        for name, counter in self._bind_cache.counters.items():
            stats[f"bind_cache_{name}"] = counter.value
        stats["pending_deltas"] = sum(
            summary.refresh.pending_deltas
            for summary in self.summary_tables.values()
        )
        stats["refreshes_applied"] = self._scheduler.refreshes_applied
        stats["fallback_recomputes"] = self._scheduler.fallback_recomputes
        stats["refresh_retries"] = self._scheduler.retries_scheduled
        stats["refresh_quarantines"] = self._scheduler.quarantines
        stats["quarantined_summaries"] = sum(
            1
            for summary in self.summary_tables.values()
            if summary.refresh.quarantined
        )
        return stats

    def configure_fast_path(self, cache: bool) -> None:
        """Turn the shape cache on or off (for benchmarks and the
        cache-off reference twins in the tests): ``cache=False`` bounds
        it — bound templates and rewrite decisions — at 0 entries,
        emptying it, and ``cache=True`` restores
        :data:`~repro.qgm.bind_cache.SHAPE_CACHE_SIZE`."""
        lru = self._bind_cache.entries
        lru.maxsize = SHAPE_CACHE_SIZE if cache else 0
        if not cache:
            lru.clear()

    # ------------------------------------------------------------------
    # Summary tables
    # ------------------------------------------------------------------
    def create_summary_table(
        self,
        name: str,
        sql: str,
        use_summary_tables: bool = False,
        refresh_mode: str = "immediate",
    ) -> "SummaryTable":
        """Define and materialize an AST from its defining query.

        With ``use_summary_tables=True`` the materialization itself is
        rewritten over existing (fresh) summary tables — building a
        coarse rollup from a fine one instead of from the fact table.
        ``refresh_mode`` is ``"immediate"`` (maintained synchronously
        with every base-table change) or ``"deferred"`` (changes are
        staged in the delta log and applied by the refresh scheduler).
        """
        from repro.asts.definition import SummaryTable
        from repro.refresh.policy import RefreshState

        with self._catalog_lock:
            if self.catalog.has_table(name):
                raise CatalogError(f"name {name!r} is already a table")
            run = self.prepare_select(sql, label="A")
            if use_summary_tables and self.summary_tables:
                # The rewrite stage mutates the bound graph in place;
                # only when a rewrite actually applied does the pristine
                # definition graph need to be re-bound (the common
                # no-match path binds exactly once). Sandboxed like any
                # SELECT: a rewrite failure falls back to materializing
                # from the base tables.
                self._rewrite_stage(run)
            graph = run.graph if run.rewrite is None else self.bind(sql, label="A")
            data = self.execute_graph(run.graph, run.overlay)
            schema = _schema_from_result(name, graph, data)
            summary = SummaryTable(
                name=name,
                sql=sql,
                graph=graph,
                schema=schema,
                table=data,
                refresh=RefreshState(
                    mode=refresh_mode, last_refresh_lsn=self._delta_log.lsn
                ),
            )
            self.catalog.add_table(schema)
            self.tables[name.lower()] = summary.table
            self._register_summary(summary)
            return summary

    def _register_summary(self, summary: "SummaryTable") -> None:
        """Register a materialized summary for matching: store it,
        extract its signature now (so the first query after CREATE pays
        no extraction), and invalidate cached rewrite decisions. Used by
        :meth:`create_summary_table` and by persistence reload."""
        from repro.rewrite.index import summary_signature

        self.summary_tables[summary.name.lower()] = summary
        summary_signature(summary)
        self._bump_rewrite_epoch()

    def drop_summary_table(self, name: str) -> "SummaryTable":
        """Drop a summary table; returns it."""
        # The epoch bump happens strictly AFTER the structures change
        # (and the decision path captures its epoch strictly BEFORE
        # matching), so a concurrent query either sees the old epoch —
        # and its cached decision is invalidated on the next lookup — or
        # the new one with the summary already gone. Its executor runs
        # against the pinned tables either way (_execute's overlay).
        with self._catalog_lock:
            key = name.lower()
            if key not in self.summary_tables:
                raise CatalogError(f"no summary table named {name!r}")
            summary = self.summary_tables.pop(key)
            del self.tables[key]
            self.catalog.drop_table(name)
            self._prune_delta_log()
            self._bump_rewrite_epoch()
            return summary

    def refresh_summary_tables(
        self, names: Iterable[str] | None = None
    ) -> list["SummaryTable"]:
        """Recompute summary tables from the base data; returns them.

        ``names`` restricts the refresh to the given summary tables (so
        one stale AST can be refreshed without recomputing them all);
        ``None`` keeps the historical refresh-everything behavior.
        Refreshed deferred summaries become fully fresh: their staleness
        record is cleared and consumed delta-log batches are pruned.
        """
        # Preempt a background refresh of the same summaries: a manual
        # REFRESH must never block behind a stuck worker pass — the
        # worker yields at its next cooperative tick, flags the summary
        # for recompute, and this full recompute then satisfies it.
        from repro.asts.maintenance import recompute

        if names is not None:
            names = list(names)
        self._scheduler.interrupt(names)
        with self._catalog_lock, self._maintenance_lock:
            if names is None:
                targets = list(self.summary_tables.values())
            else:
                targets = []
                for name in names:
                    key = name.lower()
                    if key not in self.summary_tables:
                        raise CatalogError(f"no summary table named {name!r}")
                    targets.append(self.summary_tables[key])
            for summary in targets:
                recompute(self, summary, "REFRESH requested")
                self.note_recomputed(summary)
            self._prune_delta_log()
            self._bump_rewrite_epoch()
            return targets

    def note_recomputed(self, summary: "SummaryTable") -> None:
        """A full recompute (REFRESH, or recovery's rebuild) made
        ``summary`` current: it is fully fresh, a quarantined one is
        re-admitted — its contents are trustworthy again — and its
        failure history restarts from zero. Callers hold the
        maintenance lock and prune the delta log after."""
        state = summary.refresh
        state.pending_deltas = 0
        state.last_refresh_lsn = self._delta_log.lsn
        if state.quarantined:
            state.release_quarantine()
            self.emit("summary.readmit", summary=summary.name)
        self._scheduler.reset_attempts(summary.name)

    def set_summary_table_enabled(self, name: str, enabled: bool = True) -> None:
        """Toggle a summary table's availability for matching.

        (Assigning ``summary.enabled`` directly also works — the decision
        cache validates the enabled set per query — but this entry point
        additionally bumps the epoch, keeping the invalidation explicit.)
        """
        with self._catalog_lock:
            key = name.lower()
            if key not in self.summary_tables:
                raise CatalogError(f"no summary table named {name!r}")
            self.summary_tables[key].enabled = enabled
            self._bump_rewrite_epoch()

    def quarantine_summary(self, name: str, reason: str) -> None:
        """Exclude a summary table from rewrite routing entirely.

        Called by the refresh scheduler after its retry budget is
        exhausted and by :func:`repro.engine.persist.verify_database`
        when a snapshot cannot be rebuilt. The epoch bump (plus the
        admissible-set check) invalidates any cached decision that used
        the summary; a successful :meth:`refresh_summary_tables` on the
        name re-admits it. Unknown names are ignored — the summary may
        have been dropped while its failure was in flight.
        """
        with self._maintenance_lock:
            summary = self.summary_tables.get(name.lower())
            if summary is None:
                return
            summary.refresh.quarantine(reason)
            self.emit("summary.quarantine", summary=summary.name,
                         reason=reason)
            # Batches staged only for this summary are now dead weight —
            # re-admission recomputes from base tables.
            self._prune_delta_log()
            self._bump_rewrite_epoch()

    def quarantined_summary_tables(self) -> list["SummaryTable"]:
        return [
            s for s in self.summary_tables.values() if s.refresh.quarantined
        ]

    def _bump_rewrite_epoch(self) -> None:
        self._rewrite_epoch += 1

    @property
    def rewrite_epoch(self) -> int:
        """Monotonic counter bumped by every catalog mutation; anything
        derived from binding against the catalog (rewrite decisions,
        fingerprints) is valid only while this value is unchanged."""
        return self._rewrite_epoch

    def enabled_summary_tables(self) -> list["SummaryTable"]:
        # a snapshot first: a reader runs this while DDL adds or drops one
        return [s for s in list(self.summary_tables.values()) if s.enabled]

    def deferred_summary_tables(self) -> list["SummaryTable"]:
        return [
            s for s in self.summary_tables.values() if s.refresh.is_deferred
        ]

    # ------------------------------------------------------------------
    # The write pipeline
    # ------------------------------------------------------------------
    def insert_rows(self, table_name: str, rows: Iterable[Row]) -> WriteRun:
        """``INSERT`` as a library call: :meth:`run_write`, unjournaled."""
        from repro.sql.statements import InsertValues

        return self.run_write(InsertValues(table_name, tuple(map(tuple, rows))))

    def delete_rows(self, table_name: str, rows: Iterable[Row]) -> WriteRun:
        """Exact-row ``DELETE`` as a library call (see :meth:`insert_rows`)."""
        from repro.sql.statements import DeleteValues

        return self.run_write(DeleteValues(table_name, tuple(map(tuple, rows))))

    def run_write(
        self, statement, sql: str | None = None, *, journal=None,
        record=None, token: str | None = None,
    ) -> WriteRun:
        """The write pipeline: the one way an INSERT, DELETE, CREATE TABLE
        or CREATE/DROP/REFRESH SUMMARY TABLE is applied — in process, by
        the query server, on a standby, in journal replay.

        Under ``_catalog_lock``, the one writer lock, the write is
        validated and applied (:meth:`_apply_write`) and, given a
        ``journal``, staged there: ``sql`` with ``token`` and the run's
        status, or a standby's shipped ``record`` as it came. The commit
        runs outside the lock, so concurrent writes share one fsync —
        DDL and REFRESH commit inside, their undo being safe only before
        a later write builds on them. A journal failure takes the write
        back by its inverse, so an unjournaled write is never
        acknowledged; a failure inside the apply was already taken back
        by it (:func:`repro.asts.maintenance.maintain_insert`)."""
        from repro.replication.wal import mutation_kind

        kind = mutation_kind(statement)
        if kind is None:
            raise ReproError(f"not a write: {statement!r}")
        with self._catalog_lock:
            run, undo = self._apply_write(statement)
            try:
                if journal is not None:
                    run.lsn = (
                        journal.stage(kind, sql, token=token, status=run.status)
                        if record is None
                        else journal.stage_record(record)
                    )
                    if kind in ("ddl", "refresh"):
                        journal.commit(run.lsn)
            except BaseException:
                _undo(self, undo)
                raise
        if journal is not None and kind in ("insert", "delete"):
            try:
                journal.commit(run.lsn)
            except BaseException:
                # each writer of a failed group commit undoes its own
                # record; inserts and deletes commute
                with self._catalog_lock:
                    _undo(self, undo)
                raise
        return run

    def _apply_write(self, statement):
        """Apply ``statement``; returns its :class:`WriteRun` and its
        inverse, a callable."""
        from repro.sql.statements import (
            CreateSummaryTable,
            CreateTable,
            DropSummaryTable,
            InsertValues,
            RefreshSummaryTables,
        )

        if isinstance(statement, CreateTable):
            self._apply_create_table(statement)
            run = WriteRun(status=f"table {statement.name} created")
            return run, lambda: self._drop_table(statement.name)
        if isinstance(statement, CreateSummaryTable):
            summary = self.create_summary_table(
                statement.name, statement.sql, refresh_mode=statement.refresh_mode
            )
            deferred = ", refresh deferred" if summary.refresh.is_deferred else ""
            run = WriteRun(
                status=f"summary table {summary.name} created "
                f"({summary.row_count} rows{deferred})"
            )
            return run, lambda: self.drop_summary_table(summary.name)
        if isinstance(statement, DropSummaryTable):
            summary = self.drop_summary_table(statement.name)
            run = WriteRun(
                status=f"summary table {statement.name} dropped",
                evicted=_base_tables([summary]),
            )
            return run, lambda: self.create_summary_table(
                summary.name, summary.sql, refresh_mode=summary.refresh.mode
            )
        if isinstance(statement, RefreshSummaryTables):
            refreshed = self.refresh_summary_tables(statement.names or None)
            names = statement.names or [summary.name for summary in refreshed]
            run = WriteRun(
                status=f"refreshed: {', '.join(names) or '(no summary tables)'}",
                evicted=_base_tables(refreshed),
            )
            return run, lambda: None  # a recompute is content-idempotent

        def write(sign: int) -> WriteRun:
            run = self._write_rows(statement.table, statement.rows, sign)
            # outside the maintenance lock: the worker needs it to drain
            # a full queue
            self._scheduler.notify(run.deferred)
            return run

        sign = 1 if isinstance(statement, InsertValues) else -1
        run = write(sign)
        verb = "inserted into" if sign > 0 else "deleted from"
        run.status = run.describe(
            f"{len(statement.rows)} row(s) {verb} {statement.table}"
        )
        run.changed = statement.table
        return run, lambda: write(-sign)

    def _write_rows(self, table_name: str, rows, sign: int) -> WriteRun:
        """An INSERT's (``sign`` +1) or DELETE's (-1) apply: the base
        table changes with its REFRESH IMMEDIATE summaries, then the
        change is staged in the delta log for the affected, unquarantined
        REFRESH DEFERRED ones — ``run.deferred``, the scheduler's work
        list — or, if the log refuses it, they are recomputed inline."""
        from repro.asts.maintenance import maintain_delete, maintain_insert, recompute

        rows = [tuple(row) for row in rows]
        maintain = maintain_insert if sign > 0 else maintain_delete
        with self._maintenance_lock:
            immediate = [
                s for s in self.summary_tables.values() if not s.refresh.is_deferred
            ]
            run = maintain(self, table_name, rows, summaries=immediate)
            if not rows:
                return run
            key = self.catalog.table(table_name).name.lower()
            affected = []
            for summary in self.deferred_summary_tables():
                if key in summary.base_tables() and not summary.refresh.quarantined:
                    affected.append(summary)
                else:
                    run.unaffected.append(summary.name)
            if not affected:
                # No batch to stage, but the change must still advance the
                # table's high-water LSN: the staleness gate and the query
                # server's result cache key their freshness checks on it.
                self._delta_log.note_write(key)
                return run
            try:
                self._delta_log.append(key, rows, sign)
            except Exception as error:
                for summary in affected:
                    recompute(self, summary, "delta log append failed")
                    summary.refresh.pending_deltas = 0
                    summary.refresh.last_refresh_lsn = self._delta_log.lsn
                    run.recomputed[summary.name] = "delta log append failed"
                self._scheduler.errors.append(
                    f"delta log append failed ({error}); "
                    f"recomputed {', '.join(s.name for s in affected)} inline"
                )
                self._bump_rewrite_epoch()
                return run
            for summary in affected:
                summary.refresh.pending_deltas += 1
            # No epoch bump: cached decisions made under a tolerance that
            # the new staleness violates are invalidated by the
            # admissible-set check; looser tolerances stay valid.
            run.deferred = [summary.name for summary in affected]
        return run

    # ------------------------------------------------------------------
    # Deferred-refresh introspection and control
    # ------------------------------------------------------------------
    @property
    def delta_log(self):
        """The staged-change log (see :class:`repro.refresh.log.DeltaLog`)."""
        return self._delta_log

    @property
    def refresh_scheduler(self):
        """The background refresh worker
        (:class:`repro.refresh.scheduler.RefreshScheduler`)."""
        return self._scheduler

    def set_refresh_age(self, max_pending: int | None) -> None:
        """Session-level ``SET REFRESH AGE`` (None = ANY)."""
        from repro.refresh.policy import RefreshAge

        self.refresh_age = RefreshAge(max_pending)

    def drain_refresh(self) -> None:
        """Apply every staged delta and block until all deferred
        summaries are fully fresh (deterministic test/benchmark hook)."""
        stale = [
            summary.name
            for summary in self.deferred_summary_tables()
            if summary.refresh.is_stale
        ]
        if stale:
            self._scheduler.notify(stale)
        self._scheduler.drain()

    def close(self, force: bool = False) -> None:
        """Stop the background refresh worker.

        By default queued work is finished first; ``force=True`` cancels
        the in-flight refresh cooperatively (its summary is flagged for
        a full recompute on the next refresh) so ``close`` never blocks
        behind a stuck query.
        """
        self._scheduler.stop(cancel_inflight=force)

    def status(self) -> dict:
        """The database half of the ``status`` op / ``\\status``: memory
        broker, governor limits and admission/breaker state, refresh
        backlog and per-summary staleness, p50/p95/p99 of every live
        histogram, request-tracing state, the slow-query threshold and
        this database's newest :data:`STATUS_EVENTS` event-log entries.
        The query server adds role, replication, WAL and result cache."""
        from repro.resources.broker import BROKER

        scheduler, governor = self._scheduler, self.governor
        latency = {
            name: {key: metric[key] for key in ("count", "p50", "p95", "p99")}
            for name, metric in self.metrics.to_dict().items()
            if metric["type"] == "histogram" and metric["count"]
        }
        tracer = _spans.TRACER
        tracing: dict = {"enabled": tracer is not None}
        if tracer is not None:
            tracing.update(
                sample_rate=tracer.sample_rate,
                spans=len(tracer.buffer),
                dropped=tracer.buffer.dropped,
            )
        summaries = []
        for summary in self.summary_tables.values():
            state = summary.refresh
            entry = {
                "name": summary.name,
                "mode": state.mode,
                "pending_deltas": state.pending_deltas,
                "last_refresh_lsn": state.last_refresh_lsn,
            }
            if state.quarantined:
                entry["quarantined"] = True
                entry["quarantine_reason"] = state.quarantine_reason
            reason = scheduler.last_fallbacks.get(summary.name)
            if reason:
                entry["last_fallback"] = reason
            summaries.append(entry)
        events = [
            entry for entry in _events.tail(_events.LOG.capacity)
            if entry.get("database") == self.ident
        ]
        return {
            "memory": BROKER.snapshot(),
            "governor": {
                "limits": {
                    "timeout_ms": governor.timeout_ms,
                    "max_rows": governor.max_rows,
                    "max_mem": governor.max_mem,
                    "match_budget": governor.match_budget,
                },
                "admission": governor.admission.snapshot(),
                "breaker": governor.breaker.snapshot(),
            },
            "refresh": {
                "queued": scheduler.queued,
                "pending_retries": scheduler.pending_retries,
                "quarantined": sorted(
                    s.name for s in self.quarantined_summary_tables()
                ),
                "recomputes": self.metrics.series(
                    "maintenance_recomputes", "summary"
                ),
                "summaries": summaries,
            },
            "latency_ms": latency,
            "tracing": tracing,
            "slow_query_ms": self.slow_query_ms,
            "events": events[-STATUS_EVENTS:],
        }

    def _prune_delta_log(self) -> None:
        """Drop delta batches every deferred summary has consumed.

        Quarantined summaries don't pin the log: their re-admission path
        is a full recompute, which needs no staged batches.
        """
        deferred = [
            s
            for s in self.deferred_summary_tables()
            if not s.refresh.quarantined
        ]
        if not deferred:
            self._delta_log.prune(self._delta_log.lsn)
            return
        self._delta_log.prune(
            min(s.refresh.last_refresh_lsn for s in deferred)
        )


def _undo(database: Database, undo) -> None:
    """Take a write back. A failing undo is reported, not raised: the
    journal error that asked for it is what propagates, and the journal,
    not memory, is the durability source of truth."""
    try:
        undo()
    except Exception as error:  # noqa: BLE001
        database.emit("write.undo_failed", error=f"{type(error).__name__}: {error}")


def _base_tables(summaries) -> tuple[str, ...]:
    return tuple(sorted({t for summary in summaries for t in summary.base_tables()}))


def _schema_from_result(name: str, graph: QueryGraph, data: Table) -> TableSchema:
    """Derive a TableSchema for a materialized AST from its root box: a
    column's type is its first non-NULL value's (FLOAT when it has none,
    where the type does not matter)."""
    columns = []
    for qcl in graph.root.outputs:
        values = data.column_data(data.column_index(qcl.name))
        dtype = next(
            (infer_literal_type(v) for v in values if v is not None), DataType.FLOAT
        )
        columns.append(Column(qcl.name, dtype, nullable=qcl.nullable))
    return TableSchema(name, columns)


try:  # circular-import-free type hints for tooling
    from repro.asts.definition import SummaryTable  # noqa: E402
except ImportError:  # pragma: no cover
    pass
