"""The per-run records of the SELECT and write pipelines, and the
SELECT's EXPLAIN renderings.

There is one way to run a SELECT — **prepare → sandboxed rewrite →
execute** (DESIGN.md, "SELECT pipeline"). The stages are
:class:`~repro.engine.database.Database` methods, because they work on
its catalog, shape cache and governor; what they hand from one to
the next is the :class:`SelectRun` defined here, and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` are pure renderings of that record — so the plan
they print is by construction the plan that ran.

There is one way to run a write — **validate → apply and stage →
commit, undone on failure** (DESIGN.md, "write pipeline"):
:meth:`Database.run_write`, whose record is the :class:`WriteRun`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.engine.table import Table
from repro.expr.nodes import Literal
from repro.obs import spans as _spans
from repro.qgm.boxes import QueryGraph
from repro.qgm.fingerprint import fingerprint, literal_slots


class KeptPlan(NamedTuple):
    """A SELECT's executable plan, kept to run its text again: the graph
    after the rewrite stage (an untouched template clone, which nothing
    mutates), the names of the summaries it reads — never their tables —
    and the :attr:`SelectRun.admissible` set and catalog epoch it was
    decided under."""

    graph: QueryGraph
    summaries: tuple[str, ...]
    admissible: frozenset | None
    epoch: int


@dataclass
class SelectRun:
    """One SELECT's trip through the pipeline: the per-run record.

    :meth:`Database.prepare_select` creates it — the statement bound
    once. The rewrite stage fills ``rewrite`` (or ``rewrite_error`` /
    ``degraded``), counts into ``rewrite_stats``, records verdicts in
    ``trace`` and leaves ``graph`` the graph to execute; the execute
    stage fills ``table`` and ``executor_stats``. EXPLAIN [ANALYZE]
    renders this record and nothing else, so what it prints is what this
    statement did, whatever other threads ran meanwhile."""

    #: the SQL text — what the sandbox re-binds from (None: a bound
    #: graph handed to ``Database.rewrite``)
    source: str | None
    #: the statement's text, for the match trace and the slow log
    sql: str | None
    label: str
    #: the bound graph (None: bound by substitution, see :attr:`graph`)
    bound_graph: InitVar[QueryGraph | None]
    #: ``Database.rewrite_epoch`` the statement was bound under
    epoch: int
    #: phase → milliseconds (bind, match, execute, total)
    phases: dict[str, float]
    #: this statement's fast-path counts
    #: (:class:`~repro.rewrite.cache.RewriteStats`), zero until the
    #: rewrite stage runs
    rewrite_stats: object
    base_tables: list[str] = field(init=False)
    #: the applied :class:`~repro.rewrite.rewriter.RewriteResult`
    rewrite: object = None
    #: why the sandbox fell back to base tables: a rewrite failure, or
    #: the governor's match-budget degradation
    rewrite_error: str | None = None
    degraded: str | None = None
    table: Table | None = None
    executor_stats: object = None
    #: the governor budget the run was scoped under (None: disarmed)
    budget: object = None
    #: the run's :class:`~repro.obs.trace.MatchTrace` when traced
    trace: object = None
    #: the bound graph's fingerprint, once :meth:`shape` has taken it
    graph_fingerprint: object = None
    #: how the bind cache bound it: "cold" (parsed and bound), "filed"
    #: (bound cold, its shape's template filed) or "substituted" (a
    #: template cloned with this statement's literals)
    bound: str = "cold"
    #: the shape cache's key of the text (of a run with no text, its
    #: graph's skeleton): what the circuit breaker and the query
    #: server's cost routing key on
    spelling: object = None
    #: the shape's entry (None: shape cache off), which holds the
    #: shape's rewrite decisions, and the statement's literal slots
    #: (:meth:`constants`)
    entry: object = None
    slots: tuple | None = None
    #: the bind template it was bound from (or filed) and its literals
    template: object = None
    values: list | None = None
    #: a plan template served the rewrite (one clone, no instantiation)
    planned: bool = False
    #: the names of the summaries the rewrite decision was offered (None:
    #: no decision — no rewrite stage, or the circuit breaker skipped it)
    admissible: frozenset | None = None
    #: the executed graph was an untouched template clone: it ran its
    #: template's memoised programs, and :meth:`plan` may keep it
    clone: bool = False

    def __post_init__(self, bound_graph: QueryGraph | None) -> None:
        if bound_graph is not None:
            self.graph = bound_graph
        self.base_tables = sorted((self.template or self).graph.base_tables())

    @cached_property
    def graph(self) -> QueryGraph:
        """The bound graph; from the rewrite stage on, the one to
        execute. Bound by substitution, it is cloned on first access."""
        return self.template.instantiate(self.values)

    def shape(self):
        """The bound graph's structural fingerprint, taken once. Ask
        before the rewrite stage, which mutates the graph in place."""
        if self.graph_fingerprint is None:
            self.graph_fingerprint = fingerprint(self.graph)
        return self.graph_fingerprint

    def constants(self) -> tuple:
        """The statement's :func:`~repro.qgm.fingerprint.literal_slots`
        (bound by substitution, its template's): ask before rewriting."""
        if self.slots is None:
            self.slots = (
                self.template.slots(self.values) if self.bound == "substituted"
                else literal_slots(self.shape())
            )
        return self.slots

    def result_key(self) -> tuple:
        """The result cache's key, equal exactly when the fingerprints
        are: skeleton, constants as literals, ORDER BY, LIMIT."""
        skeleton, kept, holes = self.constants()
        graph = (self.template or self).graph
        key = tuple(map(Literal, kept + holes))
        return skeleton, key, tuple(graph.order_by), graph.limit

    def plan(self) -> KeptPlan | None:
        """What a later run of the same text may execute instead
        (:meth:`Database.rerun`), or None: the run executed a graph of
        its own, or its rewrite failed or was degraded."""
        if not self.clone or self.rewrite_error or self.degraded:
            return None
        return KeptPlan(
            self.graph, tuple(self.overlay or ()), self.admissible, self.epoch
        )

    @property
    def overlay(self) -> dict[str, Table] | None:
        """``{summary name: table}`` for the summaries the rewrite
        applied — the executor's shield against a concurrent ``DROP
        SUMMARY TABLE``."""
        if self.rewrite is None or not self.rewrite.applied:
            return None
        return {
            step.summary.name.lower(): step.summary.table
            for step in self.rewrite.applied
        }


@dataclass
class WriteRun:
    """One write's trip through :meth:`Database.run_write`: how each
    summary followed it, the status the client sees, the journal LSN
    (None: unjournaled) and what the server's result cache drops —
    entries over the base table an INSERT or DELETE ``changed``, or over
    the tables under the summaries a DROP or REFRESH ``evicted``."""

    incremental: list[str] = field(default_factory=list)
    recomputed: dict[str, str] = field(default_factory=dict)  # name → why
    deferred: list[str] = field(default_factory=list)  # staged, not applied
    unaffected: list[str] = field(default_factory=list)
    status: str = ""
    lsn: int | None = None
    changed: str | None = None
    evicted: tuple[str, ...] = ()

    def was_incremental(self, name: str) -> bool:
        return name in self.incremental

    def describe(self, prefix: str) -> str:
        """An INSERT's or DELETE's status: ``prefix`` plus how the
        summaries were maintained."""
        notes = []
        if self.incremental:
            notes.append(f"incremental: {', '.join(self.incremental)}")
        if self.recomputed:
            notes.append(f"recomputed: {', '.join(self.recomputed)}")
        if self.deferred:
            notes.append(f"deferred: {', '.join(self.deferred)}")
        return f"{prefix} ({'; '.join(notes)})" if notes else prefix


def render_explain(run: SelectRun, graph_text: str) -> str:
    """``EXPLAIN``: the QGM graph as bound (``graph_text``, rendered
    before the rewrite stage mutated it), the rewrite decision, and the
    statement's fast-path counts."""
    from repro.qgm.display import render_graph

    lines = ["-- query graph --", graph_text]
    lines.extend(_fallback_notes(run, "would run"))
    if run.rewrite is None:
        lines.append("-- no summary-table rewrite applies --")
    else:
        lines.extend(_rewrite_section(run))
        lines.append("-- rewritten graph --")
        lines.append(render_graph(run.graph))
    lines.append("-- matching fast path --")
    lines.append(_describe_fast_path(run.rewrite_stats))
    return "\n".join(lines)


def render_analyze(run: SelectRun, has_summaries: bool) -> str:
    """``EXPLAIN ANALYZE``: the executed run's phases (the bind row says
    how the bind cache bound it; parse is inside its window), per-AST
    match verdicts, executor and governor sections, rewrite and row
    count."""
    trace = run.trace
    span_trace = _spans.current_trace_id()
    lines = [
        "-- EXPLAIN ANALYZE --" if span_trace is None
        else f"-- EXPLAIN ANALYZE (trace_id {span_trace}) --"
    ]
    lines.append("-- phases --")
    parse_ms = run.phases.get("parse", 0.0)
    phase_rows = [
        ("parse", parse_ms),
        ("bind", run.phases["bind"] - parse_ms),
        ("match", run.phases.get("match", 0.0)),
        ("compensate", trace.phases.get("compensate", 0.0)),
        ("execute", run.phases["execute"]),
        ("total", run.phases["total"]),
    ]
    bound = run.bound + (", plan template served" if run.planned else "")
    for name, ms in phase_rows:
        note = f"  ({bound})" if name == "bind" else ""
        lines.append(f"  {name:<11}{ms:>10.3f} ms{note}")
    lines.append("-- match verdicts --")
    rows = trace.verdict_rows()
    if not rows:
        lines.append(
            "  (no candidates admissible for this query)"
            if has_summaries
            else "  (no summary tables registered)"
        )
    else:
        name_w = max(len("summary"), max(len(r[0]) for r in rows))
        verdict_w = max(len("verdict"), max(len(r[1]) for r in rows))
        lines.append(f"  {'summary':<{name_w}}  {'verdict':<{verdict_w}}  detail")
        for name, verdict, detail in rows:
            lines.append(f"  {name:<{name_w}}  {verdict:<{verdict_w}}  {detail}")
    lines.extend(_fallback_notes(run, "ran"))
    lines.append("-- executor --")
    lines.extend(run.executor_stats.describe_lines())
    if run.budget is not None:
        lines.append("-- governor --")
        lines.extend(run.budget.describe_lines())
    if run.rewrite is not None:
        lines.extend(_rewrite_section(run))
    lines.append(f"-- result: {len(run.table)} row(s) --")
    lines.append("-- matching fast path --")
    lines.append(_describe_fast_path(run.rewrite_stats))
    return "\n".join(lines)


def _rewrite_section(run: SelectRun) -> list[str]:
    return [
        "-- rewrite --", run.rewrite.explain(),
        "-- rewritten SQL --", run.rewrite.sql,
    ]


def _describe_fast_path(stats) -> str:
    """One-line rendering of one statement's fast-path counts."""
    parts = [
        f"candidates: {stats.candidates_considered} considered, "
        f"{stats.candidates_pruned} pruned by index"
    ]
    if stats.cache_hits:
        parts.append("decision cache: template hit")
    elif stats.cache_negative_hits:
        parts.append("decision cache: hit (no-rewrite)")
    elif stats.cache_misses:
        parts.append("decision cache: miss")
    else:
        parts.append("decision cache: off")
    parts.append(f"matches attempted: {stats.matches_attempted}")
    if stats.stale_rejections:
        parts.append(
            f"stale summaries rejected: {stats.stale_rejections} "
            "(raise REFRESH AGE or drain the refresh queue)"
        )
    if stats.quarantined_rejections:
        parts.append(
            f"quarantined summaries excluded: {stats.quarantined_rejections} "
            "(REFRESH SUMMARY TABLE re-admits)"
        )
    if stats.rewrite_errors:
        parts.append(
            f"rewrite errors sandboxed: {stats.rewrite_errors} "
            "(query fell back to base tables)"
        )
    return "; ".join(parts)


def _fallback_notes(run: SelectRun, tense: str) -> list[str]:
    """EXPLAIN [ANALYZE]'s lines for a sandboxed rewrite: why the query
    ``tense`` ("ran" / "would run") on base tables."""
    notes = []
    if run.rewrite_error is not None:
        notes.append(
            f"-- rewrite failed ({run.rewrite_error}); "
            f"query {tense} on base tables --"
        )
    if run.degraded is not None:
        notes.append(
            f"-- governor degraded the query ({run.degraded}); "
            f"{tense} on base tables --"
        )
    return notes
