"""The SELECT pipeline's per-run record and its EXPLAIN renderings.

There is one way to run a SELECT — **prepare → sandboxed rewrite →
execute** (DESIGN.md, "SELECT pipeline"). The stages are
:class:`~repro.engine.database.Database` methods, because they work on
its catalog, decision cache and governor; what they hand from one to
the next is the :class:`SelectRun` defined here, and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` are pure renderings of that record — so the plan
they print is by construction the plan that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.table import Table
from repro.obs import spans as _spans
from repro.qgm.boxes import QueryGraph
from repro.qgm.fingerprint import fingerprint


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

    #: SQL text or parsed statement — what the sandbox re-binds from
    source: object
    #: the statement's text, for the match trace and the slow log
    sql: str | None
    label: str
    #: the bound graph; from the rewrite stage on, the one to execute
    graph: QueryGraph
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

    def __post_init__(self) -> None:
        self.base_tables = sorted(self.graph.base_tables())

    def shape(self):
        """The bound graph's structural fingerprint, taken once. Ask
        before the rewrite stage, which mutates the graph in place."""
        if self.graph_fingerprint is None:
            self.graph_fingerprint = fingerprint(self.graph)
        return self.graph_fingerprint

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


def render_analyze(run: SelectRun, parse_ms: float, has_summaries: bool) -> str:
    """``EXPLAIN ANALYZE``: the executed run's phases, per-AST match
    verdicts, executor and governor sections, rewrite and row count."""
    trace = run.trace
    span_trace = _spans.current_trace_id()
    lines = [
        f"-- EXPLAIN ANALYZE (trace #{trace.trace_id}"
        + (f", trace_id {span_trace}" if span_trace is not None else "")
        + ") --"
    ]
    lines.append("-- phases --")
    phase_rows = [
        ("parse", parse_ms),
        ("bind", run.phases["bind"]),
        ("match", run.phases.get("match", 0.0)),
        ("compensate", trace.phases.get("compensate", 0.0)),
        ("execute", run.phases["execute"]),
        ("total", parse_ms + run.phases["total"]),
    ]
    for name, ms in phase_rows:
        lines.append(f"  {name:<11}{ms:>10.3f} ms")
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
    if stats.cache_shape_hits:
        parts.append(
            f"decision cache: shape hit ({stats.matches_attempted} re-matched)"
        )
    elif stats.cache_hits:
        parts.append("decision cache: hit (rewrite replayed)")
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
