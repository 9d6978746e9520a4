"""Query rewriting: apply a match to reroute a query over an AST.

Given a match between a query box E and an AST's root box, the rewrite
splices the match's compensation chain onto a scan of the materialized
summary table and re-points E's consumers at the chain top. Rewriting is
iterative (Section 7): after a successful rewrite the result is matched
against the remaining ASTs, so one query can combine several summary
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asts.definition import SummaryTable
from repro.expr.nodes import ColumnRef
from repro.matching.framework import MAIN, MatchResult, rebase_chain
from repro.matching.navigator import match_graphs, root_matches
from repro.qgm.boxes import BaseTableBox, QCL, QGMBox, QueryGraph, SelectBox, box_heights
from repro.rewrite.index import bears_constants, prune_candidates
from repro.testing import faults


@dataclass
class AppliedRewrite:
    """One accepted match, for explain output and decision-cache replay.

    ``subsumee_index`` is the matched box's position in ``graph.boxes()``
    immediately before this match was applied — enough, together with the
    match's compensation chain, to replay the application on a freshly
    bound structurally identical graph.
    """

    summary: SummaryTable
    match: MatchResult
    subsumee_index: int = -1

    def describe(self) -> str:
        return f"{self.summary.name}: {self.match.describe()}"


@dataclass
class RewriteResult:
    """The outcome of :func:`rewrite_query`."""

    graph: QueryGraph
    applied: list[AppliedRewrite] = field(default_factory=list)

    @property
    def summary_tables(self) -> list[SummaryTable]:
        return [entry.summary for entry in self.applied]

    @property
    def sql(self) -> str:
        """The rewritten query rendered back to SQL."""
        from repro.qgm.unparse import to_sql

        return to_sql(self.graph)

    def explain(self) -> str:
        lines = [entry.describe() for entry in self.applied]
        return "\n".join(lines) if lines else "(no rewrite applied)"


def rewrite_query(
    graph: QueryGraph,
    summaries: list[SummaryTable],
    accept=None,
    options: dict | None = None,
    stats=None,
    prune: bool = True,
    trace=None,
    hint=None,
) -> RewriteResult | None:
    """Reroute ``graph`` over the given summary tables.

    ``accept`` is an optional callback ``(summary, match) -> bool`` — the
    related problem (b) hook; :mod:`repro.rewrite.planner` provides a
    cost-based implementation. ``options`` are matcher knobs (see
    :data:`repro.matching.framework.DEFAULT_OPTIONS`). ``stats`` is an
    optional :class:`repro.rewrite.cache.RewriteStats` counter sink and
    ``trace`` the statement's :class:`repro.obs.trace.MatchTrace`; both
    belong to this one rewrite and are only ever handed down.
    ``prune`` routes candidates through the AST signature index
    (:func:`repro.rewrite.index.prune_candidates`) before any navigation;
    disabling it (the pre-index behaviour, kept for the ablation
    benchmarks) falls back to the bare base-table-overlap check. Returns
    None when nothing matched.

    ``hint`` is the decision an earlier query of the same *shape* got
    (:func:`repro.qgm.fingerprint.shape_key`): one step per iteration
    naming the winner (``summary_name``), its ``subsumee_index`` and
    ``pattern``, after which the loop stopped. It only narrows what is
    matched first — the planned winner plus every summary that
    :func:`~repro.rewrite.index.bears_constants` — and nothing is
    applied that this graph's own match did not prove. The first
    iteration whose outcome differs from the hint matches the summaries
    it had set aside and the hint is dropped, so the decision is always
    the one an unhinted call makes.
    """
    applied: list[AppliedRewrite] = []
    remaining = list(summaries)
    while remaining:
        # One walk of the graph per iteration; an applied rewrite
        # changes it, so neither the order nor the heights carry over.
        order = graph.boxes()
        positions = {id(box): position for position, box in enumerate(order)}
        heights = box_heights(graph, order)
        # Cheap signature pruning first — re-run per iteration because an
        # applied rewrite changes the graph's base tables.
        if prune:
            pool = prune_candidates(
                graph, remaining, stats=stats, trace=trace, order=order
            )
        else:
            query_tables = graph.base_tables()
            pool = [s for s in remaining if s.base_tables() & query_tables]
            if stats is not None:
                stats.candidates_considered += len(remaining)
                stats.candidates_pruned += len(remaining) - len(pool)
        # Equally good candidates go to the earlier summary, wherever a
        # hint made it wait.
        pool_rank = {id(s): rank for rank, s in enumerate(pool)}
        set_aside: list[SummaryTable] = []
        if hint is not None:
            planned = hint[len(applied)] if len(applied) < len(hint) else None
            winner = None if planned is None else planned.summary_name
            narrowed = []
            for s in pool:
                if s.name.lower() == winner or bears_constants(s):
                    narrowed.append(s)
                else:
                    set_aside.append(s)
            pool = narrowed

        # Gather every candidate (summary, match) and take the best one:
        # the highest query box saved, then the smallest summary table
        # (a lightweight instance of related problem (b)).
        candidates: list[tuple] = []

        def gather(batch: list[SummaryTable]) -> None:
            for summary in batch:
                if stats is not None:
                    stats.matches_attempted += 1
                match = _best_match(graph, summary, order, heights, options, trace)
                if match is not None:
                    candidates.append((
                        -heights.get(id(match.subsumee), 0),
                        summary.row_count, pool_rank[id(summary)],
                        summary, match,
                    ))

        gather(pool)
        chosen = _choose(candidates, accept, remaining)
        if hint is not None:
            if _as_planned(chosen, planned, positions):
                if trace is not None:
                    for summary in set_aside:
                        trace.verdict(
                            summary.name, "cache-hit",
                            "verdict carried over from this query shape",
                        )
            else:
                hint = None
                gather(set_aside)
                chosen = _choose(candidates, accept, remaining)
        if chosen is None:
            break
        summary, match = chosen
        apply_match(graph, match, summary, trace)
        applied.append(
            AppliedRewrite(summary, match, positions[id(match.subsumee)])
        )
        if stats is not None:
            stats.rewrites_applied += 1
        if trace is not None:
            trace.mark_applied(summary.name)
        remaining.remove(summary)
    if not applied:
        return None
    graph.validate()
    return RewriteResult(graph, applied)


def _choose(candidates: list[tuple], accept, remaining: list[SummaryTable]):
    """The best acceptable ``(summary, match)`` of ``candidates`` or
    None; a summary ``accept`` turns down leaves both lists."""
    candidates.sort(key=lambda item: item[:3])
    while candidates:
        summary, match = candidates[0][3:]
        if accept is None or accept(summary, match):
            return summary, match
        remaining.remove(summary)
        del candidates[0]
    return None


def _as_planned(chosen, planned, positions: dict[int, int]) -> bool:
    """Did this iteration end the way the hint's step says — the same
    winner at the same box by the same pattern, or no winner at all?"""
    if chosen is None or planned is None:
        return chosen is None and planned is None
    summary, match = chosen
    return (
        summary.name.lower() == planned.summary_name
        and positions[id(match.subsumee)] == planned.subsumee_index
        and match.pattern == planned.pattern
    )


def _best_match(
    graph: QueryGraph, summary: SummaryTable, order: list[QGMBox],
    heights: dict[int, int], options: dict | None = None, trace=None,
) -> MatchResult | None:
    faults.fire("rewrite.match")
    if trace is not None:
        trace.begin_summary(summary.name, summary.graph.root)
    match = None
    try:
        ctx = match_graphs(graph, summary.graph, options, trace, order=order)
        candidates = root_matches(graph, summary.graph, ctx, heights=heights)
        match = candidates[0] if candidates else None
    finally:
        if trace is not None:
            trace.end_summary(match)
    return match


def apply_match(
    graph: QueryGraph, match: MatchResult, summary: SummaryTable, trace=None
) -> QGMBox:
    """Destructively replace ``match.subsumee`` in ``graph`` with the
    compensation applied to a scan of the summary table (timed as the
    ``compensate`` phase of ``trace``, when given). Returns the new box
    standing in for the subsumee."""
    started = trace.clock() if trace is not None else 0.0
    scan = BaseTableBox(f"Scan[{summary.name}]", summary.schema)
    counter = [0]

    def fresh(box: QGMBox) -> str:
        counter[0] += 1
        return f"{box.name}@{counter[0]}"

    if match.exact:
        # Footnote 5: exact up to extra subsumer columns / names; a thin
        # projection restores the subsumee's exact output signature.
        replacement: QGMBox = _projection(match, scan)
    else:
        rebased = rebase_chain(match.chain, scan, fresh)
        replacement = rebased[-1]

    parents = graph.parents_of(match.subsumee)
    for _, quantifier in parents:
        quantifier.box = replacement
    if graph.root is match.subsumee:
        graph.root = replacement
    if trace is not None:
        trace.add_phase("compensate", started)
    return replacement


def _projection(match: MatchResult, scan: BaseTableBox) -> SelectBox:
    projection = SelectBox(f"Project[{match.subsumee.name}]")
    projection.add_quantifier(MAIN, scan)
    for qcl in match.subsumee.outputs:
        projection.add_output(
            QCL(
                qcl.name,
                ColumnRef(MAIN, match.column_map[qcl.name]),
                qcl.nullable,
            )
        )
    return projection
