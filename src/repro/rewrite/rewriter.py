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
from repro.matching.framework import (
    MAIN,
    MatchResult,
    chain_rejoin_quantifiers,
    rebase_chain,
)
from repro.matching.navigator import match_graphs, root_matches
from repro.qgm.boxes import BaseTableBox, QCL, QGMBox, QueryGraph, SelectBox, box_heights
from repro.rewrite.index import prune_candidates
from repro.testing import faults


@dataclass
class AppliedRewrite:
    """One accepted match, for explain output and the decision cache.

    ``subsumee_index`` is the matched box's position in ``graph.boxes()``
    immediately before this match was applied, and ``rejoins`` the
    positions there of the boxes the chain's rejoin quantifiers range
    over — enough, together with the match's compensation chain, to
    instantiate the application on a freshly bound graph of the same
    shape (:func:`instantiate`).
    """

    summary: SummaryTable
    match: MatchResult
    subsumee_index: int = -1
    rejoins: tuple[int, ...] = ()

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
    graph: QueryGraph, summaries: list[SummaryTable], stats=None, trace=None,
) -> RewriteResult | None:
    """Reroute ``graph`` over the given summary tables.

    Each round prunes the candidates through the AST signature index
    (:func:`repro.rewrite.index.prune_candidates`), matches the rest and
    applies the best match (:func:`_choose`). ``stats`` is an optional
    :class:`repro.rewrite.cache.RewriteStats` counter sink and ``trace``
    the statement's :class:`repro.obs.trace.MatchTrace`; both belong to
    this one rewrite and are only ever handed down. Returns None when
    nothing matched.
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
        pool = prune_candidates(
            graph, remaining, stats=stats, trace=trace, order=order
        )
        candidates: list[tuple] = []
        for rank, summary in enumerate(pool):
            if stats is not None:
                stats.matches_attempted += 1
            match = _best_match(graph, summary, order, heights, trace)
            if match is not None:
                candidates.append((
                    -heights.get(id(match.subsumee), 0),
                    summary.row_count, rank, summary, match,
                ))
        if not candidates:
            break
        summary, match = _choose(candidates)
        rejoins = tuple(
            positions[id(quantifier.box)]
            for quantifier in chain_rejoin_quantifiers(match.chain)
        )
        apply_match(graph, match, summary, trace)
        applied.append(AppliedRewrite(
            summary, match, positions[id(match.subsumee)], rejoins
        ))
        if stats is not None:
            stats.rewrites_applied += 1
        if trace is not None:
            trace.mark_applied(summary.name)
        remaining.remove(summary)
    if not applied:
        return None
    graph.validate()
    return RewriteResult(graph, applied)


def instantiate(
    graph: QueryGraph, steps, summaries: dict[str, SummaryTable],
    literals: dict | None = None, trace=None,
) -> RewriteResult:
    """Apply a cached decision's :class:`~repro.rewrite.cache.CachedStep`
    templates to ``graph``, a fresh binding of their shape, matching
    nothing: each chain is cloned once onto a scan of its summary
    (``summaries`` maps lower-case names to them), ``literals``
    substituted."""
    applied: list[AppliedRewrite] = []
    for step in steps:
        order = graph.boxes()
        summary = summaries[step.summary_name]
        match = MatchResult(
            subsumee=order[step.subsumee_index],
            subsumer=summary.graph.root,
            chain=list(step.chain),
            column_map=dict(step.column_map),
            pattern=step.pattern,
        )
        rejoins = [order[position] for position in step.rejoins]
        apply_match(graph, match, summary, trace, literals, rejoins)
        applied.append(
            AppliedRewrite(summary, match, step.subsumee_index, step.rejoins)
        )
    graph.validate()
    return RewriteResult(graph, applied)


def _choose(candidates: list[tuple]) -> tuple[SummaryTable, MatchResult]:
    """The best ``(summary, match)`` of ``candidates``: the highest query
    box saved (Section 7), then the smallest summary table, then the
    earlier summary. Ranks are unique, so nothing ties."""
    return min(candidates, key=lambda item: item[:3])[3:]


def _best_match(
    graph: QueryGraph, summary: SummaryTable, order: list[QGMBox],
    heights: dict[int, int], trace=None,
) -> MatchResult | None:
    faults.fire("rewrite.match")
    if trace is not None:
        trace.begin_summary(summary.name, summary.graph.root)
    match = None
    try:
        ctx = match_graphs(graph, summary.graph, trace=trace, order=order)
        candidates = root_matches(graph, summary.graph, ctx, heights=heights)
        match = candidates[0] if candidates else None
    finally:
        if trace is not None:
            trace.end_summary(match)
    return match


def apply_match(
    graph: QueryGraph, match: MatchResult, summary: SummaryTable, trace=None,
    literals: dict | None = None, rejoins: list[QGMBox] | None = None,
) -> QGMBox:
    """Destructively replace ``match.subsumee`` in ``graph`` with the
    compensation applied to a scan of the summary table (timed as the
    ``compensate`` phase of ``trace``, when given). ``literals`` and
    ``rejoins`` instantiate a cached template as the chain is cloned
    (:func:`repro.matching.framework.rebase_chain`). Returns the new box
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
        rebased = rebase_chain(
            match.chain, scan, fresh, literals,
            None if rejoins is None else iter(rejoins),
        )
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
