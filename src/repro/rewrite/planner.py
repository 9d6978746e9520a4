"""Cost-based AST selection — related problem (b).

The paper delegates "should this AST actually be used" to prior work
([2]); we implement the standard size-based heuristic: a rewrite is
accepted only when the data scanned after the rewrite (summary-table rows
plus any rejoined dimension rows) is smaller than the data it replaces
(the base rows the matched query box would have scanned), or equal to it.

Usage::

    planner = CostPlanner(db)
    result = rewrite_query(graph, db.enabled_summary_tables(),
                           accept=planner.accept)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asts.definition import SummaryTable
from repro.matching.framework import MatchResult, chain_rejoin_quantifiers
from repro.qgm.boxes import BaseTableBox, QGMBox


@dataclass
class CostEstimate:
    """Row counts on both sides of a candidate rewrite."""

    replaced_rows: int  # base rows scanned by the subsumee's subtree
    rewritten_rows: int  # summary rows + rejoined rows

    @property
    def speedup(self) -> float:
        if self.rewritten_rows == 0:
            return float("inf")
        return self.replaced_rows / self.rewritten_rows


class CostPlanner:
    """Accept/reject rewrites by estimated scan volume."""

    def __init__(self, database):
        self._database = database
        self.decisions: list[tuple[str, CostEstimate, bool]] = []

    def estimate(self, summary: SummaryTable, match: MatchResult) -> CostEstimate:
        replaced = self._subtree_base_rows(match.subsumee)
        rewritten = summary.row_count
        for quantifier in chain_rejoin_quantifiers(match.chain):
            rewritten += self._subtree_base_rows(quantifier.box)
        return CostEstimate(replaced, rewritten)

    def accept(self, summary: SummaryTable, match: MatchResult) -> bool:
        estimate = self.estimate(summary, match)
        decision = estimate.speedup >= 1.0
        self.decisions.append((summary.name, estimate, decision))
        return decision

    def _subtree_base_rows(self, box: QGMBox) -> int:
        total = 0
        seen: set[int] = set()
        stack = [box]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            if isinstance(current, BaseTableBox):
                try:
                    total += len(self._database.table(current.table_name))
                except Exception:  # table may be virtual in tests
                    total += 0
            stack.extend(current.children())
        return total
