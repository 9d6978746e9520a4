"""AST selection under a space budget — related problem (a).

The paper cites Harinarayan/Rajaraman/Ullman ("Implementing Data Cubes
Efficiently") for choosing which summary tables to create. We implement
that algorithm: candidate views are the cuboids of a fact table's
dimension-attribute lattice, the cost of answering a cuboid query is the
size of the smallest materialized view that subsumes it (the raw fact
table is always available), and views are picked greedily by total
benefit until the row budget is exhausted.

The selected views are ordinary SQL texts; feeding them to
``Database.create_summary_table`` plugs the advisor's output straight
into the matcher.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CandidateView:
    """One cuboid of the lattice."""

    attributes: frozenset[str]
    rows: int
    sql: str

    def answers(self, other: "CandidateView") -> bool:
        """Can this view answer queries grouped as ``other``?"""
        return other.attributes <= self.attributes

    def label(self) -> str:
        return "(" + ", ".join(sorted(self.attributes)) + ")" if self.attributes else "()"


@dataclass
class AdvisorResult:
    selected: list[CandidateView]
    steps: list[tuple[CandidateView, float]] = field(default_factory=list)
    total_rows: int = 0

    def describe(self) -> str:
        lines = [
            f"pick {view.label():<40} rows={view.rows:<8} benefit={benefit:.0f}"
            for view, benefit in self.steps
        ]
        lines.append(f"total materialized rows: {self.total_rows}")
        return "\n".join(lines)


class Advisor:
    """Greedy HRU-style lattice advisor.

    ``attributes`` maps a column alias to its grouping expression over the
    fact table (e.g. ``{"year": "year(date)", "flid": "flid"}``);
    ``measures`` are the aggregate select-items every candidate carries
    (default ``COUNT(*)``, which rules (a)-(c) can re-derive the most
    from).
    """

    def __init__(
        self,
        database,
        fact_table: str,
        attributes: dict[str, str],
        measures: list[str] | None = None,
    ):
        self._database = database
        self._fact = fact_table
        self._attributes = dict(attributes)
        self._measures = list(measures or ["count(*) as cnt"])
        self._candidates: list[CandidateView] | None = None

    # ------------------------------------------------------------------
    def candidates(self) -> list[CandidateView]:
        """All cuboids with measured (exact) sizes, largest first."""
        if self._candidates is not None:
            return self._candidates
        names = sorted(self._attributes)
        found: list[CandidateView] = []
        for size in range(len(names), -1, -1):
            for subset in itertools.combinations(names, size):
                view = self._build_candidate(frozenset(subset))
                found.append(view)
        self._candidates = found
        return found

    def _build_candidate(self, attributes: frozenset[str]) -> CandidateView:
        select_parts = [
            f"{self._attributes[name]} as {name}" for name in sorted(attributes)
        ]
        select_parts.extend(self._measures)
        sql = f"select {', '.join(select_parts)} from {self._fact}"
        if attributes:
            keys = ", ".join(self._attributes[name] for name in sorted(attributes))
            sql += f" group by {keys}"
        else:
            sql += " group by grouping sets (())"
        return CandidateView(attributes, self._measure_rows(sql), sql)

    def _measure_rows(self, sql: str) -> int:
        probe = f"select count(*) as n from ({sql}) as probe"
        result = self._database.execute(probe, use_summary_tables=False)
        return int(result.rows[0][0])

    # ------------------------------------------------------------------
    def select(
        self, budget_rows: int, max_views: int | None = None
    ) -> AdvisorResult:
        """Greedy benefit-per-HRU selection under a total row budget."""
        lattice = self.candidates()
        fact_rows = len(self._database.table(self._fact))
        # cost[w] = rows of the cheapest materialized view answering w;
        # initially only the raw fact table is available.
        cost = {view.attributes: fact_rows for view in lattice}
        result = AdvisorResult(selected=[])
        remaining = [view for view in lattice if view.rows <= budget_rows]
        while remaining and (max_views is None or len(result.selected) < max_views):
            best: CandidateView | None = None
            best_benefit = 0.0
            for view in remaining:
                if result.total_rows + view.rows > budget_rows:
                    continue
                benefit = sum(
                    max(0, cost[w.attributes] - view.rows)
                    for w in lattice
                    if view.answers(w)
                )
                if benefit > best_benefit:
                    best = view
                    best_benefit = benefit
            if best is None:
                break
            result.selected.append(best)
            result.steps.append((best, best_benefit))
            result.total_rows += best.rows
            remaining.remove(best)
            for w in lattice:
                if best.answers(w) and best.rows < cost[w.attributes]:
                    cost[w.attributes] = best.rows
        return result

    def create_selected(
        self, result: AdvisorResult, prefix: str = "ADV"
    ) -> list[str]:
        """Materialize the chosen views as summary tables; returns names."""
        names = []
        for index, view in enumerate(result.selected, start=1):
            name = f"{prefix}{index}"
            self._database.create_summary_table(name, view.sql)
            names.append(name)
        return names
