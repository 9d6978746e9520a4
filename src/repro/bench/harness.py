"""Experiment harness shared by the benchmark suite.

Each paper figure becomes an :class:`Experiment`: a database setup, a
summary-table definition, and a query. The harness verifies the rewrite
(the right pattern fired, the results are identical) and measures both
plans so the benchmark can report the original-vs-rewritten comparison
that EXPERIMENTS.md records.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.table import Table, tables_equal
from repro.errors import ReproError
from repro.qgm.boxes import QueryGraph


def bench_scale() -> float:
    """Benchmark data scale factor (REPRO_SCALE env var, default 1.0)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass
class ExperimentRun:
    """Measured outcome of one original-vs-rewritten comparison."""

    name: str
    original_seconds: float
    rewritten_seconds: float
    original_rows: int
    rewritten_rows: int
    summary_rows: int
    base_rows: int
    explanation: str

    @property
    def speedup(self) -> float:
        if self.rewritten_seconds == 0:
            return float("inf")
        return self.original_seconds / self.rewritten_seconds



@dataclass
class Experiment:
    """One figure's experiment: DB + AST(s) + query."""

    name: str
    database: Database
    query: str
    expected_pattern: str | None = None
    rewritten_graph: QueryGraph | None = None
    explanation: str = ""
    _original: Table | None = field(default=None, repr=False)

    def prepare(self) -> "Experiment":
        """Run the matcher once and verify correctness of the rewrite."""
        result = self.database.rewrite(self.query)
        if result is None:
            raise ReproError(f"{self.name}: expected a rewrite, got none")
        if self.expected_pattern is not None:
            patterns = {entry.match.pattern for entry in result.applied}
            if self.expected_pattern not in patterns:
                raise ReproError(
                    f"{self.name}: expected pattern {self.expected_pattern}, "
                    f"got {patterns}"
                )
        self.rewritten_graph = result.graph
        self.explanation = result.explain()
        original = self.run_original()
        rewritten = self.run_rewritten()
        if not tables_equal(original, rewritten):
            raise ReproError(
                f"{self.name}: rewritten plan returns different rows"
            )
        return self

    def run_original(self) -> Table:
        return self.database.execute(self.query, use_summary_tables=False)

    def run_rewritten(self) -> Table:
        if self.rewritten_graph is None:
            raise ReproError(f"{self.name}: prepare() has not run")
        return self.database.execute_graph(self.rewritten_graph)

    def measure(self, repeat: int = 3) -> ExperimentRun:
        """Best-of-N wall-clock comparison of the two plans."""
        original = min(self._time(self.run_original) for _ in range(repeat))
        rewritten = min(self._time(self.run_rewritten) for _ in range(repeat))
        summary_rows = sum(
            summary.row_count for summary in self.database.summary_tables.values()
        )
        base_rows = len(self.database.table("Trans")) if self.database.catalog.has_table("Trans") else 0
        return ExperimentRun(
            name=self.name,
            original_seconds=original,
            rewritten_seconds=rewritten,
            original_rows=len(self.run_original()),
            rewritten_rows=len(self.run_rewritten()),
            summary_rows=summary_rows,
            base_rows=base_rows,
            explanation=self.explanation,
        )

    @staticmethod
    def _time(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
