"""Aggregate-function accumulators for the GROUP-BY operator.

SQL semantics: NULL inputs are ignored by every aggregate except
COUNT(*); over an empty input COUNT yields 0 and the others yield NULL
(an empty input only arises for the grand-total grouping set of an empty
table). DISTINCT variants deduplicate before accumulating.
"""

from __future__ import annotations

import operator
from typing import Any

from repro.errors import ExecutionError
from repro.expr.nodes import AggCall


class Accumulator:
    """One aggregate computation over one group."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountStar(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count


class Count(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> Any:
        return self.count


class Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class Avg(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value
        self.count += 1

    def result(self) -> Any:
        if self.count == 0:
            return None
        return self.total / self.count


class Min(Accumulator):
    #: the comparison a value must win to replace the best so far
    wins = operator.lt

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or self.wins(value, self.best)):
            self.best = value

    def result(self) -> Any:
        return self.best


class Max(Min):
    wins = operator.gt


class Distinct(Accumulator):
    """Wraps another accumulator, feeding it each non-NULL value once."""

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_PLAIN = {"count": Count, "sum": Sum, "avg": Avg, "min": Min, "max": Max}


def make_accumulator(call: AggCall) -> Accumulator:
    """Build a fresh accumulator for ``call``."""
    if call.func == "count" and call.arg is None:
        return CountStar()
    factory = _PLAIN.get(call.func)
    if factory is None:
        raise ExecutionError(f"unknown aggregate {call.func!r}")
    accumulator = factory()
    if call.distinct:
        return Distinct(accumulator)
    return accumulator


# ----------------------------------------------------------------------
# Generated folds + partial-state algebra (the batch executor)
# ----------------------------------------------------------------------
# The columnar executor folds every aggregate of every grouping set into
# its group's state inside one generated loop (the folds are
# :mod:`repro.expr.vector`'s, one statement per kind doing what the
# accumulators above do), instead of a method call per row, and a
# spilled GROUP BY carries *mergeable partial states* per group between
# its runs:
#
#   COUNT(*) / COUNT(x)  int            merged by addition
#   SUM(x)               value | None   merged by NULL-aware addition
#   AVG(x)               [sum, count]   merged component-wise
#   MIN(x) / MAX(x)      value | None   merged by comparison
#   DISTINCT variants    set of values  merged by union
#
# This is the same re-derivation algebra as the rewriter's rules (a)–(g)
# in repro/matching/derivation.py: a partition plays the role of a
# summary-table cell, and the merge re-derives the query aggregate from
# partial aggregates (AVG via SUM/COUNT, COUNT(*) via addition, ...).


def spec_kind(call: AggCall) -> tuple[str, bool]:
    """``(partial-state kind, distinct)`` for an aggregate call."""
    if call.func == "count" and call.arg is None:
        return "count*", bool(call.distinct)
    if call.func not in _PLAIN:
        raise ExecutionError(f"unknown aggregate {call.func!r}")
    return call.func, bool(call.distinct)


def empty_state(kind: str, distinct: bool):
    """The partial state of a group with no input rows (only the
    grand-total grouping set of an empty table produces one)."""
    if distinct:
        return set()
    if kind in ("count*", "count"):
        return 0
    if kind == "avg":
        return [None, 0]
    return None  # sum / min / max


def merge_states(kind: str, distinct: bool, a, b):
    """Combine two partial states for one group (rules (a)–(g))."""
    if distinct:
        a |= b  # partials are owned by the merge; mutation is safe
        return a
    if kind in ("count*", "count"):
        return a + b
    if kind == "sum":
        if a is None:
            return b
        return a if b is None else a + b
    if kind == "avg":
        total_a, count_a = a
        total_b, count_b = b
        if total_a is None:
            total = total_b
        elif total_b is None:
            total = total_a
        else:
            total = total_a + total_b
        return [total, count_a + count_b]
    if kind == "min":
        if a is None:
            return b
        return a if b is None or a <= b else b
    if kind == "max":
        if a is None:
            return b
        return a if b is None or a >= b else b
    raise ExecutionError(f"unknown aggregate kind {kind!r}")


def finalize_state(kind: str, distinct: bool, state):
    """Partial state → the aggregate's SQL result value.

    DISTINCT sums iterate a *sorted* snapshot of the value set: set
    iteration order depends on insertion history, and the spill path
    round-trips states through an unordered on-disk encoding — sorting
    makes finalization a pure function of the set's contents, so spilled
    and in-memory execution produce bit-identical floats.
    """
    if distinct:
        if kind in ("count", "count*"):
            return len(state)
        if not state:
            return None
        if kind == "sum":
            return sum(sorted(state))
        if kind == "avg":
            return sum(sorted(state)) / len(state)
        if kind == "min":
            return min(state)
        return max(state)
    if kind == "avg":
        total, count = state
        return None if count == 0 else total / count
    return state
