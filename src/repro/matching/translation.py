"""Expression translation into the subsumer's context (Section 6).

Before a subsumee expression can be compared with subsumer expressions it
must be rewritten to use subsumer QNCs: what looks like a simple column in
the query may really be a complex expression computed by a nested block.
Translation walks each column reference through the child-match
compensations (Figure 15): replace the QNC with the defining QCL
expression at the top of the child compensation, keep expanding through
the chain, and finally land on the subsumer child's columns.

If a GROUP-BY compensation is crossed, aggregate functions appear in the
translated expression (``cnt`` becomes ``sum(cnt)``), which is precisely
how the Table 1 semantic inequivalence is detected — an aggregating
translation can never *match* a plain subsumer predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.expr.nodes import ColumnRef, Expr
from repro.matching.framework import (
    MatchResult,
    chain_output_in_subsumer_context,
)
from repro.qgm.boxes import Quantifier


@dataclass
class MatchedChildPair:
    """A subsumee child matched with a subsumer child."""

    subsumee_q: Quantifier
    subsumer_q: Quantifier
    match: MatchResult


class ChildTranslator:
    """Rewrites subsumee-box expressions into the subsumer box's context.

    After translation, every column reference is either
    ``(subsumer quantifier, column)`` or a reference to a rejoin child
    (an unmatched subsumee child, kept under its original quantifier
    name). ``AggCall`` nodes may appear when translation crossed a
    grouping compensation; callers that require aggregate-free results
    must check ``contains_aggregate()``.
    """

    def __init__(self, pairs: list[MatchedChildPair], rejoin_names: set[str]):
        self._by_subsumee = {pair.subsumee_q.name: pair for pair in pairs}
        self._rejoin_names = set(rejoin_names)
        self._cache: dict[tuple[str, str], Expr] = {}

    def translate(self, expr: Expr) -> Expr:
        """Translate ``expr`` (over the subsumee box's QNCs)."""

        def visit(node: Expr) -> Expr | None:
            if not isinstance(node, ColumnRef):
                return None
            return self.translate_ref(node)

        return expr.transform(visit)

    def translate_ref(self, ref: ColumnRef) -> Expr:
        if ref.qualifier in self._rejoin_names:
            return ref
        pair = self._by_subsumee.get(ref.qualifier)
        if pair is None:
            raise ReproError(f"no child match covers quantifier {ref.qualifier!r}")
        key = (ref.qualifier, ref.name)
        cached = self._cache.get(key)
        if cached is None:
            cached = chain_output_in_subsumer_context(
                pair.match, ref.name, pair.subsumer_q.name
            )
            self._cache[key] = cached
        return cached


# ----------------------------------------------------------------------
# Step-by-step tracing (Figure 15)
# ----------------------------------------------------------------------
@dataclass
class TranslationStep:
    """One step of a traced translation, for explain output."""

    description: str
    expr: Expr

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.description}: {self.expr!r}"


def trace_translation(
    expr: Expr, pairs: list[MatchedChildPair], rejoin_names: set[str]
) -> list[TranslationStep]:
    """Reproduce Figure 15: translate ``expr`` one QNC at a time,
    recording each intermediate expression.

    Unlike :class:`ChildTranslator` (which expands each reference fully in
    one shot), this expands one level per step so the intermediate forms
    match the paper's presentation.
    """
    steps = [TranslationStep("original subsumee expression", expr)]
    steps.append(TranslationStep("step 1: copy the expression", expr))
    by_name = {pair.subsumee_q.name: pair for pair in pairs}

    # Collect the original expression's translatable references, then
    # reveal their (full) translations one at a time. Each step re-walks
    # the *original* tree, so colliding quantifier names between the
    # subsumee and subsumer contexts cannot cause re-expansion.
    targets: list[ColumnRef] = []
    for ref in expr.column_refs():
        if ref.qualifier in rejoin_names or ref.qualifier not in by_name:
            continue
        if ref not in targets:
            targets.append(ref)

    for step_number, upto in enumerate(range(1, len(targets) + 1), start=2):
        revealed = set(targets[:upto])

        def visit(node: Expr) -> Expr | None:
            if isinstance(node, ColumnRef) and node in revealed:
                return _expand_one_level(node, by_name[node.qualifier])
            return None

        current = expr.transform(visit)
        steps.append(
            TranslationStep(
                f"step {step_number}: expand {targets[upto - 1]!r}", current
            )
        )
    return steps


def _expand_one_level(ref: ColumnRef, pair: MatchedChildPair) -> Expr:
    """Expand a single reference one compensation level (or to its final
    subsumer column for exact matches)."""
    match = pair.match
    if match.exact:
        return ColumnRef(pair.subsumer_q.name, match.column_map[ref.name])
    # Walk down from the chain top: a reference tagged with a chain box's
    # name means "output of that box"; expand exactly one definition.
    full = chain_output_in_subsumer_context(match, ref.name, pair.subsumer_q.name)
    return full
