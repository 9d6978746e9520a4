"""Matching infrastructure (Section 3 of the paper).

A *match* between a subsumee box E (from the query graph) and a subsumer
box R (from the AST graph) proves that a compensation — a small QGM
fragment applied to R's output — reproduces E's output exactly.

Representation:

* :class:`SubsumerRef` is a placeholder leaf standing for "the output of
  the subsumer box"; at rewrite time it is spliced onto a scan of the
  materialized AST.
* A compensation is a bottom-up ``chain`` of ordinary SELECT / GROUP-BY
  boxes. Every chain box consumes the box below it (or the
  :class:`SubsumerRef` leaf) through a quantifier named :data:`MAIN`;
  rejoin children hang off chain SELECT boxes under their own names.
* An **exact** match has an empty chain plus a ``column_map`` from
  subsumee output names to the equivalent subsumer output names
  (footnote 5: the subsumer may produce extra columns).
* A non-exact match's chain top produces exactly the subsumee's output
  columns (same names), which is what lets parents translate through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.schema import Catalog
from repro.errors import ReproError
from repro.expr.nodes import ColumnRef, Expr
from repro.qgm.boxes import QCL, GroupByBox, QGMBox, SelectBox

#: quantifier name every compensation box uses for its "input from below"
MAIN = "_in"


class SubsumerRef(QGMBox):
    """Placeholder leaf whose outputs mirror the subsumer's outputs."""

    kind = "subsumer-ref"

    def __init__(self, subsumer: QGMBox):
        super().__init__(f"Use[{subsumer.name}]")
        self.subsumer = subsumer
        for qcl in subsumer.outputs:
            self.outputs.append(QCL(qcl.name, None, nullable=qcl.nullable))


@dataclass
class MatchResult:
    """Outcome of a successful match between ``subsumee`` and ``subsumer``."""

    subsumee: QGMBox
    subsumer: QGMBox
    chain: list[QGMBox] = field(default_factory=list)
    column_map: dict[str, str] = field(default_factory=dict)
    pattern: str = ""  # which paper pattern established the match

    @property
    def exact(self) -> bool:
        return not self.chain

    @property
    def top(self) -> QGMBox:
        """The box equivalent to the subsumee (chain top, or the
        placeholder's subsumer itself for exact matches)."""
        if self.chain:
            return self.chain[-1]
        return self.subsumer

    def mapped(self, subsumee_output: str) -> str:
        """The name of the column of :meth:`top` equivalent to the given
        subsumee output column."""
        if self.exact:
            return self.column_map[subsumee_output]
        return subsumee_output

    def describe(self) -> str:
        """One-line human-readable summary (used by explain output)."""
        if self.exact:
            return (
                f"{self.subsumee.name} == {self.subsumer.name} (exact, {self.pattern})"
            )
        boxes = " -> ".join(box.name for box in self.chain)
        return f"{self.subsumee.name} ~ {self.subsumer.name} via [{boxes}] ({self.pattern})"


#: default matcher options; override via ``MatchContext(options=...)``.
#: These exist for the ablation benchmarks — production use keeps the
#: defaults.
DEFAULT_OPTIONS = {
    # use join-predicate column equivalences during derivation (how aid
    # is derived from faid in Figure 5); disabling shows their value
    "column_equivalence": True,
    # choose the smallest matching cuboid (Section 5.1's rule); disabling
    # picks the largest to quantify the rule's benefit
    "prefer_small_cuboid": True,
}


class MatchContext:
    """Shared state for one navigator run over a (query, AST) pair."""

    def __init__(self, catalog: Catalog, options: dict | None = None):
        self.catalog = catalog
        self.results: dict[tuple[int, int], MatchResult] = {}
        self.options = dict(DEFAULT_OPTIONS)
        if options:
            self.options.update(options)
        self._name_counter = 0
        #: the active :class:`repro.governor.budget.QueryBudget`, set by
        #: the navigator so match functions can tick without a
        #: thread-local read per pairing; None when ungoverned
        self.governor = None
        #: the statement's :class:`repro.obs.trace.MatchTrace`, handed
        #: down the same way; None when the statement is not traced
        self.trace = None

    def option(self, name: str):
        return self.options[name]

    def get(self, subsumee: QGMBox, subsumer: QGMBox) -> MatchResult | None:
        return self.results.get((id(subsumee), id(subsumer)))

    def record(self, result: MatchResult) -> MatchResult:
        self.results[(id(result.subsumee), id(result.subsumer))] = result
        return result

    def fresh_name(self, stem: str) -> str:
        self._name_counter += 1
        return f"{stem}-C{self._name_counter}"


# ----------------------------------------------------------------------
# Compensation-chain utilities
# ----------------------------------------------------------------------
def chain_leaf(chain: list[QGMBox]) -> SubsumerRef:
    """The SubsumerRef at the bottom of a non-empty chain."""
    box: QGMBox = chain[0]
    below = _main_child(box)
    if not isinstance(below, SubsumerRef):
        raise ReproError(f"chain bottom of {box.name} is not a SubsumerRef")
    return below


def _main_child(box: QGMBox) -> QGMBox:
    for quantifier in box.quantifiers():
        if quantifier.name == MAIN:
            return quantifier.box
    raise ReproError(f"box {box.name} has no {MAIN!r} quantifier")


def rebase_chain(
    chain: list[QGMBox], new_leaf: QGMBox, name_for: "callable"
) -> list[QGMBox]:
    """Deep-copy a compensation chain onto a new leaf box.

    Used when a child's compensation is carried verbatim into a parent
    compensation (pattern 4.2.2's "copied above") and by the final
    rewrite, which splices the chain onto the AST scan.
    """
    rebased: list[QGMBox] = []
    below = new_leaf
    for box in chain:
        clone = clone_chain_box(box, below, name_for(box))
        rebased.append(clone)
        below = clone
    return rebased


def clone_chain_box(box: QGMBox, new_main_child: QGMBox, name: str) -> QGMBox:
    """Copy one chain box, re-pointing its MAIN quantifier."""
    if isinstance(box, SelectBox):
        clone = SelectBox(name)
        for quantifier in box.quantifiers():
            if quantifier.name == MAIN:
                clone.add_quantifier(MAIN, new_main_child)
            else:
                clone.add_quantifier(quantifier.name, quantifier.box)
        clone.predicates = list(box.predicates)
        clone.distinct = box.distinct
        clone.outputs = [QCL(q.name, q.expr, q.nullable) for q in box.outputs]
        return clone
    if isinstance(box, GroupByBox):
        clone = GroupByBox(name, MAIN, new_main_child)
        clone.grouping_items = box.grouping_items
        clone.grouping_sets = box.grouping_sets
        clone.outputs = [QCL(q.name, q.expr, q.nullable) for q in box.outputs]
        return clone
    raise ReproError(f"cannot clone chain box {box!r}")


def inline_through_chain(
    expr: Expr, chain: list[QGMBox], top_index: int, subsumer_qualifier: str
) -> Expr:
    """Rewrite ``expr`` (over chain[top_index]'s QNCs) down to the chain's
    leaf: every MAIN reference is replaced by the defining QCL expression
    of the box below, recursively; references that bottom out at the
    SubsumerRef become ``subsumer_qualifier``-qualified columns. Rejoin
    references are kept as-is.

    The result may contain :class:`~repro.expr.nodes.AggCall` nodes when a
    GROUP-BY box is inlined — that is exactly the Section 6 translation of
    Figure 15 (``cnt`` becomes ``sum(cnt)``), and it is what makes the
    Table 1 inequivalence detectable.
    """

    def expand(node: Expr, level: int) -> Expr:
        below = chain[level - 1] if level > 0 else None

        def visit(ref: Expr) -> Expr | None:
            if not isinstance(ref, ColumnRef):
                return None
            if ref.qualifier != MAIN:
                return ref  # rejoin reference: stop here, keep verbatim
            if below is None:
                return ColumnRef(subsumer_qualifier, ref.name)
            defining = below.output(ref.name).expr
            if defining is None:  # below is a leaf-like box
                return ColumnRef(subsumer_qualifier, ref.name)
            return expand(defining, level - 1)

        return node.transform(visit)

    return expand(expr, top_index)


def chain_output_in_subsumer_context(
    match: MatchResult, column: str, subsumer_qualifier: str
) -> Expr:
    """The expression computing compensation output ``column``, expressed
    over the subsumer's output columns (plus rejoin references)."""
    if match.exact:
        return ColumnRef(subsumer_qualifier, match.column_map[column])
    top_index = len(match.chain) - 1
    top = match.chain[top_index]
    return inline_through_chain(
        top.output(column).expr, match.chain, top_index, subsumer_qualifier
    )


def chain_rejoin_quantifiers(chain: list[QGMBox]):
    """All non-MAIN quantifiers found on chain boxes (the rejoins)."""
    rejoins = []
    for box in chain:
        for quantifier in box.quantifiers():
            if quantifier.name != MAIN:
                rejoins.append(quantifier)
    return rejoins


def chain_predicates(chain: list[QGMBox]) -> list[tuple[int, Expr]]:
    """(chain index, predicate) for every predicate on a chain SELECT box."""
    found = []
    for index, box in enumerate(chain):
        if isinstance(box, SelectBox):
            for predicate in box.predicates:
                found.append((index, predicate))
    return found


def chain_has_grouping(chain: list[QGMBox]) -> bool:
    return any(isinstance(box, GroupByBox) for box in chain)
