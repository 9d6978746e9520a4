"""The Query Graph Model (Section 2 of the paper).

A query is a rooted DAG of *boxes*. Leaf boxes are base tables; internal
boxes are SELECT (select-project-join, WHERE/HAVING predicates, scalar
computation) or GROUP-BY (grouping + aggregation). Edges carry records
from a child (producer) to a parent (consumer) and are reified as
:class:`Quantifier` objects — the parent's *range variables* over its
children.

Terminology from the paper:

* **QNC** — an input column of a box: a :class:`~repro.expr.nodes.ColumnRef`
  whose ``qualifier`` names one of the box's quantifiers and whose ``name``
  is an output column of that quantifier's child box.
* **QCL** — an output column of a box, computed by an expression over the
  box's QNCs. For GROUP-BY boxes, QCLs are either grouping columns (simple
  QNCs) or aggregate functions over simple QNCs; complex expressions live
  in the SELECT box below, exactly as the paper prescribes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.catalog.schema import Catalog, TableSchema
from repro.errors import ReproError
from repro.expr.equivalence import EquivalenceClasses
from repro.expr.nodes import (
    AggCall,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    split_conjuncts,
)
from repro.expr.functions import lookup_function


@dataclass
class QCL:
    """An output column of a box.

    ``expr`` is over the owning box's QNCs; it is None for base-table
    boxes, whose outputs simply *are* the table's columns.
    """

    name: str
    expr: Expr | None
    nullable: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QCL({self.name} := {self.expr!r})"


class Quantifier:
    """A range variable of a box over one child box."""

    def __init__(self, name: str, box: "QGMBox"):
        self.name = name
        self.box = box

    def ref(self, column: str) -> ColumnRef:
        """A QNC over this quantifier."""
        return ColumnRef(self.name, column)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quantifier({self.name} -> {self.box.name})"


class QGMBox:
    """Base class of all QGM boxes."""

    kind = "box"

    def __init__(self, name: str):
        self.name = name
        self.outputs: list[QCL] = []

    # -- outputs -------------------------------------------------------
    @property
    def output_names(self) -> list[str]:
        return [qcl.name for qcl in self.outputs]

    def has_output(self, name: str) -> bool:
        return any(qcl.name == name for qcl in self.outputs)

    def output(self, name: str) -> QCL:
        for qcl in self.outputs:
            if qcl.name == name:
                return qcl
        raise ReproError(f"box {self.name} has no output column {name!r}")

    def add_output(self, qcl: QCL) -> QCL:
        if self.has_output(qcl.name):
            raise ReproError(f"duplicate output {qcl.name!r} in box {self.name}")
        self.outputs.append(qcl)
        return qcl

    # -- children ------------------------------------------------------
    def quantifiers(self) -> list[Quantifier]:
        return []

    def quantifier(self, name: str) -> Quantifier:
        for quantifier in self.quantifiers():
            if quantifier.name == name:
                return quantifier
        raise ReproError(f"box {self.name} has no quantifier {name!r}")

    def children(self) -> list["QGMBox"]:
        return [quantifier.box for quantifier in self.quantifiers()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class BaseTableBox(QGMBox):
    """A leaf box: a scan of a stored table (base table or materialized
    summary table)."""

    kind = "base"

    def __init__(self, name: str, schema: TableSchema):
        super().__init__(name)
        self.schema = schema
        self.table_name = schema.name
        for column in schema.columns:
            self.outputs.append(QCL(column.name, None, nullable=column.nullable))


class SelectBox(QGMBox):
    """Select-project-join box.

    Holds any number of quantifiers (join operands — including scalar
    subqueries, which are simply quantifiers over single-row children),
    a conjunctive list of predicates, and arbitrarily complex
    aggregate-free output expressions.
    """

    kind = "select"

    def __init__(self, name: str):
        super().__init__(name)
        self._quantifiers: list[Quantifier] = []
        self.predicates: list[Expr] = []
        self.distinct = False

    def quantifiers(self) -> list[Quantifier]:
        return list(self._quantifiers)

    def add_quantifier(self, name: str, box: QGMBox) -> Quantifier:
        if any(q.name == name for q in self._quantifiers):
            raise ReproError(f"duplicate quantifier {name!r} in box {self.name}")
        quantifier = Quantifier(name, box)
        self._quantifiers.append(quantifier)
        return quantifier

    def add_predicate(self, predicate: Expr) -> None:
        self.predicates.extend(split_conjuncts(predicate))

    def equivalence_classes(self) -> EquivalenceClasses:
        """Column-equivalence classes induced by this box's equality join
        predicates (recomputed on demand; boxes are small)."""
        classes = EquivalenceClasses()
        for predicate in self.predicates:
            classes.add_predicate(predicate)
        return classes

    def join_pairs_between(
        self, left: Quantifier, right: Quantifier
    ) -> set[tuple[str, str]]:
        """Column-name pairs (left_col, right_col) equated between the two
        quantifiers, including equalities implied transitively."""
        classes = self.equivalence_classes()
        pairs: set[tuple[str, str]] = set()
        for ref in self._known_refs(classes):
            if ref.qualifier != left.name:
                continue
            for member in classes.members(ref):
                if member.qualifier == right.name:
                    pairs.add((ref.name, member.name))
        return pairs

    def _known_refs(self, classes: EquivalenceClasses) -> list[ColumnRef]:
        refs: set[ColumnRef] = set()
        for predicate in self.predicates:
            refs.update(predicate.column_refs())
        return sorted(refs, key=lambda r: (r.qualifier or "", r.name))


class UnionAllBox(QGMBox):
    """Bag union of uniform children (UNION ALL).

    Output columns take the first child's names; every child must have
    the same arity. Matching treats union boxes conservatively (no
    cross-union patterns), but subtrees below a branch still match and
    rewrite independently.
    """

    kind = "union"

    def __init__(self, name: str):
        super().__init__(name)
        self._quantifiers: list[Quantifier] = []

    def quantifiers(self) -> list[Quantifier]:
        return list(self._quantifiers)

    def add_branch(self, name: str, box: QGMBox) -> Quantifier:
        if self._quantifiers and len(box.outputs) != len(self.outputs):
            raise ReproError(
                f"UNION ALL branch {box.name} has {len(box.outputs)} columns, "
                f"expected {len(self.outputs)}"
            )
        quantifier = Quantifier(name, box)
        self._quantifiers.append(quantifier)
        if len(self._quantifiers) == 1:
            for qcl in box.outputs:
                nullable = qcl.nullable
                self.outputs.append(QCL(qcl.name, None, nullable))
        else:
            for mine, theirs in zip(self.outputs, box.outputs):
                mine.nullable = mine.nullable or theirs.nullable
        return quantifier


class GroupByBox(QGMBox):
    """Grouping + aggregation box.

    ``grouping_items`` are output/grouping column names (each backed by a
    pass-through QCL over a simple QNC of the single child);
    ``grouping_sets`` is the canonical GS list (Section 5): a simple
    GROUP BY has exactly one set containing all items. Aggregate outputs
    are :class:`~repro.expr.nodes.AggCall` over simple QNCs.
    """

    kind = "groupby"

    def __init__(self, name: str, quantifier_name: str, child: QGMBox):
        super().__init__(name)
        self._quantifier = Quantifier(quantifier_name, child)
        self.grouping_items: tuple[str, ...] = ()
        self.grouping_sets: tuple[tuple[str, ...], ...] = ((),)

    def quantifiers(self) -> list[Quantifier]:
        return [self._quantifier]

    @property
    def child_quantifier(self) -> Quantifier:
        return self._quantifier

    def set_grouping(
        self,
        items: tuple[str, ...],
        sets: tuple[tuple[str, ...], ...] | None = None,
    ) -> None:
        """Define grouping columns; ``sets`` defaults to the single full
        set (a simple GROUP BY)."""
        self.grouping_items = tuple(items)
        if sets is None:
            sets = (tuple(items),)
        self.grouping_sets = canonical_grouping_sets(items, sets)

    @property
    def is_multidimensional(self) -> bool:
        """True when this box unions more than one cuboid."""
        return len(self.grouping_sets) > 1

    def add_grouping_output(self, name: str, child_column: str, nullable: bool) -> QCL:
        """A pass-through QCL for grouping column ``child_column``."""
        grouped_out_somewhere = any(
            name not in grouping_set for grouping_set in self.grouping_sets
        )
        return self.add_output(
            QCL(
                name,
                self._quantifier.ref(child_column),
                nullable=nullable or grouped_out_somewhere,
            )
        )

    def add_aggregate_output(self, name: str, call: AggCall, nullable: bool) -> QCL:
        if call.arg is not None and not isinstance(call.arg, ColumnRef):
            raise ReproError(
                "GROUP-BY aggregates take simple input columns; "
                f"got {call.arg!r} (compute it in the child SELECT box)"
            )
        return self.add_output(QCL(name, call, nullable=nullable))

    def grouping_outputs(self) -> list[QCL]:
        return [qcl for qcl in self.outputs if not isinstance(qcl.expr, AggCall)]

    def aggregate_outputs(self) -> list[QCL]:
        return [qcl for qcl in self.outputs if isinstance(qcl.expr, AggCall)]


def canonical_grouping_sets(
    items: tuple[str, ...], sets: tuple[tuple[str, ...], ...]
) -> tuple[tuple[str, ...], ...]:
    """Canonicalize a grouping-set list: order each set by the grouping
    item order, drop duplicates, and order the sets (larger first, then
    lexicographic by item positions) for determinism."""
    position = {name: index for index, name in enumerate(items)}
    unique: dict[frozenset[str], tuple[str, ...]] = {}
    for grouping_set in sets:
        for name in grouping_set:
            if name not in position:
                raise ReproError(f"grouping set references unknown item {name!r}")
        key = frozenset(grouping_set)
        if key not in unique:
            ordered = tuple(sorted(set(grouping_set), key=position.__getitem__))
            unique[key] = ordered
    ordered_sets = sorted(
        unique.values(),
        key=lambda s: (-len(s), tuple(position[name] for name in s)),
    )
    return tuple(ordered_sets)


def expand_rollup(items: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """ROLLUP(a, b, c) -> (a,b,c), (a,b), (a,), ()."""
    return tuple(items[:end] for end in range(len(items), -1, -1))


def expand_cube(items: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """CUBE(a, b) -> every subset of (a, b)."""
    subsets: list[tuple[str, ...]] = []
    for size in range(len(items), -1, -1):
        subsets.extend(itertools.combinations(items, size))
    return tuple(subsets)


def cross_combine(
    left: tuple[tuple[str, ...], ...], right: tuple[tuple[str, ...], ...]
) -> tuple[tuple[str, ...], ...]:
    """Concatenate every pair of grouping sets (SQL's GROUP BY a, ROLLUP(b)
    semantics: the cross product of the element's set lists)."""
    combined = []
    for left_set in left:
        for right_set in right:
            merged = left_set + tuple(c for c in right_set if c not in left_set)
            combined.append(merged)
    return tuple(combined)


def box_heights(
    graph: "QueryGraph", order: "list[QGMBox] | None" = None
) -> dict[int, int]:
    """Height of every box in ``graph`` keyed by ``id(box)`` (leaves are 1).

    Shared by the navigator (to order root matches by how much query work
    they replace) and the rewriter (to pick the candidate replacing the
    highest box). ``order`` is ``graph.boxes()`` when already taken.
    """
    heights: dict[int, int] = {}
    for box in order or graph.boxes():  # children before parents
        child_heights = [heights[id(child)] for child in box.children()]
        heights[id(box)] = 1 + max(child_heights, default=0)
    return heights


def expr_nullable(expr: Expr, column_nullable) -> bool:
    """Conservative nullability of ``expr``; ``column_nullable`` maps a
    ColumnRef to the nullability of the referenced column."""
    if isinstance(expr, Literal):
        return expr.value is None
    if isinstance(expr, ColumnRef):
        return column_nullable(expr)
    if isinstance(expr, IsNull):
        return False
    if isinstance(expr, AggCall):
        if expr.func == "count":
            return False
        return expr_nullable(expr.arg, column_nullable) if expr.arg else False
    if isinstance(expr, FuncCall):
        function = lookup_function(expr.name)
        children = [expr_nullable(a, column_nullable) for a in expr.args]
        if function is not None and not function.null_propagating:
            return all(children) if children else False
        return any(children)
    if isinstance(expr, CaseWhen):
        values = [value for _, value in expr.pairs()] + [expr.default]
        return any(expr_nullable(value, column_nullable) for value in values)
    if isinstance(expr, InList):
        return any(expr_nullable(child, column_nullable) for child in expr.children())
    return any(expr_nullable(child, column_nullable) for child in expr.children())


class QueryGraph:
    """A rooted QGM graph plus the catalog it binds to.

    ``order_by`` (optional) is a presentation-level ordering applied by the
    executor to the root's rows; it plays no role in matching, mirroring
    how the paper treats QGM as semantics, not a plan.
    """

    def __init__(self, root: QGMBox, catalog: Catalog):
        self.root = root
        self.catalog = catalog
        self.order_by: list[tuple[str, bool]] = []  # (output name, ascending)
        self.limit: int | None = None  # presentation-level row cap

    def boxes(self) -> list[QGMBox]:
        """All boxes, children before parents (topological order)."""
        order: list[QGMBox] = []
        seen: set[int] = set()

        def visit(box: QGMBox) -> None:
            if id(box) in seen:
                return
            seen.add(id(box))
            for quantifier in box.quantifiers():
                visit(quantifier.box)
            order.append(box)

        visit(self.root)
        return order

    def base_tables(self) -> set[str]:
        """Names of all base tables referenced (lower-cased)."""
        return {
            box.table_name.lower()
            for box in self.boxes()
            if isinstance(box, BaseTableBox)
        }

    def parents_of(self, target: QGMBox) -> list[tuple[QGMBox, Quantifier]]:
        """(parent, quantifier) pairs whose quantifier ranges over ``target``."""
        found = []
        for box in self.boxes():
            for quantifier in box.quantifiers():
                if quantifier.box is target:
                    found.append((box, quantifier))
        return found

    def validate(self) -> None:
        """Check referential integrity of the graph (used in tests)."""
        for box in self.boxes():
            columns = {
                q.name: {qcl.name for qcl in q.box.outputs}
                for q in box.quantifiers()
            }
            exprs: list[Expr] = []
            exprs.extend(qcl.expr for qcl in box.outputs if qcl.expr is not None)
            if isinstance(box, SelectBox):
                exprs.extend(box.predicates)
            for expr in exprs:
                for ref in expr.column_refs():
                    names = columns.get(ref.qualifier)
                    if names is None:
                        raise ReproError(
                            f"box {box.name}: unknown quantifier in {ref!r}"
                        )
                    if ref.name not in names:
                        raise ReproError(
                            f"box {box.name}: {ref!r} does not match an output "
                            f"of {box.quantifier(ref.qualifier).box.name}"
                        )
