"""Structural fingerprints of bound QGM graphs.

The semantic result cache needs a key that is stable across repeated
bindings of the same query: two independently parsed+bound graphs of
equivalent SQL must produce equal fingerprints, and any difference that
could change the matcher's outcome must produce different ones.

A fingerprint is a nested tuple built from the graph in topological
(children-first) order: per box its kind, scanned table (for leaves),
output columns with *normalized* defining expressions, normalized and
canonically ordered predicates, DISTINCT flag, grouping items/sets, and
the quantifier wiring as (name, child index) pairs — plus the graph's
presentation-level ORDER BY/LIMIT. Expressions are normalized with
:func:`repro.expr.normalize.normalize`, so syntactic noise the matcher
ignores (operand order, ``x+0``…) does not fragment the cache.

Keys compare by full structural equality (no truncated digests), so a
hash collision can never alias two different queries to one cache slot.

:func:`literal_slots` splits a fingerprint into a literal-free
*skeleton* and its constants, and :func:`bind_constants` ranks them into
a statement's form and binding: the shape cache
(:mod:`repro.qgm.bind_cache`) takes the slots once per template and
files each shape's rewrite decisions under skeleton and form (see
docs/ALGORITHM.md, "the matching fast path").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.expr.nodes import COMPARISON_OPS, BinaryOp, Expr, Literal, NaryOp
from repro.expr.normalize import normalize, sort_key
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QGMBox,
    QueryGraph,
    SelectBox,
    UnionAllBox,
)


@dataclass(frozen=True)
class GraphFingerprint:
    """A hashable structural key for one bound :class:`QueryGraph`."""

    key: tuple

    def __hash__(self) -> int:
        """The key's hash, computed once: a fingerprint keys the result
        cache, and a skeleton (:func:`literal_slots`) the decision cache."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.key))
            return self._hash

    def hexdigest(self) -> str:
        """A short stable digest for display (EXPLAIN, logs)."""
        return hashlib.sha1(repr(self.key).encode()).hexdigest()[:12]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphFingerprint({self.hexdigest()})"


def fingerprint(graph: QueryGraph) -> GraphFingerprint:
    """The structural fingerprint of ``graph``."""
    boxes = graph.boxes()
    index = {id(box): position for position, box in enumerate(boxes)}
    key = (
        tuple(_box_key(box, index) for box in boxes),
        index[id(graph.root)],
        tuple(graph.order_by),
        graph.limit,
    )
    return GraphFingerprint(key)


def _box_key(box: QGMBox, index: dict[int, int]) -> tuple:
    outputs = tuple(
        (
            qcl.name,
            None if qcl.expr is None else normalize(qcl.expr),
            qcl.nullable,
        )
        for qcl in box.outputs
    )
    quantifiers = tuple(
        (quantifier.name, index[id(quantifier.box)])
        for quantifier in box.quantifiers()
    )
    if isinstance(box, BaseTableBox):
        return ("base", box.table_name.lower(), outputs)
    if isinstance(box, SelectBox):
        predicates = tuple(
            sorted((normalize(p) for p in box.predicates), key=sort_key)
        )
        return ("select", quantifiers, outputs, predicates, box.distinct)
    if isinstance(box, GroupByBox):
        return (
            "groupby",
            quantifiers,
            outputs,
            box.grouping_items,
            box.grouping_sets,
        )
    if isinstance(box, UnionAllBox):
        return ("union", quantifiers, outputs)
    # Unknown box kinds still fingerprint deterministically; they simply
    # distinguish by kind, wiring, and outputs.
    return (box.kind, quantifiers, outputs)


#: what stands for every literal in a :func:`literal_slots` skeleton
_SLOT = Literal(...)


def literal_slots(exact: GraphFingerprint) -> tuple[GraphFingerprint, list, list]:
    """``(skeleton, kept, holes)``: ``exact``'s boxes with every literal
    of an output or a predicate replaced by one marker (ORDER BY and
    LIMIT, which no matcher reads, left out), and the values it replaced
    in walk order — the right-hand literal of each ``expr <cmp> literal``
    predicate (reached through AND/OR; normalisation puts the literal on
    the right) in ``holes``, every other one in ``kept``."""
    kept: list = []
    holes: list = []

    def punch(expr: Expr, predicate: bool) -> Expr:
        if predicate and isinstance(expr, NaryOp) and expr.op in ("and", "or"):
            return expr.with_children(tuple(punch(o, True) for o in expr.operands))
        if (
            predicate and isinstance(expr, BinaryOp) and expr.op in COMPARISON_OPS
            and isinstance(expr.right, Literal) and not isinstance(expr.left, Literal)
        ):
            left = punch(expr.left, False)
            holes.append(expr.right.value)
            return BinaryOp(expr.op, left, _SLOT)
        kept.extend(expr.literal_values())
        return expr.transform(
            lambda node: _SLOT if node.__class__ is Literal else None
        )

    def punch_box(box: tuple) -> tuple:  # outputs at 2, predicates at 3
        outputs = tuple(
            (name, None if expr is None else punch(expr, False), null)
            for name, expr, null in box[2]
        )
        if box[0] != "select":
            return box[:2] + (outputs,) + box[3:]
        return box[:2] + (outputs, tuple(punch(p, True) for p in box[3])) + box[4:]

    boxes, root, _, _ = exact.key
    skeleton = tuple(punch_box(box) for box in boxes)
    return GraphFingerprint((skeleton, root)), kept, holes


def bind_constants(kept: list, holes: list) -> tuple[tuple, dict] | None:
    """``(form, binding)`` of a statement whose :func:`literal_slots` are
    ``kept`` and ``holes``. The binding is its constants per domain in
    rank order (numbers rank together, equal values share a rank); the
    form holds each kept constant by value and each hole by its type,
    each with its rank among *all* the constants, so two statements of
    one skeleton and form are one graph up to a type-preserving,
    order-preserving renaming of the constants in holes. None when the
    constants cannot be ranked or two equal ones differ in type
    (``5``/``5.0``, ``1``/``True``)."""
    values: dict[str, list] = {}
    for value in kept + holes:
        values.setdefault(domain(value), []).append(value)
    ranks = {}
    for name, raw in values.items():
        if len(set(raw)) < len(set(map(Literal, raw))):
            return None  # equal constants of different types
        try:
            values[name] = ordered = tuple(sorted(set(raw)))
        except TypeError:
            return None
        ranks[name] = {value: rank for rank, value in enumerate(ordered)}

    def rank(value) -> int:
        return ranks[domain(value)][value]

    form = tuple((Literal(v), rank(v)) for v in kept)
    return form + tuple((type(v), rank(v)) for v in holes), values


def domain(value) -> str:
    """Values that compare with each other rank together."""
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__
