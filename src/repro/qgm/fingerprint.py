"""Structural fingerprints of bound QGM graphs.

The rewrite decision cache (see :mod:`repro.rewrite.cache`) needs a key
that is stable across repeated bindings of the same query: two
independently parsed+bound graphs of equivalent SQL must produce equal
fingerprints, and any difference that could change the matcher's outcome
must produce different ones.

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

:func:`shape_key` derives a second, constant-free key from a fingerprint
— what the rewrite decision cache files a *plan* under, so a statement
that differs from an earlier one only in its comparison constants
re-matches the summary that won last time instead of all of them (see
docs/ALGORITHM.md, "Matching fast path").
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


@dataclass(frozen=True)
class Hole:
    """What stands in a shape key for one comparison constant: all a
    matcher can learn about it without comparing it to a summary's own
    constant — its type, and where it stands among the query's other
    constants (equal values share a rank)."""

    type_tag: str
    rank: int


def shape_key(exact: GraphFingerprint) -> GraphFingerprint:
    """``exact`` with the right-hand literal of every ``expr <cmp>
    literal`` predicate (reached through AND/OR) replaced by a
    :class:`Hole`. Every other constant — IN-lists, arithmetic operands,
    function arguments, output expressions, LIMIT — stays in the key by
    value. Returns ``exact`` itself when no predicate compares against a
    constant, or when the query's constants cannot be ranked.

    Ranks are taken over *all* the query's constants, kept ones
    included, so two fingerprints with one shape key are the same graph
    up to an order-preserving renaming of constants: any ``=`` or ``<``
    between two of the query's own constants reads the same in both.
    Numbers rank together (``5 = 5.0``); other types rank among
    themselves.
    """
    boxes, root, order_by, limit = exact.key
    templated = False
    constants: dict[str, set] = {}
    for box in boxes:
        for _, expr, _ in box[2]:
            if expr is not None:
                _collect(expr, constants)
        if box[0] == "select":
            for predicate in box[3]:
                _collect(predicate, constants)
                templated = templated or _has_hole(predicate)
    if not templated:
        return exact
    try:
        ranks = {
            domain: {value: rank for rank, value in enumerate(sorted(values))}
            for domain, values in constants.items()
        }
    except TypeError:
        return exact

    def punch(node: Expr) -> Expr:
        if isinstance(node, NaryOp) and node.op in ("and", "or"):
            return node.with_children(tuple(punch(o) for o in node.operands))
        if _compares_constant(node):
            value = node.right.value
            tag = type(value).__name__
            hole = Hole(tag, ranks[_domain(value)][value])
            return BinaryOp(node.op, node.left, Literal(hole))
        return node

    punched = tuple(
        box[:3] + (tuple(punch(p) for p in box[3]),) + box[4:]
        if box[0] == "select" else box
        for box in boxes
    )
    return GraphFingerprint((punched, root, order_by, limit))


def _compares_constant(node: Expr) -> bool:
    """A normalised ``expr <cmp> literal`` (normalisation puts the
    literal on the right)."""
    return (
        isinstance(node, BinaryOp)
        and node.op in COMPARISON_OPS
        and isinstance(node.right, Literal)
        and not isinstance(node.left, Literal)
    )


def _has_hole(predicate: Expr) -> bool:
    if isinstance(predicate, NaryOp) and predicate.op in ("and", "or"):
        return any(_has_hole(operand) for operand in predicate.operands)
    return _compares_constant(predicate)


def _collect(expr: Expr, constants: dict[str, set]) -> None:
    for node in expr.walk():
        if isinstance(node, Literal):
            constants.setdefault(_domain(node.value), set()).add(node.value)


def _domain(value) -> str:
    """Values that compare with each other rank together."""
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__
