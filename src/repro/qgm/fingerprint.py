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

:func:`template` derives a constant-free *shape key* from a fingerprint
together with the statement's :class:`Binding` — its constants in rank
order — in one pass: the rewrite decision cache files one proven
template per shape and instantiates it for each binding (see
docs/ALGORITHM.md, "Matching fast path").
"""

from __future__ import annotations

import functools
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
        cache, :func:`template`'s memo and the decision cache."""
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


@dataclass(frozen=True)
class Hole:
    """What stands in a shape key for one comparison constant: all a
    matcher can learn about it without comparing it to a summary's own
    constant — its type, and where it stands among the query's other
    constants (equal values share a rank)."""

    type_tag: str
    rank: int


@dataclass(frozen=True)
class Binding:
    """One statement's constants: per domain the distinct values in rank
    order, and the ``(domain, rank)`` classes of those outside a hole,
    which the shape key holds by value."""

    values: dict[str, tuple]
    kept: frozenset[tuple[str, int]]


def shape_key(exact: GraphFingerprint) -> GraphFingerprint:
    """The shape key of :func:`template`, without the binding."""
    return template(exact)[0]


def template(exact: GraphFingerprint) -> tuple[GraphFingerprint, Binding | None]:
    """``exact`` with the right-hand literal of every ``expr <cmp>
    literal`` predicate (reached through AND/OR) replaced by a
    :class:`Hole`, and the statement's :class:`Binding` — memoised, so a
    statement that repeats exactly derives neither again. Every other
    constant — IN-lists, arithmetic operands, function arguments, output
    expressions, LIMIT — stays in the key by value. The key is ``exact``
    itself when no predicate compares against a constant; the binding is
    None, and the key ``exact``, when the query's constants cannot be
    ranked or two equal ones differ in type (``5``/``5.0``,
    ``1``/``True``).

    Ranks are taken over *all* the query's constants, kept ones
    included, so two fingerprints with one shape key are the same graph
    up to an order-preserving renaming of constants: any ``=`` or ``<``
    between two of the query's own constants reads the same in both.
    Numbers rank together; other types rank among themselves.
    """
    key, binding = _template(exact)
    return exact if key is None else key, binding


@functools.lru_cache(maxsize=256)
def _template(exact: GraphFingerprint) -> tuple[GraphFingerprint | None, Binding | None]:
    """:func:`template`, with None for a key that is ``exact`` itself."""
    boxes, root, order_by, limit = exact.key
    kept: list = []
    holes: list = []
    for box in boxes:
        for _, expr, _ in box[2]:
            if expr is not None:
                kept += expr.literal_values()
        if box[0] == "select":
            for predicate in box[3]:
                outside, inside = _split(predicate)
                kept += outside
                holes += inside
    constants: dict[str, list] = {}
    for value in kept + holes:
        constants.setdefault(domain(value), []).append(value)
    values = {}
    ranks = {}
    for name, raw in constants.items():
        distinct = set(raw)
        if len(distinct) < len(raw) and len(distinct) < len(set(map(Literal, raw))):
            return None, None  # equal constants of different types
        try:
            values[name] = ordered = tuple(sorted(distinct))
        except TypeError:
            return None, None
        ranks[name] = {value: rank for rank, value in enumerate(ordered)}
    binding = Binding(values, frozenset(
        (name, ranks[name][value])
        for name, value in zip(map(domain, kept), kept)
    ))
    if not holes:
        return None, binding
    punched = tuple(
        box[:3] + (tuple(_punch(p, ranks) for p in box[3]),) + box[4:]
        if box[0] == "select" else box
        for box in boxes
    )
    return GraphFingerprint((punched, root, order_by, limit)), binding


def _compares_constant(node: Expr) -> bool:
    """A normalised ``expr <cmp> literal`` (normalisation puts the
    literal on the right)."""
    return (
        isinstance(node, BinaryOp)
        and node.op in COMPARISON_OPS
        and isinstance(node.right, Literal)
        and not isinstance(node.left, Literal)
    )


def _split(predicate: Expr) -> tuple[tuple, tuple]:
    """``predicate``'s constants outside its holes and in them — the
    right-hand literal of a comparison reached through AND/OR — cached
    on the (interned, normalised) node."""
    try:
        return predicate._split
    except AttributeError:
        pass
    if isinstance(predicate, NaryOp) and predicate.op in ("and", "or"):
        parts = [_split(operand) for operand in predicate.operands]
        split = (
            sum((outside for outside, _ in parts), ()),
            sum((inside for _, inside in parts), ()),
        )
    elif _compares_constant(predicate):
        split = (predicate.left.literal_values(), (predicate.right.value,))
    else:
        split = (predicate.literal_values(), ())
    object.__setattr__(predicate, "_split", split)
    return split


def _punch(predicate: Expr, ranks: dict) -> Expr:
    """``predicate`` with its holes, ranked by ``ranks``; one node per
    predicate and ranking, cached on the predicate."""
    inside = _split(predicate)[1]
    if not inside:
        return predicate
    key = tuple((type(value), ranks[domain(value)][value]) for value in inside)
    try:
        punched = predicate._punched
    except AttributeError:
        punched = {}
        object.__setattr__(predicate, "_punched", punched)
    if key not in punched:
        holes = (Hole(kind.__name__, rank) for kind, rank in key)

        def punch(node: Expr) -> Expr:
            if isinstance(node, NaryOp) and node.op in ("and", "or"):
                return node.with_children(tuple(punch(o) for o in node.operands))
            if _compares_constant(node):
                return BinaryOp(node.op, node.left, Literal(next(holes)))
            return node

        punched[key] = punch(predicate)
    return punched[key]


def domain(value) -> str:
    """Values that compare with each other rank together."""
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__
