"""Immutable expression trees.

Expressions are frozen dataclasses so they are hashable and comparable by
structure — the matcher's expression-equivalence tests reduce to ``==`` on
normalized trees (see :mod:`repro.expr.normalize`).

Design notes:

* ``+``, ``*``, ``AND`` and ``OR`` are modelled as *n-ary* nodes
  (:class:`NaryOp`) and flattened during normalization, so associativity
  and commutativity never block a match. Subtraction, division, modulo and
  comparisons stay binary.
* A :class:`ColumnRef` is the QGM notion of a QNC: a reference to a column
  ``name`` produced by the child bound to quantifier ``qualifier``. In raw
  parse trees the qualifier is a table alias (or None before binding).
* :class:`AggCall` covers COUNT(*), COUNT/SUM/AVG/MIN/MAX and the DISTINCT
  variants. Aggregates appear only in GROUP-BY box outputs.
* Every node caches its structural hash on first use (see
  :func:`_cached_hash`): the matcher and the rewrite fast path hash the
  same subtrees over and over (normalization memos, fingerprints, set
  membership), and the dataclass-generated hash walks the whole tree on
  every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

COMMUTATIVE_OPS = ("+", "*", "and", "or")
ARITHMETIC_BINARY_OPS = ("-", "/", "%")
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: comparison op -> its mirror when the two sides are swapped
MIRRORED_COMPARISON = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: comparison op -> its negation
NEGATED_COMPARISON = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


def _cached_hash(cls):
    """Class decorator: memoize the dataclass-generated ``__hash__``.

    Nodes are immutable, so the structural hash never changes; computing
    it once and stashing it on the instance turns repeated hashing of a
    deep tree from O(size) into O(1). The cache lives in the instance
    ``__dict__`` and is invisible to the generated ``__eq__``/``__repr__``
    (both look only at declared fields).
    """
    structural_hash = cls.__hash__

    def __hash__(self, _structural=structural_hash):
        try:
            return self._hash
        except AttributeError:
            value = _structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


class Expr:
    """Base class for all expression nodes. Subclasses are frozen
    dataclasses; instances are immutable and hashable."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        """The direct sub-expressions, in a stable order."""
        raise NotImplementedError

    def with_children(self, children: tuple["Expr", ...]) -> "Expr":
        """A copy of this node with ``children`` substituted in order."""
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def literal_values(self) -> tuple:
        """The values of the tree's literals, pre-order; computed once and
        cached on the node, like its hash."""
        try:
            return self._literal_values
        except AttributeError:
            found = tuple(
                node.value for node in self.walk() if isinstance(node, Literal)
            )
            object.__setattr__(self, "_literal_values", found)
            return found

    def column_refs(self) -> list["ColumnRef"]:
        """All :class:`ColumnRef` leaves in the tree (with duplicates)."""
        try:
            return list(self._column_refs)
        except AttributeError:
            found = tuple(
                node for node in self.walk() if isinstance(node, ColumnRef)
            )
            object.__setattr__(self, "_column_refs", found)
            return list(found)

    def contains_aggregate(self) -> bool:
        """True if any node in the tree is an :class:`AggCall`."""
        return any(isinstance(node, AggCall) for node in self.walk())

    def transform(self, visit: Callable[["Expr"], "Expr | None"]) -> "Expr":
        """Rewrite the tree top-down.

        ``visit`` is called on each node; returning a non-None expression
        replaces the node (and the replacement is *not* re-visited),
        returning None recurses into the children.
        """
        replacement = visit(self)
        if replacement is not None:
            return replacement
        children = self.children()
        if not children:
            return self
        new_children = tuple(child.transform(visit) for child in children)
        if new_children == children:
            return self
        return self.with_children(new_children)

    def substitute(self, mapping: dict["Expr", "Expr"]) -> "Expr":
        """Replace every occurrence of each key of ``mapping`` (matched by
        structural equality, largest-subtree-first) with its value."""
        return self.transform(lambda node: mapping.get(node))


@_cached_hash
@dataclass(frozen=True)
class Literal(Expr):
    """A constant. ``value is None`` means SQL NULL."""

    value: Any

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return self

    def __eq__(self, other) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        return same_value(self.value, other.value)

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


def same_value(a, b) -> bool:
    """Are ``a`` and ``b`` one constant? ``5``, ``5.0`` and ``True`` are
    equal values but three constants (as are ``0.0`` and ``-0.0``): a
    literal keeps its type and sign through every memo and key it
    enters."""
    return a is b or (
        type(a) is type(b) and a == b
        and (type(a) is not float or repr(a) == repr(b))
    )


TRUE = Literal(True)
FALSE = Literal(False)
NULL = Literal(None)


@_cached_hash
@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to column ``name`` of the child bound to quantifier
    ``qualifier`` (a QNC in QGM terms)."""

    qualifier: str | None
    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return self

    def __repr__(self) -> str:
        if self.qualifier is None:
            return f"Col({self.name})"
        return f"Col({self.qualifier}.{self.name})"


@_cached_hash
@dataclass(frozen=True)
class FuncCall(Expr):
    """A scalar (non-aggregate) function call, e.g. ``year(date)``."""

    name: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return FuncCall(self.name, children)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@_cached_hash
@dataclass(frozen=True)
class NaryOp(Expr):
    """A flattened commutative/associative operator: +, *, and, or."""

    op: str
    operands: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in COMMUTATIVE_OPS:
            raise ValueError(f"NaryOp does not support operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return NaryOp(self.op, children)

    def __repr__(self) -> str:
        return f" {self.op} ".join(map(repr, self.operands)).join("()")


@_cached_hash
@dataclass(frozen=True)
class BinaryOp(Expr):
    """A non-commutative binary operator: - / % and the comparisons."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_BINARY_OPS + COMPARISON_OPS:
            raise ValueError(f"BinaryOp does not support operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return BinaryOp(self.op, children[0], children[1])

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@_cached_hash
@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus or logical NOT."""

    op: str  # '-' or 'not'
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "not"):
            raise ValueError(f"UnaryOp does not support operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return UnaryOp(self.op, children[0])

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


@_cached_hash
@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS NULL`` or, when ``negated``, ``expr IS NOT NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return IsNull(children[0], self.negated)

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"


@_cached_hash
@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (item, ...)`` over literal or scalar items."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,) + self.items

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return InList(children[0], tuple(children[1:]), self.negated)

    def __repr__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand!r} {keyword} {list(self.items)!r})"


@_cached_hash
@dataclass(frozen=True)
class CaseWhen(Expr):
    """Searched CASE: ``CASE WHEN c1 THEN v1 ... ELSE e END``.

    ``branches`` holds (condition, value) pairs flattened into one tuple so
    the node stays hashable; ``default`` may be NULL.
    """

    branches: tuple[Expr, ...]  # c1, v1, c2, v2, ...
    default: Expr = field(default_factory=lambda: NULL)

    def __post_init__(self) -> None:
        if not self.branches or len(self.branches) % 2 != 0:
            raise ValueError("CaseWhen needs (condition, value) pairs")

    def children(self) -> tuple[Expr, ...]:
        return self.branches + (self.default,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return CaseWhen(tuple(children[:-1]), children[-1])

    def pairs(self) -> list[tuple[Expr, Expr]]:
        return [
            (self.branches[i], self.branches[i + 1])
            for i in range(0, len(self.branches), 2)
        ]

    def __repr__(self) -> str:
        whens = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.pairs())
        return f"(CASE {whens} ELSE {self.default!r} END)"


@_cached_hash
@dataclass(frozen=True)
class AggCall(Expr):
    """An aggregate function application.

    ``arg is None`` encodes COUNT(*). ``distinct`` marks COUNT(DISTINCT x)
    and SUM(DISTINCT x).
    """

    func: str
    arg: Expr | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise ValueError(f"{self.func}() requires an argument")

    def children(self) -> tuple[Expr, ...]:
        return () if self.arg is None else (self.arg,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        arg = children[0] if children else None
        return AggCall(self.func, arg, self.distinct)

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func.upper()}({inner})"


def conjunction(predicates: list[Expr]) -> Expr:
    """AND together a list of predicates (TRUE when empty)."""
    live = [p for p in predicates if p != TRUE]
    if not live:
        return TRUE
    if len(live) == 1:
        return live[0]
    return NaryOp("and", tuple(live))


def disjunction(predicates: list[Expr]) -> Expr:
    """OR together a list of predicates (FALSE when empty)."""
    live = [p for p in predicates if p != FALSE]
    if not live:
        return FALSE
    if len(live) == 1:
        return live[0]
    return NaryOp("or", tuple(live))


def split_conjuncts(predicate: Expr) -> list[Expr]:
    """Split a predicate into its top-level AND conjuncts."""
    if isinstance(predicate, NaryOp) and predicate.op == "and":
        conjuncts: list[Expr] = []
        for operand in predicate.operands:
            conjuncts.extend(split_conjuncts(operand))
        return conjuncts
    if predicate == TRUE:
        return []
    return [predicate]
