"""Parse-tree nodes for SQL statements.

Scalar expressions reuse :mod:`repro.expr.nodes`; the only SQL-specific
expression node is :class:`SubqueryExpr`, which wraps a nested
:class:`SelectStatement` used as a scalar value. The QGM builder replaces
it with a column reference over a new quantifier.

All nodes are frozen dataclasses with tuple-valued collections so that
statements (and therefore subquery expressions) are hashable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.expr.nodes import Expr


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list: an expression plus optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A base-table reference in FROM, with optional alias."""

    name: str
    alias: str | None = None


@dataclass(frozen=True)
class DerivedTableRef:
    """A parenthesized subquery in FROM: ``(SELECT ...) [AS alias]``.

    The alias may be omitted (the paper's Q8 does so); the binder then
    assigns a generated one.
    """

    query: "SelectStatement"
    alias: str | None


FromItem = TableRef | DerivedTableRef


@dataclass(frozen=True)
class SimpleGrouping:
    """A plain GROUP BY item: one grouping expression."""

    expr: Expr


@dataclass(frozen=True)
class Rollup:
    """``ROLLUP(e1, ..., en)``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Cube:
    """``CUBE(e1, ..., en)``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class GroupingSets:
    """``GROUPING SETS((..), (..), ())`` — each member set is a tuple of
    grouping expressions; the empty tuple is the grand total."""

    sets: tuple[tuple[Expr, ...], ...]


GroupingElement = SimpleGrouping | Rollup | Cube | GroupingSets


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key; ``expr`` may also be a select-list alias name."""

    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    """A (possibly nested) SELECT block."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: Expr | None = None
    group_by: tuple[GroupingElement, ...] = ()
    having: Expr | None = None
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    select_star: bool = False
    limit: int | None = None


@dataclass(frozen=True)
class UnionAll:
    """``select ... UNION ALL select ...`` — bag union of uniform
    branches. ORDER BY/LIMIT are not supported around a union."""

    branches: tuple["SelectStatement", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("UNION ALL needs at least two branches")


QueryExpression = SelectStatement | UnionAll


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A scalar subquery used inside an expression.

    Only uncorrelated subqueries are supported (the paper excludes
    correlated queries); the binder enforces this.
    """

    query: SelectStatement

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        return self

    def __repr__(self) -> str:
        return "Subquery(...)"
