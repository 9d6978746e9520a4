"""Property-based tests for the expression core (hypothesis)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.expr import (
    BinaryOp,
    ColumnRef,
    EquivalenceClasses,
    IsNull,
    Literal,
    NaryOp,
    UnaryOp,
    evaluate,
    implies,
    normalize,
)

COLUMNS = ["a", "b", "c"]
#: per property: 50 under hypothesis' default profile, 1 500 under CI's
#: ``--hypothesis-profile=chaos``
EXAMPLES = settings.default.max_examples // 2


def columns() -> st.SearchStrategy:
    return st.sampled_from([ColumnRef("t", name) for name in COLUMNS])


def literals() -> st.SearchStrategy:
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Literal),
        st.sampled_from([Literal(None), Literal(0), Literal(1)]),
    )


@st.composite
def numeric_exprs(draw, depth: int = 3):
    if depth == 0:
        return draw(st.one_of(columns(), literals()))
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(st.one_of(columns(), literals()))
    if kind == 1:
        operands = draw(
            st.lists(numeric_exprs(depth=depth - 1), min_size=2, max_size=3)
        )
        return NaryOp("+", tuple(operands))
    if kind == 2:
        operands = draw(
            st.lists(numeric_exprs(depth=depth - 1), min_size=2, max_size=3)
        )
        return NaryOp("*", tuple(operands))
    if kind == 3:
        return BinaryOp(
            "-",
            draw(numeric_exprs(depth=depth - 1)),
            draw(numeric_exprs(depth=depth - 1)),
        )
    return UnaryOp("-", draw(numeric_exprs(depth=depth - 1)))


@st.composite
def predicates(draw, depth: int = 2):
    if depth == 0:
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return BinaryOp(op, draw(numeric_exprs(1)), draw(numeric_exprs(1)))
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return IsNull(draw(numeric_exprs(1)), negated=draw(st.booleans()))
    if kind == 1:
        operands = draw(st.lists(predicates(depth=depth - 1), min_size=2, max_size=3))
        return NaryOp(draw(st.sampled_from(["and", "or"])), tuple(operands))
    if kind == 2:
        return UnaryOp("not", draw(predicates(depth=depth - 1)))
    op = draw(st.sampled_from(["=", "<", ">"]))
    return BinaryOp(op, draw(numeric_exprs(1)), draw(numeric_exprs(1)))


def rows() -> st.SearchStrategy:
    cell = st.one_of(st.integers(min_value=-20, max_value=20), st.none())
    return st.fixed_dictionaries({name: cell for name in COLUMNS})


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=numeric_exprs())
def test_normalize_is_idempotent(expr):
    once = normalize(expr)
    assert normalize(once) == once


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=predicates())
def test_normalize_predicates_idempotent(expr):
    once = normalize(expr)
    assert normalize(once) == once


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=numeric_exprs(), row=rows())
def test_normalize_preserves_semantics(expr, row):
    resolve = lambda ref: row[ref.name]
    assert evaluate(expr, resolve) == evaluate(normalize(expr), resolve)


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=predicates(), row=rows())
def test_normalize_preserves_predicate_semantics(expr, row):
    resolve = lambda ref: row[ref.name]
    assert evaluate(expr, resolve) == evaluate(normalize(expr), resolve)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    premise=predicates(depth=1),
    conclusion=predicates(depth=1),
    row=rows(),
)
def test_implication_is_sound(premise, conclusion, row):
    """If implies(p, q) claims truth, no row may satisfy p but not q."""
    if implies(premise, conclusion):
        resolve = lambda ref: row[ref.name]
        if evaluate(premise, resolve) is True:
            assert evaluate(conclusion, resolve) is True


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(columns(), columns()), min_size=0, max_size=4
    ),
    expr=numeric_exprs(depth=2),
)
def test_equivalence_rewrite_stable(pairs, expr):
    classes = EquivalenceClasses()
    for left, right in pairs:
        classes.add_equality(left, right)
    rewritten = classes.rewrite(expr)
    assert classes.rewrite(rewritten) == rewritten  # idempotent
    for ref in rewritten.column_refs():
        assert classes.rewrite(ref) == ref  # fully canonical
