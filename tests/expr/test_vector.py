"""Vectorized expression compilation vs the row interpreter.

:func:`repro.expr.vector.compile_vector` must agree with
:func:`repro.expr.evaluator.evaluate` element-for-element — including
NULL propagation, Kleene logic, and *where* evaluation happens
(short-circuits become shrinking selection vectors, so guarded
divisions raise in neither engine).  Values are compared bit for bit,
as ``(type, repr)``: ``==`` would let ``-0.0`` pass for ``0``.
"""

from __future__ import annotations

import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ExecutionError
from repro.expr import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Literal,
    NaryOp,
    UnaryOp,
    evaluate,
)
from repro.expr.nodes import CaseWhen
from repro.expr.vector import compile_vector, conjuncts

X = ColumnRef(None, "x")
Y = ColumnRef(None, "y")
S = ColumnRef(None, "s")
D = ColumnRef(None, "d")
F = ColumnRef(None, "f")
B = ColumnRef(None, "b")

COLUMNS = {
    "x": [1, None, 3, -4, 0, 7, None, 2],
    "y": [2, 5, None, 4, 0, -1, None, 2],
    "s": ["ab", None, "c", "ab", "", "zz", "q", None],
    "d": [
        datetime.date(1995, 1, 15),
        datetime.date(1996, 7, 1),
        None,
        datetime.date(1995, 12, 31),
        datetime.date(2000, 2, 29),
        datetime.date(1999, 6, 6),
        None,
        datetime.date(1995, 1, 15),
    ],
    "f": [0.5, -0.0, 0.0, 1e16, 0.1, None, -0.0, 0.1],
    "b": [True, False, None, True, False, True, None, False],
}
NROWS = len(COLUMNS["x"])


def vector_values(expr, sel=None):
    sel = range(NROWS) if sel is None else sel
    fn = compile_vector(expr)
    return [(type(v), repr(v)) for v in fn(lambda ref: COLUMNS[ref.name], sel)]


def row_values(expr, sel=None):
    sel = range(NROWS) if sel is None else sel
    return [
        (type(v), repr(v))
        for v in (
            evaluate(expr, lambda ref: COLUMNS[ref.name][i]) for i in sel
        )
    ]


NULL = Literal(None)

EXPRESSIONS = [
    X,
    Literal(42),
    BinaryOp("=", X, Y),
    BinaryOp("<>", X, Y),
    BinaryOp("<", X, Literal(3)),
    BinaryOp("<=", Literal(2), X),
    BinaryOp(">", X, Y),
    BinaryOp(">=", Y, Literal(0)),
    NaryOp("+", (X, Y)),
    BinaryOp("-", X, Literal(1)),
    NaryOp("+", (X, Y, Literal(10))),
    NaryOp("*", (X, X)),
    NaryOp("+", (F, F)),
    NaryOp("+", (F, X, B, F)),
    NaryOp("*", (F, Literal(-0.0))),
    NaryOp("*", (B, X, F, Literal(0.1))),
    NaryOp("+", (B, B)),
    UnaryOp("-", X),
    UnaryOp("not", BinaryOp("<", X, Y)),
    IsNull(X),
    IsNull(Y, negated=True),
    NaryOp("and", (BinaryOp("<", X, Y), BinaryOp(">", Y, Literal(0)))),
    NaryOp("or", (IsNull(X), BinaryOp("=", Y, Literal(2)))),
    NaryOp("and", (Literal(True), NULL)),
    NaryOp("or", (BinaryOp(">", X, Literal(100)), NULL)),
    InList(X, (Literal(1), Literal(3), Literal(7))),
    InList(X, (Literal(1), NULL)),
    InList(X, (Literal(2), Y), negated=True),
    InList(S, (Literal("ab"), Literal("zz"))),
    CaseWhen(
        (BinaryOp(">", X, Literal(2)), Literal("big")),
        Literal("small"),
    ),
    CaseWhen(
        (
            IsNull(X),
            Literal(0),
            BinaryOp("<", X, Y),
            NaryOp("+", (X, Y)),
        ),
        UnaryOp("-", X),
    ),
    FuncCall("year", (D,)),
    FuncCall("month", (D,)),
    FuncCall("abs", (X,)),
    FuncCall("upper", (S,)),
    FuncCall("length", (S,)),
    FuncCall("coalesce", (X, Y, Literal(-1))),
    FuncCall("concat", (S, Literal("!"))),
]


@pytest.mark.parametrize(
    "expr", EXPRESSIONS, ids=[repr(e)[:60] for e in EXPRESSIONS]
)
def test_matches_row_interpreter(expr):
    assert vector_values(expr) == row_values(expr)


@pytest.mark.parametrize("sel", [range(0), [0], [7, 0, 3], range(2, 6)])
def test_selection_vector_alignment(sel):
    expr = NaryOp("+", (X, Y, Literal(1)))
    assert vector_values(expr, sel) == row_values(expr, sel)


class TestDivisionParity:
    def test_unguarded_division_raises_in_both(self):
        expr = BinaryOp("/", X, Y)  # y contains 0
        with pytest.raises(ExecutionError):
            row_values(expr)
        with pytest.raises(ExecutionError):
            vector_values(expr)
        expr = BinaryOp("%", X, Y)
        with pytest.raises(ExecutionError):
            vector_values(expr)

    def test_case_guard_protects_both(self):
        # The THEN branch only ever sees rows where y <> 0, so neither
        # engine may raise: the compiled CASE must evaluate x / y on the
        # *shrunk* selection, not the full batch.
        expr = CaseWhen(
            (BinaryOp("<>", Y, Literal(0)), BinaryOp("/", X, Y)),
            NULL,
        )
        assert vector_values(expr) == row_values(expr)

    def test_and_guard_protects_both(self):
        expr = NaryOp(
            "and",
            (
                BinaryOp("<>", Y, Literal(0)),
                BinaryOp(">", BinaryOp("/", X, Y), Literal(0)),
            ),
        )
        assert vector_values(expr) == row_values(expr)


def test_conjuncts_split_and_round_trip():
    a = BinaryOp(">", X, Literal(0))
    b = IsNull(Y, negated=True)
    c = BinaryOp("<", X, Y)
    whole = NaryOp("and", (a, NaryOp("and", (b, c))))
    parts = conjuncts(whole)
    assert set(parts) >= {a, c}
    # Applying the parts as successive filters equals the whole predicate
    # being True.
    sel = range(NROWS)
    for part in parts:
        fn = compile_vector(part)
        vals = fn(lambda ref: COLUMNS[ref.name], sel)
        sel = [i for i, v in zip(sel, vals) if v is True]
    assert sel == [
        i for i, v in enumerate(row_values(whole)) if v == (bool, "True")
    ]


# ----------------------------------------------------------------------
# Property: random comparison/arithmetic/logic trees over NULL-laden
# integer, float and bool columns agree with the row interpreter.
# ----------------------------------------------------------------------
_LEAVES = st.sampled_from(
    [
        X, Y, F, B, NULL,
        Literal(0), Literal(2), Literal(-3),
        Literal(-0.0), Literal(0.5), Literal(1e16),
    ]
)


def _trees(children):
    return st.one_of(
        st.tuples(children, children).map(
            lambda t: BinaryOp("-", t[0], t[1])
        ),
        st.tuples(
            st.sampled_from(["+", "*"]),
            st.lists(children, min_size=2, max_size=4),
        ).map(lambda t: NaryOp(t[0], tuple(t[1]))),
        st.tuples(
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            children,
            children,
        ).map(lambda t: BinaryOp(t[0], t[1], t[2])),
        st.tuples(
            st.sampled_from(["and", "or"]),
            st.lists(children, min_size=2, max_size=3),
        ).map(lambda t: NaryOp(t[0], tuple(t[1]))),
        children.map(lambda e: UnaryOp("-", e)),
        children.map(IsNull),
    )


_EXPRS = st.recursive(_LEAVES, _trees, max_leaves=12)


# The count comes from the active profile (``--hypothesis-profile=chaos``
# runs 3 000), never fewer than the 150 tier-1 has always run.
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(expr=_EXPRS)
def test_random_trees_match_row_interpreter(expr):
    try:
        expected = row_values(expr)
    except ExecutionError:
        # 'and'/'or' over non-boolean operands etc. — the vector engine
        # must reject the same expressions.
        with pytest.raises(ExecutionError):
            vector_values(expr)
        return
    assert vector_values(expr) == expected
