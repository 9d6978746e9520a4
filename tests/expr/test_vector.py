"""Generated loops vs the row interpreter.

A value or a filter computed by :func:`repro.expr.vector.compile_loop`
must agree with :func:`repro.expr.evaluator.evaluate` element-for-element
— including NULL propagation, Kleene logic, and *where* evaluation
happens (short-circuits stay short-circuits, so guarded divisions raise
in neither engine).  Values are compared bit for bit,
as ``(type, repr)``: ``==`` would let ``-0.0`` pass for ``0``.
"""

from __future__ import annotations

import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

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
from repro.expr import vector
from repro.expr.nodes import CaseWhen
from repro.expr.vector import compile_loop, conjuncts
from repro.lru import LRU

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


def _columns(expr):
    return {ref: COLUMNS[ref.name] for ref in expr.column_refs()}


def vector_values(expr, sel=None):
    """``expr`` at every row of ``sel``, from one generated loop."""
    sel = range(NROWS) if sel is None else sel
    values: list = []
    sink = ("append", [values.append])
    compile_loop(_columns(expr), values=[expr], sink=sink)(sel)
    return [(type(v), repr(v)) for v in values]


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
    # Testing the parts in order, per row, equals the whole predicate
    # being True.
    rows: list = []
    compile_loop(_columns(whole), filters=parts, sink=("hash", rows))(range(NROWS))
    assert rows == [
        i for i, v in enumerate(row_values(whole)) if v == (bool, "True")
    ]


# ----------------------------------------------------------------------
# Source hygiene: a constant is a factory argument, never source text
# ----------------------------------------------------------------------
HOSTILE = [
    'it\'s "quoted"\n{x} \\ end',
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    datetime.date(1999, 12, 31),
    True,
    1,
]


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
def test_hostile_literal_round_trips(value):
    for expr in (
        Literal(value),
        CaseWhen((BinaryOp(">", X, Literal(2)), Literal(value)), NULL),
        FuncCall("coalesce", (NULL, Literal(value))),
        InList(Literal(value), (X, Literal(value))),
    ):
        assert vector_values(expr) == row_values(expr), expr


def test_true_next_to_one_keeps_both_types():
    # Node equality says Lit(True) == Lit(1); no memo may merge the two.
    big = BinaryOp(">", X, Literal(2))
    for expr in (
        CaseWhen((big, Literal(True)), Literal(1)),
        CaseWhen((big, Literal(1)), Literal(True)),
        NaryOp("*", (F, Literal(True))),
        NaryOp("*", (F, Literal(1))),
    ):
        assert vector_values(expr) == row_values(expr), expr


def _spy_compile(monkeypatch) -> list[str]:
    """A fresh memo, and every generated source the test compiles."""
    sources: list[str] = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(vector, "_CODE", LRU(16))
    monkeypatch.setattr(vector, "compile", spy, raising=False)
    return sources


def test_constants_share_one_compile_and_stay_out_of_source(monkeypatch):
    sources = _spy_compile(monkeypatch)
    first = BinaryOp(">", X, Literal(1.2345))
    second = BinaryOp(">", X, Literal(6.789))
    assert vector_values(first) == row_values(first)
    assert vector_values(second) == row_values(second)
    assert len(sources) == 1
    for value in ("1.2345", "6.789"):
        assert value not in sources[0]
    hostile = FuncCall("concat", (S, Literal(HOSTILE[0])))
    assert vector_values(hostile) == row_values(hostile)
    assert "quoted" not in sources[-1]


@pytest.mark.parametrize("op", ["/", "%"])
def test_a_nonzero_number_literal_divisor_is_inlined(monkeypatch, op):
    sources = _spy_compile(monkeypatch)
    for divisor in (100, 7, -2.5, float("nan"), True):
        expr = BinaryOp(op, X, Literal(divisor))
        assert vector_values(expr) == row_values(expr), divisor
    # one shape, one compile; the divisor is an argument, the operator inline
    assert len(sources) == 1
    assert f"(c0 {op} a0)" in sources[0]
    assert "100" not in sources[0]


@pytest.mark.parametrize("op", ["/", "%"])
@pytest.mark.parametrize("zero", [0, 0.0, -0.0, False], ids=repr)
def test_a_zero_literal_divisor_keeps_the_raising_helper(monkeypatch, op, zero):
    sources = _spy_compile(monkeypatch)
    expr = BinaryOp(op, X, Literal(zero))
    with pytest.raises(ExecutionError):
        vector_values(expr)
    with pytest.raises(ExecutionError):
        row_values(expr)
    assert f" {op} " not in sources[0]


@pytest.mark.parametrize("op", ["/", "%"])
def test_a_column_or_string_divisor_keeps_the_helper(monkeypatch, op):
    sources = _spy_compile(monkeypatch)
    for expr in (BinaryOp(op, X, Y), BinaryOp(op, X, Literal("2"))):
        assert _outcome(vector_values, expr) == _outcome(row_values, expr)
    assert len(sources) == 2
    assert not any(f" {op} " in source for source in sources)


# ----------------------------------------------------------------------
# Property: random trees over NULL-laden integer, float, bool, string
# and date columns agree with the row interpreter — values, and which
# trees raise (the same exception type in both engines).
# ----------------------------------------------------------------------
_LEAVES = st.sampled_from(
    [
        X, Y, F, B, S, NULL,
        Literal(0), Literal(2), Literal(-3),
        Literal(-0.0), Literal(0.5), Literal(1e16),
        FuncCall("year", (D,)), FuncCall("month", (D,)),
    ]
)


def _trees(children):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "/", "%"]), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
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
        children.map(lambda e: UnaryOp("not", e)),
        children.map(IsNull),
        st.tuples(
            children, st.lists(children, min_size=1, max_size=3), st.booleans()
        ).map(lambda t: InList(t[0], tuple(t[1]), negated=t[2])),
        st.tuples(
            st.lists(st.tuples(children, children), min_size=1, max_size=2),
            children,
        ).map(
            lambda t: CaseWhen(tuple(e for pair in t[0] for e in pair), t[1])
        ),
        children.map(lambda e: FuncCall("abs", (e,))),
        st.tuples(children, children).map(lambda t: FuncCall("mod", t)),
        st.lists(children, min_size=1, max_size=3).map(
            lambda args: FuncCall("coalesce", tuple(args))
        ),
    )


_EXPRS = st.recursive(_LEAVES, _trees, max_leaves=12)
_RAISES = (ExecutionError, TypeError)


def _outcome(values, expr, sel=None):
    try:
        return values(expr, sel)
    except _RAISES as error:
        return type(error)


# The count comes from the active profile (``--hypothesis-profile=chaos``
# runs 3 000), never fewer than the 150 tier-1 has always run.
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(expr=_EXPRS)
# Every non-NULL x equals the first item, so the evaluator never divides.
@example(expr=InList(X, (X, BinaryOp("/", X, Literal(0)))))
def test_random_trees_match_row_interpreter(expr):
    assert _outcome(vector_values, expr) == _outcome(row_values, expr)


def filter_rows(expr, sel):
    """The rows of ``sel`` a generated loop's filter keeps."""
    rows: list = []
    compile_loop(_columns(expr), filters=[expr], sink=("hash", rows))(sel)
    return rows


def passing_rows(expr, sel):
    return [
        i for i in sel
        if evaluate(expr, lambda ref: COLUMNS[ref.name][i]) is True
    ]


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(expr=_EXPRS)
def test_random_filters_keep_exactly_the_true_rows(expr):
    for sel in (range(NROWS), range(2, 7), [7, 0, 3, 5], []):
        assert _outcome(filter_rows, expr, sel) == _outcome(
            passing_rows, expr, sel
        ), sel
