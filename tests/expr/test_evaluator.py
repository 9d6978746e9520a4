"""Three-valued-logic evaluation."""

import datetime

import pytest

from repro.errors import BindError, ExecutionError
from repro.expr import (
    AggCall,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Literal,
    NaryOp,
    UnaryOp,
    evaluate,
    evaluate_constant,
    is_constant,
)
from repro.expr.nodes import CaseWhen


def ev(expr, row=None):
    row = row or {}
    return evaluate(expr, lambda ref: row[ref.name])


X = ColumnRef(None, "x")
Y = ColumnRef(None, "y")


class TestScalars:
    def test_arithmetic(self):
        assert ev(NaryOp("+", (Literal(1), Literal(2), Literal(3)))) == 6
        assert ev(NaryOp("*", (Literal(2), Literal(3)))) == 6
        assert ev(BinaryOp("-", Literal(5), Literal(2))) == 3
        assert ev(BinaryOp("/", Literal(7), Literal(2))) == 3.5
        assert ev(BinaryOp("%", Literal(7), Literal(2))) == 1

    def test_null_propagation(self):
        assert ev(NaryOp("+", (Literal(1), Literal(None)))) is None
        assert ev(BinaryOp("-", Literal(None), Literal(1))) is None
        assert ev(UnaryOp("-", Literal(None))) is None
        assert ev(BinaryOp(">", Literal(None), Literal(1))) is None

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            ev(BinaryOp("/", Literal(1), Literal(0)))
        with pytest.raises(ExecutionError):
            ev(BinaryOp("%", Literal(1), Literal(0)))

    def test_comparisons(self):
        assert ev(BinaryOp("<", Literal(1), Literal(2))) is True
        assert ev(BinaryOp("<>", Literal(1), Literal(1))) is False
        assert ev(BinaryOp(">=", Literal("b"), Literal("a"))) is True


class TestKleeneLogic:
    def test_and(self):
        null = Literal(None)
        assert ev(NaryOp("and", (Literal(True), null))) is None
        assert ev(NaryOp("and", (Literal(False), null))) is False
        assert ev(NaryOp("and", (Literal(True), Literal(True)))) is True

    def test_or(self):
        null = Literal(None)
        assert ev(NaryOp("or", (Literal(False), null))) is None
        assert ev(NaryOp("or", (Literal(True), null))) is True
        assert ev(NaryOp("or", (Literal(False), Literal(False)))) is False

    def test_not(self):
        assert ev(UnaryOp("not", Literal(None))) is None
        assert ev(UnaryOp("not", Literal(False))) is True

    def test_is_null(self):
        assert ev(IsNull(Literal(None))) is True
        assert ev(IsNull(Literal(1))) is False
        assert ev(IsNull(Literal(None), negated=True)) is False


class TestInList:
    def test_hit(self):
        assert ev(InList(Literal(2), (Literal(1), Literal(2)))) is True

    def test_miss(self):
        assert ev(InList(Literal(3), (Literal(1), Literal(2)))) is False

    def test_null_member_makes_miss_unknown(self):
        assert ev(InList(Literal(3), (Literal(1), Literal(None)))) is None

    def test_null_subject_unknown(self):
        assert ev(InList(Literal(None), (Literal(1),))) is None

    def test_negated(self):
        assert ev(InList(Literal(3), (Literal(1),), negated=True)) is True
        assert ev(InList(Literal(None), (Literal(1),), negated=True)) is None


class TestFunctionsAndCase:
    def test_date_parts(self):
        d = Literal(datetime.date(1991, 7, 15))
        assert ev(FuncCall("year", (d,))) == 1991
        assert ev(FuncCall("month", (d,))) == 7
        assert ev(FuncCall("day", (d,))) == 15
        assert ev(FuncCall("quarter", (d,))) == 3

    def test_functions_propagate_null(self):
        assert ev(FuncCall("year", (Literal(None),))) is None

    def test_coalesce_is_not_null_propagating(self):
        expr = FuncCall("coalesce", (Literal(None), Literal(5)))
        assert ev(expr) == 5

    def test_unknown_function_raises(self, small_db):
        # The binder rejects an unknown name, so no query the evaluator
        # runs ever calls one.
        with pytest.raises(BindError, match="frobnicate"):
            small_db.execute("select frobnicate(qty) as f from Trans")

    def test_case_when(self):
        expr = CaseWhen(
            (BinaryOp(">", X, Literal(0)), Literal("pos")),
            Literal("neg"),
        )
        assert ev(expr, {"x": 5}) == "pos"
        assert ev(expr, {"x": -5}) == "neg"
        assert ev(expr, {"x": None}) == "neg"  # UNKNOWN is not TRUE


class TestConstants:
    def test_is_constant(self):
        assert is_constant(NaryOp("+", (Literal(1), Literal(2))))
        assert not is_constant(X)
        assert not is_constant(AggCall("count"))

    def test_evaluate_constant_rejects_columns(self):
        with pytest.raises(ExecutionError):
            evaluate_constant(X)

    def test_aggregate_outside_groupby_raises(self):
        with pytest.raises(ExecutionError):
            ev(AggCall("count"))
