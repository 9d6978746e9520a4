"""Scalar expression evaluation under SQL's 3-valued logic.

Predicates evaluate to True, False or None (UNKNOWN); WHERE and HAVING keep
a row only when the predicate is True. Arithmetic and comparisons propagate
NULL. AND/OR follow Kleene logic.

Aggregates are *not* evaluated here — :class:`repro.expr.nodes.AggCall`
nodes are computed by the GROUP-BY operator in the engine; encountering one
in scalar context is a programming error and raises.

This module is the *semantic reference*: one row at a time, one
interpreter dispatch per node. The batch executor instead compiles
expressions with :mod:`repro.expr.vector` into per-batch closures;
``tests/expr/test_vector.py`` holds the two element-for-element equal
(including where evaluation happens — guarded divisions raise in
neither). Change semantics here and the vector compiler must follow.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ExecutionError
from repro.expr.functions import lookup_function
from repro.expr.nodes import (
    AggCall,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    NaryOp,
    UnaryOp,
)

Resolver = Callable[[ColumnRef], Any]


def evaluate(expr: Expr, resolve: Resolver) -> Any:
    """Evaluate ``expr``; column values come from ``resolve``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, FuncCall):
        return _evaluate_function(expr, resolve)
    if isinstance(expr, NaryOp):
        return _evaluate_nary(expr, resolve)
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, resolve)
    if isinstance(expr, UnaryOp):
        return _evaluate_unary(expr, resolve)
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, resolve)
        return value is not None if expr.negated else value is None
    if isinstance(expr, InList):
        return _evaluate_in_list(expr, resolve)
    if isinstance(expr, CaseWhen):
        for condition, result in expr.pairs():
            if evaluate(condition, resolve) is True:
                return evaluate(result, resolve)
        return evaluate(expr.default, resolve)
    if isinstance(expr, AggCall):
        raise ExecutionError(f"aggregate {expr!r} outside GROUP-BY context")
    raise ExecutionError(f"cannot evaluate expression node {expr!r}")


def _evaluate_function(expr: FuncCall, resolve: Resolver) -> Any:
    function = lookup_function(expr.name)
    if function is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    args = [evaluate(arg, resolve) for arg in expr.args]
    if function.null_propagating and any(value is None for value in args):
        return None
    return function.impl(*args)


def _evaluate_nary(expr: NaryOp, resolve: Resolver) -> Any:
    if expr.op == "and":
        saw_null = False
        for operand in expr.operands:
            value = evaluate(operand, resolve)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True
    if expr.op == "or":
        saw_null = False
        for operand in expr.operands:
            value = evaluate(operand, resolve)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False
    values = [evaluate(operand, resolve) for operand in expr.operands]
    if any(value is None for value in values):
        return None
    if expr.op == "+":
        total: Any = 0
        for value in values:
            total = total + value
        return total
    if expr.op == "*":
        product: Any = 1
        for value in values:
            product = product * value
        return product
    raise ExecutionError(f"unknown n-ary operator {expr.op!r}")


def _evaluate_binary(expr: BinaryOp, resolve: Resolver) -> Any:
    left = evaluate(expr.left, resolve)
    right = evaluate(expr.right, resolve)
    if left is None or right is None:
        return None
    op = expr.op
    if op == "-":
        return left - right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero in %")
        return left % right
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown binary operator {op!r}")


def _evaluate_unary(expr: UnaryOp, resolve: Resolver) -> Any:
    value = evaluate(expr.operand, resolve)
    if expr.op == "-":
        return None if value is None else -value
    if expr.op == "not":
        if value is None:
            return None
        return not value
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _evaluate_in_list(expr: InList, resolve: Resolver) -> Any:
    value = evaluate(expr.operand, resolve)
    if value is None:
        return None
    saw_null = False
    found = False
    for item in expr.items:
        item_value = evaluate(item, resolve)
        if item_value is None:
            saw_null = True
        elif item_value == value:
            found = True
            break
    if found:
        result: Any = True
    elif saw_null:
        result = None
    else:
        result = False
    if expr.negated and result is not None:
        return not result
    return result


def evaluate_constant(expr: Expr) -> Any:
    """Evaluate an expression that must not reference any column."""

    def no_columns(ref: ColumnRef) -> Any:
        raise ExecutionError(f"unexpected column reference {ref!r} in constant")

    return evaluate(expr, no_columns)


def is_constant(expr: Expr) -> bool:
    """True if the expression references no columns and no aggregates."""
    return not expr.column_refs() and not expr.contains_aggregate()
