"""Vectorized expression compilation for the batch executor.

:func:`compile_vector` turns an :class:`~repro.expr.nodes.Expr` tree into
a closure evaluated once per **batch** instead of once per row: the tree
is walked a single time at compile, and the resulting function computes a
whole column of values for a *selection vector* of row indices.  The
per-row cost drops from a full interpreter dispatch per node to one list
comprehension per node.

Semantics are identical to :func:`repro.expr.evaluator.evaluate` —
including *where* evaluation happens, not just what it produces:

* SQL's 3-valued logic (NULL propagation, Kleene AND/OR) is preserved
  element-wise.
* Evaluation *sets* are preserved.  The row interpreter short-circuits:
  AND stops at the first False operand, ``x IN (...)`` never evaluates
  the item list for a NULL operand, CASE evaluates a THEN branch only
  for rows whose condition matched.  The compiled closures mirror this
  with shrinking selection vectors, so a guarded expression that would
  divide by zero on excluded rows raises in neither engine.

Compiled closures have the signature ``fn(resolve, sel) -> list`` where
``resolve(ColumnRef)`` returns the full column as a plain value list and
``sel`` is a ``range`` or list of row indices; the result is aligned
with ``sel``.  Compilation is memoized on the expression node and its
``repr``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

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
from repro.lru import LRU

#: resolve(ColumnRef) -> the full column as a plain value list
ColumnResolver = Callable[[ColumnRef], list]
#: a compiled expression: (resolve, selection) -> values aligned with sel
VectorFn = Callable[[ColumnResolver, Sequence[int]], list]

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: memoized compilations; expressions are hash-consed (PR 1), so this is
#: effectively keyed by structure.  Compilation is cheap, the cache only
#: needs to cover a working set of hot queries.
_CACHE = LRU(4096)


def compile_vector(expr: Expr) -> VectorFn:
    """Compile ``expr`` into a batch evaluator (memoized).

    The memo key carries ``repr(expr)`` because node equality does not
    see a literal's type: ``Lit(0) == Lit(-0.0) == Lit(False)``, yet
    ``x * 0`` and ``x * -0.0`` must not share a kernel."""
    key = (expr, repr(expr))
    fn = _CACHE.get(key)
    if fn is None:
        fn = _compile(expr)
        _CACHE.put(key, fn)
    return fn


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into top-level AND operands.

    Filtering applies each conjunct as its own selection pass, which is
    exactly the row interpreter's short-circuit order: a row rejected by
    conjunct *k* never evaluates conjunct *k+1*.
    """
    if isinstance(expr, NaryOp) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(conjuncts(operand))
        return out
    return [expr]


def _gather(column: list, sel) -> list:
    """Column values at ``sel``; zero-copy when ``sel`` is the identity."""
    if type(sel) is range and len(sel) == len(column):
        return column
    return [column[i] for i in sel]


# ----------------------------------------------------------------------
# Node compilers
# ----------------------------------------------------------------------
def _compile(expr: Expr) -> VectorFn:
    if isinstance(expr, Literal):
        value = expr.value

        def run_literal(resolve, sel, _v=value):
            return [_v] * len(sel)

        return run_literal

    if isinstance(expr, ColumnRef):

        def run_column(resolve, sel, _ref=expr):
            return _gather(resolve(_ref), sel)

        return run_column

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr)
    if isinstance(expr, NaryOp):
        return _compile_nary(expr)
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr)
    if isinstance(expr, IsNull):
        return _compile_is_null(expr)
    if isinstance(expr, InList):
        return _compile_in_list(expr)
    if isinstance(expr, CaseWhen):
        return _compile_case(expr)
    if isinstance(expr, FuncCall):
        return _compile_function(expr)
    if isinstance(expr, AggCall):
        raise ExecutionError(f"aggregate {expr!r} outside GROUP-BY context")
    raise ExecutionError(f"cannot evaluate expression node {expr!r}")


def _compile_binary(expr: BinaryOp) -> VectorFn:
    left = compile_vector(expr.left)
    right = compile_vector(expr.right)
    op = expr.op
    comparison = _COMPARISONS.get(op)
    if comparison is not None:
        # Constant-operand fast paths skip a zip and a None test per row.
        if isinstance(expr.right, Literal) and expr.right.value is not None:
            rv = expr.right.value

            def run_cmp_rconst(resolve, sel, _f=left, _op=comparison, _rv=rv):
                return [
                    None if a is None else _op(a, _rv)
                    for a in _f(resolve, sel)
                ]

            return run_cmp_rconst
        if isinstance(expr.left, Literal) and expr.left.value is not None:
            lv = expr.left.value

            def run_cmp_lconst(resolve, sel, _f=right, _op=comparison, _lv=lv):
                return [
                    None if b is None else _op(_lv, b)
                    for b in _f(resolve, sel)
                ]

            return run_cmp_lconst

        def run_cmp(resolve, sel, _l=left, _r=right, _op=comparison):
            return [
                None if a is None or b is None else _op(a, b)
                for a, b in zip(_l(resolve, sel), _r(resolve, sel))
            ]

        return run_cmp

    if op == "-":

        def run_sub(resolve, sel, _l=left, _r=right):
            return [
                None if a is None or b is None else a - b
                for a, b in zip(_l(resolve, sel), _r(resolve, sel))
            ]

        return run_sub

    if op == "/":

        def run_div(resolve, sel, _l=left, _r=right):
            out = []
            append = out.append
            for a, b in zip(_l(resolve, sel), _r(resolve, sel)):
                if a is None or b is None:
                    append(None)
                elif b == 0:
                    raise ExecutionError("division by zero")
                else:
                    append(a / b)
            return out

        return run_div

    if op == "%":

        def run_mod(resolve, sel, _l=left, _r=right):
            out = []
            append = out.append
            for a, b in zip(_l(resolve, sel), _r(resolve, sel)):
                if a is None or b is None:
                    append(None)
                elif b == 0:
                    raise ExecutionError("division by zero in %")
                else:
                    append(a % b)
            return out

        return run_mod

    raise ExecutionError(f"unknown binary operator {op!r}")


def _compile_nary(expr: NaryOp) -> VectorFn:
    fns = [compile_vector(operand) for operand in expr.operands]
    if expr.op == "and":
        return _compile_kleene(fns, short_on=False)
    if expr.op == "or":
        return _compile_kleene(fns, short_on=True)
    # ``+`` and ``*`` are left folds, one comprehension per operand: the
    # first step computes ``0 + a + b`` (``1 * a * b``), each later operand
    # folds in.  These are exactly the row evaluator's operations, so
    # ``-0.0``, bools and int/float mixes come out bit-identical.
    if expr.op == "+":

        def run_add(resolve, sel, _a=fns[0], _b=fns[1], _rest=fns[2:]):
            out = [
                None if a is None or b is None else 0 + a + b
                for a, b in zip(_a(resolve, sel), _b(resolve, sel))
            ]
            for fn in _rest:
                out = [
                    None if a is None or b is None else a + b
                    for a, b in zip(out, fn(resolve, sel))
                ]
            return out

        return run_add

    if expr.op == "*":

        def run_mul(resolve, sel, _a=fns[0], _b=fns[1], _rest=fns[2:]):
            out = [
                None if a is None or b is None else 1 * a * b
                for a, b in zip(_a(resolve, sel), _b(resolve, sel))
            ]
            for fn in _rest:
                out = [
                    None if a is None or b is None else a * b
                    for a, b in zip(out, fn(resolve, sel))
                ]
            return out

        return run_mul

    raise ExecutionError(f"unknown n-ary operator {expr.op!r}")


def _compile_kleene(fns: list[VectorFn], short_on: bool) -> VectorFn:
    """Kleene AND (``short_on=False``) / OR (``short_on=True``) with the
    interpreter's evaluation set: a row whose result is already decided
    (False for AND, True for OR) drops out of the selection before the
    next operand runs."""
    undecided = not short_on  # AND starts at True, OR at False

    def run(resolve, sel):
        out: list = [undecided] * len(sel)
        positions = range(len(sel))
        indices = sel
        for fn in fns:
            if not len(indices):
                break
            values = fn(resolve, indices)
            still = []
            for pos, value in zip(positions, values):
                if value is short_on:
                    out[pos] = short_on
                else:
                    if value is None:
                        out[pos] = None
                    still.append(pos)
            if len(still) != len(values):
                positions = still
                indices = [sel[p] for p in still]
        return out

    return run


def _compile_unary(expr: UnaryOp) -> VectorFn:
    operand = compile_vector(expr.operand)
    if expr.op == "-":

        def run_neg(resolve, sel, _f=operand):
            return [None if v is None else -v for v in _f(resolve, sel)]

        return run_neg

    if expr.op == "not":

        def run_not(resolve, sel, _f=operand):
            return [None if v is None else not v for v in _f(resolve, sel)]

        return run_not

    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _compile_is_null(expr: IsNull) -> VectorFn:
    operand = compile_vector(expr.operand)
    if expr.negated:

        def run_not_null(resolve, sel, _f=operand):
            return [v is not None for v in _f(resolve, sel)]

        return run_not_null

    def run_is_null(resolve, sel, _f=operand):
        return [v is None for v in _f(resolve, sel)]

    return run_is_null


def _compile_in_list(expr: InList) -> VectorFn:
    operand = compile_vector(expr.operand)
    negated = expr.negated
    literals = [
        item.value for item in expr.items if isinstance(item, Literal)
    ]
    if len(literals) == len(expr.items):
        # All-literal item list: one membership probe per row.  A literal
        # NULL item can only turn a miss into UNKNOWN, never a hit.
        saw_null = any(value is None for value in literals)
        try:
            members: Any = frozenset(v for v in literals if v is not None)
        except TypeError:  # unhashable literal (never parsed today)
            members = [v for v in literals if v is not None]

        def run_in_literals(
            resolve, sel, _f=operand, _m=members, _null=saw_null, _neg=negated
        ):
            out = []
            append = out.append
            for value in _f(resolve, sel):
                if value is None:
                    append(None)
                elif value in _m:
                    append(not _neg)
                elif _null:
                    append(None)
                else:
                    append(_neg)
            return out

        return run_in_literals

    item_fns = [compile_vector(item) for item in expr.items]

    def run_in(resolve, sel, _f=operand, _items=item_fns, _neg=negated):
        values = _f(resolve, sel)
        # The interpreter never evaluates the item list for NULL
        # operands; restrict the item columns the same way.
        probe = [i for i, v in zip(sel, values) if v is not None]
        item_columns = [fn(resolve, probe) for fn in _items]
        out: list = []
        append = out.append
        probe_pos = 0
        for value in values:
            if value is None:
                append(None)
                continue
            found = False
            saw_null = False
            for column in item_columns:
                item_value = column[probe_pos]
                if item_value is None:
                    saw_null = True
                elif item_value == value:
                    found = True
                    break
            probe_pos += 1
            if found:
                append(not _neg)
            elif saw_null:
                append(None)
            else:
                append(_neg)
        return out

    return run_in


def _compile_case(expr: CaseWhen) -> VectorFn:
    pairs = [
        (compile_vector(condition), compile_vector(result))
        for condition, result in expr.pairs()
    ]
    default = compile_vector(expr.default)

    def run_case(resolve, sel):
        out: list = [None] * len(sel)
        active = list(range(len(sel)))
        for condition_fn, result_fn in pairs:
            if not active:
                break
            indices = [sel[p] for p in active]
            conditions = condition_fn(resolve, indices)
            matched = [p for p, c in zip(active, conditions) if c is True]
            if matched:
                results = result_fn(resolve, [sel[p] for p in matched])
                for p, value in zip(matched, results):
                    out[p] = value
            active = [p for p, c in zip(active, conditions) if c is not True]
        if active:
            defaults = default(resolve, [sel[p] for p in active])
            for p, value in zip(active, defaults):
                out[p] = value
        return out

    return run_case


def _compile_function(expr: FuncCall) -> VectorFn:
    function = lookup_function(expr.name)
    if function is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    arg_fns = [compile_vector(arg) for arg in expr.args]
    impl = function.impl
    if function.null_propagating and len(arg_fns) == 1:
        fn = arg_fns[0]

        def run_func1(resolve, sel, _f=fn, _impl=impl):
            return [None if v is None else _impl(v) for v in _f(resolve, sel)]

        return run_func1

    null_propagating = function.null_propagating

    def run_func(resolve, sel, _fns=arg_fns, _impl=impl, _np=null_propagating):
        columns = [fn(resolve, sel) for fn in _fns]
        out = []
        append = out.append
        for args in zip(*columns) if columns else ((),) * len(sel):
            if _np and any(v is None for v in args):
                append(None)
            else:
                append(_impl(*args))
        return out

    return run_func
