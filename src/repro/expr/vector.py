"""Vectorized expression compilation for the batch executor.

:func:`compile_vector` turns an :class:`~repro.expr.nodes.Expr` tree into
a kernel evaluated once per **batch** instead of once per row: the tree is
generated as Python source for **one** list comprehension over the zipped
columns it reads, and compiled.  :func:`compile_filter` does the same for
a predicate and returns the row numbers where it is TRUE.  Either way a
row costs one pass of compiled bytecode, with no interpreter dispatch per
node and no intermediate list per node.

A generated row evaluates exactly what :func:`repro.expr.evaluator.evaluate`
evaluates, in the same order — not just the same values:

* Strict nodes (arithmetic, comparisons, functions, unary ``-``/NOT,
  IS NULL) bind every compound operand with ``:=`` and join the NULL
  tests with ``|``, never ``or``, so every operand runs, left to right,
  before NULL propagates.
* AND, OR, CASE and IN are chains of conditional expressions, each
  stopping where the evaluator stops: AND at the first False operand,
  ``x IN (...)`` at the first equal item and never for a NULL operand,
  CASE at the first TRUE condition.  A guarded expression that would
  divide by zero on excluded rows raises in neither engine.
* ``/`` and ``%`` call helpers raising the evaluator's ``ExecutionError``;
  ``year``/``month``/``day`` read the date's attribute.

No value of the query reaches the source: constants, function
implementations and helpers are arguments of a generated factory, so the
text depends only on the tree's shape, and the compiled factory is
memoised by that text — ``x > 1.5`` and ``x > 2.5`` share one
``compile()``.

Kernels have the signature ``fn(resolve, sel) -> list`` where
``resolve(ColumnRef)`` returns the full column as a plain value list and
``sel`` is a ``range`` or list of row indices; a :func:`compile_vector`
result is aligned with ``sel``, a :func:`compile_filter` result is the
sub-list of ``sel`` that passes.
"""

from __future__ import annotations

from typing import Callable, Sequence

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

#: SQL binary operator → Python operator (``/`` and ``%`` are helpers)
_BINARY = {
    "-": "-", "=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
#: functions whose row evaluator is ``d.<name>``
_DATE_PARTS = ("year", "month", "day")

#: kernels by (node, ``repr``, filter?); node equality does not see a
#: literal's type (``Lit(0) == Lit(-0.0) == Lit(False)``), so the memo key
#: carries the ``repr`` too: ``x * 0`` and ``x * -0.0`` must not share one
_KERNELS = LRU(4096)
#: generated factories by source text: one ``compile()`` per tree shape
_CODE = LRU(1024)


def compile_vector(expr: Expr) -> VectorFn:
    """Compile ``expr`` into a batch evaluator (memoized)."""
    return _kernel(expr, False)


def compile_filter(expr: Expr) -> VectorFn:
    """Compile predicate ``expr`` into ``fn(resolve, sel)`` returning the
    indices of ``sel`` where it is TRUE, in order (memoized)."""
    return _kernel(expr, True)


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


def view(column: list, sel):
    """``column`` at ``sel``, for one pass: the list itself for the
    identity range, a slice for a sub-range, a gather for an index list."""
    if type(sel) is range:
        if len(sel) == len(column):
            return column
        return column[sel.start : sel.stop : sel.step]
    return [column[i] for i in sel]


def _divide(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _modulo(a, b):
    if b == 0:
        raise ExecutionError("division by zero in %")
    return a % b


def _kernel(expr: Expr, is_filter: bool) -> VectorFn:
    key = (expr, repr(expr), is_filter)
    fn = _KERNELS.get(key)
    if fn is None:
        emitter = _Emitter()
        body, _ = emitter.emit(expr)
        source = _source(body, len(emitter.refs), len(emitter.args), is_filter)
        make = _CODE.get(source)
        if make is None:
            namespace: dict = {}
            exec(compile(source, "<repro.expr.vector>", "exec"), namespace)
            make = namespace["make"]
            _CODE.put(source, make)
        fn = make(view, tuple(emitter.refs), tuple(emitter.args))
        _KERNELS.put(key, fn)
    return fn


def _source(body: str, ncols: int, nargs: int, is_filter: bool) -> str:
    """The factory around one comprehension: ``make(view, refs, args)``
    binds ``r<k>``/``a<k>`` and returns ``kernel(resolve, sel)``, whose
    loop variable ``c<k>`` is column ``r<k>`` at ``sel``."""
    cols = [f"c{k}" for k in range(ncols)]
    views = [f"view(resolve(r{k}), sel)" for k in range(ncols)]
    if is_filter:
        targets = ", ".join(["i", *cols])
        rows = f"zip(sel, {', '.join(views)})" if cols else "sel"
        comprehension = f"[i for {targets} in {rows} if {body} is True]"
    else:
        if ncols > 1:
            targets, rows = ", ".join(cols), f"zip({', '.join(views)})"
        elif ncols:
            targets, rows = cols[0], views[0]
        else:
            targets, rows = "_", "sel"
        comprehension = f"[{body} for {targets} in {rows}]"
    lines = ["def make(view, refs, args):"]
    if ncols:
        lines.append("    " + "".join(f"r{k}, " for k in range(ncols)) + "= refs")
    if nargs:
        lines.append("    " + "".join(f"a{k}, " for k in range(nargs)) + "= args")
    lines += [
        "    def kernel(resolve, sel):",
        f"        return {comprehension}",
        "    return kernel",
    ]
    return "\n".join(lines) + "\n"


class _Emitter:
    """Source for one row of an expression tree.

    :meth:`emit` returns ``(code, nullable)``: ``code`` is a name — a
    column's loop variable ``c<k>``, a factory argument ``a<k>`` or
    ``None`` — or a parenthesised expression; ``nullable`` is False only
    where the value can never be NULL."""

    def __init__(self):
        #: columns read, in order of first use → loop variable
        self.refs: dict[ColumnRef, str] = {}
        #: factory arguments: constants, implementations, helpers
        self.args: list = []
        self._temps = 0

    def _arg(self, value) -> str:
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def _bind(self, code: str) -> tuple[str, str]:
        """``(first use, later uses)`` of ``code``: a compound operand is
        bound to a temporary where it is first evaluated."""
        if code.isidentifier():
            return code, code
        name = f"t{self._temps}"
        self._temps += 1
        return f"({name} := {code})", name

    def emit(self, expr: Expr) -> tuple[str, bool]:
        if isinstance(expr, Literal):
            if expr.value is None:
                return "None", True
            return self._arg(expr.value), False
        if isinstance(expr, ColumnRef):
            name = self.refs.get(expr)
            if name is None:
                name = self.refs[expr] = f"c{len(self.refs)}"
            return name, True
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op in ("/", "%"):
                helper = self._arg(_divide if op == "/" else _modulo)
                build = lambda a, b: f"{helper}({a}, {b})"
            elif op in _BINARY:
                symbol = _BINARY[op]
                build = lambda a, b: f"({a} {symbol} {b})"
            else:
                raise ExecutionError(f"unknown binary operator {op!r}")
            return self._strict((expr.left, expr.right), build)
        if isinstance(expr, NaryOp):
            if expr.op in ("and", "or"):
                return self._kleene(expr.operands, expr.op == "or")
            if expr.op in ("+", "*"):
                # ``0 + a + b`` is the evaluator's left fold, step for step
                head = "0 + " if expr.op == "+" else "1 * "
                joiner = f" {expr.op} "
                return self._strict(
                    expr.operands, lambda *names: f"({head}{joiner.join(names)})"
                )
            raise ExecutionError(f"unknown n-ary operator {expr.op!r}")
        if isinstance(expr, UnaryOp):
            if expr.op == "-":
                return self._strict((expr.operand,), lambda a: f"(-{a})")
            if expr.op == "not":
                return self._strict((expr.operand,), lambda a: f"(not {a})")
            raise ExecutionError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, IsNull):
            code, _ = self.emit(expr.operand)
            test = "is not" if expr.negated else "is"
            return f"({code} {test} None)", False
        if isinstance(expr, InList):
            return self._in_list(expr)
        if isinstance(expr, CaseWhen):
            chain = []
            for condition, result in expr.pairs():
                condition_code, _ = self.emit(condition)
                result_code, _ = self.emit(result)
                chain.append(f"{result_code} if {condition_code} is True else ")
            default, _ = self.emit(expr.default)
            return f"({''.join(chain)}{default})", True
        if isinstance(expr, FuncCall):
            return self._function(expr)
        if isinstance(expr, AggCall):
            raise ExecutionError(f"aggregate {expr!r} outside GROUP-BY context")
        raise ExecutionError(f"cannot evaluate expression node {expr!r}")

    def _strict(self, operands, build) -> tuple[str, bool]:
        """Evaluate every operand in order, then NULL if any is NULL,
        else ``build(*operand names)``."""
        tests = []
        names = []
        for operand in operands:
            code, nullable = self.emit(operand)
            first, name = self._bind(code)
            if first != name or nullable:
                tests.append(f"{first} is None")
            names.append(name)
        result = build(*names)
        if not tests:
            return result, True
        if len(tests) > 1:
            tests = [f"({test})" for test in tests]
        return f"(None if {' | '.join(tests)} else {result})", True

    def _kleene(self, operands, is_or: bool) -> tuple[str, bool]:
        """Kleene AND/OR: stop at the first False (AND) / True (OR)
        operand, else NULL if any operand was NULL."""
        stop, done = ("True", "False") if is_or else ("False", "True")
        chain = []
        nulls = []
        for operand in operands:
            code, nullable = self.emit(operand)
            first, name = self._bind(code)
            chain.append(f"{stop} if {first} is {stop} else ")
            if nullable:
                nulls.append(f"({name} is None)")
        tail = f"None if {' | '.join(nulls)} else {done}" if nulls else done
        return f"({''.join(chain)}{tail})", True

    def _in_list(self, expr: InList) -> tuple[str, bool]:
        code, nullable = self.emit(expr.operand)
        first, value = self._bind(code)
        head = f"None if {first} is None else " if first != value or nullable else ""
        hit, miss = ("False", "True") if expr.negated else ("True", "False")
        items = expr.items
        constants = [item.value for item in items if isinstance(item, Literal)]
        members = [v for v in constants if v is not None]
        saw_null = len(members) < len(constants)
        if len(constants) == len(items) and all(v == v for v in members):
            # An all-literal list is one probe; a NULL item can only turn
            # a miss into UNKNOWN, never a hit.  (A set also matches by
            # identity, which would let a NaN item hit: NaN lists chain.)
            probe = self._arg(frozenset(members))
            tail = "None" if saw_null else miss
            return f"({head}{hit} if {value} in {probe} else {tail})", True
        chain = []
        nulls = []
        for item in items:
            if isinstance(item, Literal) and item.value is None:
                continue  # saw_null is already set
            item_code, item_nullable = self.emit(item)
            item_first, item_name = self._bind(item_code)
            if item_first != item_name or item_nullable:
                chain.append(
                    f"{hit} if {item_first} is not None and "
                    f"{item_name} == {value} else "
                )
                nulls.append(f"({item_name} is None)")
            else:
                chain.append(f"{hit} if {item_name} == {value} else ")
        if saw_null:
            tail = "None"
        elif nulls:
            tail = f"None if {' | '.join(nulls)} else {miss}"
        else:
            tail = miss
        return f"({head}{''.join(chain)}{tail})", True

    def _function(self, expr: FuncCall) -> tuple[str, bool]:
        function = lookup_function(expr.name)
        if function is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        if function.name in _DATE_PARTS and len(expr.args) == 1:
            part = function.name
            return self._strict(expr.args, lambda d: f"{d}.{part}")
        impl = self._arg(function.impl)
        if not function.null_propagating:
            codes = [self.emit(arg)[0] for arg in expr.args]
            return f"{impl}({', '.join(codes)})", True
        return self._strict(
            expr.args, lambda *names: f"{impl}({', '.join(names)})"
        )

