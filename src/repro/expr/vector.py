"""Compiled loops for the batch executor.

:func:`compile_loop` generates the Python source of **one** ``for`` loop
for a whole pipeline — a driver relation streamed with its filters
inline, nested loops over hash-table buckets, residual filters, and a
sink that appends values, hashes row numbers or folds into groups — and
compiles it.  Every expression in it is inlined as one row expression
(:class:`_Emitter`), so a row costs one pass of compiled bytecode: no
interpreter dispatch per node, no intermediate list per node or per
operator.

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
* ``/`` and ``%`` call helpers raising the evaluator's ``ExecutionError``
  — except by a nonzero numeric literal, where they are inline; the
  operands of ``*`` are taken as ``+x``, as in the evaluator, so a
  string raises rather than repeats;
  ``year``/``month``/``day`` read the date's attribute.

No value of the query reaches the source: constants, function
implementations, helpers, columns and sink targets are arguments of a
generated factory, so the text depends only on the pipeline's shape, and
the compiled factory is memoised by that text — ``x > 1.5`` and
``x > 2.5`` share one ``compile()``. The factory reads each argument
from the run it is bound to (:func:`loop_program`), so one emitted
program serves every run of the same pipeline shape.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Sequence

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

#: SQL binary operator → Python operator (``/`` and ``%``: see ``emit``)
_BINARY = {
    "-": "-", "=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
#: functions whose row evaluator is ``d.<name>``
_DATE_PARTS = ("year", "month", "day")

#: generated factories by source text: one ``compile()`` per loop shape
_CODE = LRU(1024)

#: per partial-state kind (the aggregate, ``count*`` for COUNT(*)): the
#: source of a new group's state and of the statement that folds value
#: ``{v}`` into group ``g``'s state ``{s}[g]`` — exactly what the row
#: accumulators of :mod:`repro.engine.aggregates` do, step for step; NULL
#: inputs are ignored by every aggregate except COUNT(*)
_FOLDS = {
    "count*": ("0", "{s}[g] += 1"),
    "count": ("0", "if {v} is not None: {s}[g] += 1"),
    "sum": (
        "None",
        "if {v} is not None: {s}[g] = {v} if (x := {s}[g]) is None else x + {v}",
    ),
    "avg": (
        "[None, 0]",
        "if {v} is not None: x = {s}[g]; "
        "x[0] = {v} if (y := x[0]) is None else y + {v}; x[1] += 1",
    ),
    "min": (
        "None",
        "if {v} is not None and ((x := {s}[g]) is None or {v} < x): {s}[g] = {v}",
    ),
    "max": (
        "None",
        "if {v} is not None and ((x := {s}[g]) is None or {v} > x): {s}[g] = {v}",
    ),
}
#: every DISTINCT kind collects its non-NULL values in a set
_DISTINCT_FOLD = ("set()", "if {v} is not None: {s}[g].add({v})")


def compile_loop(
    driver: Mapping[ColumnRef, list],
    filters: Sequence[Expr] = (),
    probes: Sequence[tuple] = (),
    residual: Sequence[Expr] = (),
    values: Sequence[Expr] = (),
    sink: tuple | None = None,
    counted: Sequence[int] = (),
    pulse: tuple | None = None,
) -> Callable[[Sequence[int]], tuple]:
    """Compile one pipeline into a single loop ``fn(sel) -> counts``.

    ``fn`` streams the ``driver`` rows ``sel`` picks (``driver`` maps each
    of the streamed relation's ColumnRefs to its column).  Per row it
    tests the ``filters`` in order, dropping the row at the first that
    is not TRUE (pass a predicate's :func:`conjuncts` for the row
    interpreter's short circuit); then, per probe
    ``(keys, table, columns)``, it looks the ``keys`` (ColumnRefs bound
    at an earlier level; several make a tuple) up in ``table`` (key → row
    numbers) — or, with no keys, walks ``table`` itself, a row-number
    list (a cross join) — and binds ``columns`` at each of those rows;
    then it tests the ``residual`` filters, evaluates every one of
    ``values`` in order and hands them to the ``sink``:

    * ``("append", appenders)``: ``appenders[k](value k)``;
    * ``("hash", buckets)``: the driver row number joins
      ``buckets[key]`` (``key`` the value, a tuple of several), a key
      with a NULL is skipped; with no values ``buckets`` is a list and
      takes every row number;
    * ``("group", sets, aggregates)``: per grouping set ``(value
      positions, groups, firsts, states)`` the key (the value, a tuple of
      several, ``()`` of none) finds its group id in ``groups`` (key →
      id, in first-seen order) or opens the next one — appending the row
      number to ``firsts`` unless it is None, and each aggregate's
      initial state to its list in ``states`` — and then each aggregate
      ``(value position or None, partial-state kind, distinct)`` folds
      its value into ``states[k][g]``;
    * ``None``: nothing — the rows are only counted.

    ``counted`` picks the stages whose row counts ``fn`` returns, in
    order: stage ``p`` is the rows reaching probe ``p``, stage
    ``len(probes)`` the rows reaching the sink.

    ``pulse`` — ``(every, call)``, with probes and the sink stage
    counted — bounds the work between two calls however far a probe
    fans out: every ``every`` rows the bucket loops bind (summed over
    all levels), ``call(rows reaching the sink so far)``."""
    bind, _ = loop_program(
        driver, filters, probes, residual, values, sink, counted, pulse
    )
    return bind(driver, probes, sink, pulse, ())


def loop_program(driver, filters=(), probes=(), residual=(), values=(),
                 sink=None, counted=(), pulse=None, classes=None, literals=()):
    """:func:`compile_loop`'s pipeline as ``(bind, guard)``: ``bind(driver,
    probes, sink, pulse, literals)`` is the loop over any run's inputs of
    the same shape — which columns each level has, the sink's kind and
    sets. A literal whose ``(type, value)`` ``classes`` maps to k is that
    run's ``literals[k]``; ``guard`` is the classes divided by inline,
    nonzero in these ``literals``: a run where one is 0 needs its own.
    ``guard`` is None when a class divides as 0 in these ``literals``:
    that program is the run's own, never one to file."""
    loop = _Loop([driver, *(columns for _, _, columns in probes)])
    loop.classes, loop.literals = classes or {}, literals
    return loop.build(filters, probes, residual, values, sink, counted, pulse)


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into top-level AND operands.

    A loop tests a row's conjuncts in order and stops at the first that
    is not TRUE — exactly the row interpreter's short-circuit order: a
    row rejected by conjunct *k* never evaluates conjunct *k+1*.
    """
    if isinstance(expr, NaryOp) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(conjuncts(operand))
        return out
    return [expr]


def view(column: list, sel):
    """``column`` at ``sel``, for one pass: the list itself for the
    identity range, a slice for a sub-range, a gather for an index list
    (a spilled partition's rows, or the rows an index selected)."""
    if type(sel) is range:
        if len(sel) == len(column):
            return column
        return column[sel.start : sel.stop : sel.step]
    return itemgetter(*sel)(column) if len(sel) > 1 else [column[i] for i in sel]


def _divide(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _modulo(a, b):
    if b == 0:
        raise ExecutionError("division by zero in %")
    return a % b


def _nonzero_number(expr: Expr) -> bool:
    """A divisor the generated code divides by inline: a numeric literal
    that does not compare equal to 0 (``0``, ``0.0``, ``-0.0`` and FALSE
    keep the raising helper, as does every non-literal divisor)."""
    return (
        isinstance(expr, Literal)
        and isinstance(expr.value, (int, float))
        and expr.value != 0
    )


def _factory(source: str):
    """The compiled ``make`` of ``source``: one ``compile()`` per text."""
    make = _CODE.get(source)
    if make is None:
        namespace: dict = {}
        exec(compile(source, "<repro.expr.vector>", "exec"), namespace)
        make = namespace["make"]
        _CODE.put(source, make)
    return make


class _Emitter:
    """Source for one row of an expression tree.

    :meth:`emit` returns ``(code, nullable)``: ``code`` is a name — a
    column's loop variable ``c<k>``, a factory argument ``a<k>`` or
    ``None`` — or a parenthesised expression; ``nullable`` is False only
    where the value can never be NULL."""

    def __init__(self):
        #: columns read, in order of first use → loop variable
        self.refs: dict[ColumnRef, str] = {}
        #: factory arguments, each the source that reads it (the layout),
        #: and the fixed values among them: constants, helpers, names
        self.args: list[str] = []
        self.fixed: list = []
        #: literal (type, value) → class; the classes' values; each
        #: divisor divided by inline: its class, or None (a fixed one);
        #: whether a class divisor goes through the helper (is 0 here)
        self.classes, self.literals, self.guard = {}, (), []
        self.zero = False
        self._temps = 0

    def _arg(self, value=None, path: str | bool = False) -> str:
        """A factory argument: read by ``path`` from ``make``'s
        parameters, else the fixed ``value``."""
        if not path:
            self.fixed.append(value)
            path = f"fixed[{len(self.fixed) - 1}]"
        self.args.append(path)
        return f"a{len(self.args) - 1}"

    def _class(self, expr: Expr) -> int | None:
        """The literal class ``expr`` stands for, if it is one."""
        if isinstance(expr, Literal):
            return self.classes.get((type(expr.value), expr.value))
        return None

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
            slot = self._class(expr)
            path = slot is not None and f"literals[{slot}]"
            return self._arg(expr.value, path), False
        if isinstance(expr, ColumnRef):
            name = self.refs.get(expr)
            if name is None:
                name = self.refs[expr] = f"c{len(self.refs)}"
            return name, True
        if isinstance(expr, BinaryOp):
            op = expr.op
            slot = self._class(expr.right)
            if op in ("/", "%") and _nonzero_number(
                expr.right if slot is None else Literal(self.literals[slot])
            ):
                self.guard.append(slot)
                build = lambda a, b: f"({a} {op} {b})"
            elif op in ("/", "%"):
                self.zero = self.zero or slot is not None
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
            if expr.op == "+":
                # ``0 + a + b`` is the evaluator's left fold, step for step
                return self._strict(
                    expr.operands, lambda *names: f"(0 + {' + '.join(names)})"
                )
            if expr.op == "*":
                # the evaluator's ``1 * +a * +b``: ``1 *`` is exact for a
                # number, and ``+`` rejects a string ``*`` would repeat
                return self._strict(
                    expr.operands, lambda *names: f"(+{' * +'.join(names)})"
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
            probe = self._arg(path="frozenset(({}))".format("".join(
                self.emit(item)[0] + ", " for item in items if item.value is not None
            )))
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


class _Loop(_Emitter):
    """Source for one :func:`compile_loop` pipeline.

    The body is emitted level by level (the driver, then one nested
    ``for`` per probe); a column is bound at the top of the level it
    belongs to — a driver column is a loop variable of the ``zip``, a
    probed one an index into its column — once the whole body has shown
    which columns it reads."""

    def __init__(self, levels: list):
        super().__init__()
        #: per level, ColumnRef -> column: the driver, then each probe's
        self.levels = levels
        #: source lines, and ``(level, depth)`` where a level's bindings go
        self.body: list = []
        self.depth = 3

    def _line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def _test(self, predicates) -> None:
        for predicate in predicates:
            code, _ = self.emit(predicate)
            self._line(f"if {code} is not True: continue")

    @staticmethod
    def _key(names: list[str]) -> str:
        return names[0] if len(names) == 1 else f"({', '.join(names)})"

    def build(self, filters, probes, residual, values, sink, counted, pulse):
        self._test(filters)
        if pulse:
            every, call = self._arg(path="pulse[0]"), self._arg(path="pulse[1]")
        for p, (keys, _, _) in enumerate(probes):
            if p in counted:
                self._line(f"n{p} += 1")
            if keys:
                key = self._key([self.emit(ref)[0] for ref in keys])
                self._line(f"b{p} = {self._arg(path=f'probes[{p}][1].get')}({key})")
                self._line(f"if b{p} is None: continue")
                rows = f"b{p}"
            else:
                rows = self._arg(path=f"probes[{p}][1]")
            self._line(f"for j{p} in {rows}:")
            self.depth += 1
            if pulse:
                self._line("w += 1")
                self._line(f"if w == {every}: w = 0; {call}(n{len(probes)})")
            self.body.append((p + 1, self.depth))
        self._test(residual)
        if len(probes) in counted:
            self._line(f"n{len(probes)} += 1")
        kind = sink[0] if sink else None
        names = []
        for k, value in enumerate(values):
            code, _ = self.emit(value)
            if kind == "append":
                self._line(f"{self._arg(path=f'sink[1][{k}]')}({code})")
            elif not code.isidentifier():
                self._line(f"v{k} = {code}")
                code = f"v{k}"
            names.append(code)
        if kind == "hash":
            self._hash(names)
        elif kind == "group":
            self._group(names, *sink[1:])
        if not self.body or not isinstance(self.body[-1], str):
            self._line("pass")  # nothing to do but stream the rows
        numbered = kind == "hash" or (
            kind == "group" and any(s[2] is not None for s in sink[1])
        )
        return self._compile(sorted(counted), numbered, bool(pulse))

    def _hash(self, names) -> None:
        if not names:
            self._line(f"{self._arg(path='sink[1].append')}(i)")
            return
        self._line(f"if {' or '.join(f'{n} is None' for n in names)}: continue")
        key = self._key(names)
        if len(names) > 1:
            self._line(f"k = {key}")
            key = "k"
        table = self._arg(path="sink[1]")
        self._line(f"h = {self._arg(path='sink[1].get')}({key})")
        self._line(f"if h is None: {table}[{key}] = [i]")
        self._line("else: h.append(i)")

    def _group(self, names, sets, aggregates) -> None:
        folds = [
            (position, *(_DISTINCT_FOLD if distinct else _FOLDS[kind]))
            for position, kind, distinct in aggregates
        ]
        for s, (positions, _, firsts, _) in enumerate(sets):
            key = self._key([names[p] for p in positions]) if positions else "()"
            if len(positions) > 1:
                self._line(f"k = {key}")
                key = "k"
            at = f"sink[1][{s}]"
            table = self._arg(path=f"{at}[1]")
            self._line(f"g = {self._arg(path=f'{at}[1].get')}({key})")
            self._line("if g is None:")
            self._line(f"    g = {table}[{key}] = len({table})")
            if firsts is not None:
                self._line(f"    {self._arg(path=f'{at}[2].append')}(i)")
            for a, (_, initial, _) in enumerate(folds):
                self._line(f"    {self._arg(path=f'{at}[3][{a}].append')}({initial})")
            for a, (position, _, fold) in enumerate(folds):
                value = "None" if position is None else names[position]
                self._line(fold.format(s=self._arg(path=f"{at}[3][{a}]"), v=value))

    def _compile(self, counted: list[int], numbered: bool, pulsed: bool):
        targets, sources = (["i"], ["sel"]) if numbered else ([], [])
        bindings: dict[int, list[str]] = {}
        for ref, name in self.refs.items():
            level = next(
                (k for k, columns in enumerate(self.levels) if ref in columns),
                None,
            )
            if level is None:
                raise ExecutionError(f"no column {ref!r} to read")
            column = self._arg(path=(f"probes[{level - 1}][2]" if level else "driver")
                               + f"[{self._arg(ref)}]")
            if level:
                bindings.setdefault(level, []).append(
                    f"{name} = {column}[j{level - 1}]"
                )
            else:
                targets.append(name)
                sources.append(f"view({column}, sel)")
        if not sources:
            header = "for _ in sel:"
        elif len(sources) == 1:
            header = f"for {targets[0]} in {sources[0]}:"
        else:
            header = f"for {', '.join(targets)} in zip({', '.join(sources)}):"
        counters = [f"n{stage}" for stage in counted]
        lines = ["def make(view, fixed, driver, probes, sink, pulse, literals):"]
        lines += [f"    a{k} = {path}" for k, path in enumerate(self.args)]
        lines.append("    def loop(sel):")
        if counters or pulsed:
            lines.append(f"        {' = '.join(counters + ['w'] * pulsed)} = 0")
        lines.append(f"        {header}")
        for line in self.body:
            if isinstance(line, tuple):
                level, depth = line
                lines += ["    " * depth + b for b in bindings.get(level, ())]
            else:
                lines.append(line)
        lines += [
            f"        return ({''.join(c + ', ' for c in counters)})",
            "    return loop",
        ]
        make = _factory("\n".join(lines) + "\n")
        guard = None if self.zero else tuple(
            slot for slot in self.guard if slot is not None
        )
        return partial(make, view, self.fixed), guard
