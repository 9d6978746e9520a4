"""Registry of built-in scalar functions.

The paper's time dimension is encoded in ``Trans.date`` and extracted via
built-in functions (``year``, ``month``, ``day``), so these must exist both
in the evaluator and in the matcher (which treats them as opaque,
deterministic functions — two calls match iff names and arguments match).

All functions are deterministic. All propagate NULL (NULL in any argument
produces NULL) except ``coalesce``, which is flagged accordingly so the
evaluator can special-case it.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExecutionError


@dataclass(frozen=True)
class ScalarFunction:
    """Metadata + implementation for one built-in scalar function."""

    name: str
    arity: tuple[int, int]  # (min_args, max_args); max -1 = variadic
    null_propagating: bool
    impl: Callable[..., Any]

    def check_arity(self, count: int) -> bool:
        low, high = self.arity
        if count < low:
            return False
        return high < 0 or count <= high


def _year(d: datetime.date) -> int:
    return d.year


def _month(d: datetime.date) -> int:
    return d.month


def _day(d: datetime.date) -> int:
    return d.day


def _quarter(d: datetime.date) -> int:
    return (d.month - 1) // 3 + 1


def _dayofweek(d: datetime.date) -> int:
    # 1 = Sunday ... 7 = Saturday, following DB2's DAYOFWEEK.
    return d.isoweekday() % 7 + 1


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero in mod()")
    return a % b


def _round(x: Any, digits: Any = 0) -> Any:
    return round(x, int(digits))


def _coalesce(*args: Any) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _substr(value: str, start: Any, length: Any = None) -> str:
    # SQL semantics: 1-based start; negative/zero starts clamp to 1.
    begin = max(int(start), 1) - 1
    if length is None:
        return value[begin:]
    if length < 0:
        raise ExecutionError("substr() length must be non-negative")
    return value[begin : begin + int(length)]


def _concat(*parts: Any) -> str:
    return "".join(str(part) for part in parts)


def _trim(value: str) -> str:
    return value.strip()


_REGISTRY: dict[str, ScalarFunction] = {}


def _register(
    name: str,
    impl: Callable[..., Any],
    arity: tuple[int, int],
    null_propagating: bool = True,
) -> None:
    _REGISTRY[name] = ScalarFunction(name, arity, null_propagating, impl)


_register("year", _year, (1, 1))
_register("month", _month, (1, 1))
_register("day", _day, (1, 1))
_register("quarter", _quarter, (1, 1))
_register("dayofweek", _dayofweek, (1, 1))
_register("abs", abs, (1, 1))
_register("mod", _mod, (2, 2))
_register("upper", str.upper, (1, 1))
_register("lower", str.lower, (1, 1))
_register("length", len, (1, 1))
_register("round", _round, (1, 2))
_register("floor", math.floor, (1, 1))
_register("ceil", math.ceil, (1, 1))
_register("coalesce", _coalesce, (1, -1), null_propagating=False)
_register("substr", _substr, (2, 3))
_register("substring", _substr, (2, 3))
_register("concat", _concat, (1, -1))
_register("trim", _trim, (1, 1))


def lookup_function(name: str) -> ScalarFunction | None:
    """The registered function for ``name`` (case-insensitive), or None."""
    return _REGISTRY.get(name.lower())

