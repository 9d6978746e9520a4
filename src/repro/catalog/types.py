"""Column data types and value checking.

The engine is dynamically typed at runtime (rows are plain tuples), but the
catalog declares a :class:`DataType` per column so that the binder can type
expressions, the matcher can reason about nullability, and the loader can
validate rows.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any


class DataType(enum.Enum):
    """Supported column types.

    ``DECIMAL`` values are represented as Python floats; the paper's
    examples never depend on exact decimal arithmetic.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOLEAN = "boolean"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


#: the Python types a non-NULL value of each type may have
PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (float, int),
    DataType.STRING: (str,),
    DataType.DATE: (datetime.date,),
    DataType.BOOLEAN: (bool,),
}


def value_matches_type(value: Any, dtype: DataType) -> bool:
    """Return True if ``value`` is a legal runtime value for ``dtype``.

    ``None`` (SQL NULL) is legal for every type; nullability is enforced
    separately by :class:`repro.catalog.schema.Column`.
    """
    if value is None:
        return True
    if dtype is DataType.INTEGER and isinstance(value, bool):
        return False
    return isinstance(value, PYTHON_TYPES[dtype])


def infer_literal_type(value: Any) -> DataType | None:
    """Best-effort type of a Python literal, or None for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    if isinstance(value, datetime.date):
        return DataType.DATE
    raise TypeError(f"unsupported literal value: {value!r}")


def is_numeric(dtype: DataType | None) -> bool:
    """True for types that participate in arithmetic (a BOOLEAN as 0/1)."""
    return dtype in (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN)
