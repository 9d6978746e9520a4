"""How data leaves memory — saved tables and delta logs
(``engine/persist.py``), journal segments (``replication/wal.py``),
spill runs (``resources/spill.py``) and the wire (``server/protocol.py``).

**Framing.** A line is ``crc32hex SP payload``, so a flipped bit or a
torn tail is detected per line. :func:`scan` reads lines up to the
first bad frame — a CRC mismatch, a malformed prefix, bytes that are
not UTF-8 — and says where it is and whether only newlines follow it (a
torn tail). What a bad frame *means* is each reader's call.

**Two JSON dialects**, one encoder and one decoder each:

* *schema-typed* (saved tables, ``deltas.jsonl``, the wire snapshot): a
  date is written as its ISO string and revived from a DATE column;
  every other value is what JSON read — an ``int`` in a FLOAT column
  stays an ``int``;
* *tagged* (the wire, spill runs): a date is ``{"$date": "YYYY-MM-DD"}``
  wherever it sits. The wire revives that tag and no other; a spill run
  also tags tuples (``$tuple``) and sets (``$set``), which JSON would
  write as lists, so its records read back exactly as written. A wire
  column of floats is one ``{"$f8": base64}`` (:func:`pack_column`).
"""

from __future__ import annotations

import base64
import datetime
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.catalog.types import DataType
from repro.testing import faults


def frame(payload: str) -> str:
    """One framed line: the payload's CRC32 (8 hex chars), a space, the payload."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


class Scan(NamedTuple):
    """The good payloads, and the first bad frame: its 1-based line
    number (None when there is none), the byte offset its line starts
    at, and whether only newlines follow it."""

    payloads: list[str]
    bad_line: int | None = None
    bad_offset: int = 0
    tail: bool = False


def scan(data: bytes) -> Scan:
    """The payloads of ``data``'s framed lines up to the first bad frame;
    empty lines are skipped."""
    payloads: list[str] = []
    offset = 0
    for number, raw in enumerate(data.split(b"\n"), start=1):
        if raw:
            try:
                if len(raw) < 10 or raw[8:9] != b" ":
                    raise ValueError
                if int(raw[:8], 16) != zlib.crc32(raw[9:]):
                    raise ValueError
                payloads.append(raw[9:].decode("utf-8"))
            except ValueError:  # not hex, CRC mismatch, or not UTF-8
                end = len(data.rstrip(b"\n"))
                return Scan(payloads, number, offset, offset + len(raw) >= end)
        offset += len(raw) + 1
    return Scan(payloads)


def write_atomic(
    path: Path, data: str | list, durable: bool = True, fire_faults: bool = True
) -> None:
    """Write ``data`` — text, or byte pieces one after another — to
    ``path`` via a temp file and an atomic rename, so ``path`` is always
    its old or its new complete contents. ``durable`` fsyncs the file
    before the rename and the directory after it; ``fire_faults``
    traverses the ``persist.write``/``persist.rename`` fault points (a
    save does, the journal's meta does not)."""
    pieces = [data.encode("utf-8")] if isinstance(data, str) else data
    tmp = path.with_name(path.name + ".tmp")
    if fire_faults:
        faults.fire("persist.write")
    with tmp.open("wb") as handle:
        handle.writelines(pieces)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    if fire_faults:
        faults.fire("persist.rename")
    os.replace(tmp, path)
    if durable:
        fsync_directory(path.parent)


def fsync_directory(directory: Path) -> None:
    """Make a rename or a new entry in ``directory`` durable (best effort —
    not all platforms allow opening a directory for fsync)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# schema-typed JSON
def typed(value: Any) -> Any:
    """A value as schema-typed JSON holds it (also the ``default=`` hook)."""
    return value.isoformat() if isinstance(value, datetime.date) else value


#: ``document`` as schema-typed JSON text (one encoder, built once)
dumps_typed = json.JSONEncoder(default=typed).encode


def row_decoder(dtypes: Sequence[DataType]) -> Callable[[list], tuple]:
    """A JSON row of a table with column types ``dtypes`` back as the
    tuple that was encoded; a row of the wrong width is a ``ValueError``."""
    width = len(dtypes)
    dates = [i for i, dtype in enumerate(dtypes) if dtype is DataType.DATE]

    def decode(raw: list) -> tuple:
        if len(raw) != width:
            raise ValueError(
                f"row width mismatch ({len(raw)} values, {width} columns)"
            )
        if dates:
            raw = list(raw)
            for i in dates:
                if raw[i] is not None:
                    raw[i] = datetime.date.fromisoformat(raw[i])
        return tuple(raw)

    return decode


# ----------------------------------------------------------------------
# tagged JSON
def tagged(value: Any) -> Any:
    """The tagged encoder's ``default=`` hook: a date as ``{"$date": iso}``."""
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


#: ``document`` as compact tagged JSON text: one encoder, built once, and
#: no Python walk over the values (every result table sent goes through it)
dumps_tagged = json.JSONEncoder(separators=(",", ":"), default=tagged).encode


def loads_tagged(text: str | bytes) -> Any:
    """Parse tagged JSON, reviving ``$date`` and no other tag."""
    return json.loads(text, object_hook=_revive_date)


def _revive_date(obj: dict) -> Any:
    if len(obj) == 1 and "$date" in obj:
        return datetime.date.fromisoformat(obj["$date"])
    return obj


def pack_column(values: list) -> Any:
    """A wire column: one of nothing but ``float`` as ``{"$f8": base64}``
    of its little-endian doubles (every bit pattern kept), else itself."""
    if values and type(values[0]) is float and (
        list(map(type, values)).count(float) == len(values)
    ):
        packed = struct.pack(f"<{len(values)}d", *values)
        return {"$f8": base64.b64encode(packed).decode("ascii")}
    return values


def unpack_column(column: Any) -> Any:
    """A :func:`pack_column` column as its value list; a malformed packed
    column (another key, bad base64, a ragged length) is a ValueError."""
    if type(column) is not dict:
        return column
    if column.keys() != {"$f8"}:
        raise ValueError(f"unknown column form {sorted(column)}")
    packed = base64.b64decode(column["$f8"], validate=True)
    if len(packed) % 8:
        raise ValueError(f"{len(packed)} bytes of packed doubles")
    return list(struct.unpack(f"<{len(packed) // 8}d", packed))


def dumps_run(record: Any) -> str:
    """A spill-run record as tagged JSON, its tuples and sets tagged too."""
    return dumps_tagged(_tag_containers(record))


def _tag_containers(value: Any) -> Any:
    if isinstance(value, list):
        return [_tag_containers(v) for v in value]
    if isinstance(value, tuple):
        return {"$tuple": [_tag_containers(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"$set": [_tag_containers(v) for v in value]}
    return value


def loads_run(text: str) -> Any:
    # a fresh float per NaN: a set of n NaNs reads back with n, not one
    return json.loads(text, object_hook=_revive_run, parse_constant=float)


_RUN_TAGS: dict[str, Callable] = {
    "$date": datetime.date.fromisoformat,
    "$tuple": tuple,
    "$set": set,
}


def _revive_run(obj: dict) -> Any:
    if len(obj) == 1:
        ((tag, value),) = obj.items()
        if tag in _RUN_TAGS:
            return _RUN_TAGS[tag](value)
    return obj
