"""CRC-framed temp-file runs for spill-to-disk execution.

When a query's :class:`~repro.resources.broker.MemoryReservation` is
exhausted, the executor partitions its working state — hash-join build
entries, GROUP-BY partial aggregate states — into *runs* on disk and
merges them back with the same derivation-rule algebra the in-memory
path uses (``aggregates.py::merge_states``), so spilled execution is
bit-identical to in-memory execution.

The on-disk format is the shared line framing
(:mod:`repro.framing`): every line is ``crc32 payload`` where the
payload is one JSON document, so a truncated or corrupted run is
*detected* (and surfaces as a typed error) instead of silently merging
garbage into a query answer.

Values round-trip exactly: JSON preserves ``int`` vs ``float`` (and
Python's shortest-repr float serialization is bit-exact); the engine
types JSON lacks travel tagged —

* ``{"d": "YYYY-MM-DD"}`` — :class:`datetime.date`
* ``{"t": [...]}`` — tuple (group keys)
* ``{"l": [...]}`` — list (the AVG ``[sum, count]`` partial state)
* ``{"s": [...]}`` — set (DISTINCT partial states; the encoding is
  unordered, which is safe because ``merge_states``/``finalize_state``
  are order-independent over sets)

A write failure (a full spill disk, or the armed ``executor.spill``
fault point) leaves the query with no recourse below it on the
degradation ladder; the executor converts it into a typed
:class:`~repro.errors.QueryResourceError`.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from typing import Any, Iterable, Iterator

from repro.errors import ExecutionError
from repro.framing import frame, unframe
from repro.testing import faults

#: spill files land in ``tempfile.gettempdir()`` unless overridden
#: (tests point this at a tmp_path to assert cleanup)
SPILL_DIR: str | None = None


# ----------------------------------------------------------------------
# tagged value encoding
def encode_value(value: Any) -> Any:
    """``value`` → a JSON-ready document (see the module docstring)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime.date):
        return {"d": value.isoformat()}
    if isinstance(value, tuple):
        return {"t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"s": [encode_value(v) for v in value]}
    raise ExecutionError(
        f"cannot spill value of type {type(value).__name__}"
    )


def decode_value(doc: Any) -> Any:
    """Invert :func:`encode_value`."""
    if not isinstance(doc, dict):
        return doc
    if len(doc) != 1:
        raise ExecutionError(f"bad spill document: {doc!r}")
    tag, payload = next(iter(doc.items()))
    if tag == "d":
        return datetime.date.fromisoformat(payload)
    if tag == "t":
        return tuple(decode_value(v) for v in payload)
    if tag == "l":
        return [decode_value(v) for v in payload]
    if tag == "s":
        return {decode_value(v) for v in payload}
    raise ExecutionError(f"unknown spill tag {tag!r}")


# ----------------------------------------------------------------------
class SpillRun:
    """One written run: a framed temp file plus its byte size."""

    __slots__ = ("path", "nbytes", "records")

    def __init__(self, path: str, nbytes: int, records: int):
        self.path = path
        self.nbytes = nbytes
        self.records = records

    def read(self) -> Iterator[Any]:
        """Yield the run's records in write order, CRC-checked."""
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                payload = unframe(line.rstrip("\n"))
                if payload is None:
                    raise ExecutionError(
                        f"spill run {self.path} line {lineno}: "
                        "bad frame or CRC mismatch"
                    )
                yield decode_value(json.loads(payload))

    def delete(self) -> None:
        try:
            os.remove(self.path)
        except OSError:  # pragma: no cover - temp cleanup is best-effort
            pass


def write_run(records: Iterable[Any], label: str = "spill") -> SpillRun:
    """Write one run of records to a framed temp file.

    Raises ``OSError`` on a full/unwritable spill disk and
    :class:`~repro.testing.faults.InjectedFault` when the
    ``executor.spill`` point is armed — the executor converts either
    into a typed :class:`~repro.errors.QueryResourceError`.
    """
    faults.fire("executor.spill")
    fd, path = tempfile.mkstemp(
        prefix=f"repro-{label}-", suffix=".run", dir=SPILL_DIR
    )
    nbytes = 0
    count = 0
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in records:
                line = frame(
                    json.dumps(encode_value(record), separators=(",", ":"))
                ) + "\n"
                handle.write(line)
                nbytes += len(line)
                count += 1
            handle.flush()
    except BaseException:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - temp cleanup is best-effort
            pass
        raise
    return SpillRun(path, nbytes, count)
