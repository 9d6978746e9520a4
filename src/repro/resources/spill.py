"""CRC-framed temp-file runs for spill-to-disk execution.

When a query's :class:`~repro.resources.broker.MemoryReservation` is
exhausted, the executor partitions its working state — hash-join build
entries, GROUP-BY partial aggregate states — into *runs* on disk and
merges them back with the same derivation-rule algebra the in-memory
path uses (``aggregates.py::merge_states``), so spilled execution is
bit-identical to in-memory execution.

**Run format.** One record per line, framed as ``crc32hex SP payload``
(:func:`repro.framing.frame`); the payload is the record as compact
tagged JSON (:func:`repro.framing.dumps_run`): a date is
``{"$date": "YYYY-MM-DD"}``, a tuple (a group or join key)
``{"$tuple": [...]}``, a set (a DISTINCT partial state)
``{"$set": [...]}``, and a list (the AVG ``[sum, count]`` state) a JSON
list. JSON keeps ``int`` apart from ``float`` and writes every float
bit-exactly, so a record reads back exactly as it was written. Set order
is not kept, which is safe because ``merge_states``/``finalize_state``
are order-independent over sets. A run never outlives the query that
wrote it, so its bytes are no stable format. Any bad line —
truncated, corrupted, not UTF-8 — is a typed :class:`ExecutionError`,
never garbage merged into a query answer.

A write failure (a full spill disk, or the armed ``executor.spill``
fault point) leaves the query with no recourse below it on the
degradation ladder; the executor converts it into a typed
:class:`~repro.errors.QueryResourceError`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ExecutionError
from repro.framing import dumps_run, frame, loads_run, scan
from repro.testing import faults

#: spill files land in ``tempfile.gettempdir()`` unless overridden
#: (tests point this at a tmp_path to assert cleanup)
SPILL_DIR: str | None = None


class SpillRun:
    """One written run: a framed temp file plus its byte size."""

    __slots__ = ("path", "nbytes")

    def __init__(self, path: str, nbytes: int):
        self.path = path
        self.nbytes = nbytes

    def read(self) -> Iterator[Any]:
        """Yield the run's records in write order, CRC-checked."""
        found = scan(Path(self.path).read_bytes())
        if found.bad_line is not None:
            raise ExecutionError(
                f"spill run {self.path} line {found.bad_line}: "
                "bad frame or CRC mismatch"
            )
        for payload in found.payloads:
            yield loads_run(payload)

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
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in records:
                line = frame(dumps_run(record)) + "\n"
                handle.write(line)
                nbytes += len(line)
    except BaseException:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - temp cleanup is best-effort
            pass
        raise
    return SpillRun(path, nbytes)
