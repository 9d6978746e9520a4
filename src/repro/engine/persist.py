"""Saving and loading databases, crash-safely.

A database directory contains ``catalog.json`` (schemas, keys, RI
constraints, summary-table definitions) and one ``<table>.jsonl`` per
table (one JSON array per row in :mod:`repro.framing`'s schema-typed
dialect: dates as ISO strings, revived from DATE columns on load, every
other value exactly as JSON reads it). Summary tables are saved with their
materialized rows *and* their defining SQL, so a reload restores the
exact snapshot without re-running the definitions. Deferred-refresh
state persists too: each summary entry records its refresh mode,
staleness (pending delta-batch count, last-refresh LSN), and quarantine
flag, and the staged delta log itself is written to ``deltas.jsonl``.

Save format
-----------
``FORMAT_VERSION`` is 2, the only version written or loaded (v1 — raw
JSON lines, no checksums — has had no writer since v2 became the save
format; a v1 directory is refused as an unsupported save format). What
v2 guarantees:

* **Atomic writes** — every file is written to a ``*.tmp`` sibling,
  fsynced, and atomically renamed into place; ``catalog.json`` is
  written *last*, making its rename the commit point. A crash mid-save
  leaves the previous save's manifest pointing at a consistent previous
  generation (data files are each old-complete or new-complete; the
  manifest's per-file checksums detect the mix, see below).
* **Per-line CRC32 framing** — each row/delta line is prefixed with the
  CRC32 of its payload (``crc32hex SP json``). A corrupt or partial
  *trailing* line (a torn tail) is truncated and reported as a recovery
  anomaly, not a fatal error; corruption *inside* the file still raises,
  with file name and line number.
* **Per-file checksums in the manifest** — used on load to detect a
  data file from a different save generation than the manifest; the
  mismatch marks the table *suspect* for :func:`verify_database`. A
  save in a chain (a journal's checkpoints, :func:`save_counted`) uses
  them to take over the previous save's lines for rows not edited since
  — as bytes, the prefix below the first edit never decoded or split,
  one CRC pass verifying them. Same bytes, a fraction of the encoding.

:func:`verify_database` is the startup recovery pass: it cross-checks
every summary's ``last_refresh_lsn``/``pending_deltas`` against the
delta log and rebuilds (full recompute) summaries whose snapshots are
suspect — quarantining any that cannot be rebuilt — and returns a
:class:`RecoveryReport`. Base tables are never dropped or rewritten by
recovery; a summary is either consistent or quarantined, never silently
wrong.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.catalog.schema import (
    Catalog,
    Column,
    ForeignKeyConstraint,
    TableSchema,
    UniqueKey,
)
from repro.catalog.types import DataType
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ReproError
from repro.framing import dumps_typed, frame, row_decoder, scan, typed, write_atomic

FORMAT_VERSION = 2


def save_database(
    database: Database, path: str | Path, previous: str | Path | None = None
) -> Path:
    """Write ``database`` to a directory; returns the directory path
    (:func:`save_counted` is the writer; a plain save has no ``previous``)."""
    root = Path(path)
    save_counted(database, root, previous)
    return root


def save_counted(
    database: Database, root: Path, previous: str | Path | None = None
) -> tuple[int, int]:
    """Write one :func:`_capture` of ``database`` into ``root``, no lock
    held while it is encoded: data files (atomically) first, the
    manifest last — its rename commits the whole save. Returns (rows
    encoded, rows taken over from ``previous``).

    **A save costs what changed.** ``previous`` — only a journal passes
    one — is the directory the last *completed* save of the same chain
    wrote (a chain's first save names ``root`` itself). A table's file
    is then that file's first ``stable`` lines, as bytes, with the edited
    positions re-framed (:meth:`Table.remark`, :func:`_splice`) plus the
    encoded tail; lines are kept only from a file whose bytes match the
    crc its manifest recorded, so every byte written was encoded now or
    CRC-verified now and is what a plain save writes. No previous, a
    mismatch, a table marked by another save: nothing is kept, the same
    loop encodes all.
    """
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.glob("*.tmp"):  # leftovers from a crashed save
        stale.unlink()
    mark = root.resolve()
    if previous is not None:
        previous = Path(previous).resolve()
    manifest, tables, batches, changes = _capture(database, previous, mark)
    recorded: dict[str, dict] = {}
    if previous not in (None, mark):  # never the directory being overwritten
        try:
            recorded = json.loads((previous / "catalog.json").read_text())
            recorded = recorded["checksums"]
        except (OSError, ValueError, KeyError, TypeError):
            recorded = {}
    checksums: dict[str, dict[str, int]] = {}
    manifest["checksums"] = checksums
    reused = 0
    for name, table in tables.items():
        filename = f"{name}.jsonl"
        stable, edited = changes.get(name, (0, ()))
        pieces, crc = _splice(
            previous, filename, recorded.get(filename), stable, edited, table.rows
        )
        if not pieces:
            stable, edited = 0, ()
        reused += stable - len(edited)
        tail = "".join(frame(dumps_typed(row)) + "\n" for row in table.rows[stable:])
        pieces.append(tail.encode("utf-8"))
        write_atomic(root / filename, pieces)
        checksums[filename] = {"crc": zlib.crc32(pieces[-1], crc), "rows": len(table)}
    delta_data = "".join(
        frame(dumps_typed(_batch_to_json(batch))) + "\n" for batch in batches
    ).encode("utf-8")
    delta_path = root / "deltas.jsonl"
    if delta_data:
        write_atomic(delta_path, [delta_data])
        checksums["deltas.jsonl"] = {
            "crc": zlib.crc32(delta_data), "rows": len(batches),
        }
    elif delta_path.exists():
        delta_path.unlink()
    write_atomic(root / "catalog.json", json.dumps(manifest, indent=2))
    return sum(len(table) for table in tables.values()) - reused, reused


def _splice(
    previous: Path | None, filename: str, recorded: dict | None,
    stable: int, edited: list[int], rows,
) -> tuple[list, int]:
    """The pieces of ``previous``'s ``filename`` a new file keeps, and
    their CRC: its lines ``[0, stable)``, the prefix below the first of
    the ``edited`` positions as its bytes, the lines from there split and
    those re-framed from ``rows``. Nothing when the file is not byte for
    byte what that save's manifest ``recorded`` (bit rot, another
    generation, gone) — checked in the pass that takes the prefix's CRC."""
    if not stable or recorded is None or recorded.get("rows", 0) < stable:
        return [], 0
    try:
        data = (previous / filename).read_bytes()
        low = edited[0] if edited else stable
        start = _line_start(data, low, recorded["rows"])
        stop = _line_start(data, stable, recorded["rows"])
    except (OSError, ValueError):  # gone, or fewer lines than recorded
        return [], 0
    view = memoryview(data)
    crc = zlib.crc32(view[:start])
    if zlib.crc32(view[start:], crc) != recorded.get("crc"):
        return [], 0
    middle = _old_lines(data, start, stop)
    for position in edited:
        middle[position - low] = frame(dumps_typed(rows[position])).encode("utf-8")
    block = b"\n".join([*middle, b""])
    return [view[:start], block], zlib.crc32(block, crc)


def _line_start(data: bytes, line: int, lines: int) -> int:
    """The byte offset of line ``line`` of ``data`` — ``lines`` lines,
    each ending in a newline (a framed payload never holds one) — walked
    from the nearer end; a ValueError when a newline is missing."""
    if line <= lines - line:
        offset = 0
        for _ in range(line):
            offset = data.index(b"\n", offset) + 1
        return offset
    offset = len(data)
    for _ in range(lines - line + 1):
        offset = data.rindex(b"\n", 0, offset)
    return offset + 1


def _old_lines(data: bytes, start: int, stop: int) -> list[bytes]:
    """The whole lines of ``data[start:stop]``, newlines dropped."""
    return data[start:stop].split(b"\n")[:-1]


def _capture(
    database: Database, previous: Path | None = None, mark: Path | None = None
) -> tuple[dict[str, Any], dict[str, Table], list, dict[str, tuple]]:
    """One reading of everything a save holds — the manifest (with each
    summary's refresh state), every table pinned (:meth:`Table.pin`),
    the staged delta batches — taken under the lock every write holds,
    so all three describe the same moment. :func:`save_database` (hence
    a journal checkpoint) and :func:`database_state_payload` serialise
    from it after the lock is released: reads and writes carry on while
    the save encodes, and what it encodes cannot move. A save in a chain
    (``previous``) reads what each table changed since that save and
    moves its mark to this one in the same acquisition that pins it."""
    with database._maintenance_lock:
        stored = {
            schema.name: database.tables[key]
            for key, schema in database.catalog.tables.items()
        }
        changes = {} if previous is None else {
            name: table.remark(previous, mark) for name, table in stored.items()
        }
        return (
            _manifest(database),
            {name: table.pin() for name, table in stored.items()},
            database.delta_log.batches(),
            changes,
        )


def _manifest(database: Database) -> dict[str, Any]:
    """Everything a save says about ``database`` besides its rows and
    staged deltas: ``catalog.json`` is this plus per-file checksums, a
    wire snapshot is this plus the rows and deltas inline."""
    return {
        "format_version": FORMAT_VERSION,
        "tables": [
            _schema_to_json(schema)
            for schema in database.catalog.tables.values()
        ],
        "foreign_keys": [
            {
                "child_table": fk.child_table,
                "child_columns": list(fk.child_columns),
                "parent_table": fk.parent_table,
                "parent_columns": list(fk.parent_columns),
            }
            for fk in database.catalog.foreign_keys
        ],
        "summary_tables": [
            {
                "name": summary.name,
                "sql": summary.sql,
                "refresh_mode": summary.refresh.mode,
                "pending_deltas": summary.refresh.pending_deltas,
                "last_refresh_lsn": summary.refresh.last_refresh_lsn,
                "quarantined": summary.refresh.quarantined,
                "quarantine_reason": summary.refresh.quarantine_reason,
            }
            for summary in database.summary_tables.values()
        ],
        "refresh_lsn": database.delta_log.lsn,
    }


def _batch_to_json(batch) -> dict[str, Any]:
    return {
        "seq": batch.seq,
        "table": batch.table,
        "sign": batch.sign,
        "rows": [[typed(value) for value in row] for row in batch.rows],
    }


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_database(path: str | Path) -> Database:
    """Reconstruct a database saved by :func:`save_database`.

    Torn tails and generation mismatches are recorded as anomalies on
    the returned database (``database._load_anomalies``) for
    :func:`verify_database` to repair; genuine corruption — a bad line
    in the middle of a file, an unreadable manifest, a missing snapshot
    — raises :class:`ReproError` with file name and line number context.
    """
    root = Path(path)
    manifest_path = root / "catalog.json"
    if not manifest_path.exists():
        raise ReproError(f"{root} does not contain a saved database")
    manifest = _load_manifest(manifest_path)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported save format {version!r}")
    checksums = manifest.get("checksums", {})
    anomalies: list[str] = []
    suspects: set[str] = set()

    catalog, schemas = _restore_catalog(manifest, "catalog.json")
    database = Database(catalog)
    for name, schema in schemas.items():
        filename = f"{name}.jsonl"
        rows = _read_rows(
            root / filename, schema, checksums.get(filename), anomalies, suspects
        )
        database.tables[name.lower()] = Table(schema.column_names, rows)
    _register_summaries(database, manifest, schemas, "catalog.json")
    _read_delta_log(
        root / "deltas.jsonl",
        database,
        manifest.get("refresh_lsn", 0),
        schemas,
        checksums.get("deltas.jsonl"),
        anomalies,
        suspects,
    )
    #: recovery bookkeeping consumed by verify_database()
    database._load_anomalies = anomalies
    database._suspect_tables = suspects
    for table in database.tables.values():  # a save chain may take over its lines
        table.remark(None, root.resolve())
    return database


def _restore_catalog(
    manifest: dict[str, Any], where: str
) -> tuple[Catalog, dict[str, TableSchema]]:
    """The catalog a manifest (``where``: ``catalog.json`` or a wire
    snapshot) describes, and its schemas by name."""
    catalog = Catalog()
    schemas: dict[str, TableSchema] = {}
    for entry in manifest["tables"]:
        try:
            schema = _schema_from_json(entry)
        except (KeyError, ValueError) as error:
            raise ReproError(
                f"{where}: malformed table entry "
                f"{entry.get('name', '?')!r}: {error!r}"
            ) from error
        catalog.add_table(schema)
        schemas[schema.name] = schema
    for entry in manifest["foreign_keys"]:
        catalog.add_foreign_key(
            ForeignKeyConstraint(
                _require(entry, "child_table", f"{where} foreign key"),
                tuple(_require(entry, "child_columns", f"{where} foreign key")),
                _require(entry, "parent_table", f"{where} foreign key"),
                tuple(_require(entry, "parent_columns", f"{where} foreign key")),
            )
        )
    return catalog, schemas


def _register_summaries(
    database: Database,
    manifest: dict[str, Any],
    schemas: dict[str, TableSchema],
    where: str,
) -> None:
    """Re-register summary tables around the already-loaded snapshots."""
    from repro.asts.definition import SummaryTable
    from repro.refresh.policy import RefreshState

    for entry in manifest["summary_tables"]:
        name = _require(entry, "name", f"{where} summary entry")
        sql = _require(entry, "sql", f"{where} summary {name!r}")
        schema = schemas.get(name)
        if schema is None:
            raise ReproError(
                f"{where}: summary table {name!r} has no schema entry"
            )
        try:
            graph = database.bind(sql, label="A")
        except ReproError as error:
            raise ReproError(
                f"{where}: summary table {name!r} definition does not "
                f"bind: {error}"
            ) from error
        table = database.tables[name.lower()]
        summary = SummaryTable(
            name=name,
            sql=sql,
            graph=graph,
            schema=schema,
            table=table,
            refresh=RefreshState(
                mode=entry.get("refresh_mode", "immediate"),
                pending_deltas=entry.get("pending_deltas", 0),
                last_refresh_lsn=entry.get("last_refresh_lsn", 0),
                quarantined=entry.get("quarantined", False),
                quarantine_reason=entry.get("quarantine_reason", ""),
            ),
        )
        database._register_summary(summary)


def _decode_batch(entry: dict, schemas: dict[str, TableSchema], where: str):
    """One staged delta batch from its JSON form, rows decoded by the
    table's schema (``schemas`` keyed lower-case)."""
    from repro.refresh.log import DeltaBatch

    table = _require(entry, "table", where)
    schema = schemas.get(table)
    if schema is None:
        raise ReproError(
            f"{where}: delta batch references unknown table {table!r}"
        )
    rows = _decode_rows(schema, _require(entry, "rows", where), where)
    return DeltaBatch(
        _require(entry, "seq", where), table, _require(entry, "sign", where),
        tuple(rows),
    )


def _load_manifest(path: Path) -> dict[str, Any]:
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(
            f"catalog.json: invalid JSON at line {error.lineno}: {error.msg}"
        ) from error
    for key in ("tables", "foreign_keys", "summary_tables"):
        if key not in manifest:
            raise ReproError(f"catalog.json: missing required key {key!r}")
    return manifest


def _require(entry: dict, key: str, context: str):
    try:
        return entry[key]
    except KeyError as error:
        raise ReproError(f"{context}: missing required key {key!r}") from error


def _read_payloads(
    path: Path,
    expected: dict | None,
    anomalies: list[str],
    suspects: set[str],
) -> list[str]:
    """The JSON payload of each framed line of ``path``
    (:func:`repro.framing.scan`).

    A bad frame followed only by newlines is a torn tail — truncated and
    reported, the table marked suspect, not fatal; a bad frame with lines
    after it raises. Bytes that are not UTF-8 are a bad frame like any
    other. Without a torn tail, the whole file's CRC is compared against
    the manifest's ``expected`` record; a mismatch means the file belongs
    to a different save generation than the manifest, so the table is
    marked suspect for recovery.
    """
    data = path.read_bytes()
    found = scan(data)
    if found.bad_line is not None and not found.tail:
        raise ReproError(
            f"{path.name}: checksum mismatch at line {found.bad_line} "
            "(corrupt record inside the file)"
        )
    if found.bad_line is not None:
        anomalies.append(
            f"{path.name}: torn tail at line {found.bad_line} truncated "
            "(partial or corrupt trailing record)"
        )
        suspects.add(path.stem.lower())
    elif expected is not None and zlib.crc32(data) != expected.get("crc"):
        anomalies.append(
            f"{path.name}: contents do not match the manifest checksum "
            "(file is from a different save generation)"
        )
        suspects.add(path.stem.lower())
    return found.payloads


def _read_rows(
    path: Path,
    schema: TableSchema,
    expected: dict | None,
    anomalies: list[str],
    suspects: set[str],
) -> list[tuple]:
    if not path.exists():
        if expected is not None:
            raise ReproError(
                f"{path.name}: data file referenced by catalog.json is missing"
            )
        return []
    payloads = _read_payloads(path, expected, anomalies, suspects)
    return _decode_rows(schema, map(json.loads, payloads), path.name, "line")


def _read_delta_log(
    path: Path,
    database: Database,
    lsn: int,
    schemas: dict[str, TableSchema],
    expected: dict | None,
    anomalies: list[str],
    suspects: set[str],
) -> None:
    by_key = {schema.name.lower(): schema for schema in schemas.values()}
    batches = []
    if path.exists():
        payloads = _read_payloads(path, expected, anomalies, suspects)
        for number, payload in enumerate(payloads, start=1):
            try:
                entry = json.loads(payload)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path.name}: invalid JSON at line {number}: {error.msg}"
                ) from error
            batches.append(
                _decode_batch(entry, by_key, f"{path.name} line {number}")
            )
    elif expected is not None:
        anomalies.append(
            "deltas.jsonl: staged delta log referenced by catalog.json is "
            "missing (staged changes lost; deferred summaries will be "
            "verified)"
        )
        suspects.add("deltas")
    database.delta_log.restore(lsn, batches)


# ----------------------------------------------------------------------
# Wire snapshots (replication bootstrap)
# ----------------------------------------------------------------------
def database_state_payload(database: Database) -> dict[str, Any]:
    """The complete database state as one JSON-ready dict.

    Same content as a :func:`save_database` directory — schemas, rows,
    summary definitions with refresh state, the staged delta log — in a
    single payload instead of files, so a standby can bootstrap over the
    wire (op ``repl.snapshot``) without sharing a filesystem with the
    primary. Round-trips through :func:`database_from_payload`. Rows,
    refresh state and staged deltas come from one :func:`_capture`, so a
    background refresh cannot land between them (its rows *and* the
    batch that produced them would reach the standby, applied twice).
    """
    payload, tables, batches, _ = _capture(database)
    payload["rows"] = {
        name: [[typed(value) for value in row] for row in table.rows]
        for name, table in tables.items()
    }
    payload["deltas"] = [_batch_to_json(batch) for batch in batches]
    return payload


def database_from_payload(payload: dict[str, Any]) -> Database:
    """Reconstruct a database from :func:`database_state_payload`.

    The payload comes off the wire already CRC-protected by the line
    framing, so unlike :func:`load_database` there is no torn-tail /
    generation-mismatch handling: anything malformed raises.
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported snapshot format {version!r}")
    catalog, schemas = _restore_catalog(payload, "snapshot")
    database = Database(catalog)
    rows_by_table = payload.get("rows", {})
    for name, schema in schemas.items():
        rows = _decode_rows(schema, rows_by_table.get(name, []), f"snapshot {name}")
        database.tables[name.lower()] = Table(schema.column_names, rows)
    _register_summaries(database, payload, schemas, "snapshot")
    by_key = {schema.name.lower(): schema for schema in schemas.values()}
    batches = [
        _decode_batch(entry, by_key, "snapshot")
        for entry in payload.get("deltas", [])
    ]
    database.delta_log.restore(payload.get("refresh_lsn", 0), batches)
    return database


# ----------------------------------------------------------------------
# Startup verification / recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What :func:`verify_database` found and did."""

    #: load-time anomalies (torn tails, generation mismatches) plus any
    #: inconsistencies found during verification
    anomalies: list[str] = field(default_factory=list)
    #: summaries recomputed from base tables back to consistency
    rebuilt: list[str] = field(default_factory=list)
    #: summaries that could not be rebuilt and were quarantined
    quarantined: list[str] = field(default_factory=list)
    #: staleness counters corrected against the delta log
    repaired: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.anomalies or self.rebuilt or self.quarantined or self.repaired
        )

    def describe(self) -> str:
        if self.clean:
            return "database verified: consistent"
        lines = ["database verified with recovery actions:"]
        for anomaly in self.anomalies:
            lines.append(f"  anomaly: {anomaly}")
        for name in self.rebuilt:
            lines.append(f"  rebuilt: {name}")
        for name in self.quarantined:
            lines.append(f"  quarantined: {name}")
        for fix in self.repaired:
            lines.append(f"  repaired: {fix}")
        return "\n".join(lines)


def verify_database(database: Database, repair: bool = True) -> RecoveryReport:
    """Cross-check summary-table state against the delta log and the
    load-time anomaly record; returns a :class:`RecoveryReport`.

    A summary is *suspect* when its snapshot (or one of its base tables,
    or the delta log) had a load anomaly, or when its
    ``last_refresh_lsn`` runs ahead of the delta log. With ``repair``
    (the default), suspect summaries are rebuilt by full recomputation
    from the loaded base tables — re-admitting them if they were
    quarantined — and summaries whose rebuild fails are quarantined;
    deferred summaries' ``pending_deltas`` counters are recomputed from
    the log. With ``repair=False`` the problems are only reported.

    Base tables are never modified: recovery treats them as the source
    of truth, which is exactly the paper's contract — summary tables are
    an optimization, so after recovery each one is either consistent
    with the base data or quarantined out of routing.
    """
    from repro.asts.maintenance import recompute

    report = RecoveryReport(
        anomalies=list(getattr(database, "_load_anomalies", []))
    )
    suspects = set(getattr(database, "_suspect_tables", ()))
    with database._maintenance_lock:
        log = database.delta_log
        changed = False
        for summary in list(database.summary_tables.values()):
            state = summary.refresh
            reasons = []
            if summary.name.lower() in suspects:
                reasons.append("summary snapshot anomaly")
            bad_bases = sorted(summary.base_tables() & suspects)
            if bad_bases:
                reasons.append(f"base table anomaly: {', '.join(bad_bases)}")
            if state.is_deferred and "deltas" in suspects:
                reasons.append("delta log anomaly")
            if state.last_refresh_lsn > log.lsn:
                reasons.append(
                    f"last_refresh_lsn {state.last_refresh_lsn} ahead of "
                    f"delta log lsn {log.lsn}"
                )
            if not reasons and state.is_deferred and not state.quarantined:
                expected = len(
                    log.pending_for(
                        summary.base_tables(), state.last_refresh_lsn
                    )
                )
                if state.pending_deltas != expected:
                    if repair:
                        state.pending_deltas = expected
                        report.repaired.append(
                            f"{summary.name}: pending_deltas corrected to "
                            f"{expected}"
                        )
                        changed = True
                    else:
                        report.anomalies.append(
                            f"{summary.name}: pending_deltas "
                            f"{state.pending_deltas} disagrees with the "
                            f"delta log ({expected})"
                        )
            if not reasons:
                continue
            if not repair:
                report.anomalies.append(
                    f"{summary.name}: inconsistent ({'; '.join(reasons)})"
                )
                continue
            try:
                recompute(
                    database, summary, f"recovery rebuild: {'; '.join(reasons)}"
                )
                database.note_recomputed(summary)
                report.rebuilt.append(
                    f"{summary.name} ({'; '.join(reasons)})"
                )
            except Exception as error:
                database.quarantine_summary(
                    summary.name,
                    f"recovery rebuild failed: {error} "
                    f"(after: {'; '.join(reasons)})",
                )
                report.quarantined.append(summary.name)
            changed = True
        if changed:
            database._prune_delta_log()
            database._bump_rewrite_epoch()
    return report


# ----------------------------------------------------------------------
# Shared encoding helpers
# ----------------------------------------------------------------------
def _schema_to_json(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "type": c.dtype.value, "nullable": c.nullable}
            for c in schema.columns
        ],
        "keys": [
            {"columns": list(k.columns), "primary": k.is_primary}
            for k in schema.keys
        ],
    }


def _schema_from_json(entry: dict[str, Any]) -> TableSchema:
    columns = [
        Column(c["name"], DataType(c["type"]), c["nullable"])
        for c in entry["columns"]
    ]
    keys = [UniqueKey(tuple(k["columns"]), k["primary"]) for k in entry["keys"]]
    return TableSchema(entry["name"], columns, keys)


def _decode_rows(schema: TableSchema, raws, where: str, unit: str = "row"):
    """JSON rows back as the tuples that were saved
    (:func:`repro.framing.row_decoder`); a bad one raises naming
    ``where`` and its ``unit`` number."""
    decode = row_decoder([column.dtype for column in schema.columns])
    rows: list[tuple] = []
    try:
        for raw in raws:
            rows.append(decode(raw))
    except (ValueError, TypeError) as error:
        raise ReproError(f"{where}: {error} at {unit} {len(rows) + 1}") from error
    return rows
