"""The one codec, frame scanner and atomic writer (``repro/framing.py``)
under everything that writes through them: numbers come back exactly
through a save, the wire snapshot and a journal checkpoint; a bad frame
means one thing to each of the three line readers; and values of every
kind round-trip through the schema-typed rows, the wire and spill runs."""

from __future__ import annotations

import datetime
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.persist import (
    database_from_payload,
    database_state_payload,
    load_database,
    save_database,
    verify_database,
)
from repro.engine.table import Table
from repro.errors import ExecutionError, ReproError, WalError
from repro.replication import WriteAheadLog
from repro.resources.spill import write_run
from repro.server import protocol

SUMMARY = "select g, sum(price) as s, count(*) as c from T group by g"
QUERY = "select g, sum(price) as s from T group by g"


def cells(rows) -> list[tuple[str, str]]:
    return [(type(v).__name__, repr(v)) for row in rows for v in row]


def priced_db() -> Database:
    """``price`` is FLOAT but holds the int ``5``; ``S.s`` is typed from
    its first value, ``5``: INTEGER, though ``2.5`` is in it too."""
    db = Database()
    db.run_sql(
        "create table T (k integer not null, g integer, price float, "
        "primary key (k))"
    )
    db.run_sql("insert into T values (1, 1, 5), (2, 2, 2.5)")
    db.run_sql(f"create summary table S as {SUMMARY}")
    return db


def saved(db: Database, tmp_path: Path) -> Database:
    loaded = load_database(save_database(db, tmp_path / "db"))
    assert verify_database(loaded).clean
    return loaded


def shipped(db: Database, tmp_path: Path) -> Database:
    line = protocol.encode_message({"state": database_state_payload(db)})
    return database_from_payload(protocol.decode_message(line)["state"])


def journaled(db: Database, tmp_path: Path) -> Database:
    wal = WriteAheadLog(tmp_path / "wal", sync="os")
    wal.begin(Database())
    for sql in [
        "create table T (k integer not null, g integer, price float, "
        "primary key (k))",
        "insert into T values (1, 1, 5), (2, 2, 2.5)",
        f"create summary table S as {SUMMARY}",
    ]:
        wal.append("ddl" if sql.startswith("create") else "insert", sql)
    wal.checkpoint(db)
    wal.close()
    recovery = WriteAheadLog(tmp_path / "wal", sync="os").recover()
    assert recovery.replayed == 0 and recovery.report.clean
    return recovery.database


@pytest.mark.parametrize("path", [saved, shipped, journaled])
def test_numbers_come_back_exactly(path, tmp_path):
    """At the parent each path re-typed the int ``5`` in the FLOAT column
    as ``5.0`` and ``S``'s ``2.5`` as ``2``: the rewritten answer
    disagreed with the base tables and verification called it
    consistent."""
    db = path(priced_db(), tmp_path)
    assert ("int", "5") in cells(db.table("T").rows)
    assert db.rewrite(QUERY) is not None
    rewritten = sorted(db.execute(QUERY).rows)
    base = sorted(db.execute(QUERY, use_summary_tables=False).rows)
    assert cells(rewritten) == cells(base) == cells([(1, 5), (2, 2.5)])
    db.close()


# ----------------------------------------------------------------------
# one torn-tail rule, three readers
def good_lines(path: Path) -> list[bytes]:
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3
    return lines


def flip(line: bytes, byte: bytes) -> bytes:
    """``line`` with one payload byte replaced, newline kept."""
    return line[:12] + byte + line[13:]


class SaveFile:
    """A base table's ``T.jsonl``: a torn tail is an anomaly and the
    summary over ``T`` is rebuilt; damage inside raises."""

    error = ReproError

    def __init__(self, tmp_path: Path):
        db = Database()
        db.run_sql("create table T (k integer not null, v varchar(9))")
        db.run_sql("insert into T values (1, 'un'), (2, 'deux'), (3, 'trois')")
        db.run_sql("create summary table S as select count(*) as n from T")
        self.root = save_database(db, tmp_path / "db")
        self.path = self.root / "T.jsonl"

    def read(self) -> tuple[int, bool]:
        db = load_database(self.root)
        torn = any("torn tail" in a for a in db._load_anomalies)
        report = verify_database(db)
        assert bool(report.rebuilt) == bool(db._load_anomalies)
        assert db.table("S").rows == [(len(db.table("T")),)]
        db.close()
        return len(db.table("T")), torn


class JournalSegment:
    """The live journal segment: a torn tail is truncated on recovery;
    damage inside raises."""

    error = WalError

    def __init__(self, tmp_path: Path):
        self.directory = tmp_path / "wal"
        wal = WriteAheadLog(self.directory, sync="os")
        db = Database()
        wal.begin(db)
        wal.append("ddl", "create table T (k integer not null)")
        for k in (1, 2):
            wal.append("insert", f"insert into T values ({k})")
        wal.close()
        (self.path,) = self.directory.glob("journal-*.jsonl")

    def read(self) -> tuple[int, bool]:
        wal = WriteAheadLog(self.directory, sync="os")
        recovery = wal.recover()
        wal.close()
        recovery.database.close()
        return recovery.replayed, any("torn tail" in a for a in recovery.anomalies)


class SpillFile:
    """A spill run: any bad line is a typed query error."""

    error = ExecutionError

    def __init__(self, tmp_path: Path):
        records = [[1, ("a",), [2.5, 1]], [2, ("b",), {3}], [3, ("c",), None]]
        self.run = write_run(records)
        self.path = Path(self.run.path)

    def read(self) -> tuple[int, bool]:
        try:
            return len(list(self.run.read())), False
        finally:
            self.run.delete()


#: case → (file bytes from the three good lines, the bad line's number or
#: None, whether it is a torn tail)
CASES = {
    "torn last line": (lambda l: l[0] + l[1] + l[2][:-6], 3, True),
    "corrupt interior line": (lambda l: l[0] + flip(l[1], b"~") + l[2], 2, False),
    "high bit, last line": (lambda l: l[0] + l[1] + flip(l[2], b"\xe9"), 3, True),
    "high bit, interior line": (
        lambda l: l[0] + flip(l[1], b"\xe9") + l[2], 2, False
    ),
    "bad line then blank lines": (
        lambda l: l[0] + l[1] + flip(l[2], b"~") + b"\n\n\n", 3, True
    ),
    "empty file": (lambda l: b"", None, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("reader", [SaveFile, JournalSegment, SpillFile])
def test_a_bad_frame_means_one_thing_per_reader(reader, case, tmp_path):
    """At the parent a high-bit byte made the save reader raise a raw
    ``UnicodeDecodeError``, and a bad line followed by blank lines was
    corruption to it but a torn tail to the journal."""
    damage, bad_line, tail = CASES[case]
    target = reader(tmp_path)
    lines = good_lines(target.path)
    target.path.write_bytes(damage(lines))
    if bad_line is None:
        assert target.read() == (0, False)
    elif tail and reader is not SpillFile:
        assert target.read() == (2, True)
        if reader is JournalSegment:  # truncated back to the good prefix
            assert target.path.read_bytes() == lines[0] + lines[1]
    else:
        with pytest.raises(target.error, match=f"{target.path.name}.* line {bad_line}"):
            target.read()


# ----------------------------------------------------------------------
# round trips, value by value
TEXT = st.text(st.sampled_from("a\"'\\\n\t é—🙂\x00"), max_size=6)
NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
)
DATES = st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31))
#: columns k INTEGER, f FLOAT (ints too), s VARCHAR, d DATE, b BOOLEAN
ROWS = st.lists(
    st.tuples(
        st.integers(-(2**70), 2**70),
        st.none() | NUMBERS,
        st.none() | TEXT,
        st.none() | DATES,
        st.none() | st.booleans(),
    ),
    max_size=8,
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT, DATES)


def canonical(value) -> str:
    """``(type, repr)`` all the way down; a set's elements sorted."""
    if isinstance(value, (set, tuple, list)):
        items = [canonical(v) for v in value]
        if isinstance(value, set):
            items.sort()
        return f"{type(value).__name__}[{', '.join(items)}]"
    return f"{type(value).__name__}:{value!r}"


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(rows=ROWS)
def test_rows_round_trip_through_a_save(rows):
    db = Database()
    db.run_sql(
        "create table V (k integer, f float, s varchar(9), d date, b boolean)"
    )
    db.load("V", rows)
    with tempfile.TemporaryDirectory() as directory:
        loaded = load_database(save_database(db, Path(directory)))
    assert canonical(list(loaded.table("V").rows)) == canonical(rows)
    db.close()
    loaded.close()


@settings(deadline=None)
@given(rows=st.lists(st.tuples(SCALARS, SCALARS), max_size=4))
def test_values_round_trip_over_the_wire(rows):
    table = Table(["x", "y"], rows)
    line = protocol.encode_reply({"ok": True}, protocol.encode_table_fragment(table))
    restored = protocol.decode_table(protocol.decode_message(line)["table"])
    assert canonical(list(restored.rows)) == canonical(rows)


HASHABLE = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT, DATES)


@settings(deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 99),
            st.tuples(HASHABLE, HASHABLE),
            st.tuples(st.none() | NUMBERS, st.integers(0, 9)).map(list),
            st.sets(HASHABLE, max_size=3),
        ).map(list),
        max_size=4,
    )
)
def test_records_round_trip_through_a_spill_run(records):
    run = write_run(records)
    try:
        assert canonical(list(run.read())) == canonical(records)
    finally:
        run.delete()
