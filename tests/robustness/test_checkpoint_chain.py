"""A failed or foreign mark is never trusted.

A checkpoint reuses the previous checkpoint's lines only for a table
whose mark names exactly that save and only from a file whose bytes
match that save's manifest (``persist.save_counted``).  One scenario per
way the chain of checkpoints can be cut — or must *not* be: whatever
happens between two checkpoints, the next committed one is byte for byte
a plain save, the frame spy shows a full encode exactly where the chain
was cut (and nowhere else), the checkpoint after it is incremental
again, and recovery from it plus the journal tail is the live state."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.persist import (
    database_from_payload,
    database_state_payload,
    save_database,
)
from repro.replication import WriteAheadLog
from repro.testing import INJECTOR, InjectedFault
from tests.replication.test_incremental_checkpoint import Chain, trans
from tests.replication.test_wal import assert_same_database

#: what the next committed checkpoint encodes
FULL, KEPT, TRANS = "every row", "what changed", "Trans and what changed"


def write(chain: Chain, count: int) -> None:
    """``count`` more one-row inserts; ``chain.history`` numbers them."""
    for _ in range(count):
        chain.history.append(len(chain.history) + 1)
        chain.run(f"INSERT INTO Trans VALUES {trans(900000 + chain.history[-1])}")


def fault_mid_checkpoint(point: str):
    def cut(chain: Chain) -> str:
        # the third file of the snapshot: the capture has moved every mark
        with INJECTOR.injected(point, every=3):
            with pytest.raises(InjectedFault):
                chain.wal.checkpoint(chain.db)
        return FULL

    return cut


def disk_full(chain: Chain) -> str:
    # refused before the capture: no mark moved, nothing to distrust
    with INJECTOR.injected("wal.disk_full", times=1):
        with pytest.raises(OSError):
            chain.wal.checkpoint(chain.db)
    return KEPT


def flipped_byte(chain: Chain) -> str:
    path = chain.committed() / "Trans.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    return TRANS


def previous_deleted(chain: Chain) -> str:
    shutil.rmtree(chain.committed())
    return FULL


CHILD = """
import os, signal, sys
from repro.replication import WriteAheadLog
from repro.testing import INJECTOR
from tests.replication.test_incremental_checkpoint import build, trans

db = build()
wal = WriteAheadLog(sys.argv[1], sync="os")
wal.begin(db)
def write(n):
    sql = f"INSERT INTO Trans VALUES {trans(900000 + n)}"
    db.run_sql(sql)
    wal.append("insert", sql)
history = [int(n) for n in sys.argv[2].split(",")]
for n in history[:-4]:
    write(n)
wal.checkpoint(db)
for n in history[-4:]:
    write(n)
# die at the last rename of the snapshot — its manifest's: every data
# file of the new checkpoint is in place, wal.meta still names the old
files = len(db.tables) + 1
INJECTOR.arm("persist.rename", every=files,
             error=lambda point: os.kill(os.getpid(), signal.SIGKILL))
wal.checkpoint(db)
"""


def sigkill_before_the_meta_rename(chain: Chain) -> str:
    """The same history in a child process that is SIGKILLed between
    the new snapshot's files and the ``wal.meta`` rename; the chain goes
    on from what recovery finds."""
    directory = chain.tmp / "killed"
    root = Path(repro.__file__).resolve().parents[2]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(directory),
         ",".join(map(str, chain.history))],
        cwd=root, env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == -9, child.stderr
    chain.wal.close()
    chain.wal = WriteAheadLog(directory, sync="os")
    recovery = chain.wal.recover()
    assert any("uncommitted checkpoint" in a for a in recovery.anomalies)
    assert recovery.replayed == 4
    assert_same_state(recovery.database, chain.db)
    chain.db.close()
    chain.db = recovery.database
    return KEPT  # loaded tables carry the committed checkpoint's mark


def recover_then_checkpoint(chain: Chain) -> str:
    chain.wal.close()
    chain.wal = WriteAheadLog(chain.wal.directory, sync="os")
    recovery = chain.wal.recover()
    assert_same_state(recovery.database, chain.db)
    chain.db.close()
    chain.db = recovery.database
    return KEPT  # the chain goes on from the checkpoint recovery loaded


def rebase_onto_a_snapshot(chain: Chain) -> str:
    """A standby re-bootstrapping: another ``Database``, same journal."""
    other = database_from_payload(database_state_payload(chain.db))
    base = chain.wal.last_lsn + 5
    framed = chain.spy.during(lambda: chain.wal.rebase(other, base_lsn=base))
    chain.db.close()
    chain.db = other
    assert framed == chain.stored_rows()  # nothing of the old chain is its
    return KEPT  # … and the rebase began a chain of its own


def user_save_between(chain: Chain) -> str:
    save_database(chain.db, chain.tmp / "user-save")
    database_state_payload(chain.db)  # repl.snapshot
    return KEPT  # neither reads nor moves a mark


def second_journal(chain: Chain) -> str:
    other = WriteAheadLog(chain.tmp / "wal-2", sync="os")
    other.begin(chain.db)  # its baseline marks every table as its own
    other.close()
    return FULL


CUTS = {
    "persist.write fault mid-checkpoint": fault_mid_checkpoint("persist.write"),
    "persist.rename fault mid-checkpoint": fault_mid_checkpoint("persist.rename"),
    "wal.disk_full during it": disk_full,
    "flipped byte in the previous Trans.jsonl": flipped_byte,
    "previous directory deleted": previous_deleted,
    "SIGKILL before the wal.meta rename": sigkill_before_the_meta_rename,
    "recover then first checkpoint": recover_then_checkpoint,
    "rebase onto a snapshot-built Database": rebase_onto_a_snapshot,
    "user save and repl.snapshot between": user_save_between,
    "two journals begun on one Database": second_journal,
}


def assert_same_state(left, right) -> None:
    left.drain_refresh()
    right.drain_refresh()
    assert_same_database(left, right)  # every table, summaries among them


@pytest.mark.parametrize("name", CUTS)
def test_the_chain_is_cut_exactly_where_it_must_be(name, tmp_path, monkeypatch):
    chain = Chain(tmp_path, monkeypatch=monkeypatch)
    chain.history = []
    write(chain, 3)
    chain.checkpoint()
    write(chain, 4)
    chain.checkpoint()
    stored = chain.stored_rows()
    assert chain.framed < stored // 4  # the chain is established

    write(chain, 4)
    expected = CUTS[name](chain)
    write(chain, 1)
    chain.checkpoint()  # byte for byte a plain save, whatever happened
    stored, trans_rows = chain.stored_rows(), len(chain.db.table("Trans"))
    if expected == FULL:
        assert chain.framed == stored
    elif expected == TRANS:
        assert trans_rows <= chain.framed < trans_rows + stored // 4
    else:
        assert chain.framed < stored // 4

    write(chain, 4)
    chain.checkpoint()
    assert chain.framed < stored // 4  # and the chain goes on from there

    write(chain, 3)  # a tail past the last checkpoint
    chain.wal.close()
    recovery = WriteAheadLog(chain.wal.directory, sync="os").recover()
    assert recovery.replayed == 3 and not recovery.anomalies
    assert json.loads(
        (chain.wal.directory / "wal.meta.json").read_text()
    )["checkpoint_dir"] == chain.committed().name
    assert_same_state(recovery.database, chain.db)
    recovery.database.close()
    chain.db.close()
