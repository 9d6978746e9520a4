"""Reads that overlap writes, over the wire: every reply is the state
after exactly some number of the acknowledged writes — never an error,
never a mixture of two states."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.server.client import ReproClient
from repro.server.server import QueryServer
from tests.conftest import fresh_small_db

AST = "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
QUERY = "select count(*) as cnt, sum(qty) as sqty from Trans"
WRITES = 400  # one-row inserts, then the same rows deleted


def row_sql(verb: str, i: int) -> str:
    # qty i + 1: every prefix of the write sequence has its own
    # (count, sum) — 1 + … + j + 1 + … + d = 1 + … + (j + d) only if jd = 0
    values = f"({900000 + i}, 1, 1, 1, DATE '1994-03-03', {i + 1}, 1.0, 0.0)"
    if verb == "insert":
        return f"INSERT INTO Trans VALUES {values}"
    return f"DELETE FROM Trans VALUES {values}"


@pytest.mark.parametrize("use_summaries", [True, False], ids=["ast", "base"])
def test_every_reply_is_the_state_after_some_prefix_of_the_writes(use_summaries):
    db = fresh_small_db()
    db.create_summary_table("S", AST)
    count, total = db.execute(QUERY, use_summary_tables=False).rows[0]
    statements = [row_sql("insert", i) for i in range(WRITES // 2)]
    statements += [row_sql("delete", i) for i in range(WRITES // 2)]
    states = [(count, total)]
    for i in range(WRITES // 2):
        states.append((states[-1][0] + 1, states[-1][1] + i + 1))
    for i in range(WRITES // 2):
        states.append((states[-1][0] - 1, states[-1][1] - i - 1))

    server = QueryServer(db, cache_enabled=False)
    server.start_in_thread()
    sent = acked = 0
    failures = []

    def write_all():
        nonlocal sent, acked
        try:
            with ReproClient(*server.address) as client:
                for statement in statements:
                    sent += 1
                    client.query(statement)
                    acked += 1
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)

    replies = []
    interval = sys.getswitchinterval()
    writer = threading.Thread(target=write_all)
    try:
        with ReproClient(*server.address) as client:
            sys.setswitchinterval(1e-4)
            try:
                writer.start()
                while writer.is_alive() or not replies:
                    low = acked
                    answer = client.query(QUERY, use_summaries).table.rows[0]
                    replies.append((low, tuple(answer), sent))
            finally:
                sys.setswitchinterval(interval)
                writer.join(timeout=120)
    finally:
        server.stop()
        db.close()
    assert not failures and not writer.is_alive()
    assert acked == WRITES
    for low, answer, high in replies:
        assert answer in states[low : high + 1], (low, answer, high)
