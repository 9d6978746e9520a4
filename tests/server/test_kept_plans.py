"""Kept plans: from a SELECT text's third result-cache miss on, the
server executes the plan the text's last full run kept
(``Database.rerun``) — no lex, no bind, no rewrite decision — and every
such answer is the one a fresh run gives, row order included."""

from __future__ import annotations

import datetime
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine import database as database_module
from repro.errors import ReproError
from repro.obs import events, spans
from repro.refresh.policy import RefreshAge
from repro.server import server as server_module
from repro.server.client import ReproClient
from repro.server.server import QueryServer

S1 = "select faid, flid, count(*) as cnt, sum(qty) as sqty from Trans group by faid, flid"
#: S1 again under the same name, with fewer rows than a plan over S1 reads
S1_OTHER = S1.replace("from Trans", "from Trans where qty > 1")
DS = "select faid, year(date) as year, count(*) as cnt from Trans group by faid, year(date)"
QUERIES = [
    "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid",
    "select faid, flid, sum(qty) as sqty from Trans where faid > 10 group by faid, flid",
    "select faid, year(date) as year, count(*) as cnt from Trans "
    "where year(date) > 1990 group by faid, year(date)",
    "select a.status, count(*) as cnt from Trans t, Acct a "
    "where t.faid = a.aid group by a.status",
    "select tid, qty from Trans where qty > 3 order by tid",
]


def values(tid: int) -> tuple:
    return (tid, 1 + tid % 2, 1 + tid % 2, 10 * (1 + tid % 3),
            datetime.date(1990 + tid % 3, 1 + tid % 12, 15), 1 + tid % 5,
            10.0 * tid, 0.1)


def row(tid: int) -> str:
    """``values(tid)`` as a VALUES row."""
    tid, pgid, lid, aid, date, qty, price, disc = values(tid)
    return (f"({tid}, {pgid}, {lid}, {aid}, DATE '{date}', {qty}, {price}, "
            f"{disc})")


def database() -> Database:
    """24 transactions, S1 (immediate) and DS (deferred, whose staged
    batches wait for a REFRESH: no worker drains them at random)."""
    db = Database(credit_card_catalog())
    db.load("Loc", [(1, "San Jose", "CA", "USA"), (2, "Paris", "IdF", "France")])
    db.load("PGroup", [(1, "TV"), (2, "Radio")])
    db.load("Cust", [(1, "Alice", "CA"), (2, "Bob", "TX")])
    db.load("Acct", [(10, 1, "gold"), (20, 2, "silver"), (30, 2, "gold")])
    db.load("Trans", map(values, range(1, 25)))
    db._scheduler.notify = lambda names: None
    db.run_sql(f"CREATE SUMMARY TABLE S1 AS {S1}")
    db.run_sql(f"CREATE SUMMARY TABLE DS REFRESH DEFERRED AS {DS}")
    return db


def reruns(server: QueryServer) -> int:
    return int(server.db.metrics.get("server.plan_reruns").value)


def answer(client: ReproClient, sql: str, use_summaries: bool = True):
    """``(cache label, rows or status)`` of a statement, or ``(None, the
    error's type name)``."""
    try:
        reply = client.query(sql, use_summaries)
    except ReproError as error:
        return None, type(error).__name__
    return reply.cache, reply.status if reply.table is None else reply.table.rows


#: what the differential interleaves with repeated reads
ACTIONS = (
    [("read", q, True) for q in range(len(QUERIES))] * 6
    + [("read", q, False) for q in range(len(QUERIES))] * 2
    + [("write", f"INSERT INTO Trans VALUES {row(tid)}") for tid in (100, 101)]
    + [("write", f"DELETE FROM Trans VALUES {row(tid)}") for tid in (3, 100)]
    + [("write", "DROP SUMMARY TABLE S1", f"CREATE SUMMARY TABLE S1 AS {sql}")
       for sql in (S1, S1_OTHER, S1_OTHER)]
    + [("write", "DROP SUMMARY TABLE DS",
        f"CREATE SUMMARY TABLE DS REFRESH DEFERRED AS {DS}")]
    + [("write", f"REFRESH SUMMARY TABLE {name}") for name in ("S1", "DS")]
    + [("set", f"SET REFRESH AGE {age}") for age in ("0", "ANY")]
    + [("set", f"SET QUERY MAXROWS {n}") for n in ("4", "OFF")]
    + [("set", f"SET QUERY TIMEOUT {ms}") for ms in ("60000", "OFF")]
    + [("quarantine", name) for name in ("S1", "DS")]
)


def test_kept_plans_answer_as_a_cache_off_twin_does():
    """Each read of a server whose result cache is emptied after every
    read — so each is a miss, run by the text's kept plan once it has
    one — equals the read of a twin with no result cache, hence no memo
    and no kept plan, that took the same statements."""
    counted = []

    @given(st.lists(st.sampled_from(ACTIONS), min_size=20, max_size=50))
    @settings(max_examples=max(10, settings.default.max_examples // 10),
              deadline=None)
    def check(actions):
        dbs = [database(), database()]
        servers = [QueryServer(dbs[0]), QueryServer(dbs[1], cache_size=0)]
        for server in servers:
            server.start_in_thread()
        clients = [ReproClient(*server.address) for server in servers]
        try:
            for kind, *args in actions:
                if kind == "read":
                    sql = QUERIES[args[0]]
                    got, want = (answer(c, sql, args[1]) for c in clients)
                    assert got[1] == want[1], (sql, args[1])
                    assert got[0] in ("miss", None)
                    servers[0].cache.shed(1 << 40)
                elif kind == "quarantine":
                    for db in dbs:
                        db.quarantine_summary(args[0], "test")
                else:
                    for sql in args:
                        got, want = (answer(client, sql)[1] for client in clients)
                        assert got == want, sql
            counted.append(reruns(servers[0]))
        finally:
            for client, server in zip(clients, servers):
                client.close()
                server.stop()

    check()
    assert sum(counted) > 0


def warmed(db: Database, texts) -> Database:
    """``db`` with DS stale and the shape of each of ``texts`` warm under
    that: bound by substitution and its plan template filed, as a
    dashboard's texts that share a shape are. The server has seen none
    of them."""
    db.run_sql(f"INSERT INTO Trans VALUES {row(199)}")
    for sql in texts:
        for _ in range(2):
            db.execute(sql)
    return db


def rounds_of(client: ReproClient, texts, n: int, first: int = 200) -> None:
    """``n`` rounds of a one-row insert and a read of each of ``texts``,
    each read a result-cache miss."""
    for i in range(n):
        client.query(f"INSERT INTO Trans VALUES {row(first + i)}")
        for sql in texts:
            assert client.query(sql).cache == "miss"


def test_a_repeated_miss_neither_lexes_nor_binds_nor_decides(monkeypatch):
    server = QueryServer(warmed(database(), QUERIES))
    server.start_in_thread()
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    try:
        with ReproClient(*server.address) as client:
            rounds_of(client, QUERIES, 2)  # first sight, second sight
            assert reruns(server) == 0
            for owner, name in ((server_module, "lex"), (database_module, "lex"),
                                (Database, "prepare_select"),
                                (Database, "_decide_rewrite")):
                spy(owner, name)
            rounds_of(client, QUERIES, 1, first=300)
    finally:
        server.stop()
    assert calls == []
    assert reruns(server) == len(QUERIES)


def kept(db: Database, sql: str):
    """The run of ``sql`` that keeps a plan: the third, the first bound
    by substitution."""
    for _ in range(3):
        run = db.run_select(sql, sql)
    return run


def test_rerun_refuses_a_plan_of_another_epoch_or_admissible_set():
    db = database()
    db.run_sql(f"INSERT INTO Trans VALUES {row(300)}")  # DS is stale
    run = kept(db, QUERIES[0])
    plan = run.plan()
    assert plan.summaries == ("s1",) and plan.admissible == {"s1"}
    assert db.rerun(plan, QUERIES[0]).rows == run.table.rows
    assert db.rerun(plan, QUERIES[0], use_summary_tables=False) is None
    db.run_sql("DROP SUMMARY TABLE S1")  # the same name and admissible
    db.run_sql(f"CREATE SUMMARY TABLE S1 AS {S1_OTHER}")  # set, new epoch
    assert db.rerun(plan, QUERIES[0]) is None
    db.run_sql("REFRESH SUMMARY TABLE DS")
    stale = kept(db, QUERIES[2]).plan()
    assert stale.summaries == ("ds",)
    db.run_sql(f"INSERT INTO Trans VALUES {row(301)}")  # DS is stale again
    assert db.rerun(stale, QUERIES[2]) is None
    assert db.rerun(stale, QUERIES[2], tolerance=RefreshAge.ANY) is not None


def test_two_pool_threads_rerun_one_plan_while_a_writer_writes():
    """As tests/server/test_overlapped_reads.py: every reply is the state
    after some prefix of the acknowledged writes."""
    query = "select count(*) as cnt, sum(qty) as sqty from Trans"
    db = warmed(database(), [query])
    count, total = db.execute(query, use_summary_tables=False).rows[0]
    statements = [f"INSERT INTO Trans VALUES {row(500 + i)}" for i in range(60)]
    states = [(count, total)]
    for i in range(60):
        states.append((states[-1][0] + 1, states[-1][1] + 1 + (500 + i) % 5))
    db.governor.admission.configure(8)  # every miss takes the pool
    server = QueryServer(db)
    server.start_in_thread()
    sent = acked = 0
    failures, replies = [], []
    warm, done = threading.Barrier(3), threading.Event()

    def write_all():
        nonlocal sent, acked
        with ReproClient(*server.address) as client:
            for statement in statements:
                sent += 1
                client.query(statement)
                acked += 1

    def read():
        try:
            with ReproClient(*server.address) as client:
                client.query(query)
                client.query(query, use_summary_tables=False)
                warm.wait()  # both sights taken: the plan is kept
                while not done.is_set():
                    low = acked
                    rows = client.query(query).table.rows
                    replies.append((low, tuple(rows[0]), sent))
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)

    readers = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for reader in readers:
            reader.start()
        warm.wait()
        write_all()
        done.set()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert not failures and acked == len(statements)
    assert reruns(server) > 0
    for low, got, high in replies:
        assert got in states[low : high + 1], (low, got, high)


@pytest.fixture
def clean_obs():
    spans.uninstall()
    events.LOG.clear()
    yield
    spans.uninstall()
    events.LOG.clear()


def test_a_sampled_request_takes_the_full_path(clean_obs):
    server = QueryServer(warmed(database(), QUERIES[:1]))
    server.start_in_thread()
    try:
        with ReproClient(*server.address) as client:
            rounds_of(client, QUERIES[:1], 3)
            assert reruns(server) == 1
            client.set("SET TRACE SAMPLE 1")
            tracer = spans.TRACER
            rounds_of(client, QUERIES[:1], 1, first=300)
            client.set("SET TRACE SAMPLE OFF")
    finally:
        server.stop()
    assert reruns(server) == 1
    [rewrite] = [s for s in tracer.buffer.snapshot() if s["name"] == "db.rewrite"]
    assert rewrite["attrs"]["rewritten"] is True
    trace = rewrite["attrs"]["match_trace"]
    assert trace["sql"] == QUERIES[0]
    assert any(v["applied"] for v in trace["summaries"])


def test_a_slow_rerun_logs_its_text(clean_obs):
    server = QueryServer(warmed(database(), QUERIES[:1]))
    server.start_in_thread()
    try:
        with ReproClient(*server.address) as client:
            rounds_of(client, QUERIES[:1], 2)
            client.set("SET SLOW QUERY 0")
            rounds_of(client, QUERIES[:1], 1, first=300)
    finally:
        server.stop()
    assert reruns(server) == 1
    [slow] = [e for e in events.tail() if e["event"] == "query.slow"]
    assert slow["sql"] == QUERIES[0]
