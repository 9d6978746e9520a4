"""A query's facts ride on its run record: the match trace and the
fast-path counts EXPLAIN [ANALYZE] prints belong to the statement that
produced them, whatever other threads match meanwhile, and the
database-wide ``rewrite_*`` counters lose no update."""

from __future__ import annotations

import re
import sys
import threading

import pytest

import repro.rewrite.rewriter as rewriter_mod
from repro.bench import FIGURES, make_database
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.workloads import small_config

Q1 = FIGURES["fig02_q1"][2]
Q10 = FIGURES["fig11_q10"][2]


@pytest.fixture(scope="module")
def nine_ast_db():
    """All nine figure ASTs, decision cache off: every statement walks
    the whole match path, so every run of one statement is alike."""
    db = make_database(small_config())
    for name, sql in dict(
        (ast, sql) for ast, sql, _, _ in FIGURES.values()
    ).items():
        db.create_summary_table(name, sql)
    db.configure_fast_path(cache=False)
    yield db
    db.close()


def masked(text: str) -> str:
    text = re.sub(r" +\d+\.\d{3} ms", " X ms", text)
    return re.sub(r"trace #\d+(, trace_id \w+)?", "trace #N", text)


def test_trace_and_counts_isolated_from_an_interleaved_statement(
    nine_ast_db, monkeypatch
):
    """Statement A parks inside its match phase while statement B runs
    start to finish on another thread; each sees only its own facts."""
    db = nine_ast_db
    db.set_tracing(True)
    try:
        solo_a = masked(db.explain_analyze(Q1))
        db.execute(Q10)
        solo_b = db.last_trace.verdict_rows()

        original = rewriter_mod._best_match
        main = threading.current_thread()
        parked = []

        def park_then_match(*args):
            if threading.current_thread() is main and not parked:
                parked.append(True)
                other = threading.Thread(target=db.execute, args=(Q10,))
                other.start()
                other.join(timeout=60)
                assert not other.is_alive()
            return original(*args)

        monkeypatch.setattr(rewriter_mod, "_best_match", park_then_match)
        interleaved_a = masked(db.explain_analyze(Q1))
        monkeypatch.undo()
    finally:
        db.set_tracing(False)
    assert parked
    assert interleaved_a == solo_a
    trace_b, trace_a = list(db.trace_buffer)[-2:]
    assert (trace_b.sql, trace_a.sql) == (Q10, Q1)
    assert trace_b.verdict_rows() == solo_b


def test_explain_analyze_over_the_wire_ignores_other_connections(nine_ast_db):
    server = QueryServer(nine_ast_db, cache_enabled=False)
    server.start_in_thread()
    stop = threading.Event()
    failures = []

    def adhoc_traffic():
        try:
            with ReproClient(*server.address) as client:
                while not stop.is_set():
                    for _, _, query, _ in FIGURES.values():
                        client.query(query)
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    try:
        with ReproClient(*server.address) as client:
            solo = masked(client.explain(Q1, analyze=True))
            noise = threading.Thread(target=adhoc_traffic)
            noise.start()
            sys.setswitchinterval(1e-4)
            try:
                busy = [
                    masked(client.explain(Q1, analyze=True)) for _ in range(10)
                ]
            finally:
                sys.setswitchinterval(interval)
                stop.set()
                noise.join(timeout=60)
    finally:
        server.stop()
    assert not failures and not noise.is_alive()
    assert busy == [solo] * 10


def test_registry_counts_are_exact_under_contention(nine_ast_db):
    db = nine_ast_db
    threads, rounds = 4, 250
    db.configure_fast_path(cache=True)
    before = db.rewrite_stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(
                target=lambda: [db.rewrite(Q10) for _ in range(rounds)]
            )
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        db.configure_fast_path(cache=False)
    assert not any(worker.is_alive() for worker in workers)
    after = db.rewrite_stats()
    delta = {key: after[key] - before[key] for key in after}
    assert delta["queries"] == threads * rounds
    assert (
        delta["cache_hits"] + delta["cache_negative_hits"]
        + delta["cache_misses"]
    ) == threads * rounds


def test_shape_hits_are_counted_per_run_and_exactly(nine_ast_db):
    """Fresh bindings of one shape from four threads: every rewrite is
    a miss, a shape hit or a replay — a shape hit a hit, never a miss —
    and each run's own record says which."""
    db = nine_ast_db
    threads, rounds = 4, 60
    db.configure_fast_path(cache=True)
    before = db.rewrite_stats()
    records = []

    def issue(worker: int) -> None:
        for round_ in range(rounds):
            # every other statement repeats one another thread issues
            value = round_ if round_ % 2 else worker * rounds + round_
            run = db.prepare_select(Q10.replace("> 2", f"> {value}.5"))
            db._rewrite_stage(run)
            records.append(run.rewrite_stats.as_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=issue, args=(n,)) for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        db.configure_fast_path(cache=False)
    assert not any(worker.is_alive() for worker in workers)
    after = db.rewrite_stats()
    delta = {key: after[key] - before[key] for key in after}
    assert len(records) == delta["queries"] == threads * rounds
    for name in ("cache_hits", "cache_misses", "cache_shape_hits",
                 "matches_attempted", "cache_stores"):
        assert delta[name] == sum(record[name] for record in records), name
    assert delta["cache_hits"] + delta["cache_misses"] == threads * rounds
    assert 0 < delta["cache_shape_hits"] < delta["cache_hits"]
    for record in records:
        assert record["cache_hits"] + record["cache_misses"] == 1
        if record["cache_shape_hits"]:
            assert record["cache_hits"] == 1 and record["matches_attempted"] > 0
        elif record["cache_hits"]:
            assert record["matches_attempted"] == 0
