"""Catalog mutation under concurrent queries (the epoch-atomicity fix).

Two historical races, both fixed in ``Database``:

* the rewrite decision cache stamped entries with the epoch read
  *after* matching, so a ``CREATE``/``DROP SUMMARY TABLE`` landing
  mid-decision could store a stale decision under the new epoch and
  replay a rewrite against a dropped AST forever;
* a query that matched a summary could reach the executor after a
  concurrent ``DROP`` removed the summary's backing table from the
  store, failing with a spurious lookup error. Matched summaries are
  now pinned via an execution overlay.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.table import tables_equal
from repro.qgm.bind_cache import lex
from tests.conftest import fresh_small_db

SUMMARY_SQL = (
    "select faid, flid, year(date) as year, count(*) as cnt, "
    "sum(qty) as qty from Trans group by faid, flid, year(date)"
)
QUERY = (
    "select faid, year(date) as year, count(*) as cnt "
    "from Trans group by faid, year(date)"
)


@pytest.fixture
def db():
    return fresh_small_db()


class TestDroppedAstPinning:
    def test_prepared_rewrite_survives_concurrent_drop(self, db):
        """Deterministic replay of the race: decide the rewrite while
        the AST exists, drop the AST, then execute the decided graph.
        The overlay must pin the dropped summary's table."""
        db.create_summary_table("EpochAst", SUMMARY_SQL)
        expected = db.execute(QUERY, use_summary_tables=False)
        run = db.prepare_select(QUERY)
        db._rewrite_stage(run)
        overlay = run.overlay
        assert overlay is not None and "epochast" in overlay
        db.drop_summary_table("EpochAst")
        assert "epochast" not in db.tables
        result = db.execute_graph(run.graph, overlay=overlay)
        assert tables_equal(result, expected)

    def test_decision_cache_epoch_captured_before_match(self, db, monkeypatch):
        """A decision computed against epoch N must not be stored under
        epoch N+1 when DDL lands mid-decision. Simulated by bumping the
        epoch from inside the matcher itself."""
        import repro.rewrite.rewriter as rewriter_mod

        db.create_summary_table("EpochAst", SUMMARY_SQL)
        epoch_before = db._rewrite_epoch
        original = rewriter_mod.rewrite_query

        def ddl_mid_match(graph, summaries, **kwargs):
            db._bump_rewrite_epoch()  # concurrent DDL, mid-decision
            return original(graph, summaries, **kwargs)

        monkeypatch.setattr(rewriter_mod, "rewrite_query", ddl_mid_match)
        db.execute(QUERY)
        monkeypatch.undo()
        entry = db._bind_cache.entries.peek(lex(QUERY, "Q")[1])
        assert entry is not None and len(entry.decisions) == 1
        # Stored on a shape filed at the epoch captured BEFORE matching:
        # a lookup at the post-DDL epoch must treat it as stale, not
        # replay it.
        assert entry.epoch == epoch_before
        assert entry.epoch != db._rewrite_epoch
        hits_before = db.rewrite_stats()["cache_hits"]
        result = db.execute(QUERY)
        assert db.rewrite_stats()["cache_hits"] == hits_before
        assert tables_equal(result, db.execute(QUERY, use_summary_tables=False))


class TestConcurrentDdlStress:
    def test_queries_stay_correct_under_create_drop_storm(self, db):
        """Readers hammer one query while a writer creates and drops
        the matching AST; every result must equal base execution and no
        query may error."""
        expected = db.execute(QUERY, use_summary_tables=False)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    result = db.execute(QUERY)
                    if not tables_equal(result, expected):
                        errors.append(AssertionError("wrong result"))
                        return
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)
                    return

        def ddl_writer():
            try:
                for cycle in range(25):
                    db.create_summary_table(f"StormAst{cycle}", SUMMARY_SQL)
                    db.drop_summary_table(f"StormAst{cycle}")
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer = threading.Thread(target=ddl_writer)
        for thread in readers:
            thread.start()
        writer.start()
        writer.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert not errors, errors[0]
        assert writer.is_alive() is False
