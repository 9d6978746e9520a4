"""The rewrite sandbox: a broken matcher/rewriter can never fail or
corrupt a query answer — execution falls back to base tables and the
failure is counted. There is one sandbox (``Database._rewrite_stage``)
behind every way to run a SELECT, so every entry point is held to the
same contract."""

import re

import pytest

from repro.engine.table import tables_equal
from repro.errors import MatchBudgetExceeded
from repro.obs import events
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.testing import INJECTOR, InjectedFault

AST_SQL = (
    "select faid, flid, count(*) as cnt, sum(qty) as sqty "
    "from Trans group by faid, flid"
)
QUERY = "select faid, count(*) as n from Trans group by faid"
QUERIES = [
    QUERY,
    "select faid, sum(qty) as q from Trans group by faid",
    "select flid, count(*) as n from Trans group by flid",
    "select count(*) as n from Trans",
]


@pytest.fixture
def ast_db(tiny_db):
    tiny_db.create_summary_table("A1", AST_SQL)
    events.LOG.clear()
    yield tiny_db
    tiny_db.close()


def logged(name: str) -> list[dict]:
    """This test's ``name`` events (the fixture cleared the log)."""
    return [e for e in events.tail() if e["event"] == name]


def _via_server(db, sql):
    server = QueryServer(db)
    server.start_in_thread()
    try:
        with ReproClient(*server.address) as client:
            return client.query(sql).table
    finally:
        server.stop()


#: every way to run a SELECT → the answer it produced: a Table, or the
#: EXPLAIN [ANALYZE] text
ENTRY_POINTS = {
    "execute": lambda db, sql: db.execute(sql),
    "run_sql": lambda db, sql: db.run_sql(sql + ";"),
    "explain": lambda db, sql: db.explain(sql),
    "explain_analyze": lambda db, sql: db.explain_analyze(sql),
    "create_summary_table": lambda db, sql: db.create_summary_table(
        "A2", sql, use_summary_tables=True
    ).table,
    "server": _via_server,
}


def assert_base_answer(answer, want, fallback_note):
    """``answer`` is what base-table execution gives, and EXPLAIN text
    says why the rewrite was abandoned."""
    if not isinstance(answer, str):
        assert tables_equal(answer, want)
        return
    assert fallback_note in answer
    assert "on base tables" in answer
    assert "-- rewritten SQL --" not in answer
    result = re.search(r"-- result: (\d+) row\(s\) --", answer)
    if result is not None:  # EXPLAIN ANALYZE ran it
        assert int(result.group(1)) == len(want)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEveryEntryPoint:
    def test_faulted_match_falls_back_and_is_counted_once(self, ast_db, entry):
        want = ast_db.execute(QUERY, use_summary_tables=False)
        with INJECTOR.injected("rewrite.match"):
            answer = ENTRY_POINTS[entry](ast_db, QUERY)
        assert_base_answer(answer, want, "rewrite failed (InjectedFault")
        assert ast_db.rewrite_stats()["rewrite_errors"] == 1
        [sandboxed] = logged("rewrite.sandboxed")
        assert "InjectedFault" in sandboxed["error"]

    def test_match_budget_degrades_without_an_error(self, ast_db, entry):
        want = ast_db.execute(QUERY, use_summary_tables=False)
        degradations = ast_db.metrics.get("governor.degradations")
        with INJECTOR.injected(
            "rewrite.match",
            error=lambda point: MatchBudgetExceeded("match budget spent"),
        ):
            answer = ENTRY_POINTS[entry](ast_db, QUERY)
        assert_base_answer(answer, want, "governor degraded the query")
        assert degradations.value == 1
        [degraded] = logged("governor.degraded")
        assert "match budget spent" in degraded["detail"]
        assert ast_db.rewrite_stats()["rewrite_errors"] == 0
        assert not logged("rewrite.sandboxed")


class TestExecuteFallback:
    def test_faulted_match_still_answers_correctly(self, ast_db):
        expected = [
            ast_db.execute(sql, use_summary_tables=False) for sql in QUERIES
        ]
        with INJECTOR.injected("rewrite.match", every=1):
            for sql, want in zip(QUERIES, expected):
                got = ast_db.execute(sql)
                assert tables_equal(got, want)
        assert ast_db.rewrite_stats()["rewrite_errors"] == len(QUERIES)
        sandboxed = logged("rewrite.sandboxed")
        assert len(sandboxed) == len(QUERIES)
        assert all("InjectedFault" in e["error"] for e in sandboxed)

    def test_run_sql_path_is_sandboxed_too(self, ast_db):
        want = ast_db.execute(QUERY, use_summary_tables=False)
        with INJECTOR.injected("rewrite.match"):
            got = ast_db.run_sql(QUERY + ";")
        assert tables_equal(got, want)
        assert ast_db.rewrite_stats()["rewrite_errors"] == 1

    def test_rewrite_recovers_after_fault_clears(self, ast_db):
        with INJECTOR.injected("rewrite.match"):
            ast_db.execute(QUERY)
        # The failure must not have been cached as a negative decision.
        result = ast_db.rewrite(QUERY)
        assert result is not None
        assert result.summary_tables[0].name == "A1"

    def test_library_rewrite_api_still_raises(self, ast_db):
        # The sandbox guards *query execution*; the explicit rewrite()
        # API keeps reporting failures to library callers.
        with INJECTOR.injected("rewrite.match"):
            with pytest.raises(InjectedFault):
                ast_db.rewrite(QUERY)


class TestExplainFallback:
    def test_explain_reports_sandboxed_failure(self, ast_db):
        with INJECTOR.injected("rewrite.match"):
            text = ast_db.explain(QUERY)
        assert "rewrite failed" in text
        assert "base tables" in text
        assert ast_db.rewrite_stats()["rewrite_errors"] == 1

    def test_explain_counter_line_shows_errors(self, ast_db):
        with INJECTOR.injected("rewrite.match"):
            text = ast_db.explain(QUERY)
        assert "rewrite errors sandboxed: 1" in text


class TestCreateSummaryFallback:
    def test_stacked_materialization_survives_fault(self, ast_db):
        # Building a rollup *from* an existing AST goes through the
        # rewriter; a fault there degrades to base-table materialization.
        with INJECTOR.injected("rewrite.match", every=1):
            summary = ast_db.create_summary_table(
                "A2",
                "select faid, count(*) as cnt from Trans group by faid",
                use_summary_tables=True,
            )
        assert tables_equal(
            summary.table,
            ast_db.execute(
                "select faid, count(*) as cnt from Trans group by faid",
                use_summary_tables=False,
            ),
        )
        assert ast_db.rewrite_stats()["rewrite_errors"] >= 1
