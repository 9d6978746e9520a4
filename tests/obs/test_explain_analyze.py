"""EXPLAIN ANALYZE surfacing on the TPC-D workload: phase timings, the
per-AST verdict table (cold and warm), tracing API, and the slow-query
log."""

from __future__ import annotations

import pytest

from repro.bench import FIGURES, make_database
from repro.obs import REASONS
from repro.workloads import small_config
from repro.workloads.tpcd import QUERIES, build_tpcd_db, install_asts

PHASES = ("parse", "bind", "match", "compensate", "execute", "total")


@pytest.fixture(scope="module")
def tpcd_db():
    db = build_tpcd_db(orders=200)
    install_asts(db)
    yield db
    db.refresh_scheduler.stop()


class TestExplainAnalyze:
    def test_phase_breakdown_present(self, tpcd_db):
        sql = next(iter(QUERIES.values()))
        out = tpcd_db.explain_analyze(sql)
        assert "-- EXPLAIN ANALYZE (trace #" in out
        assert "-- phases --" in out
        for phase in PHASES:
            assert phase in out
        assert "ms" in out
        assert "-- result:" in out

    def test_every_enabled_ast_gets_a_verdict(self, tpcd_db):
        """For each enabled AST: a matched pattern section or a named
        reject reason — on every workload query (acceptance criterion)."""
        for name, sql in QUERIES.items():
            out = tpcd_db.explain_analyze(sql)
            assert "-- match verdicts --" in out, name
            trace = tpcd_db.last_trace
            verdict_names = {row[0].lower() for row in trace.verdict_rows()}
            for key, summary in tpcd_db.summary_tables.items():
                if not summary.enabled:
                    continue
                assert key in verdict_names, (
                    f"{name}: no verdict for {summary.name}\n{out}"
                )
            for _, verdict, _ in trace.verdict_rows():
                assert (
                    verdict.startswith("rewritten via")
                    or verdict.startswith("matched")
                    or verdict.split(":")[0] in REASONS
                ), verdict

    def test_warm_query_shows_cache_hit_verdicts(self, tpcd_db):
        """The decision-cache fix: a warm query's verdict table is never
        empty — replays surface as cache-hit verdicts."""
        sql = next(iter(QUERIES.values()))
        tpcd_db.execute(sql)  # populate the decision cache
        tpcd_db.execute(sql)  # warm hit
        out = tpcd_db.explain_analyze(sql)
        trace = tpcd_db.last_trace
        assert trace.verdict_rows(), "verdict table empty on warm query"
        assert "cache-hit" in out
        applied = [a for a in trace.summaries if a.applied]
        assert applied, "replayed rewrite not marked applied"

    def test_explain_analyze_via_run_sql(self, tpcd_db):
        sql = next(iter(QUERIES.values()))
        out = tpcd_db.run_sql("EXPLAIN ANALYZE " + sql)
        assert "-- phases --" in out and "-- match verdicts --" in out
        # plain EXPLAIN keeps its old shape (no phase table)
        plain = tpcd_db.run_sql("EXPLAIN " + sql)
        assert "-- phases --" not in plain

    def test_rewritten_sql_section_when_applied(self, tpcd_db):
        sql = QUERIES["q1_pricing"]
        out = tpcd_db.explain_analyze(sql)
        assert "-- rewritten SQL --" in out
        assert "rewritten via" in out


    def test_executor_section_is_this_runs_not_the_latest(
        self, tpcd_db, monkeypatch
    ):
        """The ``-- executor --`` section is read from the run's own
        record, not from a database-wide "most recent run" slot that
        another thread's SELECT can overwrite between this statement's
        run and its render. Replayed deterministically by running a
        second, smaller query once the explained one has run — when its
        trace is filed, before anything is rendered."""
        sql = QUERIES["q1_pricing"]
        other = "select count(*) as n from Customer"
        own = tpcd_db.run_select(sql).executor_stats.describe_lines()
        others = tpcd_db.run_select(other).executor_stats.describe_lines()
        assert own != others
        file_trace = tpcd_db.trace_buffer.append

        def file_then_interpose(trace):
            file_trace(trace)
            tpcd_db.execute(other)

        monkeypatch.setattr(tpcd_db.trace_buffer, "append", file_then_interpose)
        out = tpcd_db.explain_analyze(sql)
        section = out.split("-- executor --\n")[1].split("\n--")[0]
        assert section.splitlines() == own


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_explain_analyze_reports_what_execute_does(figure):
    """One pipeline: the plan EXPLAIN ANALYZE prints is the plan
    ``execute`` runs and ``rewrite`` decides."""
    ast_name, ast_sql, query, _ = FIGURES[figure]
    db = make_database(small_config())
    db.create_summary_table(ast_name, ast_sql)
    out = db.explain_analyze(query)
    decided = db.rewrite(query)
    assert f"-- result: {len(db.execute(query))} row(s) --" in out
    assert f"-- rewrite --\n{decided.explain()}\n" in out
    assert f"-- rewritten SQL --\n{decided.sql}\n-- result:" in out


def test_shape_hit_rematches_the_winner_and_carries_the_rest():
    """A statement that differs from an earlier one only in a comparison
    constant: the summaries its shape's plan set aside get a
    ``cache-hit`` verdict saying so, the re-matched ones (the winner,
    and AST2 with its ``disc > 0.1``) their real verdict, and the
    fast-path line says how many those were."""
    db = make_database(small_config())
    for name, sql, _, _ in FIGURES.values():
        if name.lower() not in db.summary_tables:
            db.create_summary_table(name, sql)
    query = FIGURES["fig02_q1"][2]
    db.execute(query.replace("> 100", "> 3"))
    out = db.explain_analyze(query.replace("> 100", "> 4"))
    trace = db.last_trace
    carried = [
        row for row in trace.verdict_rows()
        if row[2] == "verdict carried over from this query shape"
    ]
    assert len(carried) == 7 and {row[1] for row in carried} == {"cache-hit"}
    assert [a.name for a in trace.summaries if a.pairs] == ["AST1", "AST2"]
    assert [a.name for a in trace.summaries if a.applied] == ["AST1"]
    assert "decision cache: shape hit (2 re-matched)" in out
    assert {row[0].lower() for row in trace.verdict_rows()} == set(
        db.summary_tables
    )
    # the statement itself is now cached: a replay, nothing re-matched
    again = db.explain_analyze(query.replace("> 100", "> 4"))
    assert "decision cache: hit (rewrite replayed)" in again
    assert "carried over" not in again


class TestTracingApi:
    def test_session_tracing_fills_buffer(self, tpcd_db):
        sql = next(iter(QUERIES.values()))
        before = len(tpcd_db.trace_buffer)
        tpcd_db.set_tracing(True)
        try:
            tpcd_db.execute(sql)
        finally:
            tpcd_db.set_tracing(False)
        assert tpcd_db.tracing is False
        assert len(tpcd_db.trace_buffer) == before + 1
        trace = tpcd_db.last_trace
        assert trace is not None and trace.sql is not None
        assert "execute" in trace.phases


class TestSlowQueryLog:
    def test_threshold_zero_records_everything(self, tpcd_db):
        tpcd_db.slow_queries.clear()
        tpcd_db.set_slow_query_threshold(0.0)
        try:
            sql = next(iter(QUERIES.values()))
            tpcd_db.execute(sql)
        finally:
            tpcd_db.set_slow_query_threshold(None)
        assert len(tpcd_db.slow_queries) == 1
        entry = tpcd_db.slow_queries[-1]
        assert entry["ms"] >= 0.0 and entry["threshold_ms"] == 0.0
        assert tpcd_db.metrics.counter("slow_queries_total").value >= 1

    def test_set_slow_query_statement(self, tpcd_db):
        msg = tpcd_db.run_sql("SET SLOW QUERY 250")
        assert "250" in msg
        assert tpcd_db.slow_query_ms == 250.0
        msg = tpcd_db.run_sql("SET SLOW QUERY OFF")
        assert "disabled" in msg
        assert tpcd_db.slow_query_ms is None
        tpcd_db.slow_queries.clear()
        tpcd_db.execute(next(iter(QUERIES.values())))
        assert not tpcd_db.slow_queries  # log off: nothing recorded
