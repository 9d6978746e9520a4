"""Query-governor tests: the Budget/Deadline/token primitives, the
``SET QUERY`` grammar, the degradation ladder (timeout during match
falls back to base tables; timeout during execute kills the query),
MAXROWS, and the per-shape circuit breaker."""

import io

import pytest

from repro.cli import Shell
from repro.errors import (
    BudgetExhausted,
    MatchBudgetExceeded,
    SqlSyntaxError,
    QueryCancelled,
    QueryTimeout,
)
from repro.governor import (
    CancellationToken,
    CircuitBreaker,
    Deadline,
    QueryBudget,
    activate,
    current,
)
from repro.sql.statements import (
    SetQueryMaxRows,
    SetQueryTimeout,
    parse_statement,
)
from repro.engine.table import tables_equal
from repro.obs import events
from repro.workloads.tpcd import QUERIES, build_tpcd_db, install_asts


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_token_is_one_shot_and_keeps_reason():
    token = CancellationToken()
    token.check()  # not cancelled: no-op
    assert not token.cancelled
    token.cancel("operator asked")
    with pytest.raises(QueryCancelled, match="operator asked"):
        token.check()


def test_deadline_uses_injected_clock():
    clock = FakeClock()
    deadline = Deadline(100.0, clock=clock)
    assert not deadline.expired
    assert deadline.remaining_ms() == pytest.approx(100.0)
    clock.now = 0.2
    assert deadline.expired
    assert deadline.remaining_ms() == 0.0
    deadline.disarm()
    assert not deadline.expired  # disarmed deadlines never fire


def test_ticks_batch_until_check_every():
    token = CancellationToken()
    budget = QueryBudget(token=token, check_every=4)
    token.cancel("late")
    budget.tick(1, "execute")
    budget.tick(1, "execute")
    budget.tick(1, "execute")  # 3 < 4: no checkpoint yet
    with pytest.raises(QueryCancelled):
        budget.tick(1, "execute")
    assert budget.phase_ticks["execute"] == 4


def test_deadline_never_kills_parse_or_bind():
    clock = FakeClock()
    budget = QueryBudget(deadline=Deadline(1.0, clock=clock), check_every=1)
    clock.now = 1.0  # long expired
    budget.tick(1, "parse")
    budget.tick(1, "bind")
    with pytest.raises(MatchBudgetExceeded):
        budget.checkpoint("match")
    with pytest.raises(QueryTimeout):
        budget.checkpoint("execute")


def test_enter_match_degrades_a_pre_expired_deadline():
    clock = FakeClock()
    budget = QueryBudget(deadline=Deadline(1.0, clock=clock))
    clock.now = 5.0
    with pytest.raises(MatchBudgetExceeded):
        budget.enter_match()
    budget.mark_degraded("expired before match")
    assert budget.degraded
    assert not budget.deadline.armed
    budget.checkpoint("execute")  # disarmed: execution runs to completion


def test_match_pairing_budget_exhausts():
    budget = QueryBudget(match_budget=2)
    budget.tick_match()
    budget.tick_match()
    with pytest.raises(MatchBudgetExceeded, match="match budget of 2"):
        budget.tick_match()


def test_check_rows_is_a_high_water_mark():
    budget = QueryBudget(max_rows=10)
    budget.check_rows(10, "joined rows")
    with pytest.raises(BudgetExhausted, match="MAXROWS 10"):
        budget.check_rows(11, "joined rows")


def test_scope_activation_nests_and_restores():
    assert current() is None
    outer = QueryBudget()
    inner = QueryBudget()
    with activate(outer):
        assert current() is outer
        with activate(inner):
            assert current() is inner
        assert current() is outer
    assert current() is None
    with activate(None):  # passthrough: no scope created
        assert current() is None


# ----------------------------------------------------------------------
# SET QUERY grammar
# ----------------------------------------------------------------------
def test_set_query_timeout_parses():
    assert parse_statement("set query timeout 250") == SetQueryTimeout(250.0)
    assert parse_statement("SET QUERY TIMEOUT OFF") == SetQueryTimeout(None)


def test_set_query_maxrows_parses():
    assert parse_statement("set query maxrows 1000") == SetQueryMaxRows(1000)
    assert parse_statement("SET QUERY MAXROWS OFF") == SetQueryMaxRows(None)


@pytest.mark.parametrize(
    "sql",
    [
        "set query timeout -5",
        "set query timeout zero",
        "set query maxrows 0.5",
        "set query maxrows -1",
        "set query bogus 1",
    ],
)
def test_set_query_rejects_bad_values(sql):
    with pytest.raises(SqlSyntaxError):
        parse_statement(sql)


@pytest.fixture(scope="module")
def tpcd():
    db = build_tpcd_db(orders=200)
    install_asts(db)
    yield db
    db.close()


def test_set_query_round_trips_through_run_sql(tpcd):
    assert "250" in tpcd.run_sql("SET QUERY TIMEOUT 250;")
    assert tpcd.governor.timeout_ms == 250.0
    assert "disabled" in tpcd.run_sql("SET QUERY TIMEOUT OFF;")
    assert tpcd.governor.timeout_ms is None
    assert "500" in tpcd.run_sql("SET QUERY MAXROWS 500;")
    assert tpcd.governor.max_rows == 500
    assert "disabled" in tpcd.run_sql("SET QUERY MAXROWS OFF;")
    assert tpcd.governor.max_rows is None


# ----------------------------------------------------------------------
# Degradation ladder, end to end
# ----------------------------------------------------------------------
def test_tiny_timeout_degrades_never_errors():
    """The acceptance criterion: a timeout that expires during (or
    before) the match phase completes via base tables — it never hangs
    and never raises."""
    db = build_tpcd_db(orders=120)
    install_asts(db)
    want = db.execute(QUERIES["q1_pricing"], use_summary_tables=False)
    db.run_sql("SET QUERY TIMEOUT 0.000001;")
    events.LOG.clear()
    run = db.run_select(QUERIES["q1_pricing"])  # must not raise
    assert sorted(run.table.rows) == sorted(want.rows)
    assert run.degraded is not None
    [event] = [e for e in events.tail() if e["event"] == "governor.degraded"]
    assert event["detail"] == run.degraded
    assert db.metrics.to_dict()["governor.degradations"]["value"] >= 1
    db.close()


def test_match_budget_degradation_traces_budget_exhausted():
    db = build_tpcd_db(orders=120)
    install_asts(db)
    db.governor.match_budget = 1
    out = db.run_sql("EXPLAIN ANALYZE " + QUERIES["q1_pricing"].rstrip(";\n") + ";")
    assert "budget-exhausted" in out
    assert "ran on base tables" in out
    assert "-- governor --" in out
    db.close()


def test_execute_phase_timeout_raises_query_timeout():
    db = build_tpcd_db(orders=600)
    db.run_sql("SET QUERY TIMEOUT 0.001;")
    with pytest.raises(QueryTimeout, match="expired during execute"):
        db.execute(QUERIES["q6_forecast"], use_summary_tables=False)
    assert db.metrics.to_dict()["governor.timeouts"]["value"] == 1
    db.close()


def test_maxrows_kills_oversized_materialization():
    db = build_tpcd_db(orders=600)
    db.run_sql("SET QUERY MAXROWS 50;")
    with pytest.raises(BudgetExhausted, match="MAXROWS 50"):
        db.execute("select orderkey, ocustkey from Orders", use_summary_tables=False)
    assert db.metrics.to_dict()["governor.maxrows_exceeded"]["value"] == 1
    db.close()


def test_caller_token_cancels_without_any_limits_set():
    db = build_tpcd_db(orders=600)
    token = CancellationToken()
    token.cancel("shutting down")
    with pytest.raises(QueryCancelled, match="shutting down"):
        db.execute(
            QUERIES["q6_forecast"], use_summary_tables=False, token=token
        )
    assert db.metrics.to_dict()["governor.cancellations"]["value"] == 1
    db.close()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_opens_probes_and_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=clock)
    assert not breaker.should_skip("shape")
    breaker.record_timeout("shape")
    assert not breaker.should_skip("shape")  # 1 < threshold
    breaker.record_timeout("shape")
    assert breaker.should_skip("shape")  # open
    clock.now = 5.0
    assert breaker.should_skip("shape")  # still cooling down
    clock.now = 10.0
    assert not breaker.should_skip("shape")  # half-open probe runs
    breaker.record_timeout("shape")  # probe failed: re-open
    assert breaker.should_skip("shape")
    clock.now = 25.0
    assert not breaker.should_skip("shape")
    breaker.record_success("shape")  # probe succeeded: closed
    assert not breaker.active
    assert breaker.snapshot()["tracked"] == 0


def test_breaker_skips_matching_after_consecutive_degradations():
    db = build_tpcd_db(orders=120)
    install_asts(db)
    clock = FakeClock()
    db.governor.breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=clock)
    db.governor.match_budget = 1
    base = db.execute(QUERIES["q1_pricing"], use_summary_tables=False)
    for _ in range(3):
        got = db.execute(QUERIES["q1_pricing"])
        assert sorted(got.rows) == sorted(base.rows)
    assert db.governor.breaker.snapshot()["open"] == 1
    assert db.metrics.to_dict()["governor.breaker_skips"]["value"] >= 1
    breaker_events = [e for e in events.tail() if e["event"].startswith("breaker.")]
    assert breaker_events[-1]["event"] == "breaker.open"
    out = db.run_sql("EXPLAIN ANALYZE " + QUERIES["q1_pricing"].rstrip(";\n") + ";")
    assert "circuit-open" in out
    # cool-down elapses and the shape behaves again: circuit closes
    db.governor.match_budget = None
    db.governor.timeout_ms = None
    clock.now = 20.0
    rewritten = db.execute(QUERIES["q1_pricing"])
    assert tables_equal(rewritten, base)
    assert db.governor.breaker.snapshot()["tracked"] == 0
    db.close()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_governor_cli_command():
    db = build_tpcd_db(orders=50)
    out = io.StringIO()
    shell = Shell(database=db, out=out)
    shell.handle_line("SET QUERY TIMEOUT 750;")
    shell.handle_line("\\governor")
    text = out.getvalue()
    assert "query governor:" in text
    assert "query timeout   750 ms" in text
    assert "circuit breaker" in text
    assert "admission       off" in text
    # the newest degradation in the event log is the last event
    install_asts(db)
    events.LOG.clear()
    db.governor.match_budget = 1
    db.execute(QUERIES["q1_pricing"])
    shell.handle_line("\\governor")
    assert "last event: degraded to base tables" in out.getvalue()
    db.close()
