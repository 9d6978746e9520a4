"""Property test: graceful degradation never changes answers.

A query whose match phase runs out of budget (deadline expired or
pairing budget exhausted) falls back to base tables — so across the
whole TPC-D workload, for *any* budget, the governed result must be
bit-identical to a governor-off run of the same query on base tables
(and tolerance-equal to the summary-rewritten answer, which sums floats
in a different order)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import tables_equal
from repro.workloads.tpcd import QUERIES, build_tpcd_db, install_asts


@pytest.fixture(scope="module")
def workload():
    db = build_tpcd_db(orders=150)
    install_asts(db)
    baselines = {
        name: db.execute(sql, use_summary_tables=False)
        for name, sql in QUERIES.items()
    }
    yield db, baselines
    db.governor.match_budget = None
    db.governor.timeout_ms = None
    db.close()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(QUERIES)),
    budget=st.integers(min_value=1, max_value=12),
)
def test_degraded_results_match_governor_off(workload, name, budget):
    db, baselines = workload
    db.governor.breaker.reset()  # each example judges the budget alone
    db.governor.match_budget = budget
    try:
        run = db.run_select(QUERIES[name])
    finally:
        db.governor.match_budget = None
    got = run.table
    want = baselines[name]
    assert got.columns == want.columns
    # Degraded executions reuse the base-table plan, so rows agree
    # exactly; a budget generous enough to finish matching legitimately
    # answers from the summary, where only float round-off may differ.
    assert tables_equal(got, want)
    if run.degraded is not None:
        assert sorted(got.rows) == sorted(want.rows)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_pre_expired_timeout_degrades_every_query(workload, name):
    """The ISSUE's acceptance shape, across the whole workload: a
    timeout that cannot survive the match phase still answers — from
    base tables, bit-identically, without raising."""
    db, baselines = workload
    db.governor.breaker.reset()
    db.run_sql("SET QUERY TIMEOUT 0.000001;")
    try:
        run = db.run_select(QUERIES[name])
    finally:
        db.run_sql("SET QUERY TIMEOUT OFF;")
    assert sorted(run.table.rows) == sorted(baselines[name].rows)
    assert run.degraded is not None


def test_timeouts_of_one_shape_under_fresh_constants_open_the_breaker(workload):
    """Ad hoc traffic never repeats a constant. The breaker counts per
    query *shape*, so N match timeouts of one shape open it whatever
    the N constants were — and it stays shut for another shape."""
    db, _ = workload
    threshold = db.governor.breaker.threshold
    db.governor.breaker.reset()
    pricing = QUERIES["q1_pricing"]
    db.governor.match_budget = 1
    try:
        for year in range(1990, 1990 + threshold):
            assert db.governor.breaker.snapshot()["open"] == 0
            got = db.execute(pricing.replace("1997", str(year)))
            want = db.execute(
                pricing.replace("1997", str(year)), use_summary_tables=False
            )
            assert sorted(got.rows) == sorted(want.rows)
        state = db.governor.breaker.snapshot()
        assert (state["tracked"], state["open"]) == (1, 1)
        skips = db.metrics.to_dict()["governor.breaker_skips"]["value"]
        skipped = db.run_select(pricing.replace("1997", "2001"))
        # the open breaker skipped matching: no rewrite, no degradation
        assert skipped.rewrite is None and skipped.degraded is None
        assert db.metrics.to_dict()["governor.breaker_skips"]["value"] == skips + 1
        # ``<`` for ``<=`` is another shape: it is matched (and degrades)
        run = db.run_select(pricing.replace("<= 1997", "< 2001"))
        assert run.degraded is not None
        assert db.governor.breaker.snapshot()["tracked"] == 2
    finally:
        db.governor.match_budget = None
        db.governor.breaker.reset()
