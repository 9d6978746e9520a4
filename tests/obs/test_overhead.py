"""The zero-cost-when-disabled guarantee: a statement no span tracer
samples allocates no trace objects and records no spans; a sampled one
allocates one trace, carried by its own ``db.rewrite`` span."""

from __future__ import annotations

import threading

import pytest

import repro.rewrite.rewriter as rewriter_mod
from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.obs import MatchTrace, spans

QUERY = "select faid, count(*) as n from Trans group by faid"
OTHER = "select flid, sum(qty) as q from Trans group by flid"


@pytest.fixture
def tracer_slot():
    """Whatever a test installs, the process tracer is off afterwards."""
    yield
    spans.uninstall()


def rewrite_spans(tracer) -> list[dict]:
    return [s for s in tracer.buffer.snapshot() if s["name"] == "db.rewrite"]


def test_disabled_tracing_allocates_nothing(tiny_db):
    tiny_db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    tiny_db.execute(QUERY)  # warm the caches first
    created_before = MatchTrace.created
    for _ in range(50):
        tiny_db.execute(QUERY)
    assert MatchTrace.created == created_before
    assert spans.TRACER is None


def test_disabled_tracing_covers_cold_matching():
    # the cold navigator path (cache miss, full match) must also stay
    # allocation-free while tracing is off
    db = Database(credit_card_catalog())
    db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    created_before = MatchTrace.created
    db.rewrite(QUERY)
    assert MatchTrace.created == created_before


def test_unsampled_statements_allocate_nothing(tiny_db, tracer_slot):
    """A tracer is installed, but its coin says no: the statements run
    under its (unsampled) roots, cold and warm, and allocate no trace."""
    tiny_db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    tracer = spans.install(sample_rate=0.0)
    created_before = MatchTrace.created
    for sql in (QUERY, OTHER) * 5:
        with tracer.start_trace("test.statement"):
            tiny_db.execute(sql)
    assert MatchTrace.created == created_before
    assert tracer.skipped == 10 and len(tracer.buffer) == 0


def test_enabled_tracing_allocates_once_per_query(tiny_db, tracer_slot):
    tiny_db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    tracer = spans.install(sample_rate=1.0)
    created_before = MatchTrace.created
    with tracer.start_trace("test.statement") as root:
        tiny_db.execute(QUERY)
    assert MatchTrace.created == created_before + 1
    [span] = rewrite_spans(tracer)
    assert span["trace_id"] == root.trace_id
    assert span["attrs"]["match_trace"]["sql"] == QUERY


def test_each_rewrite_span_carries_only_its_own_verdicts(
    tiny_db, tracer_slot, monkeypatch
):
    """Statement A parks inside its match phase while statement B runs
    start to finish on another thread, each under its own sampled root:
    each ``db.rewrite`` span carries its own statement's verdicts, the
    ones that statement gets when run alone."""
    tiny_db.create_summary_table(
        "ByAcct", "select faid, count(*) as c from Trans group by faid"
    )
    tiny_db.create_summary_table(
        "ByLoc", "select flid, sum(qty) as s from Trans group by flid"
    )
    tiny_db.configure_fast_path(cache=False)
    solo = {
        sql: tiny_db.run_select(sql, force_trace=True).trace.as_dict()["summaries"]
        for sql in (QUERY, OTHER)
    }
    assert solo[QUERY] != solo[OTHER]
    tracer = spans.install(sample_rate=1.0)

    def traced(sql):
        with tracer.start_trace("test.statement", sql=sql):
            tiny_db.execute(sql)

    original = rewriter_mod._best_match
    main = threading.current_thread()
    parked = []

    def park_then_match(*args):
        if threading.current_thread() is main and not parked:
            parked.append(True)
            other = threading.Thread(target=traced, args=(OTHER,))
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
        return original(*args)

    monkeypatch.setattr(rewriter_mod, "_best_match", park_then_match)
    traced(QUERY)
    assert parked
    roots = {
        s["trace_id"]: s["attrs"]["sql"]
        for s in tracer.buffer.snapshot() if s["name"] == "test.statement"
    }
    carried = rewrite_spans(tracer)
    # B's span is filed first: it finished while A was parked
    assert [roots[s["trace_id"]] for s in carried] == [OTHER, QUERY]
    for span in carried:
        trace = span["attrs"]["match_trace"]
        assert trace["sql"] == roots[span["trace_id"]]
        assert trace["summaries"] == solo[trace["sql"]]
