"""The zero-cost-when-disabled guarantee: with tracing off, the hot
path allocates no trace objects and the trace buffer stays empty."""

from __future__ import annotations

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.obs import MatchTrace


def test_disabled_tracing_allocates_nothing(tiny_db):
    tiny_db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    query = "select faid, count(*) as n from Trans group by faid"
    tiny_db.execute(query)  # warm the caches first
    created_before = MatchTrace.created
    for _ in range(50):
        tiny_db.execute(query)
    assert MatchTrace.created == created_before
    assert len(tiny_db.trace_buffer) == 0


def test_disabled_tracing_covers_cold_matching():
    # the cold navigator path (cache miss, full match) must also stay
    # allocation-free while tracing is off
    db = Database(credit_card_catalog())
    db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    created_before = MatchTrace.created
    db.rewrite("select faid, count(*) as n from Trans group by faid")
    assert MatchTrace.created == created_before


def test_enabled_tracing_allocates_once_per_query(tiny_db):
    tiny_db.create_summary_table(
        "S", "select faid, count(*) as c from Trans group by faid"
    )
    tiny_db.set_tracing(True)
    try:
        created_before = MatchTrace.created
        tiny_db.execute("select faid, count(*) as n from Trans group by faid")
        assert MatchTrace.created == created_before + 1
    finally:
        tiny_db.set_tracing(False)
