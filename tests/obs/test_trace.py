"""The match tracer: one accept and one named reject per pattern
family (4.1.1, 4.1.2, 4.2.1, 4.2.2), plus tracer mechanics."""

from __future__ import annotations

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.obs import REASONS, MatchTrace, TraceBuffer


def traced_rewrite(db, sql):
    """Run one cold statement under a forced trace; returns the trace."""
    return db.run_select(sql, force_trace=True).trace


def attempt_for(trace, name):
    matches = [a for a in trace.summaries if a.name.lower() == name.lower()]
    assert matches, f"no attempt recorded for {name}: {trace.render()}"
    return matches[-1]


def fresh_db(ast_sql, name="Ast"):
    db = Database(credit_card_catalog())
    db.create_summary_table(name, ast_sql)
    return db


MONTHLY = (
    "select faid, year(date) as year, month(date) as month, "
    "count(*) as cnt, sum(qty) as sqty, min(price) as lo, "
    "max(price) as hi from Trans "
    "group by faid, year(date), month(date)"
)


class TestPattern411:
    """Select/select matching (paper section 4.1.1)."""

    def test_accept(self):
        db = fresh_db("select tid, faid, price from Trans where price > 50")
        trace = traced_rewrite(db, "select tid from Trans where price > 100")
        attempt = attempt_for(trace, "Ast")
        assert attempt.applied and attempt.pattern == "4.1.1"
        assert attempt.verdict == "rewritten via 4.1.1"
        # the root pairing is recorded with its pattern
        assert any(p.pattern == "4.1.1" for p in attempt.pairs)

    def test_reject_predicate_subsumption(self):
        # the AST filters price > 100; the query keeps all rows, so the
        # subsumer predicate is not implied (condition 2 fails)
        db = fresh_db("select tid, faid, price from Trans where price > 100")
        trace = traced_rewrite(db, "select tid, faid from Trans")
        attempt = attempt_for(trace, "Ast")
        assert not attempt.applied
        assert attempt.reason == "predicate-subsumption"
        assert attempt.detail  # names the uncovered predicate
        assert "price" in attempt.detail


class TestPattern412:
    """Groupby/groupby regrouping (paper section 4.1.2)."""

    def test_accept(self):
        db = fresh_db(MONTHLY)
        trace = traced_rewrite(
            db, "select faid, count(*) as n from Trans group by faid"
        )
        attempt = attempt_for(trace, "Ast")
        assert attempt.applied
        # the regrouping GROUP-BY pairing carries the 4.1.2 pattern (the
        # root verdict is the enclosing select's pattern)
        assert any(p.pattern == "4.1.2" for p in attempt.pairs)

    def test_reject_aggregate_rederivation(self):
        # SUM(price) is not derivable from the AST's MIN/MAX outputs:
        # none of the re-derivation rules (a)-(g) applies
        db = fresh_db(MONTHLY)
        trace = traced_rewrite(
            db, "select faid, sum(price) as s from Trans group by faid"
        )
        attempt = attempt_for(trace, "Ast")
        assert not attempt.applied
        assert attempt.reason == "aggregate-rederivation"
        assert "SUM" in attempt.detail


class TestPattern421:
    """Groupby matching with compensation (paper section 4.2.1)."""

    def test_accept(self):
        # Figure 7's shape: the month predicate is pulled up through the
        # AST's grouping because month is one of its grouping columns
        db = fresh_db(
            "select year(date) as year, month(date) as month, "
            "sum(qty) as s from Trans group by year(date), month(date)"
        )
        trace = traced_rewrite(
            db,
            "select year(date) % 100 as y2, sum(qty) as s from Trans "
            "where month(date) >= 6 group by year(date) % 100",
        )
        attempt = attempt_for(trace, "Ast")
        assert attempt.applied
        assert any(p.pattern == "4.2.1" for p in attempt.pairs)

    def test_reject_predicate_pullup(self):
        # price is not a grouping column of the AST: the WHERE predicate
        # cannot be pulled above the grouping
        db = fresh_db(
            "select year(date) as year, count(*) as cnt from Trans "
            "group by year(date)"
        )
        trace = traced_rewrite(
            db,
            "select year(date) as y, count(*) as c from Trans "
            "where price > 100 group by year(date)",
        )
        attempt = attempt_for(trace, "Ast")
        assert not attempt.applied
        assert attempt.reason == "predicate-subsumption"


class TestPattern422:
    """Recursive grouping-child matching (paper section 4.2.2)."""

    AST8 = (
        "select year, tcnt, count(*) as mcnt "
        "from (select year(date) as year, month(date) as month, "
        "count(*) as tcnt from Trans group by year(date), month(date)) "
        "group by year, tcnt"
    )
    Q8 = (
        "select tcnt, count(*) as ycnt "
        "from (select year(date) as year, count(*) as tcnt "
        "from Trans group by year(date)) group by tcnt"
    )

    def test_accept(self):
        db = fresh_db(self.AST8)
        trace = traced_rewrite(db, self.Q8)
        attempt = attempt_for(trace, "Ast")
        assert attempt.applied
        assert attempt.pattern in ("4.2.2", "4.2.4")

    def test_reject_named_reason(self):
        # the AST's histogram root has lost the per-year counts as rows,
        # so a query over the inner aggregation alone cannot use it
        db = fresh_db(self.AST8)
        trace = traced_rewrite(
            db,
            "select year(date) as year, count(*) as c from Trans "
            "group by year(date)",
        )
        attempt = attempt_for(trace, "Ast")
        assert not attempt.applied
        assert attempt.reason in REASONS


class TestTracerMechanics:
    def test_every_recorded_reason_is_catalogued(self):
        db = fresh_db(MONTHLY)
        for sql in (
            "select faid, min(price) as lo from Trans group by faid",
            "select tid, faid from Trans",
            "select state, count(*) as c from Loc group by state",
        ):
            trace = traced_rewrite(db, sql)
            for attempt in trace.summaries:
                if attempt.reason is not None:
                    assert attempt.reason in REASONS
                for pair in attempt.pairs:
                    for reject in pair.rejects:
                        assert reject.reason in REASONS
                        assert reject.section  # defaulted from the catalog

    def test_disjoint_tables_reject(self):
        # a query over Loc never pairs with a Trans aggregate
        db = fresh_db(MONTHLY)
        trace = traced_rewrite(
            db, "select state, count(*) as c from Loc group by state"
        )
        attempt = attempt_for(trace, "Ast")
        assert not attempt.applied
        assert attempt.reason in REASONS

    def test_as_dict_roundtrips_structure(self):
        db = fresh_db(MONTHLY)
        trace = traced_rewrite(
            db, "select faid, count(*) as n from Trans group by faid"
        )
        dump = trace.as_dict()
        assert dump["trace_id"] == trace.trace_id
        assert dump["summaries"][0]["summary"] == "Ast"
        assert dump["summaries"][0]["applied"] is True

    def test_render_mentions_verdicts(self):
        db = fresh_db(MONTHLY)
        trace = traced_rewrite(
            db, "select faid, count(*) as n from Trans group by faid"
        )
        text = trace.render(verbose=True)
        assert f"trace #{trace.trace_id}" in text
        assert "[Ast] rewritten via" in text
        assert "matched 4.1.2" in text

    def test_reject_outside_summary_is_dropped(self):
        trace = MatchTrace()
        trace.reject("box-kind")
        trace.pair(object(), object(), None)  # no current summary: no-op
        assert trace.summaries == []

    def test_trace_buffer_is_bounded(self):
        buffer = TraceBuffer(capacity=2)
        traces = [MatchTrace() for _ in range(3)]
        for trace in traces:
            buffer.append(trace)
        assert len(buffer) == 2
        assert buffer.last is traces[-1]
        assert list(buffer) == traces[1:]
        buffer.clear()
        assert buffer.last is None
