"""A template's executor program: a hit binds memoised loops.

A statement served by a plan template (the rewritten side) or by a bind
template (the base side, negative decisions) runs the loops its
template's boxes memoised on their first run (docs/EXECUTOR.md, "A
template's program"). Every test compares a caching database with its
``configure_fast_path(cache=False)`` twin, which binds, plans and emits
every statement afresh.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine import executor as executor_module
from repro.errors import ExecutionError
from repro.expr import vector
from repro.expr.nodes import ColumnRef
from repro.testing.faults import INJECTOR

from tests.rewrite.test_shape_cache import (
    FIGURE_ASTS,
    PIVOT_VALUES,
    TEMPLATES,
    Twins,
)

HAVING = (
    "select flid, year(date) as year, count(*) as cnt from Trans "
    "group by flid, year(date) having count(*) > {}"
)


@pytest.fixture(scope="module")
def nine() -> Twins:
    """All nine figure ASTs; treat as read-only."""
    return Twins(FIGURE_ASTS)


@pytest.fixture(scope="module")
def bare() -> Twins:
    """No summary tables: every statement runs on the base tables."""
    return Twins({})


def _run(db: Database, sql: str, **kwargs):
    """``(reply, executor stats)``: the reply is ``(columns, rows by
    column, join builds)``, or the error raised (and the stats None)."""
    try:
        run = db.run_select(sql, **kwargs)
    except ExecutionError as error:
        return (ExecutionError, str(error)), None
    stats = run.executor_stats
    return (run.table.columns, run.table.columns_data(), stats.join_builds), stats


def _same(twins: Twins, sql: str, **kwargs):
    """Run ``sql`` on both twins; the replies must be one reply. Returns
    the caching side's executor stats (None when it raised)."""
    reply, stats = _run(twins.shaped, sql, **kwargs)
    assert reply == _run(twins.cold, sql, **kwargs)[0], sql
    return stats


def _counting(monkeypatch) -> dict:
    """Count the calls of the executor's per-statement plan work."""
    calls = {"build": 0, "classify": 0, "order": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vector._Loop, "build", counted("build", vector._Loop.build))
    for name, attribute in (("classify", "_classify_predicates"),
                            ("order", "_join_order")):
        monkeypatch.setattr(executor_module, attribute, counted(
            name, getattr(executor_module, attribute)
        ))
    return calls


def test_a_plan_hit_and_a_bind_hit_plan_nothing(nine, monkeypatch):
    """The second plan hit of a class, and the second bind-template hit
    on the base side, emit no loop, classify no predicate and order no
    join: every loop is bound from its template's program."""
    for value in (3, 4, 5, 5):
        nine.shaped.run_select(HAVING.format(value))
        nine.shaped.run_select(HAVING.format(value), use_summary_tables=False)
    calls = _counting(monkeypatch)
    runs = [
        nine.shaped.run_select(HAVING.format(6), use_summary_tables=use)
        for use in (True, False)
    ]
    assert calls == {"build": 0, "classify": 0, "order": 0}
    assert [(run.bound, run.planned) for run in runs] == [
        ("substituted", True), ("substituted", False)
    ]
    for run in runs:
        reused, loops = run.executor_stats.programs
        assert reused == loops > 0


def test_a_plan_hit_and_a_bind_hit_make_no_column_refs(nine, monkeypatch):
    """From a template's second run on, its children are read through
    the ColumnRefs its plan kept: ``_Rel.of`` constructs none."""
    for value in (3, 4, 5, 5):
        nine.shaped.run_select(HAVING.format(value))
        nine.shaped.run_select(HAVING.format(value), use_summary_tables=False)
    counts = {"calls": 0, "inside": 0, "refs": 0}
    real_of, real_init = executor_module._Rel.of.__func__, ColumnRef.__init__

    def of(cls, *args):
        counts["calls"] += 1
        counts["inside"] += 1
        try:
            return real_of(cls, *args)
        finally:
            counts["inside"] -= 1

    def init(self, *args, **kwargs):
        counts["refs"] += counts["inside"] > 0
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(executor_module._Rel, "of", classmethod(of))
    monkeypatch.setattr(ColumnRef, "__init__", init)
    for use in (True, False):
        nine.shaped.run_select(HAVING.format(6), use_summary_tables=use)
    assert counts["calls"] >= 2 and counts["refs"] == 0


@pytest.mark.parametrize("operator", ["/", "%"])
@pytest.mark.parametrize("values", [(2, 2, 2, 0, 2, 0), (0, 0, 0, 2, 0, 2)])
def test_a_zero_divisor_raises_as_on_the_cold_path(bare, operator, values):
    """A program that divides by a literal class inline holds only while
    that literal is nonzero: a statement dividing by 0 raises the
    evaluator's error whichever binding filed the program. No other
    literal equals a divisor, so every statement is of one shape and,
    from its third on, is bound by substitution and runs the template's
    programs."""
    sql = f"select faid, qty {operator} {{}} as r from Trans where qty > 1"
    outcomes = []
    for n, value in enumerate(values):
        if value == 0 and n >= 2:
            run = bare.shaped.prepare_select(sql.format(value))
            assert run.bound == "substituted"
        outcomes.append(_same(bare, sql.format(value)))
    assert [stats is None for stats in outcomes] == [v == 0 for v in values]


def test_a_zero_divisor_leaves_the_inline_program_filed(bare, monkeypatch):
    """The program emitted for a zero divisor serves that statement only,
    whether a program was filed before it or not: the next nonzero
    divisor divides inline."""
    calls, real = [0], vector._divide

    def divide(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(vector, "_divide", divide)
    for sql, values in (
        ("select faid, qty / {} as r from Trans", (2, 2, 2, 0)),
        ("select tid, qty / {} as r from Trans where qty > 1", (0, 0, 0, 2)),
    ):
        for value in values:
            _same(bare, sql.format(value))
        calls[0] = 0
        reply, stats = _run(bare.shaped, sql.format(4))
        assert calls[0] == 0 and stats.programs[0] > 0, sql
        assert reply == _run(bare.cold, sql.format(4))[0]


def test_an_in_list_of_slots_answers_as_the_cold_path(bare):
    """The all-literal ``IN`` set is rebuilt from each statement's own
    values, not the ones the program was emitted for."""
    sql = "select flid, count(*) as n from Trans where flid in ({}, {}) group by flid"
    reused = 0
    for pair in ((1, 2), (3, 4), (5, 6), (2, 7), (8, 1), (3, 5)):
        reused += _same(bare, sql.format(*pair)).programs[0]
    assert reused


def test_a_write_that_flips_the_smaller_side(monkeypatch):
    """Which child the fused loop drives depends on the children's sizes,
    so it is asked on every hit: after writes flip the smaller side, the
    rows, their order and the build sides are the cold twin's — also
    when the loop's counts send the box to the operator path."""
    twins = Twins({}, build=lambda: Database(credit_card_catalog()))
    twins.each(lambda db: db.run_sql("CREATE TABLE L (k INTEGER, v INTEGER)"))
    twins.each(lambda db: db.run_sql("CREATE TABLE R (k INTEGER, w INTEGER)"))
    twins.each(lambda db: db.insert_rows("L", [(k, k) for k in range(3)]))
    twins.each(lambda db: db.insert_rows("R", [(k % 4, k) for k in range(6)]))
    sql = "select x.k, x.v, y.w from L x, R y where x.k = y.k and x.v > {}"
    reused = builds = 0
    for rows, values in (
        ([], (-1, 0, 1, -1)),
        ([("L", [(k % 5, k) for k in range(3, 13)])], (-1, 8, 2)),
        ([("R", [(k % 3, k) for k in range(20)])], (-1, 5, 0)),
    ):
        for table, new in rows:
            twins.each(lambda db: db.insert_rows(table, new))
        for value in values:
            stats = _same(twins, sql.format(value))
            reused += stats.programs[0]
            builds += len(stats.join_builds)
    assert reused and builds


def test_a_governed_hit_ticks_as_the_cold_path(bare):
    """Under ``SET QUERY TIMEOUT`` a bound program ticks the governor as
    often as a freshly emitted one: per full morsel and per 1 024 rows
    its bucket loops bind."""
    sql = (
        "select count(*) as n from Trans t, Trans u "
        "where t.flid = u.flid and t.qty > {}"
    )
    reused = 0
    for value in (0, 1, 0, 2, 1):
        runs, ticks = [], []
        for db in (bare.shaped, bare.cold):
            with INJECTOR.injected("executor.tick", probability=0.0) as spec:
                runs.append(db.run_select(sql.format(value), timeout_ms=60_000))
            ticks.append(spec.hits)
        assert ticks[0] == ticks[1] > 0
        reused += runs[0].executor_stats.programs[0]
    assert reused


#: the chaos profile runs every binding; tier-1 two adjacent ones
_BINDINGS = (
    PIVOT_VALUES if settings.default.max_examples >= 1000 else PIVOT_VALUES[6:8]
)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_ledger_templates_answer_as_the_cold_twin(nine, name):
    """Every ledger template at every binding, three times on each side:
    replies, their row order and the build sides are the cold twin's."""
    reused = 0
    for _, value in _BINDINGS:
        sql = TEMPLATES[name].sql.format(v=repr(value))
        for use_summary_tables in (True, False):
            cold, _ = _run(nine.cold, sql, use_summary_tables=use_summary_tables)
            for _ in range(3):
                reply, stats = _run(
                    nine.shaped, sql, use_summary_tables=use_summary_tables
                )
                assert reply == cold, sql
                reused += stats.programs[0]
    assert reused
