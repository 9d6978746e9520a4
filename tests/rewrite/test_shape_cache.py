"""The rewrite decision cache's templates, checked differentially.

A statement whose *class* — its text shape, its skeleton and form
(:func:`repro.qgm.fingerprint.literal_slots`,
:func:`~repro.qgm.fingerprint.bind_constants`) and its obligations
(:func:`repro.rewrite.cache.obligations`) — is cached
instantiates the shape's proven template with its own constants and
matches nothing — once the constants it changes are confirmed. Whatever
that path decides must be what a database with no decision cache decides
for the same statement — same summaries, same boxes, same patterns,
byte-identical rewritten SQL — and must return the base-table answer.
Every test here runs a statement on a caching database and on its
``configure_fast_path(cache=False)`` twin and compares.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.figures import AST10_WITH_HAVING, FIGURES, make_database
from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import tables_equal
from repro.qgm.fingerprint import bind_constants, fingerprint, literal_slots
from repro.refresh.policy import RefreshAge
from repro.rewrite.cache import CacheEntry, obligations, pivots
from repro.workloads import populate_credit_db, small_config
from repro.workloads.datagen import GeneratorConfig

from tests.integration.test_property_rewrite import (
    AGGREGATES,
    GROUP_EXPRS,
    _grouped_sql,
)

_POOLS = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "pools.py"
_spec = importlib.util.spec_from_file_location("ledger_pools", _POOLS)
ledger_pools = sys.modules["ledger_pools"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pools)
TEMPLATES = {template.name: template for template in ledger_pools.TEMPLATES}

#: the ledger's reference scale: 432 ``Trans`` rows
CONFIG = GeneratorConfig(
    customers=6, accounts_per_customer=2, cities=12,
    transactions_per_account_year=12,
)
FIGURE_ASTS = {name: sql for name, sql, _, _ in FIGURES.values()}
BINDINGS = 22


class Twins:
    """A caching database and its cache-less twin over the same data
    and the same summary tables."""

    def __init__(self, summaries: dict[str, str], build=None):
        build = build or (lambda: make_database(CONFIG))
        self.shaped, self.cold = build(), build()
        self.cold.configure_fast_path(cache=False)
        for name, sql in summaries.items():
            self.create(name, sql)

    def create(self, name: str, sql: str, **kwargs) -> None:
        for db in (self.shaped, self.cold):
            db.create_summary_table(name, sql, **kwargs)

    def each(self, action) -> None:
        for db in (self.shaped, self.cold):
            action(db)

    def check(self, sql: str, tolerance=None) -> dict[str, int]:
        """Rewrite ``sql`` on both; the decisions must be one decision
        and the answer the base tables' own. Returns the caching side's
        counts for this one rewrite."""
        before = self.shaped.rewrite_stats()
        warm = self.shaped.rewrite(sql, tolerance=tolerance)
        after = self.shaped.rewrite_stats()
        cold = self.cold.rewrite(sql, tolerance=tolerance)
        assert _decision(warm) == _decision(cold), sql
        if warm is not None:
            assert warm.sql == cold.sql, sql
            assert tables_equal(
                self.shaped.execute_graph(warm.graph),
                self.shaped.execute(sql, use_summary_tables=False),
            ), sql
        return {name: after[name] - before[name] for name in after}


def shape_class(db: Database, sql: str) -> tuple:
    """``(skeleton, form, binding)`` of ``sql`` bound on ``db``, as the
    shape cache files its decisions."""
    skeleton, kept, holes = literal_slots(fingerprint(db.bind(sql)))
    return (skeleton, *bind_constants(kept, holes))


def _class_of(db: Database, sql: str) -> tuple:
    """The cache class ``sql`` falls in on ``db``: its skeleton and form
    and its obligations against the enabled summaries."""
    skeleton, form, binding = shape_class(db, sql)
    return skeleton, form, obligations(binding, pivots(db.enabled_summary_tables()))


def _decision(result):
    if result is None:
        return None
    return [
        (step.summary.name, step.subsumee_index, step.match.pattern)
        for step in result.applied
    ]


@pytest.fixture(scope="module")
def nine() -> Twins:
    """All nine figure ASTs installed together; treat as read-only."""
    return Twins(FIGURE_ASTS)


@pytest.fixture(scope="module")
def ten() -> Twins:
    """The nine and Table 1's AST10H (``HAVING count(*) > 2``); treat as
    read-only."""
    return Twins({**FIGURE_ASTS, "AST10H": AST10_WITH_HAVING})


def _values(seed: str, low: float, high: float) -> list:
    """Slot values for one template: floats as the ledger draws them,
    whole numbers, and the two ends no group survives or fails."""
    rng = random.Random(seed)
    floats = [round(rng.uniform(low, high), 6) for _ in range(BINDINGS - 6)]
    return floats + [0, 1, 2, int(high), -1.0, 1e12]


# ----------------------------------------------------------------------
# The ledger's templates: the traffic the shape path was built for
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_ledger_template_bindings_decide_as_cold(nine, name):
    """Ints and floats are two shapes (the type tag), a threshold
    crossing one of the query's other constants a third, and one on the
    other side of AST2's ``0.1`` another obligation class. In each class
    the first binding is matched cold and files the template, the second
    is matched cold to confirm it, and every later one is substituted."""
    template = TEMPLATES[name]
    seen: dict[tuple, int] = {}
    hits = 0
    for value in _values(name, template.floor, template.floor + 400.0):
        sql = template.sql.format(v=repr(value))
        cls = _class_of(nine.shaped, sql)
        seen[cls] = seen.get(cls, 0) + 1
        counts = nine.check(sql)
        hits += counts["cache_shape_hits"]
        # a shape hit is a hit, never a miss
        assert counts["cache_hits"] + counts["cache_negative_hits"] + counts[
            "cache_misses"
        ] == 1
        if seen[cls] > 2:
            assert counts["cache_shape_hits"] == 1, value
            assert counts["matches_attempted"] == 0, value
    assert hits >= sum(count - 2 for count in seen.values() if count > 2)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_second_execution_of_a_statement_matches_nothing(nine, name):
    """A repeated statement is a template hit like any other binding of
    its shape: it never pays a re-match."""
    template = TEMPLATES[name]
    nine.check(template.sql.format(v=repr(template.floor + 7.25)))
    nine.check(template.sql.format(v=repr(template.floor + 8.5)))
    sql = template.sql.format(v=repr(template.floor + 9.75))
    first = nine.check(sql)
    assert first["cache_shape_hits"] == 1 and first["matches_attempted"] == 0
    second = nine.check(sql)
    assert second["matches_attempted"] == 0
    assert second["cache_hits"] == 1 and second["cache_misses"] == 0


def test_a_shape_hit_matches_the_winner_and_the_constant_bearing():
    """A binding that changes a constant is matched cold twice — to file
    the template and to confirm its substitution — and then never."""
    template = TEMPLATES["fig08_q7"]
    twins = Twins(FIGURE_ASTS)
    cold = twins.check(template.sql.format(v="3.5"))
    confirm = twins.check(template.sql.format(v="4.5"))
    warm = twins.check(template.sql.format(v="5.5"))
    # cold: all nine, then the eight left, after which the rewritten
    # graph no longer reads Trans
    assert cold["matches_attempted"] == 9 and cold["cache_misses"] == 1
    assert confirm["matches_attempted"] == 9 and confirm["cache_misses"] == 1
    assert warm["matches_attempted"] == 0 and warm["cache_shape_hits"] == 1
    assert warm["cache_hits"] == 1 and warm["cache_stores"] == 0


def test_a_bound_graph_is_decided_through_its_skeletons_entry():
    """A bound graph has no text: its skeleton keys its shape entry, so
    its decisions are filed, confirmed and then served as a text's are,
    and equal the cache-less twin's."""
    template = TEMPLATES["fig08_q7"]
    twins = Twins(FIGURE_ASTS)
    matched = []
    for value in ("3.5", "4.5", "5.5", "6.5"):
        sql = template.sql.format(v=value)
        before = twins.shaped.rewrite_stats()["matches_attempted"]
        warm = twins.shaped.rewrite(twins.shaped.bind(sql))
        matched.append(twins.shaped.rewrite_stats()["matches_attempted"] - before)
        cold = twins.cold.rewrite(twins.cold.bind(sql))
        assert _decision(warm) == _decision(cold) and warm.sql == cold.sql
    assert matched == [9, 9, 0, 0]


@pytest.mark.parametrize("name", ["fig02_q1", "fig05_q2", "fig11_q10"])
def test_a_cached_decision_runs_none_of_the_first_graphs_boxes(nine, name):
    """Each of these rewrites keeps a box of the query beside the
    summary — ``Loc`` or ``PGroup`` — as a rejoin. An exact repeat, a
    confirming binding and a substituted one must each rejoin their own
    graph's box, and the cache must hold none of the first graph."""
    template = TEMPLATES[name]
    results = []
    for offset in (3.5, 3.5, 5.5, 7.5):
        sql = template.sql.format(v=repr(template.floor + offset))
        nine.check(sql)
        results.append(nine.shaped.rewrite(sql))
    first = {id(box) for box in results[0].graph.boxes()}
    for later in results[1:]:
        assert first.isdisjoint(id(box) for box in later.graph.boxes())
    for shape in nine.shaped._bind_cache.entries._entries.values():
        for entry in shape.decisions._entries.values():
            for step in entry.steps or ():
                for box in step.chain:
                    for quantifier in box.quantifiers():
                        assert id(quantifier.box) not in first


#: a matcher literal (fig11_q10's ``coalesce(SUM(cnt), 0)``) equal to a
#: hole, and AST2's and AST10H's own constants either side and on
#: their value
COLLISIONS = (
    [TEMPLATES["fig11_q10"].sql.format(v=v) for v in (0, -1, -5, 3)]
    + [
        TEMPLATES["fig05_q2"].sql.format(v="150.0")
        .replace("disc > 0.1", f"disc > {d}")
        for d in (0.1, 0.2, 0.05, 0.1)
    ]
    + [
        "select flid, year(date) as year, count(*) as cnt from Trans "
        f"group by flid, year(date) having count(*) > {v}"
        for v in (2, 3, 1, 2)
    ]
)


def test_a_matcher_literal_equal_to_a_hole_is_never_substituted(ten):
    for sql in COLLISIONS:
        ten.check(sql)


def test_substituting_unconfirmed_constants_breaks_the_collision(monkeypatch):
    """The confirmation rule is what the test above holds to: a template
    that substitutes a constant class on first sight renders
    ``coalesce(SUM(_in.cnt), 3)`` for ``> 3`` after ``> 0``, one
    spelling. Only the two summaries the rewrite uses are installed:
    AST2's ``0.1`` would put ``> 0`` and ``> 3`` in two obligation
    classes."""
    monkeypatch.setattr(
        CacheEntry, "serves", lambda entry, changed: changed is not None
    )
    twins = Twins({name: FIGURE_ASTS[name] for name in ("AST1", "AST7")})
    sql = TEMPLATES["fig11_q10"].sql
    twins.shaped.rewrite(sql.format(v=0))
    collided = twins.shaped.rewrite(sql.format(v=3)).sql
    assert "coalesce(SUM(_in.cnt), 3)" in collided
    assert collided != twins.cold.rewrite(sql.format(v=3)).sql


# ----------------------------------------------------------------------
# Plan templates: a served class's rewritten graph, cloned
# ----------------------------------------------------------------------
def _decide(db: Database, sql: str):
    """``(run, rewrite)`` of ``sql`` through the pipeline's rewrite
    stage; ``run.planned`` says whether a plan template served it."""
    run = db.prepare_select(sql, sql)
    return run, db._rewrite_bound(run)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_plan_templates_serve_as_the_two_template_path(ten, name, monkeypatch):
    """Every binding on and either side of every pivot, three times: a
    plan-served rewrite has the fingerprint of the same statement's
    two-template rewrite (plans off), and answers as the cache-off twin
    and as the base tables."""
    template, planned = TEMPLATES[name], 0
    for _, value in PIVOT_VALUES:
        sql = template.sql.format(v=repr(value))
        cold, answered = ten.cold.rewrite(sql), False
        for _ in range(3):
            run, warm = _decide(ten.shaped, sql)
            assert _decision(warm) == _decision(cold), sql
            if warm is None:
                continue
            assert warm.sql == cold.sql, sql
            if not run.planned:
                continue
            planned += 1
            with monkeypatch.context() as plans_off:
                plans_off.setattr(CacheEntry, "plan", lambda *args: None)
                two = ten.shaped.rewrite(sql)
            assert fingerprint(warm.graph) == fingerprint(two.graph), sql
            if not answered:
                answered = True
                reply = ten.shaped.execute_graph(warm.graph, run.overlay)
                assert tables_equal(reply, ten.cold.execute(sql)), sql
                assert tables_equal(
                    reply, ten.shaped.execute(sql, use_summary_tables=False)
                ), sql
    assert planned > len(PIVOT_VALUES)


def test_a_plan_that_does_not_confirm_is_not_filed(monkeypatch):
    """Were the steps instantiated on the probe graph with the entry's
    own constants, the plan would keep fig08_q7's first threshold in its
    compensation. Substituting the filing statement's values then does
    not give its two-template rewrite: no plan is filed, and every later
    binding is instantiated as before."""
    from repro.rewrite import cache

    instantiate = cache.instantiate
    monkeypatch.setattr(
        cache, "instantiate",
        lambda graph, steps, summaries, literals: instantiate(
            graph, steps, summaries
        ),
    )
    twins = Twins(FIGURE_ASTS)
    sql = TEMPLATES["fig08_q7"].sql
    for value in ("3.5", "4.5", "5.5", "6.5", "7.5", "6.5"):
        run, warm = _decide(twins.shaped, sql.format(v=value))
        assert not run.planned
        assert warm.sql == twins.cold.rewrite(sql.format(v=value)).sql
    [entry] = [
        entry for shape in twins.shaped._bind_cache.entries._entries.values()
        for entry in shape.decisions._entries.values()
    ]
    assert [plan for _, plan in entry.plans.items()] == [False]


def test_a_plan_keeps_a_matcher_literal_equal_to_a_constant():
    """fig11_q10 under ``> 0`` compensates with ``coalesce(SUM(cnt), 0)``:
    its plan holds the class's probe there, which gives the ``0`` back
    for ``> 0`` — and ``> 3``, which changes the class, is never served
    by that plan, since a cold match refuses to confirm it."""
    twins = Twins({name: FIGURE_ASTS[name] for name in ("AST1", "AST7")})
    sql = TEMPLATES["fig11_q10"].sql
    served = []
    for value in (0, 0, 0, 3, 3, 3, 0):
        run, warm = _decide(twins.shaped, sql.format(v=value))
        served.append(run.planned)
        assert warm.sql == twins.cold.rewrite(sql.format(v=value)).sql
        assert "coalesce(SUM(_in.cnt), 0)" in warm.sql
    assert served == [False, False, True, False, False, False, True]


def test_explain_analyze_says_a_plan_template_served():
    """The ROADMAP's four statements: the last, a repeat, is served by
    its class's plan template, filed by the one before."""
    db = make_database(CONFIG)
    for name, ast in FIGURE_ASTS.items():
        db.create_summary_table(name, ast)
    sql = (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "group by flid, year(date) having count(*) > {}"
    )
    rows = [
        next(line for line in db.explain_analyze(sql.format(v)).splitlines()
             if "bind" in line)
        for v in (3, 4, 5, 5)
    ]
    assert [row[row.index("("):] for row in rows] == [
        "(cold)", "(filed)", "(substituted)",
        "(substituted, plan template served)",
    ]
    # a second plan hit binds every loop from its plan's programs
    executor = db.explain_analyze(sql.format(6)).split("-- executor --")[1]
    assert re.search(r"\n  programs   (\d+) of \1 loops reused\n", executor)


# ----------------------------------------------------------------------
# A structured family of ASTs and queries, constants varied
# ----------------------------------------------------------------------
SLOTTED = [
    ("year(date) > {}", [1989, 1990, 1991, 2100]),
    ("month(date) >= {}", [1, 6, 6.5, 12]),
    ("faid <= {}", [5, 20, 20.5, 1000]),
    ("qty > {}", [0, 2, 3]),
    ("flid = {}", [1, 2, 99]),
    ("qty > {} and month(date) >= {}", [(2, 2), (2, 6), (6, 2)]),
    ("qty > {} or flid = {}", [(2, 2), (3, 1)]),
]
_FAMILY: dict[str, Twins] = {}


def _small_db() -> Database:
    db = Database(credit_card_catalog())
    populate_credit_db(db, small_config())
    return db


@st.composite
def family(draw):
    ast_groups = draw(
        st.lists(st.sampled_from(GROUP_EXPRS), min_size=1, max_size=3, unique=True)
    )
    ast_aggs = draw(
        st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True)
    )
    if not any(a.startswith("count(*)") for a in ast_aggs):
        ast_aggs.append("count(*) as cnt")
    ast_super = draw(st.sampled_from(["plain", "plain", "rollup", "cube"]))
    # a constant-bearing AST now and then: it must always be re-matched
    ast_predicate = draw(st.sampled_from([None, None, "qty > 2", "year(date) > 1990"]))
    ast_sql = _grouped_sql(ast_groups, ast_aggs, ast_predicate, ast_super)
    query_groups = draw(
        st.lists(st.sampled_from(ast_groups), min_size=0, max_size=len(ast_groups), unique=True)
    )
    query_aggs = draw(
        st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True)
    )
    predicate, values = draw(st.sampled_from(SLOTTED))
    query_super = draw(st.sampled_from(["plain", "plain", "rollup"]))
    queries = [
        _grouped_sql(
            query_groups, query_aggs,
            predicate.format(*(value if isinstance(value, tuple) else (value,))),
            query_super,
        )
        for value in draw(st.permutations(values))
    ]
    return ast_sql, queries


@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(family())
def test_structured_family_decides_as_cold(case):
    ast_sql, queries = case
    twins = _FAMILY.get(ast_sql)
    if twins is None:
        if len(_FAMILY) > 48:
            _FAMILY.pop(next(iter(_FAMILY)))
        twins = _FAMILY[ast_sql] = Twins({"PropAst": ast_sql}, build=_small_db)
    for sql in queries:
        twins.check(sql)


# ----------------------------------------------------------------------
# Generated bindings against two oracles
# ----------------------------------------------------------------------
#: every pivot and kept constant of the statements below: AST2's 0.1,
#: AST10H's 2, and the queries' own 0 (coalesce), 1, 6, 100 and 1990
PIVOTS = (0.1, 2, 0, 1, 6, 100, 1990)


def _around(pivot) -> list:
    """``pivot`` and a value either side of it, whole ones as an int and
    as a float."""
    step = 0.05 if pivot < 1 else 1
    values = []
    for value in (round(pivot - step, 6), pivot, round(pivot + step, 6)):
        values.append(value)
        if float(value).is_integer():
            values.extend((int(value), float(value)))
    return values


PIVOT_VALUES = sorted(
    {(type(value).__name__, value) for pivot in PIVOTS for value in _around(pivot)}
)
#: one-slot statements: the eleven ledger templates, AST2's and AST10H's
#: constants as slots, and the structured family's one-slot predicates
SLOTS = (
    [template.sql.replace("{v}", "{}") for template in ledger_pools.TEMPLATES]
    + [
        TEMPLATES["fig05_q2"].sql.format(v="150.0").replace("disc > 0.1", "disc > {}"),
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "group by flid, year(date) having count(*) > {}",
    ]
    + [
        _grouped_sql(groups, aggregates, predicate, "plain")
        for predicate, _ in SLOTTED if predicate.count("{}") == 1
        for groups, aggregates in (
            ([("flid", "flid"), ("year", "year(date)")], ["count(*) as cnt"]),
            ([("year", "year(date)")], ["sum(qty * price) as value"]),
        )
    ]
)
_REFERENCE: dict = {}


@settings(max_examples=settings.default.max_examples // 25, deadline=None)
@given(
    slot=st.sampled_from(SLOTS),
    values=st.lists(st.sampled_from(PIVOT_VALUES), min_size=2, max_size=5),
)
def test_generated_bindings_decide_as_cold_and_answer_as_the_reference(
    ten, slot, values
):
    """The cached twin decides as the cold one with byte-identical SQL
    and answers as the base tables (:meth:`Twins.check`), and as the
    naive reference executor run on the original query."""
    db = ten.shaped
    for _, value in values:
        sql = slot.format(repr(value))
        ten.check(sql)
        if sql not in _REFERENCE:
            _REFERENCE[sql] = ReferenceExecutor(db.tables).run(db.bind(sql))
        assert tables_equal(db.execute(sql), _REFERENCE[sql]), sql


# ----------------------------------------------------------------------
# Bindings built to break a template
# ----------------------------------------------------------------------
def test_constant_bearing_winner_stops_matching_below_its_constant():
    """AST2 keeps ``disc > 0.1``: it answers ``disc > 0.2`` and
    ``disc > 0.1`` and cannot answer ``disc > 0.05``. The three are
    three obligation classes; each decides as cold does."""
    sql = TEMPLATES["fig05_q2"].sql.format(v="150.0").replace(
        "disc > 0.1", "disc > {d}"
    )
    nine = Twins(FIGURE_ASTS)
    assert nine.check(sql.format(d=0.2))["cache_misses"] == 1
    assert nine.check(sql.format(d=0.3))["cache_misses"] == 1  # confirms
    assert nine.check(sql.format(d=0.4))["cache_shape_hits"] == 1
    below = nine.check(sql.format(d=0.05))
    assert below["cache_shape_hits"] == 0 and below["cache_misses"] == 1
    # a class of its own: matched cold, AST2 answers again
    back = nine.check(sql.format(d=0.1))
    assert back["cache_shape_hits"] == 0 and back["rewrites_applied"] == 1
    for d in (0.05, 0.2, 0.05, 0.1, 0.15):
        nine.check(sql.format(d=d))


def test_table1_having_ast_either_side_of_its_threshold():
    """Table 1's AST10 keeps ``HAVING count(*) > 2``: it is the smallest
    summary that answers a threshold of 2 or more and none below."""
    twins = Twins({**FIGURE_ASTS, "AST10H": AST10_WITH_HAVING})
    sql = (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "group by flid, year(date) having count(*) > {}"
    )
    winners = {}
    for value in (3, 1, 2, 0, 5, 1, 4):
        twins.check(sql.format(value))
        winners[value] = [
            s.name for s in twins.shaped.rewrite(sql.format(value)).summary_tables
        ]
    assert winners[3] == winners[2] == winners[5] == ["AST10H"]
    assert winners[1] == winners[0] != ["AST10H"]


def test_two_asts_that_differ_only_in_a_constant():
    """The smaller summary becomes eligible past its constant, and must
    then be chosen — as cold chooses it — over the template's winner."""
    body = "select tid, faid, price, qty from Trans"
    twins = Twins({
        "PALL": body,
        "P100": body + " where price > 100",
        "P500": body + " where price > 500",
    })
    sql = "select tid, price from Trans where price > {}"
    chosen = {}
    for value in (50, 150, 600, 100, 500, 50, 1000, 499):
        twins.check(sql.format(value))
        chosen[value] = twins.shaped.rewrite(sql.format(value)).summary_tables[0].name
    assert chosen == {
        50: "PALL", 150: "P100", 600: "P500", 100: "P100", 500: "P500",
        1000: "P500", 499: "P100",
    }


def test_a_dropped_hint_breaks_ties_as_cold_does():
    """Two summaries as good as each other: the earlier one wins, also
    when another binding of the shape, across the later one's constant,
    filed a template naming a third."""
    body = "select tid, faid, price, qty from Trans"
    twins = Twins({
        "EARLY": body,
        "LATE": body + " where price > 0",  # every row too, and a constant
        "P100": body + " where price > 100",
    })
    sql = "select tid, price from Trans where price > {}"
    assert twins.check(sql.format(150))["cache_misses"] == 1  # template: P100
    dropped = twins.check(sql.format(50))
    assert dropped["cache_shape_hits"] == 0 and dropped["matches_attempted"] == 3
    assert twins.shaped.rewrite(sql.format(50)).summary_tables[0].name == "EARLY"


def test_coinciding_constants_are_another_shape():
    twins = Twins({"EQ": "select tid, faid, flid, qty from Trans where faid = flid"})
    same = "select tid from Trans where faid = 5 and flid = 5"
    differ = "select tid from Trans where faid = 5 and flid = 6"
    keys = {shape_class(twins.shaped, sql)[:2] for sql in (same, differ)}
    assert len(keys) == 2
    for sql in (same, differ, same.replace("5", "7"), differ.replace("6", "4")):
        twins.check(sql)


def test_operators_and_types_do_not_share_a_plan_wrongly(nine):
    """``>`` against ``>=``, int against float against string against
    date, ``IS NULL``: each differs in skeleton or form or is
    re-proven."""
    statements = [
        "select flid, count(*) as cnt from Trans where qty > 2 group by flid",
        "select flid, count(*) as cnt from Trans where qty >= 2 group by flid",
        "select flid, count(*) as cnt from Trans where qty > 2.5 group by flid",
        "select flid, count(*) as cnt from Trans where qty > 3 group by flid",
        "select flid, count(*) as cnt from Trans where year(date) > 1990 group by flid",
        "select flid, count(*) as cnt from Trans where year(date) >= 1991 group by flid",
        "select flid, count(*) as cnt from Trans where year(date) > 1990.5 group by flid",
        "select flid, count(*) as cnt from Trans where date > date '1991-06-01' group by flid",
        "select flid, count(*) as cnt from Trans where date > date '1992-01-01' group by flid",
        "select lid, count(*) as cnt from Trans, Loc where flid = lid and country = 'USA' group by lid",
        "select lid, count(*) as cnt from Trans, Loc where flid = lid and country = 'France' group by lid",
        "select lid, count(*) as cnt from Trans, Loc where flid = lid and country > 'France' group by lid",
        "select flid, count(*) as cnt from Trans where disc is null group by flid",
        "select flid, count(*) as cnt from Trans where disc is not null group by flid",
        "select flid, count(*) as cnt from Trans where disc = null group by flid",
    ]
    rng = random.Random(24)
    for sql in statements + rng.sample(statements, len(statements)):
        nine.check(sql)
    keys = [shape_class(nine.shaped, sql)[:2] for sql in statements]
    assert keys[0] != keys[1]                 # > and >=
    assert keys[0] != keys[2]                 # int and float
    assert keys[0] == keys[3]                 # one shape, two constants
    assert keys[7] == keys[8] and keys[9] == keys[10] != keys[11]
    assert keys[12] != keys[13] != keys[14]


@pytest.mark.parametrize("sql, values", [
    (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where date > date '{}' group by flid, year(date)",
        [f"1991-{month:02d}-15" for month in range(1, 12)],
    ),
    (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "group by flid, year(date) limit {}",
        range(3, 14),
    ),
])
def test_decisions_are_shared_across_values_kept_for_binding(nine, sql, values):
    """A ``DATE '…'`` compared in WHERE and ``LIMIT n`` are bound by
    value, so no two statements here share a bound template; the text
    shape's decisions are still shared: one cold match in all."""
    counts = [nine.check(sql.format(value)) for value in values]
    assert len(counts) == 11
    assert counts[0]["matches_attempted"] == 9
    assert sum(count["matches_attempted"] for count in counts[1:]) == 0
    assert all(count["cache_misses"] == 0 for count in counts[1:])


# ----------------------------------------------------------------------
# Invalidation: a template is an entry like any other
# ----------------------------------------------------------------------
Q7 = TEMPLATES["fig08_q7"].sql


@pytest.fixture
def primed() -> Twins:
    """Nine ASTs and a confirmed template for fig08_q7's shape."""
    twins = Twins(FIGURE_ASTS)
    assert twins.check(Q7.format(v="2.5"))["cache_misses"] == 1
    assert twins.check(Q7.format(v="3.5"))["cache_misses"] == 1
    assert twins.check(Q7.format(v="3.75"))["cache_shape_hits"] == 1
    return twins


def _misses_the_plan(twins: Twins, value: str, tolerance=None) -> None:
    """The template is gone: ``value`` files a new one, which the next
    binding confirms and the one after uses."""
    counts = twins.check(Q7.format(v=value), tolerance=tolerance)
    assert counts["cache_shape_hits"] == 0 and counts["cache_misses"] == 1
    again = twins.check(Q7.format(v=value + "1"), tolerance=tolerance)
    assert again["cache_shape_hits"] == 0 and again["cache_misses"] == 1
    third = twins.check(Q7.format(v=value + "2"), tolerance=tolerance)
    assert third["cache_shape_hits"] == 1


def test_create_drops_the_plan(primed):
    primed.create("LOCS", "select lid, city from Loc")
    _misses_the_plan(primed, "4.5")


def test_drop_drops_the_plan(primed):
    primed.each(lambda db: db.drop_summary_table("AST7"))
    _misses_the_plan(primed, "4.5")
    assert "AST7" not in [
        s.name for s in primed.shaped.rewrite(Q7.format(v="9.5")).summary_tables
    ]


def test_refresh_drops_the_plan(primed):
    primed.each(lambda db: db.refresh_summary_tables())
    _misses_the_plan(primed, "4.5")


def test_disable_and_enable_each_drop_the_plan(primed):
    primed.each(lambda db: db.set_summary_table_enabled("AST7", False))
    _misses_the_plan(primed, "4.5")
    primed.each(lambda db: db.set_summary_table_enabled("AST7", True))
    _misses_the_plan(primed, "5.5")
    # ... and flipping the dataclass field without telling the database
    primed.each(lambda db: setattr(db.summary_tables["ast7"], "enabled", False))
    _misses_the_plan(primed, "6.5")


def test_a_deferred_summary_going_stale_drops_the_plan():
    twins = Twins({})
    twins.create(
        "LY", "select flid, year(date) as year, count(*) as cnt from Trans "
        "group by flid, year(date)", refresh_mode="deferred",
    )
    twins.each(lambda db: db.set_refresh_age(0))
    assert twins.check(Q7.format(v="2.5"))["rewrites_applied"] == 1
    assert twins.check(Q7.format(v="3.5"))["cache_misses"] == 1  # confirms
    assert twins.check(Q7.format(v="3.75"))["cache_shape_hits"] == 1
    row = twins.shaped.tables["trans"].rows[0]
    twins.each(lambda db: db.insert_rows("Trans", [(10**6,) + tuple(row[1:])]))
    stale = twins.check(Q7.format(v="4.5"))
    assert stale["cache_shape_hits"] == 0 and stale["rewrites_applied"] == 0
    assert stale["stale_rejections"] == 1


def test_each_refresh_age_has_its_own_plan(primed):
    _misses_the_plan(primed, "4.5", tolerance=RefreshAge(None))
    _misses_the_plan(primed, "5.5", tolerance=RefreshAge(3))
    assert primed.check(Q7.format(v="6.5"))["cache_shape_hits"] == 1


def test_no_cache_no_plan(primed):
    primed.shaped.configure_fast_path(cache=False)
    counts = primed.check(Q7.format(v="4.5"))
    assert counts["cache_shape_hits"] == counts["cache_stores"] == 0
    primed.shaped.configure_fast_path(cache=True)
    assert primed.check(Q7.format(v="5.5"))["cache_misses"] == 1  # cleared
