"""The shape path of the rewrite decision cache, checked differentially.

A statement that misses its exact key but whose *shape*
(:func:`repro.qgm.fingerprint.shape_key`) has a plan is matched against
the planned winner and the constant-bearing summaries only. Whatever
that path decides must be what a database with no decision cache decides
for the same statement — same summaries, same boxes, same patterns,
byte-identical rewritten SQL — and must return the base-table answer.
Every test here runs a statement on a caching database and on its
``configure_fast_path(cache=False)`` twin and compares.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.figures import AST10_WITH_HAVING, FIGURES, make_database
from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.table import tables_equal
from repro.qgm.fingerprint import fingerprint, shape_key
from repro.refresh.policy import RefreshAge
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
    template = TEMPLATES[name]
    hits = 0
    for value in _values(name, template.floor, template.floor + 400.0):
        counts = nine.check(template.sql.format(v=repr(value)))
        hits += counts["cache_shape_hits"]
        # a shape hit is a hit, never a miss
        assert counts["cache_hits"] + counts["cache_negative_hits"] + counts[
            "cache_misses"
        ] == 1
    # ints and floats are two shapes (the type tag), and a threshold
    # crossing one of the query's other constants is a third
    assert hits >= BINDINGS - 6


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_second_execution_of_a_statement_matches_nothing(nine, name):
    """A shape hit stores the exact entry as a cold miss does: without
    it every repeated statement would pay a re-match forever."""
    template = TEMPLATES[name]
    nine.check(template.sql.format(v=repr(template.floor + 7.25)))
    sql = template.sql.format(v=repr(template.floor + 9.75))
    first = nine.check(sql)
    assert first["cache_shape_hits"] == 1 and first["matches_attempted"] > 0
    second = nine.check(sql)
    assert second["matches_attempted"] == 0
    assert second["cache_hits"] == 1 and second["cache_shape_hits"] == 0


def test_a_shape_hit_matches_the_winner_and_the_constant_bearing():
    template = TEMPLATES["fig08_q7"]
    twins = Twins(FIGURE_ASTS)
    cold = twins.check(template.sql.format(v="3.5"))
    warm = twins.check(template.sql.format(v="4.5"))
    # cold: all nine, then the eight left; warm: AST7 and AST2, after
    # which the rewritten graph no longer reads Trans
    assert cold["matches_attempted"] == 9 and cold["cache_misses"] == 1
    assert warm["matches_attempted"] == 2 and warm["cache_shape_hits"] == 1


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


@settings(max_examples=100, deadline=None)
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
# Bindings built to break a plan
# ----------------------------------------------------------------------
def test_constant_bearing_winner_stops_matching_below_its_constant():
    """AST2 keeps ``disc > 0.1``: it answers ``disc > 0.2`` and
    ``disc > 0.1`` and cannot answer ``disc > 0.05``. The plan of the
    first must be dropped for the third, and the answer stay right."""
    sql = TEMPLATES["fig05_q2"].sql.format(v="150.0").replace(
        "disc > 0.1", "disc > {d}"
    )
    nine = Twins(FIGURE_ASTS)
    assert nine.check(sql.format(d=0.2))["cache_misses"] == 1
    assert nine.check(sql.format(d=0.3))["cache_shape_hits"] == 1
    below = nine.check(sql.format(d=0.05))
    assert below["cache_shape_hits"] == 0 and below["cache_misses"] == 1
    # the plan now says "no rewrite"; AST2 is re-matched all the same
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
    then be chosen — as cold chooses it — over the plan's winner."""
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
    when the hint had set it aside and matched the later one first."""
    body = "select tid, faid, price, qty from Trans"
    twins = Twins({
        "EARLY": body,
        "LATE": body + " where price > 0",  # every row too, and a constant
        "P100": body + " where price > 100",
    })
    sql = "select tid, price from Trans where price > {}"
    assert twins.check(sql.format(150))["cache_misses"] == 1  # plan: P100
    dropped = twins.check(sql.format(50))
    assert dropped["cache_shape_hits"] == 0 and dropped["matches_attempted"] == 3
    assert twins.shaped.rewrite(sql.format(50)).summary_tables[0].name == "EARLY"


def test_coinciding_constants_are_another_shape():
    twins = Twins({"EQ": "select tid, faid, flid, qty from Trans where faid = flid"})
    same = "select tid from Trans where faid = 5 and flid = 5"
    differ = "select tid from Trans where faid = 5 and flid = 6"
    keys = {
        shape_key(fingerprint(twins.shaped.bind(sql))) for sql in (same, differ)
    }
    assert len(keys) == 2
    for sql in (same, differ, same.replace("5", "7"), differ.replace("6", "4")):
        twins.check(sql)


def test_operators_and_types_do_not_share_a_plan_wrongly(nine):
    """``>`` against ``>=``, int against float against string against
    date, ``IS NULL``: each differs in the shape key or is re-proven."""
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
    keys = [shape_key(fingerprint(nine.shaped.bind(sql))) for sql in statements]
    assert keys[0] != keys[1]                 # > and >=
    assert keys[0] != keys[2]                 # int and float
    assert keys[0] == keys[3]                 # one shape, two constants
    assert keys[7] == keys[8] and keys[9] == keys[10] != keys[11]
    assert keys[12] != keys[13] != keys[14]


# ----------------------------------------------------------------------
# Invalidation: a plan is an entry like any other
# ----------------------------------------------------------------------
Q7 = TEMPLATES["fig08_q7"].sql


@pytest.fixture
def primed() -> Twins:
    """Nine ASTs and a plan for fig08_q7's shape."""
    twins = Twins(FIGURE_ASTS)
    assert twins.check(Q7.format(v="2.5"))["cache_misses"] == 1
    assert twins.check(Q7.format(v="3.5"))["cache_shape_hits"] == 1
    return twins


def _misses_the_plan(twins: Twins, value: str, tolerance=None) -> None:
    counts = twins.check(Q7.format(v=value), tolerance=tolerance)
    assert counts["cache_shape_hits"] == 0 and counts["cache_misses"] == 1
    again = twins.check(Q7.format(v=value + "1"), tolerance=tolerance)
    assert again["cache_shape_hits"] == 1


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
    assert twins.check(Q7.format(v="3.5"))["cache_shape_hits"] == 1
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
