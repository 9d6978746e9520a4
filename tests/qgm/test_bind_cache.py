"""The bind cache (:mod:`repro.qgm.bind_cache`), checked against the
cold binder.

A SELECT whose token-stream shape is known is bound by cloning its
template with the statement's literals substituted — never parsed,
never bound. Whatever that gives must be what a database with no bind
cache binds for the same text: the same fingerprint, the same rewrite
decision and SQL, the same answer, and the same error for a broken
text. Every check here runs a statement on a caching database and on
its ``configure_fast_path(cache=False)`` twin.
"""

from __future__ import annotations

import importlib.util
import re
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.figures import FIGURES, make_database
from repro.engine.table import tables_equal
from repro.errors import CatalogError
from repro.expr.nodes import Literal
from repro.qgm.bind_cache import BindCache, shape_key
from repro.qgm.fingerprint import literal_slots
from repro.sql.lexer import tokenize
from repro.workloads.datagen import GeneratorConfig

_POOLS = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "pools.py"
_spec = importlib.util.spec_from_file_location("ledger_pools", _POOLS)
ledger_pools = sys.modules.setdefault(
    "ledger_pools", importlib.util.module_from_spec(_spec)
)
if not hasattr(ledger_pools, "TEMPLATES"):
    _spec.loader.exec_module(ledger_pools)

#: 432 ``Trans`` rows, as the decision-cache tests use
CONFIG = GeneratorConfig(
    customers=6, accounts_per_customer=2, cities=12,
    transactions_per_account_year=12,
)
FIGURE_ASTS = {name: sql for name, sql, _, _ in FIGURES.values()}
FIGURE_QUERIES = {name: query for name, (_, _, query, _) in FIGURES.items()}
LEDGER = {template.name: template.sql for template in ledger_pools.TEMPLATES}


class Twins:
    """A database with the bind cache and its cache-less twin, over the
    same data and summaries, and the result-cache key of every
    fingerprint either has bound (and back)."""

    def __init__(self, summaries: dict[str, str] | None = None):
        self.shaped = make_database(CONFIG)
        self.cold = make_database(CONFIG)
        self.cold.configure_fast_path(cache=False)
        for name, sql in (summaries or {}).items():
            self.each(lambda db: db.create_summary_table(name, sql))
        self.keys: dict = {}
        self.shapes: dict = {}

    def key_of(self, shape, key) -> None:
        """Two statements' result-cache keys are equal exactly when their
        fingerprints are."""
        assert self.keys.setdefault(shape, key) == key
        assert self.shapes.setdefault(key, shape) == shape

    def each(self, action) -> None:
        for db in (self.shaped, self.cold):
            action(db)

    def check(self, sql: str, times: int = 1) -> str:
        """Run ``sql`` on the twin, then ``times`` on the caching side:
        one fingerprint, one decision, one rewritten SQL, one answer —
        or one error. Returns how the caching side bound it last."""
        try:
            twin = self.cold.prepare_select(sql, sql)
            shape, key = twin.shape(), twin.result_key()
            self.key_of(shape, key)
            twin = self.cold.run_select(twin)
        except Exception as error:  # noqa: BLE001 - compared below
            for _ in range(times):
                with pytest.raises(type(error)) as raised:
                    self.shaped.run_select(sql)
                assert str(raised.value) == str(error), sql
            return "error"
        for _ in range(times):
            run = self.shaped.prepare_select(sql, sql)
            # a substituted statement's key, read off its template's slots
            assert run.result_key() == key, sql
            assert run.shape() == shape, sql
            if run.slots is not None:  # the template's slots, as a walk finds them
                assert _typed_slots(run.slots) == _typed_slots(literal_slots(shape)), sql
            run = self.shaped.run_select(run)
            assert _decision(run.rewrite) == _decision(twin.rewrite), sql
            if run.rewrite is not None:
                assert run.rewrite.sql == twin.rewrite.sql, sql
            assert tables_equal(run.table, twin.table), sql
        return run.bound


def _typed_slots(slots) -> tuple:
    skeleton, kept, holes = slots
    return skeleton, *([(type(v), v) for v in found] for found in (kept, holes))


def _decision(result):
    if result is None:
        return None
    return [
        (step.summary.name, step.subsumee_index, step.match.pattern)
        for step in result.applied
    ]


@pytest.fixture
def plain() -> Twins:
    """No summaries: binding alone; one per test, so no shape is
    known before the test's first statement."""
    return Twins()


@pytest.fixture(scope="module")
def nine() -> Twins:
    """All nine figure ASTs; treat as read-only."""
    return Twins(FIGURE_ASTS)


def _run(twins: Twins, texts) -> list[str]:
    return [twins.check(text) for text in texts]


# ----------------------------------------------------------------------
# Every bind step that reads a literal's value (docs/ALGORITHM.md, "the
# bind cache"), one case each
# ----------------------------------------------------------------------
def test_limit_is_kept_by_value(plain):
    sql = "select faid, qty from Trans where qty > {v} order by faid, qty limit {n}"
    bound = _run(plain, [
        sql.format(v=10, n=3), sql.format(v=20, n=3), sql.format(v=30, n=3),
        sql.format(v=10, n=5), sql.format(v=20, n=5),
    ])
    # LIMIT 5 is a new kept value of a probed shape: filed at once
    assert bound == ["cold", "filed", "substituted", "filed", "substituted"]
    run = plain.shaped.prepare_select(sql.format(v=40, n=5), "")
    assert run.bound == "substituted" and run.graph.limit == 5


def test_limit_is_kept_when_its_value_is_also_a_literal(plain):
    """The graph shows a ``Literal`` of the LIMIT's class, so only the
    tokens say that the parser also reads it."""
    sql = "select faid, qty from Trans where qty > {n} order by faid, qty limit {n}"
    bound = _run(plain, [sql.format(n=n) for n in (3, 3, 3, 4, 4)])
    assert bound == ["cold", "filed", "substituted", "filed", "substituted"]


def test_confirmation_catches_a_probe_that_keeps_too_little(monkeypatch):
    """Were the LIMIT rule missing, the probe graph would carry the
    probe's LIMIT; substituting cannot fix it, so the fingerprints
    differ and the key is cold-only — every answer still the cold one."""
    from repro.qgm import bind_cache

    monkeypatch.setattr(bind_cache, "_kept_by_syntax", lambda *args: set())
    twins = Twins()
    sql = "select faid, qty from Trans where qty > {n} order by faid, qty limit {n}"
    assert _run(twins, [sql.format(n=n) for n in (3, 4, 5)]) == ["cold"] * 3
    assert twins.shaped.rewrite_stats()["bind_cache_cold_only"] == 1


def test_date_literals_are_kept_by_value(plain):
    sql = (
        "select count(*) as n from Trans "
        "where date >= DATE '{d}' and qty > {v}"
    )
    bound = _run(plain, [
        sql.format(d="1991-01-01", v=1), sql.format(d="1991-01-01", v=2),
        sql.format(d="1991-01-01", v=3), sql.format(d="1992-06-30", v=1),
        sql.format(d="1992-06-30", v=4), sql.format(d="1992-13-40", v=4),
    ])
    assert bound == [
        "cold", "filed", "substituted", "filed", "substituted", "error",
    ]


def test_a_negated_literal_is_kept_and_not_its_positive_twin(plain):
    negative = "select faid from Trans where qty > -{v} and price > {p}"
    positive = "select faid from Trans where qty > {v} and price > {p}"
    bound = _run(plain, [
        negative.format(v=5, p=10), negative.format(v=5, p=20),
        negative.format(v=5, p=30), negative.format(v=6, p=30),
        positive.format(v=5, p=10), positive.format(v=5, p=20),
        positive.format(v=5, p=30),
    ])
    assert bound == [
        "cold", "filed", "substituted", "filed",
        "cold", "filed", "substituted",
    ]
    key = shape_key(tokenize(negative.format(v=5, p=10)), "Q")[0]
    assert plain.shaped._bind_cache.entries.peek(key).kept == (0,)


def test_an_int_and_its_float_twin_are_two_shapes(plain):
    sql = "select faid from Trans where qty > {v}"
    bound = _run(plain, [
        sql.format(v="5"), sql.format(v="5.0"), sql.format(v="6"),
        sql.format(v="6.0"), sql.format(v="7.0"),
    ])
    assert bound == ["cold", "cold", "filed", "filed", "substituted"]
    run = plain.shaped.prepare_select(sql.format(v="8.0"), "")
    [predicate] = run.graph.root.predicates
    assert run.bound == "substituted"
    assert type(predicate.right.value) is float


def test_equal_literals_share_a_class(plain):
    sql = "select faid from Trans where qty > {a} and price > {b}"
    bound = _run(plain, [
        sql.format(a=5, b=5), sql.format(a=6, b=6), sql.format(a=7, b=7),
        sql.format(a=7, b=8),
    ])
    assert bound == ["cold", "filed", "substituted", "cold"]


def test_an_in_list_of_equal_items(plain):
    sql = "select faid, qty from Trans where faid in ({a}, {b})"
    bound = _run(plain, [
        sql.format(a=1, b=1), sql.format(a=2, b=2), sql.format(a=3, b=3),
        sql.format(a=3, b=4),
    ])
    assert bound == ["cold", "filed", "substituted", "cold"]


def test_an_escaped_quote_in_a_string(plain):
    sql = "select lid from Loc where city = {c} or state = 'it''s'"
    bound = _run(plain, [
        sql.format(c="'it''s'"), sql.format(c="'O''Hare'"),
        sql.format(c="'San Jose'"), sql.format(c="'x''y'"),
    ])
    assert bound == ["cold", "cold", "filed", "substituted"]


@pytest.mark.parametrize("value", [6, 100])
def test_fig07_q6_slot_equal_to_another_constant(nine, value):
    """At 6 the slot shares the ``month(date) >= 6`` class, at 100 the
    class of both ``% 100``: each is its own shape, and substituting
    moves every member of the class."""
    sql = LEDGER["fig07_q6"].format(v=value)
    assert _run(nine, [sql, sql, sql]) == ["cold", "filed", "substituted"]
    moved = sql.replace(f" {value}", f" {value + 1}")
    assert nine.check(moved) == "substituted"


# ----------------------------------------------------------------------
# Generated bindings against the cold binder
# ----------------------------------------------------------------------
_NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])")
_AROUND = [0, 0.1, 1, 6, 100, 1990, 0.5, 2, 5, 99, 101, 1989, 1991, 12.75]


def _respell(sql: str, case: str, space: str, comment: bool) -> str:
    """Keyword case, whitespace and comments the shape key ignores."""
    words = sql.split()
    if case == "upper":
        words = [w.upper() if w.lower() in {
            "select", "from", "where", "group", "by", "having", "and", "as",
            "sets", "grouping", "count", "sum",
        } else w for w in words]
    text = space.join(words)
    return f"-- generated\n{text}\n-- end" if comment else text


#: slots the ledger's templates lack: a ``DATE '…'``, a ``LIMIT n`` and
#: an ORDER BY expression holding a literal class
KEPT_AND_ORDERED = {
    "dated": (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where date > DATE '{d}' and qty > {v} group by flid, year(date)"
    ),
    "limited": (
        "select faid, count(*) as cnt from Trans where qty > {v} "
        "group by faid order by faid limit {n}"
    ),
    "ordered": (
        "select faid, qty - {v} as d from Trans where price > {v} "
        "order by qty - {v}, faid"
    ),
}
DATES = ["1990-06-15", "1991-01-01", "1991-12-31"]


@st.composite
def statements(draw):
    """A ledger template with its slot filled or a figure query with
    its numbers moved — values at and around the constants the ASTs
    keep, int/float twins and negatives — or a statement with a kept
    date or limit or an ORDER BY literal, in some spelling."""
    name = draw(st.sampled_from(
        sorted(LEDGER) + sorted(FIGURE_QUERIES) + sorted(KEPT_AND_ORDERED)
    ))

    def value():
        number = draw(st.sampled_from(_AROUND))
        kind = draw(st.sampled_from(["same", "int", "float", "negative"]))
        if kind == "int":
            number = int(number)
        elif kind == "float":
            number = float(number)
        return f"-{number}" if kind == "negative" else repr(number)

    if name in LEDGER:
        sql = LEDGER[name].format(v=value())
    elif name in KEPT_AND_ORDERED:
        sql = KEPT_AND_ORDERED[name].format(
            v=value(), d=draw(st.sampled_from(DATES)),
            n=draw(st.integers(1, 4)),
        )
    else:
        query = FIGURE_QUERIES[name]
        sql = _NUMBER.sub(
            lambda m: value() if draw(st.booleans()) else m.group(), query
        )
    return _respell(
        sql, draw(st.sampled_from(["lower", "upper"])),
        draw(st.sampled_from([" ", "  ", "\n", "\t "])), draw(st.booleans()),
    )


@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(st.lists(statements(), min_size=1, max_size=4))
def test_generated_bindings_bind_as_the_cold_binder(nine, texts):
    for text in texts:
        # three times: the key's first, filing and substituted bindings
        nine.check(text, times=3)


@pytest.mark.parametrize("name", sorted(KEPT_AND_ORDERED))
def test_result_keys_follow_fingerprints(plain, name):
    """Int/float twins, ``0.0`` against ``-0.0``, kept dates and limits,
    an ORDER BY literal: each statement's result-cache key equals its
    cold twin's, cold, filed or substituted, and two keys are equal
    exactly when the fingerprints are (:meth:`Twins.check`)."""
    sql = KEPT_AND_ORDERED[name]
    bound = [
        plain.check(sql.format(v=v, d=d, n=n), times=3)
        for v in ("5", "5.0", "0.0", "-0.0", "6", "6.0", "5")
        for d, n in ((DATES[0], 2), (DATES[1], 3))
    ]
    assert "substituted" in bound
    assert len(plain.keys) == len(plain.shapes) > 1


@settings(max_examples=settings.default.max_examples // 10, deadline=None)
@given(statements(), st.sampled_from([
    ("faid", "nosuchcol"), ("from", "from from"), ("(", "(("),
    ("Trans", "Trans'"), (",", ", ,"), ("count", "count count"),
]))
def test_broken_variants_raise_the_cold_error(nine, text, damage):
    old, new = damage
    nine.check(text, times=2)
    nine.check(text.replace(old, new, 1), times=2)


# ----------------------------------------------------------------------
# Invalidation, isolation, concurrency
# ----------------------------------------------------------------------
ONE = "select faid, count(*) as cnt from Trans where qty > {v} group by faid"


def _filed(twins: Twins, sql: str = ONE) -> None:
    assert _run(twins, [sql.format(v=1), sql.format(v=2)]) == ["cold", "filed"]
    assert twins.check(sql.format(v=3)) == "substituted"


@pytest.mark.parametrize("ddl", [
    "create", "drop", "quarantine", "disable",
])
def test_ddl_between_bindings_drops_the_entry(ddl):
    twins = Twins({"ByAcct": "select faid, count(*) as cnt from Trans group by faid"})
    _filed(twins)
    if ddl == "create":
        twins.each(lambda db: db.create_summary_table(
            "ByLoc", "select flid, count(*) as cnt from Trans group by flid"
        ))
    elif ddl == "drop":
        twins.each(lambda db: db.drop_summary_table("ByAcct"))
    elif ddl == "quarantine":
        twins.each(lambda db: db.quarantine_summary("ByAcct", "test"))
    else:
        twins.each(lambda db: db.set_summary_table_enabled("ByAcct", False))
    assert twins.check(ONE.format(v=4)) == "cold"
    assert twins.check(ONE.format(v=5)) == "filed"


def test_drop_table_drops_the_entry_and_the_text_fails_as_cold():
    twins = Twins()
    twins.each(lambda db: db.run_sql("CREATE TABLE T (k INT, v INT)"))
    sql = "select k from T where v > {v}"
    assert _run(twins, [sql.format(v=1), sql.format(v=2), sql.format(v=3)]) == [
        "cold", "filed", "substituted",
    ]
    twins.each(lambda db: db._drop_table("T"))
    assert twins.check(sql.format(v=4)) == "error"
    with pytest.raises(CatalogError):
        twins.shaped.prepare_select(sql.format(v=5))


def test_no_box_of_a_hit_is_a_box_of_the_template_or_another_hit(nine):
    sql = LEDGER["fig02_q1"]
    _run(nine, [sql.format(v=11.5), sql.format(v=12.5)])
    hits = [nine.shaped.prepare_select(sql.format(v=v)) for v in (13.5, 14.5)]
    assert [run.bound for run in hits] == ["substituted", "substituted"]
    key = shape_key(tokenize(sql.format(v=13.5)), "Q")[0]
    shape = nine.shaped._bind_cache.entries.peek(key)
    [(_, template)] = shape.templates.items()
    graphs = [template.graph] + [run.graph for run in hits]
    for index, graph in enumerate(graphs):
        mine = graph.boxes()
        for other in graphs[index + 1:]:
            theirs = other.boxes()
            assert not {id(b) for b in mine} & {id(b) for b in theirs}
            assert not {
                id(q) for b in mine for q in b.quantifiers()
            } & {id(q) for b in theirs for q in b.quantifiers()}
            assert not {id(q) for b in mine for q in b.outputs} & {
                id(q) for b in theirs for q in b.outputs
            }
    # a hit rewritten in place leaves the template as it was
    for run in hits:
        nine.shaped.run_select(run)
        assert run.rewrite is not None
    assert nine.check(sql.format(v=15.5)) == "substituted"


def test_a_hit_substitutes_every_member_of_a_class(plain):
    sql = "select faid from Trans where qty > {v} or price < {v}"
    _run(plain, [sql.format(v=7), sql.format(v=8)])
    run = plain.shaped.prepare_select(sql.format(v=9))
    literals = [
        node for p in run.graph.root.predicates for node in p.walk()
        if isinstance(node, Literal)
    ]
    assert run.bound == "substituted"
    assert [lit.value for lit in literals] == [9, 9]


def test_two_threads_filing_one_key_both_bind_as_cold(monkeypatch):
    twins = Twins(FIGURE_ASTS)
    sql = LEDGER["fig08_q7"]
    twins.check(sql.format(v=3.5))
    barrier = threading.Barrier(2, timeout=30)
    file = BindCache._file

    def together(self, *args):
        barrier.wait()  # both threads are past the lookup, filing
        return file(self, *args)

    monkeypatch.setattr(BindCache, "_file", together)
    runs, errors = {}, []

    def prepare(value):
        try:
            runs[value] = twins.shaped.prepare_select(sql.format(v=value))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=prepare, args=(v,)) for v in (4.5, 5.5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for value, run in runs.items():
        assert run.bound == "filed"
        cold = twins.cold.prepare_select(sql.format(v=value))
        assert run.shape() == cold.shape()
    monkeypatch.setattr(BindCache, "_file", file)
    assert twins.check(sql.format(v=6.5)) == "substituted"


def test_threads_binding_shared_shapes_all_bind_as_cold():
    """Six threads, three shapes, a tiny switch interval: every graph a
    thread gets — cold, filed or substituted — is the cold binder's."""
    twins = Twins()
    texts = [
        sql.format(v=v) for v in range(1, 9) for sql in (
            ONE, LEDGER["fig02_q1"], "select lid from Loc where lid > {v}",
        )
    ]
    expected = {text: twins.cold.prepare_select(text).shape() for text in texts}
    seen, errors = [], []

    def work(offset):
        try:
            for text in texts[offset:] + texts[:offset]:
                run = twins.shaped.prepare_select(text)
                seen.append(run.bound)
                assert run.shape() == expected[text], text
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(n * 4,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(seen) == 6 * len(texts) and "substituted" in seen


def test_cache_off_binds_every_statement_cold(plain):
    db = make_database(CONFIG)
    db.configure_fast_path(cache=False)
    runs = [db.prepare_select(ONE.format(v=v)) for v in (1, 2, 3)]
    assert [run.bound for run in runs] == ["cold"] * 3
    stats = db.rewrite_stats()
    assert stats["bind_cache_hits"] == stats["bind_cache_misses"] == 0


def test_counters_and_explain_analyze_say_how_it_was_bound():
    db = make_database(CONFIG)
    for v in (1, 2, 3):
        db.execute(ONE.format(v=v))
    stats = db.rewrite_stats()
    assert (stats["bind_cache_hits"], stats["bind_cache_misses"]) == (1, 2)
    assert stats["bind_cache_cold_only"] == 0
    out = db.explain_analyze(ONE.format(v=4))
    [bind_row] = [line for line in out.splitlines() if "bind" in line]
    assert bind_row.endswith("(substituted)")
    db.metrics.reset()
    assert db.rewrite_stats()["bind_cache_hits"] == 0


def test_run_sql_selects_are_bound_by_substitution(monkeypatch):
    """``run_sql`` (and the CLI over it) hands the engine a SELECT's text,
    as the query server does, without parsing it first: from a shape's
    third statement on, each is bound by substituting its constants, and
    answers as the cache-off twin."""
    import repro.sql.statements as statements

    parsed = []
    real = statements.parse_statement
    monkeypatch.setattr(
        statements, "parse_statement", lambda sql: parsed.append(sql) or real(sql)
    )
    twins = Twins()
    hits = []
    for v in (1, 2, 3, 4):
        sql = ONE.format(v=v)
        table = twins.shaped.run_sql(sql)
        assert tables_equal(table, twins.cold.run_sql(sql)), sql
        hits.append(twins.shaped.rewrite_stats()["bind_cache_hits"])
    assert hits == [0, 0, 1, 2]
    assert parsed == []


def test_a_literal_the_normaliser_folds_is_kept_by_value(plain):
    """``faid * 1`` normalises to ``faid``: grouped by it, ``faid * 2``
    is a grouped expression, grouped by ``faid * 3`` it is not. So a
    literal under ``*`` is kept by value, and each kept tuple binds (or
    fails) as the cold binder does."""
    sql = "select faid * {v} as f, count(*) as n from Trans group by faid * {w}"
    bound = _run(plain, [
        sql.format(v=1, w=1), sql.format(v=1, w=1), sql.format(v=1, w=1),
        sql.format(v=2, w=2), sql.format(v=2, w=1), sql.format(v=2, w=3),
        sql.format(v=2, w=1), sql.format(v=2, w=1), sql.format(v=5, w=3),
    ])
    assert bound == [
        "cold", "filed", "substituted", "filed",
        "cold", "error", "filed", "substituted", "error",
    ]


def test_a_shape_whose_probe_does_not_bind_is_cold_only(monkeypatch):
    from repro.errors import BindError
    from repro.qgm import bind_cache

    def unbindable(*args):
        raise BindError("probe")

    monkeypatch.setattr(bind_cache, "_probe", unbindable)
    twins = Twins()
    assert _run(twins, [ONE.format(v=v) for v in (1, 2, 3)]) == ["cold"] * 3
    assert twins.shaped.rewrite_stats()["bind_cache_cold_only"] == 1
