"""Differential property: the fused SELECT loop against the operator path.

A SELECT box runs as one generated loop — one child streaming, the others
probed, a GROUP BY above it folded in the same iteration — or one
operator at a time: under a memory reservation, and whenever the loop's
join order would not have been the operator path's.  Random boxes over
NULL- and duplicate-heavy tables (1–3 quantifiers, equi-joins, local and
residual conjuncts with ``/`` and ``%``, optionally under GROUP BY or
GROUPING SETS) run three ways:

* fused, ungoverned, each driver streamed whole;
* on the operator path, forced by a one-byte ``MAXMEM`` (every hash join
  and every group-by spills);
* fused in 64-row morsels.

All three must return the same cells, compared as ``(type, repr)``, in
the same order — or raise the same exception type.  Where none raises,
the reference executor must agree as a multiset too (the values are
small dyadic fractions, so every sum is exact in any order).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.catalog import Catalog, Column, DataType, TableSchema
from repro.engine import Database, Executor, tables_equal
from repro.engine import executor as executor_module
from repro.engine.reference import ReferenceExecutor
from repro.errors import ReproError
from repro.qgm import build_graph
from repro.resources.broker import BROKER

TABLES = ("ta", "tb", "tc")
_KEYS = st.sampled_from([None, 0, 1, 1, 2])
_INTS = st.sampled_from([None, -1, 0, 1, 2, 2, 3])
_FLOATS = st.sampled_from([None, -0.0, 0.0, 0.5, 1.5, -2.25])
_ROWS = st.lists(st.tuples(_KEYS, _INTS, _FLOATS), max_size=10)

_LOCAL = [
    "{q}.a > {c}",
    "{q}.x <= 0.5",
    "{q}.a % 2 = 1",
    "{q}.a % {z} = 0",
    "{q}.a / {q}.x > 0",
    "{q}.a / 2 < 1",
    "{q}.k is not null",
    "{q}.k in (0, 2)",
]
_RESIDUAL = [
    "{q}.a + {p}.a > {c}",
    "{q}.x / {p}.a < 1",
    "{q}.a <> {p}.k",
    "{q}.a % {p}.k = 0",
]
_OUTPUTS = [
    "{q}.k", "{q}.a", "{q}.x", "{q}.a * {p}.x", "{q}.a % 3",
    "{q}.x / 4", "{q}.a - {p}.k", "({q}.a + 1) / {p}.k",
]
_KEY_EXPRS = ["{q}.k", "{q}.a", "{q}.x", "{q}.a % 2"]
_ARGS = ["{q}.a", "{q}.x", "{q}.a * {p}.x", "{q}.x / 2"]
_AGGS = [
    "count(*)", "count({e})", "sum({e})", "avg({e})", "min({e})",
    "max({e})", "count(distinct {e})", "sum(distinct {e})",
]


def _database(rows) -> Database:
    catalog = Catalog()
    for name in TABLES:
        catalog.add_table(
            TableSchema(
                name,
                [
                    Column("k", DataType.INTEGER, nullable=True),
                    Column("a", DataType.INTEGER, nullable=True),
                    Column("x", DataType.FLOAT, nullable=True),
                ],
            )
        )
    db = Database(catalog)
    for name, data in zip(TABLES, rows):
        db.load(name, data)
    return db


@st.composite
def boxes(draw) -> str:
    n = draw(st.integers(1, 3))
    names = [f"q{i}" for i in range(n)]

    def fill(template: str) -> str:
        q = draw(st.sampled_from(names))
        p = draw(st.sampled_from(names))
        return template.format(
            q=q, p=p, c=draw(st.sampled_from([-1, 0, 1])),
            z=draw(st.sampled_from([0, 3])),
            e=fill(draw(st.sampled_from(_ARGS))) if "{e}" in template else "",
        )

    predicates = []
    for i in range(1, n):
        if draw(st.integers(0, 3)):  # else a cross join
            j = draw(st.integers(0, i - 1))
            left, right = draw(st.sampled_from([("k", "k"), ("k", "a"), ("a", "a")]))
            predicates.append(f"q{i}.{left} = q{j}.{right}")
    for name in names:
        for template in draw(st.lists(st.sampled_from(_LOCAL), max_size=2)):
            predicates.append(
                template.format(q=name, c=draw(st.sampled_from([-1, 0, 1])),
                                z=draw(st.sampled_from([0, 3])))
            )
    if n > 1:
        for template in draw(st.lists(st.sampled_from(_RESIDUAL), max_size=1)):
            p, q = draw(st.permutations(names))[:2]
            predicates.append(
                template.format(q=q, p=p, c=draw(st.sampled_from([-1, 0, 1])))
            )
    predicates = draw(st.permutations(predicates))
    tables = ", ".join(
        f"{draw(st.sampled_from(TABLES))} {name}" for name in names
    )
    where = f" where {' and '.join(predicates)}" if predicates else ""
    shape = draw(st.sampled_from(["select", "distinct", "group", "sets", "total"]))
    if shape in ("select", "distinct"):
        outputs = draw(st.lists(st.sampled_from(_OUTPUTS), min_size=1, max_size=3))
        items = ", ".join(f"{fill(o)} as o{k}" for k, o in enumerate(outputs))
        head = "select distinct" if shape == "distinct" else "select"
        return f"{head} {items} from {tables}{where}"
    aggregates = draw(st.lists(st.sampled_from(_AGGS), min_size=1, max_size=3))
    aggs = ", ".join(f"{fill(a)} as m{k}" for k, a in enumerate(aggregates))
    if shape == "total":
        return f"select {aggs} from {tables}{where}"
    keys = list(dict.fromkeys(
        fill(key) for key in draw(
            st.lists(st.sampled_from(_KEY_EXPRS), min_size=1, max_size=2)
        )
    ))
    if shape == "group":
        clause = ", ".join(keys)
    else:
        sets = draw(st.lists(
            st.lists(st.sampled_from(keys), unique=True), min_size=1, max_size=3
        ))
        clause = "grouping sets (" + ", ".join(
            f"({', '.join(s)})" for s in sets
        ) + ")"
        # only a key some set groups by may be selected
        keys = [key for key in keys if any(key in s for s in sets)]
    items = "".join(f"{key} as g{k}, " for k, key in enumerate(keys))
    return f"select {items}{aggs} from {tables}{where} group by {clause}"


def _cells(run):
    """``(type, repr)`` of every cell, in order, or the exception type."""
    try:
        table = run()
    except ReproError as error:
        return type(error), None
    return [tuple((type(v), repr(v)) for v in row) for row in table.rows], table


def _three_ways(db: Database, sql: str):
    def fused():
        return Executor(db.tables).run(build_graph(sql, db.catalog))

    def operators():
        BROKER.reset()
        try:
            return db.execute(sql, use_summary_tables=False, max_mem=1)
        finally:
            BROKER.reset()

    def morsels():
        return Executor(db.tables, batch_rows=64).run(build_graph(sql, db.catalog))

    return [_cells(way) for way in (fused, operators, morsels)]


def _check(rows, sql) -> None:
    db = _database(rows)
    (fused, table), (operators, _), (morsels, _) = _three_ways(db, sql)
    assert operators == fused, sql
    assert morsels == fused, sql
    if table is None:
        return
    try:
        expected = ReferenceExecutor(db.tables).run(build_graph(sql, db.catalog))
    except ReproError:
        return  # the reference evaluates predicates in another order
    assert tables_equal(table, expected), sql


# The count comes from the active profile (``--hypothesis-profile=chaos``
# runs 3 000), never fewer than 100.
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(rows=st.tuples(_ROWS, _ROWS, _ROWS), sql=boxes())
@example(
    # q0 streams (6 rows against 3) but its filter leaves 2: the operator
    # path builds on q0 and returns q1's order, not q0's
    rows=(
        [(1, 3, 0.5), (2, 0, 1.5)] + [(1, 2, 0.5)] * 4,
        [(2, 1, -0.0), (1, 3, 1.5), (0, 2, 0.5)],
        [],
    ),
    sql="select q1.a as o0, q0.x as o1 from ta q0, tb q1 "
        "where q1.k = q0.k and q0.a % 3 = 0",
)
def test_fused_loop_matches_the_operator_path(rows, sql):
    _check(rows, sql)


def test_a_driver_filtered_below_its_build_side_falls_back(monkeypatch):
    """``ta`` (8 rows) streams and probes ``tb`` (3 rows), but its filter
    leaves 2: the operator path builds on ``ta``, so the fused loop's
    order does not hold and its output is discarded — and so are its
    batch counts: the stats read as if only the operator path ran."""
    ran = []
    operators = executor_module.Executor._operators
    monkeypatch.setattr(
        executor_module.Executor, "_operators",
        lambda self, *args: (ran.append(1), operators(self, *args))[1],
    )

    def operators_only(db, sql):
        with monkeypatch.context() as patch:
            patch.setattr(executor_module.Executor, "_fused", lambda *_: False)
            executor = Executor(db.tables)
            executor.run(build_graph(sql, db.catalog))
        return executor.stats

    rows = (
        [(k % 3, k, k / 2) for k in range(8)],
        [(0, 10, 0.5), (1, 11, 1.5), (1, 12, -0.0)],
        [],
    )
    for sql in (
        "select q0.a as o0, q1.a as o1 from ta q0, tb q1 "
        "where q0.k = q1.k and q0.a < 2",
        "select q1.a as g0, sum(q0.x) as m0, count(*) as m1 from ta q0, tb q1 "
        "where q0.k = q1.k and q0.a < 2 group by q1.a",
    ):
        ran.clear()
        db = _database(rows)
        fused = Executor(db.tables)
        fused.run(build_graph(sql, db.catalog))
        assert ran == [1], sql
        assert fused.stats.join_builds == [
            {"build": "left", "build_rows": 2, "probe_rows": 3}
        ]
        alone = operators_only(db, sql)
        assert (fused.stats.batches, fused.stats.rows) == (
            alone.batches, alone.rows
        )
        _check(rows, sql)
