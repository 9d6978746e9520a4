"""Differential suite: the columnar batch executor vs the row-at-a-time
reference oracle.

Every TPC-D and webmetrics workload query must come back bit-identical
(``tables_equal``) from the batch executor — governed (morsels of
``_TICK_EVERY`` rows) and ungoverned (whole-column batches) — and a
hypothesis property stresses random GROUPING SETS combinations, where
the NULL-padded cuboid union and the partial aggregate states interact.

The reference executor (cartesian products + sort-based grouping) shares
nothing with the batch pipeline beyond SQL semantics, so agreement here
is the acceptance gate for the vectorized rewrite.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import Executor, tables_equal
from repro.engine.reference import ReferenceExecutor
from repro.governor import scope as governor_scope
from repro.governor.budget import Deadline, QueryBudget
from repro.qgm import build_graph
from repro.workloads import tpcd, webmetrics

# Small enough that the reference executor's cartesian joins stay cheap,
# big enough that every governed query crosses several morsels.
TPCD_DB = tpcd.build_tpcd_db(orders=40)
WEB_DB = webmetrics.build_web_db(views=600)

_DBS = {"tpcd": TPCD_DB, "web": WEB_DB}
_QUERIES = {"tpcd": tpcd.QUERIES, "web": webmetrics.QUERIES}

# The ``off`` in each id dates from the removed thread-parallel matrix
# (off/par2/par4); it stays so the surviving cases keep their names.
WORKLOAD_CASES = [
    pytest.param(workload, name, id=f"{workload}-{name}-off")
    for workload, queries in (("tpcd", tpcd.QUERIES), ("web", webmetrics.QUERIES))
    for name in sorted(queries)
]

_reference_cache: dict[tuple[str, str], object] = {}


def _reference_result(workload: str, name: str):
    key = (workload, name)
    cached = _reference_cache.get(key)
    if cached is None:
        db = _DBS[workload]
        graph = build_graph(_QUERIES[workload][name], db.catalog)
        cached = _reference_cache[key] = ReferenceExecutor(db.tables).run(graph)
    return cached


def _governed_scope() -> QueryBudget:
    """A live governor budget with limits far above what these queries
    need — the instrumented paths run, nothing trips."""
    return QueryBudget(
        deadline=Deadline(60_000.0), max_rows=10_000_000
    )


@pytest.mark.parametrize("governed", [False, True], ids=["ungoverned", "governed"])
@pytest.mark.parametrize("workload,name", WORKLOAD_CASES)
def test_batch_executor_matches_reference(workload, name, governed):
    db = _DBS[workload]
    graph = build_graph(_QUERIES[workload][name], db.catalog)
    expected = _reference_result(workload, name)
    executor = Executor(db.tables)
    if governed:
        with governor_scope.activate(_governed_scope()):
            result = executor.run(graph)
    else:
        result = executor.run(graph)
    assert result.columns == expected.columns
    assert tables_equal(result, expected), (workload, name, governed)


# ----------------------------------------------------------------------
# Random grouping sets: cuboid union + partial aggregate states
# ----------------------------------------------------------------------
_GROUP_COLS = [
    "returnflag",
    "linestatus",
    "year(shipdate)",
    "month(shipdate)",
    "quantity",
]
_AGGS = [
    "count(*) as cnt",
    "sum(extendedprice) as total",
    "avg(quantity) as avg_qty",
    "min(discount) as lo",
    "max(discount) as hi",
    "count(distinct quantity) as dq",
]


@st.composite
def grouping_set_queries(draw) -> str:
    pool = draw(
        st.lists(st.sampled_from(_GROUP_COLS), min_size=1, max_size=3, unique=True)
    )
    n_sets = draw(st.integers(min_value=1, max_value=3))
    sets = []
    for _ in range(n_sets):
        subset = draw(
            st.lists(st.sampled_from(pool), min_size=1, unique=True)
        )
        sets.append(tuple(sorted(subset)))
    sets = list(dict.fromkeys(sets))
    clause = ", ".join(f"({', '.join(s)})" for s in sets)
    # Only columns that appear in some grouping set may be selected.
    columns = [c for c in pool if any(c in s for s in sets)]
    aggregates = draw(
        st.lists(st.sampled_from(_AGGS), min_size=1, max_size=3, unique=True)
    )
    select_keys = ", ".join(f"{c} as g{i}" for i, c in enumerate(columns))
    return (
        f"select {select_keys}, {', '.join(aggregates)} "
        f"from Lineitem group by grouping sets ({clause})"
    )


@settings(max_examples=40, deadline=None)
@given(sql=grouping_set_queries())
def test_random_grouping_sets_match_reference(sql):
    graph = build_graph(sql, TPCD_DB.catalog)
    expected = ReferenceExecutor(TPCD_DB.tables).run(graph)
    for batch_rows in (None, 64):
        graph_again = build_graph(sql, TPCD_DB.catalog)
        result = Executor(TPCD_DB.tables, batch_rows=batch_rows).run(graph_again)
        assert tables_equal(result, expected), (sql, batch_rows)
