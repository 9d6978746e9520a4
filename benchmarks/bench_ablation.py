"""Ablation benchmarks for two design choices DESIGN.md calls out.

1. **Smallest-cuboid selection** (Section 5.1: "to minimize the amount of
   regrouping in the compensation, the cuboid with the smallest number of
   grouping columns is selected"). The ablation picks the *largest*
   usable cuboid instead; the compensation then scans and regroups more
   summary rows.
2. **Column-equivalence classes** (Section 4.1.1's example: ``aid`` is
   derived from ``faid`` via the ``faid = aid`` join predicate). The
   ablation disables them; Figure 5's match must disappear, so the query
   falls back to the base tables entirely.
"""

import pytest

from repro.bench.figures import AST2, AST11, Q2, Q11_1, make_database
from repro.bench.harness import bench_scale
from repro.matching.navigator import match_graphs, root_matches
from repro.rewrite.rewriter import apply_match
from repro.workloads import bench_config


@pytest.fixture(scope="module")
def cube_db():
    db = make_database(bench_config(bench_scale()))
    db.create_summary_table("AST11", AST11)
    return db


def _plan_with_options(db, query, options):
    graph = db.bind(query)
    summary = db.summary_tables["ast11"]
    ctx = match_graphs(graph, summary.graph, options=options)
    candidates = root_matches(graph, summary.graph, ctx)
    assert candidates, "expected a match"
    apply_match(graph, candidates[0], summary)
    graph.validate()
    return graph


def test_smallest_cuboid(benchmark, cube_db):
    plan = _plan_with_options(cube_db, Q11_1, {"prefer_small_cuboid": True})
    benchmark(cube_db.execute_graph, plan)


def test_largest_cuboid_ablation(benchmark, cube_db):
    plan = _plan_with_options(cube_db, Q11_1, {"prefer_small_cuboid": False})
    result = benchmark(cube_db.execute_graph, plan)
    # Same answer, more work: the point of the Section 5.1 rule.
    from repro.engine.table import tables_equal

    baseline = cube_db.execute_graph(
        _plan_with_options(cube_db, Q11_1, {"prefer_small_cuboid": True})
    )
    assert tables_equal(result, baseline)


@pytest.fixture(scope="module")
def equivalence_db():
    db = make_database(bench_config(bench_scale()))
    db.create_summary_table("AST2", AST2)
    return db


def test_equivalence_enables_fig05(equivalence_db):
    """Not a timing benchmark: the ablation changes *matchability*."""
    graph = equivalence_db.bind(Q2)
    summary = equivalence_db.summary_tables["ast2"]
    with_classes = root_matches(
        graph,
        summary.graph,
        match_graphs(graph, summary.graph, {"column_equivalence": True}),
    )
    without = root_matches(
        graph,
        summary.graph,
        match_graphs(graph, summary.graph, {"column_equivalence": False}),
    )
    assert with_classes and not without


def test_fig05_with_equivalence(benchmark, equivalence_db):
    plan = equivalence_db.rewrite(Q2)
    assert plan is not None
    benchmark(equivalence_db.execute_graph, plan.graph)


def test_fig05_without_equivalence_falls_back(benchmark, equivalence_db):
    # No match -> the query must run against the base tables.
    benchmark(equivalence_db.execute, Q2, use_summary_tables=False)
