"""Every paper figure, end to end: the rewrite fires (with the right
pattern where the paper names one), results are identical, and the
negatives stay negative."""

import pytest

from repro.bench import FIGURES, NEGATIVE_FIGURES, make_database, make_experiment
from repro.workloads import small_config


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_rewrites_and_is_equivalent(figure):
    experiment = make_experiment(figure, small_config())
    # prepare() already asserted the pattern and result equivalence.
    assert experiment.rewritten_graph is not None
    assert experiment.explanation


@pytest.mark.parametrize("figure", sorted(NEGATIVE_FIGURES))
def test_negative_figures_do_not_match(figure):
    name, ast_sql, query = NEGATIVE_FIGURES[figure]
    db = make_database(small_config())
    db.create_summary_table(name, ast_sql)
    assert db.rewrite(query) is None


def test_fig02_rewrite_uses_ast_scan_only():
    from repro.qgm.boxes import BaseTableBox

    experiment = make_experiment("fig02_q1", small_config())
    scans = {
        box.table_name
        for box in experiment.rewritten_graph.boxes()
        if isinstance(box, BaseTableBox)
    }
    assert "AST1" in scans
    assert "Trans" not in scans  # the fact table is no longer read
    assert "Loc" in scans  # the rejoin dimension still is


def test_fig02_rewrite_is_equivalent_on_a_non_empty_answer():
    """At ``small_config`` fig02's ``having count(*) > 100`` keeps no
    group, so the figure's own check compares two empty answers."""
    from repro.bench.figures import AST1, Q1
    from repro.bench.harness import Experiment
    from repro.engine.table import tables_equal

    query = Q1.replace("count(*) > 100", "count(*) > 2")
    assert query != Q1
    db = make_database(small_config())
    db.create_summary_table("AST1", AST1)
    experiment = Experiment("fig02_q1 > 2", db, query, "4.2.4").prepare()
    assert "AST1" in experiment.explanation
    original = experiment.run_original()
    assert len(original) > 0
    assert tables_equal(original, experiment.run_rewritten())


def test_fig05_rewrite_matches_paper_newq2():
    """NewQ2's compensation: rejoin PGroup, derive amt from value."""
    experiment = make_experiment("fig05_q2", small_config())
    sql = experiment.explanation
    from repro.qgm.unparse import to_sql

    rendered = to_sql(experiment.rewritten_graph)
    assert "AST2" in rendered
    assert "PGroup" in rendered
    assert "value" in rendered and "disc" in rendered


def test_fig02_speedup_positive():
    experiment = make_experiment("fig02_q1", small_config())
    run = experiment.measure(repeat=2)
    assert run.speedup > 1.0
    assert run.original_rows == run.rewritten_rows
