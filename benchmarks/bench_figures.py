"""Benchmarks for the paper's worked figures (2, 5-8, 10, 11, 13, 14).

For each figure id in ``repro.bench.figures.FIGURES``: runs the original
query and the rewritten (summary-table) plan on identical data and
reports both timings.  Result equivalence is asserted during setup.
Scale via REPRO_SCALE; one figure with ``-k fig02_q1``.
"""

import pytest

from repro.bench.figures import FIGURES, make_bench_experiment


@pytest.fixture(scope="module", params=list(FIGURES))
def experiment(request):
    return make_bench_experiment(request.param)


def test_original(benchmark, experiment):
    """The figure's query against the base tables."""
    result = benchmark(experiment.run_original)
    assert len(result) == len(experiment.run_rewritten())


def test_rewritten(benchmark, experiment):
    """The figure's rewritten query against its AST."""
    result = benchmark(experiment.run_rewritten)
    assert len(result) == len(experiment.run_original())
