"""The experiment harness itself: verification must be able to fail."""

import pytest

from repro.bench.harness import Experiment, ExperimentRun, bench_scale
from repro.errors import ReproError

from tests.conftest import fresh_small_db


def _db_with_ast():
    db = fresh_small_db()
    db.create_summary_table(
        "S", "select faid, count(*) as cnt from Trans group by faid"
    )
    return db


class TestExperiment:
    QUERY = "select faid, count(*) as n from Trans group by faid"

    def test_prepare_succeeds_and_measures(self):
        experiment = Experiment("demo", _db_with_ast(), self.QUERY).prepare()
        run = experiment.measure(repeat=1)
        assert isinstance(run, ExperimentRun)
        assert run.speedup > 0

    def test_prepare_rejects_missing_rewrite(self):
        db = fresh_small_db()  # no summary tables at all
        with pytest.raises(ReproError, match="expected a rewrite"):
            Experiment("demo", db, self.QUERY).prepare()

    def test_prepare_rejects_wrong_pattern(self):
        experiment = Experiment(
            "demo", _db_with_ast(), self.QUERY, expected_pattern="5.2"
        )
        with pytest.raises(ReproError, match="expected pattern"):
            experiment.prepare()

    def test_run_rewritten_requires_prepare(self):
        experiment = Experiment("demo", _db_with_ast(), self.QUERY)
        with pytest.raises(ReproError, match="prepare"):
            experiment.run_rewritten()

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert bench_scale() == 0.25
        monkeypatch.delenv("REPRO_SCALE")
        assert bench_scale() == 1.0
