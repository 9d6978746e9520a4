"""Fingerprint stability across sessions, processes, and persist/reload.

The semantic result cache keys on ``fingerprint(graph).key`` plus the
session knobs that can change a query's answer. Those keys are only
sound if the fingerprint is a pure function of the query's structure —
identical for the same SQL no matter which ``Database`` instance bound
it — and if every answer-changing knob combination maps to a distinct
cache key.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.engine.persist import load_database, save_database
from repro.qgm.fingerprint import Hole, fingerprint, shape_key
from repro.refresh.policy import RefreshAge
from repro.server.result_cache import cache_key

QUERIES = [
    "select faid, sum(price) as total from Trans group by faid",
    "select faid, flid, year(date) as year, count(*) as cnt "
    "from Trans group by faid, flid, year(date)",
    "select count(*) as cnt from Trans where year(date) = 1990",
]


def _fresh_db() -> Database:
    return Database(credit_card_catalog())


class TestCrossSessionStability:
    def test_two_sessions_agree(self):
        """Two independently constructed databases (separate catalogs,
        separate parses) fingerprint the same SQL identically."""
        first, second = _fresh_db(), _fresh_db()
        for sql in QUERIES:
            a = fingerprint(first.bind(sql))
            b = fingerprint(second.bind(sql))
            assert a.key == b.key
            assert a.hexdigest() == b.hexdigest()

    def test_rebind_in_one_session_agrees(self):
        db = _fresh_db()
        for sql in QUERIES:
            assert fingerprint(db.bind(sql)).key == fingerprint(db.bind(sql)).key

    def test_different_queries_differ(self):
        db = _fresh_db()
        keys = {fingerprint(db.bind(sql)).key for sql in QUERIES}
        assert len(keys) == len(QUERIES)

    def test_persist_reload_agrees(self, tmp_path, tiny_db):
        """A fingerprint computed before ``\\save`` equals one computed
        after ``\\open`` in a fresh process-equivalent database."""
        tiny_db.create_summary_table(
            "FPAst",
            "select faid, count(*) as cnt from Trans group by faid",
        )
        before = {
            sql: fingerprint(tiny_db.bind(sql)).key for sql in QUERIES
        }
        save_database(tiny_db, tmp_path / "db")
        reloaded = load_database(tmp_path / "db")
        for sql, key in before.items():
            assert fingerprint(reloaded.bind(sql)).key == key


class TestShapeKeyStability:
    """The constant-free key the decision cache files plans under is as
    much a pure function of the query's structure as the exact one."""

    TEMPLATE = (
        "select flid, year(date) % 100 as yr, count(*) as cnt from Trans "
        "where year(date) > {} and qty in (1, 2) group by flid, year(date) % 100 "
        "having count(*) > {} limit 7"
    )

    def shape(self, db, *values):
        return shape_key(fingerprint(db.bind(self.TEMPLATE.format(*values))))

    def test_two_sessions_agree(self):
        first, second = _fresh_db(), _fresh_db()
        assert self.shape(first, 1990, 3) == self.shape(second, 1990, 3)
        assert (
            self.shape(first, 1990, 3).hexdigest()
            == self.shape(second, 1990, 3).hexdigest()
        )

    def test_bindings_of_one_shape_agree_across_sessions(self):
        first, second = _fresh_db(), _fresh_db()
        assert self.shape(first, 1990, 3) == self.shape(second, 1995, 12)
        assert fingerprint(first.bind(self.TEMPLATE.format(1990, 3))) != fingerprint(
            second.bind(self.TEMPLATE.format(1995, 12))
        )

    def test_rank_and_type_split_shapes(self):
        db = _fresh_db()
        base = self.shape(db, 1990, 3)
        assert base != self.shape(db, 3, 1990)      # the order flipped
        assert base != self.shape(db, 1990, 1990)   # the two coincide
        assert base != self.shape(db, 1990, 3.5)    # int against float
        assert base != self.shape(db, 1990, 200)    # crossed the kept 100

    def test_only_comparison_constants_are_templated(self):
        db = _fresh_db()
        key = repr(self.shape(db, 1990, 3).key)
        assert key.count("Hole(") == 2
        for kept in ("% Lit(100)", "Lit(1), Lit(2)", ", 7)"):
            assert kept in key
        assert "Lit(1990)" not in key and "Lit(3)" not in key
        assert Hole("int", 0) != Hole("int", 1)

    def test_nothing_to_template_is_the_exact_key(self):
        db = _fresh_db()
        for sql in QUERIES[:2]:
            exact = fingerprint(db.bind(sql))
            assert shape_key(exact) is exact

    def test_persist_reload_agrees(self, tmp_path, tiny_db):
        before = self.shape(tiny_db, 1990, 3)
        save_database(tiny_db, tmp_path / "db")
        assert self.shape(load_database(tmp_path / "db"), 1991, 4) == before


class TestKnobKeys:
    """Property: cache keys split exactly on answer-changing knobs."""

    knob = st.tuples(
        st.sampled_from([None, 0, 1, 2, 5]),  # REFRESH AGE max_pending
        st.booleans(),  # use_summary_tables
    )

    @settings(max_examples=60, deadline=None)
    @given(left=knob, right=knob)
    def test_keys_equal_iff_knobs_equal(self, left, right):
        db = _fresh_db()
        fp = fingerprint(db.bind(QUERIES[0])).key
        key_left = cache_key(fp, RefreshAge(left[0]), left[1])
        key_right = cache_key(fp, RefreshAge(right[0]), right[1])
        assert (key_left == key_right) == (left == right)

    def test_same_knobs_different_query_differ(self):
        db = _fresh_db()
        age = RefreshAge.CURRENT
        keys = {
            cache_key(fingerprint(db.bind(sql)).key, age, True)
            for sql in QUERIES
        }
        assert len(keys) == len(QUERIES)
