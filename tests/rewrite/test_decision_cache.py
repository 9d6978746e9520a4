"""The rewrite decision cache: hits must be invisible (bit-identical
rewrites, identical results) and invalidation must be airtight."""

import pytest

from repro.bench.figures import FIGURES, NEGATIVE_FIGURES
from repro.engine.table import tables_equal

AST1 = FIGURES["fig02_q1"][1]
Q1 = FIGURES["fig02_q1"][2]


def delta(db, action):
    """Run ``action`` and return the change in the db's counters."""
    before = db.rewrite_stats()
    result = action()
    after = db.rewrite_stats()
    return result, {k: after[k] - before[k] for k in after}


class TestCachedEqualsCold:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_replayed_sql_identical(self, tiny_db, figure):
        ast_name, ast_sql, query, _ = FIGURES[figure]
        tiny_db.create_summary_table(ast_name, ast_sql)
        cold, cold_counts = delta(tiny_db, lambda: tiny_db.rewrite(query))
        warm, warm_counts = delta(tiny_db, lambda: tiny_db.rewrite(query))
        assert cold is not None and warm is not None
        assert cold_counts["cache_misses"] == 1
        assert warm_counts["cache_hits"] == 1
        assert warm_counts["cache_misses"] == 0
        assert warm.sql == cold.sql  # bit-identical rewritten SQL

    @pytest.mark.parametrize("figure", ["fig02_q1", "fig06_q4", "fig10_q8"])
    def test_replayed_results_identical(self, tiny_db, figure):
        ast_name, ast_sql, query, _ = FIGURES[figure]
        tiny_db.create_summary_table(ast_name, ast_sql)
        cold = tiny_db.execute(query)
        assert tiny_db.rewrite_stats()["cache_misses"] >= 1
        warm = tiny_db.execute(query)
        assert tiny_db.rewrite_stats()["cache_hits"] >= 1
        assert tables_equal(cold, warm)
        # and both agree with the no-summary-tables answer
        plain = tiny_db.execute(query, use_summary_tables=False)
        assert tables_equal(cold, plain)

    @pytest.mark.parametrize("figure", sorted(NEGATIVE_FIGURES))
    def test_negative_decisions_cached(self, tiny_db, figure):
        ast_name, ast_sql, query = NEGATIVE_FIGURES[figure]
        tiny_db.create_summary_table(ast_name, ast_sql)
        cold, cold_counts = delta(tiny_db, lambda: tiny_db.rewrite(query))
        warm, warm_counts = delta(tiny_db, lambda: tiny_db.rewrite(query))
        assert cold is None and warm is None
        assert cold_counts["cache_misses"] == 1
        assert warm_counts["cache_negative_hits"] == 1


class TestInvalidation:
    def prime(self, db):
        db.create_summary_table("AST1", AST1)
        assert db.rewrite(Q1) is not None
        db.metrics.reset()

    def test_create_invalidates(self, tiny_db):
        self.prime(tiny_db)
        tiny_db.create_summary_table(
            "OTHER", "select lid, city from Loc where lid > 0"
        )
        result, counts = delta(tiny_db, lambda: tiny_db.rewrite(Q1))
        assert result is not None
        assert counts["cache_hits"] == 0  # stale entry not replayed
        assert counts["cache_invalidations"] == 1
        assert counts["cache_misses"] == 1

    def test_drop_invalidates(self, tiny_db):
        self.prime(tiny_db)
        tiny_db.drop_summary_table("AST1")
        result, counts = delta(tiny_db, lambda: tiny_db.rewrite(Q1))
        assert result is None  # must NOT replay the dropped summary
        assert counts["cache_hits"] == 0

    def test_refresh_invalidates(self, tiny_db):
        self.prime(tiny_db)
        before = tiny_db.rewrite(Q1)
        tiny_db.refresh_summary_tables()
        result, counts = delta(tiny_db, lambda: tiny_db.rewrite(Q1))
        assert result is not None
        assert result.sql == before.sql  # same decision, recomputed
        assert counts["cache_misses"] == 1

    def test_disable_enable_roundtrip(self, tiny_db):
        self.prime(tiny_db)
        tiny_db.set_summary_table_enabled("AST1", False)
        assert tiny_db.rewrite(Q1) is None
        tiny_db.set_summary_table_enabled("AST1", True)
        restored = tiny_db.rewrite(Q1)
        assert restored is not None

    def test_direct_attribute_toggle_detected(self, tiny_db):
        """Setting ``summary.enabled`` without telling the Database must
        still invalidate: entries record the enabled-name set."""
        self.prime(tiny_db)
        tiny_db.summary_tables["ast1"].enabled = False
        result, counts = delta(tiny_db, lambda: tiny_db.rewrite(Q1))
        assert result is None
        assert counts["cache_hits"] == 0
        tiny_db.summary_tables["ast1"].enabled = True
        assert tiny_db.rewrite(Q1) is not None

    def test_unknown_summary_missing_raises(self, tiny_db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            tiny_db.set_summary_table_enabled("nope", False)


class TestFastPathControls:
    def test_cache_disabled_never_hits(self, tiny_db):
        tiny_db.create_summary_table("AST1", AST1)
        tiny_db.configure_fast_path(cache=False)
        first = tiny_db.rewrite(Q1)
        second = tiny_db.rewrite(Q1)
        assert first.sql == second.sql
        stats = tiny_db.rewrite_stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_stores"] == 0

    def test_zero_capacity_cache(self):
        from repro.catalog import credit_card_catalog
        from repro.engine import Database

        db = Database(credit_card_catalog())
        db.configure_fast_path(cache=False)
        db.load("Trans", [])
        db.load("Loc", [])
        assert db.rewrite("select tid from Trans") is None
        assert db.rewrite_stats()["cache_stores"] == 0
