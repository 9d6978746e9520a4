"""Crash-safe persistence: injected crashes mid-save, torn log tails,
generation mismatches — load + verify always recovers to a state where
base tables are intact and every summary is consistent or quarantined.
"""

import datetime
import json

import pytest

from repro.engine.persist import (
    load_database,
    save_database,
    verify_database,
)
from repro.engine.table import tables_equal
from repro.errors import ReproError
from repro.obs import events
from repro.testing import INJECTOR, InjectedFault

SUMMARY_SQL = "select faid, count(*) as cnt, sum(qty) as sqty from Trans group by faid"
NEW_ROW = (301, 1, 1, 10, datetime.date(1994, 3, 3), 1, 9.0, 0.0)


def stage(database, row=NEW_ROW):
    """The write pipeline's apply stage alone: the base row appended and
    staged for deferred maintenance, and the scheduler not woken (keeps
    the delta pending deterministically)."""
    database._write_rows("Trans", [row], +1)


class TestCrashMidSave:
    @pytest.mark.parametrize("point", ["persist.write", "persist.rename"])
    def test_crash_leaves_previous_save_loadable(self, tiny_db, tmp_path, point):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")

        # Mutate, then crash partway through the second save. The fault
        # fires on the 3rd file so some files are already re-written.
        tiny_db.insert_rows("Trans", [NEW_ROW])
        with INJECTOR.injected(point, every=3):
            with pytest.raises(InjectedFault):
                save_database(tiny_db, tmp_path / "db")

        loaded = load_database(target)
        report = verify_database(loaded)
        # Whatever generation each file landed on, recovery leaves every
        # summary consistent with the loaded base tables.
        assert not report.quarantined
        for summary in loaded.summary_tables.values():
            assert tables_equal(
                summary.table,
                loaded.execute(summary.sql, use_summary_tables=False),
            )
        loaded.close()
        tiny_db.close()

    @pytest.mark.parametrize("point", ["persist.write", "persist.rename"])
    def test_crash_on_first_save_keeps_directory_unusable_not_corrupt(
        self, tiny_db, tmp_path, point
    ):
        # Crash before the manifest commit of the very first save: the
        # directory has no catalog.json, so loading reports that plainly.
        with INJECTOR.injected(point):
            with pytest.raises(InjectedFault):
                save_database(tiny_db, tmp_path / "db")
        with pytest.raises(ReproError, match="does not contain"):
            load_database(tmp_path / "db")

    def test_generation_mismatch_rebuilds_summary(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        first_manifest = (target / "catalog.json").read_text()

        # Second save crashes after Trans.jsonl was replaced but before
        # the manifest commit: new base data under the old manifest.
        tiny_db.insert_rows("Trans", [NEW_ROW])
        tiny_db.drain_refresh()
        with INJECTOR.injected(
            "persist.write", every=3
        ):  # catalog is written last; fail before reaching it
            with pytest.raises(InjectedFault):
                save_database(tiny_db, tmp_path / "db")
        assert (target / "catalog.json").read_text() == first_manifest

        loaded = load_database(target)
        report = verify_database(loaded)
        for summary in loaded.summary_tables.values():
            assert tables_equal(
                summary.table,
                loaded.execute(summary.sql, use_summary_tables=False),
            )
        # If any file did land from the new generation, the mismatch was
        # noticed rather than silently trusted.
        if report.rebuilt:
            assert report.anomalies
        loaded.close()
        tiny_db.close()


class TestTornTails:
    def test_torn_delta_tail_truncated_and_repaired(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        stage(tiny_db)
        stage(tiny_db, (302, 2, 2, 20, datetime.date(1994, 4, 4), 2, 11.0, 0.1))
        target = save_database(tiny_db, tmp_path / "db")

        # Tear the last delta record in half, as a crashed OS would.
        text = (target / "deltas.jsonl").read_text()
        (target / "deltas.jsonl").write_text(text[: len(text) - 25])

        loaded = load_database(target)
        assert any("torn tail" in a for a in loaded._load_anomalies)
        assert len(loaded.delta_log) == 1  # intact prefix survived
        report = verify_database(loaded)
        assert report.rebuilt  # the deferred summary was recomputed
        summary = loaded.summary_tables["s1"]
        assert summary.refresh.pending_deltas == 0
        assert not summary.refresh.quarantined
        assert tables_equal(
            summary.table, loaded.execute(SUMMARY_SQL, use_summary_tables=False)
        )
        loaded.close()
        tiny_db.close()

    def test_torn_summary_snapshot_rebuilt(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        text = (target / "S1.jsonl").read_text()
        (target / "S1.jsonl").write_text(text[: len(text) - 7])

        loaded = load_database(target)
        report = verify_database(loaded)
        assert any("S1" in entry for entry in report.rebuilt)
        assert tables_equal(
            loaded.summary_tables["s1"].table,
            loaded.execute(SUMMARY_SQL, use_summary_tables=False),
        )
        loaded.close()
        tiny_db.close()

    def test_torn_base_table_keeps_prefix_and_flags_summaries(
        self, tiny_db, tmp_path
    ):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        lines = (target / "Trans.jsonl").read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:10]
        (target / "Trans.jsonl").write_text(torn)

        loaded = load_database(target)
        assert len(loaded.table("Trans")) == len(lines) - 1
        report = verify_database(loaded)
        # Summaries over the damaged base table are rebuilt against the
        # surviving rows — consistent, not silently wrong.
        assert any("S1" in entry for entry in report.rebuilt)
        assert tables_equal(
            loaded.summary_tables["s1"].table,
            loaded.execute(SUMMARY_SQL, use_summary_tables=False),
        )
        loaded.close()
        tiny_db.close()

    def test_interior_corruption_is_fatal_with_context(self, tiny_db, tmp_path):
        target = save_database(tiny_db, tmp_path / "db")
        lines = (target / "Trans.jsonl").read_text().splitlines()
        lines[1] = "deadbeef {corrupt}"
        (target / "Trans.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError, match="Trans.jsonl.*line 2"):
            load_database(target)


class TestManifestErrors:
    def test_invalid_manifest_json_wrapped(self, tiny_db, tmp_path):
        target = save_database(tiny_db, tmp_path / "db")
        (target / "catalog.json").write_text("{not json")
        with pytest.raises(ReproError, match="catalog.json.*line 1"):
            load_database(target)

    def test_missing_manifest_key_wrapped(self, tiny_db, tmp_path):
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        del manifest["tables"]
        (target / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="missing required key 'tables'"):
            load_database(target)

    def test_summary_without_schema_entry_wrapped(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        manifest["tables"] = [
            t for t in manifest["tables"] if t["name"] != "S1"
        ]
        (target / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="S1.*no schema entry"):
            load_database(target)

    def test_missing_summary_snapshot_wrapped(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        (target / "S1.jsonl").unlink()
        with pytest.raises(ReproError, match="S1.jsonl"):
            load_database(target)

    def test_summary_entry_missing_sql_wrapped(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        del manifest["summary_tables"][0]["sql"]
        (target / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="missing required key 'sql'"):
            load_database(target)


class TestFormatCompatibility:
    def test_future_format_rejected(self, tiny_db, tmp_path):
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        # 99 is from the future; 1 has had no writer since v2 shipped
        for version in (99, 1):
            manifest["format_version"] = version
            (target / "catalog.json").write_text(json.dumps(manifest))
            with pytest.raises(ReproError, match="unsupported save format"):
                load_database(target)

    def test_v2_round_trip_preserves_quarantine(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        tiny_db.quarantine_summary("S1", "poisoned in a previous life")
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        state = loaded.summary_tables["s1"].refresh
        assert state.quarantined
        assert "previous life" in state.quarantine_reason
        # ... and the loaded quarantined summary stays out of routing.
        assert loaded.rewrite(SUMMARY_SQL) is None
        loaded.close()
        tiny_db.close()


class TestVerifyDatabase:
    def test_clean_database_verifies_clean(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert verify_database(loaded).clean
        loaded.close()
        tiny_db.close()

    def test_lsn_ahead_of_log_rebuilds(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        manifest["summary_tables"][0]["last_refresh_lsn"] = 999
        (target / "catalog.json").write_text(json.dumps(manifest))
        loaded = load_database(target)
        report = verify_database(loaded)
        assert any("ahead of delta log" in entry for entry in report.rebuilt)
        assert loaded.summary_tables["s1"].refresh.last_refresh_lsn == 0
        loaded.close()
        tiny_db.close()

    def test_pending_counter_repaired_from_log(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", SUMMARY_SQL, refresh_mode="deferred"
        )
        stage(tiny_db)
        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        manifest["summary_tables"][0]["pending_deltas"] = 7
        (target / "catalog.json").write_text(json.dumps(manifest))
        loaded = load_database(target)
        report = verify_database(loaded)
        assert any("pending_deltas" in fix for fix in report.repaired)
        assert loaded.summary_tables["s1"].refresh.pending_deltas == 1
        loaded.close()
        tiny_db.close()

    def test_repair_false_only_reports(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        text = (target / "S1.jsonl").read_text()
        (target / "S1.jsonl").write_text(text[: len(text) - 7])
        loaded = load_database(target)
        before = list(loaded.summary_tables["s1"].table.rows)
        report = verify_database(loaded, repair=False)
        assert not report.rebuilt and not report.quarantined
        assert any("inconsistent" in a for a in report.anomalies)
        assert loaded.summary_tables["s1"].table.rows == before
        loaded.close()
        tiny_db.close()

    def test_unrebuildable_summary_quarantined(self, tiny_db, tmp_path, monkeypatch):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        target = save_database(tiny_db, tmp_path / "db")
        text = (target / "S1.jsonl").read_text()
        (target / "S1.jsonl").write_text(text[: len(text) - 7])
        loaded = load_database(target)
        # Recompute itself is poisoned: recovery must quarantine, and
        # queries must still answer correctly from base tables.

        def broken(*args, **kwargs):
            raise RuntimeError("exec broken")

        with monkeypatch.context() as patch:
            # recompute is a write's own read: its executor, not the
            # SELECT path's pinned execute_graph
            patch.setattr("repro.asts.maintenance.Executor", broken)
            report = verify_database(loaded)
        assert report.quarantined == ["S1"]
        assert loaded.summary_tables["s1"].refresh.quarantined
        assert loaded.rewrite(SUMMARY_SQL) is None
        result = loaded.execute(SUMMARY_SQL)
        assert tables_equal(
            result, loaded.execute(SUMMARY_SQL, use_summary_tables=False)
        )
        loaded.close()
        tiny_db.close()


class TestRecoveryEvents:
    """Recovery quarantines and re-admits through the database's own
    paths, so it emits what the scheduler and REFRESH emit."""

    @staticmethod
    def truncated(database, tmp_path):
        target = save_database(database, tmp_path / "db")
        text = (target / "S1.jsonl").read_text()
        (target / "S1.jsonl").write_text(text[: len(text) - 7])
        return load_database(target)

    @staticmethod
    def own(database, event):
        return [
            entry for entry in events.tail(events.LOG.capacity)
            if entry["event"] == event and entry.get("database") == database.ident
        ]

    def test_failed_rebuild_emits_quarantine(self, tiny_db, tmp_path, monkeypatch):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        loaded = self.truncated(tiny_db, tmp_path)

        def broken(*args, **kwargs):
            raise RuntimeError("exec broken")

        with monkeypatch.context() as patch:
            patch.setattr("repro.asts.maintenance.Executor", broken)
            assert verify_database(loaded).quarantined == ["S1"]
        (entry,) = self.own(loaded, "summary.quarantine")
        assert entry["summary"] == "S1"
        assert entry["reason"].startswith("recovery rebuild failed: exec broken")
        loaded.close()
        tiny_db.close()

    def test_rebuilt_quarantined_summary_emits_readmit(self, tiny_db, tmp_path):
        tiny_db.create_summary_table("S1", SUMMARY_SQL)
        tiny_db.quarantine_summary("S1", "poisoned")
        loaded = self.truncated(tiny_db, tmp_path)
        assert loaded.summary_tables["s1"].refresh.quarantined
        assert verify_database(loaded).rebuilt
        assert not loaded.summary_tables["s1"].refresh.quarantined
        (entry,) = self.own(loaded, "summary.readmit")
        assert entry["summary"] == "S1"
        assert not self.own(tiny_db, "summary.readmit")
        loaded.close()
        tiny_db.close()
