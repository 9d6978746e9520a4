"""Save/load round-trips for whole databases."""

import pytest

from repro.engine.persist import load_database, save_database
from repro.engine.table import tables_equal
from repro.errors import ReproError


class TestRoundTrip:
    def test_base_tables_round_trip(self, tiny_db, tmp_path):
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        for name in ("Trans", "Loc", "PGroup", "Acct", "Cust"):
            assert tables_equal(tiny_db.table(name), loaded.table(name))

    def test_schema_round_trip(self, tiny_db, tmp_path):
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        schema = loaded.catalog.table("Trans")
        assert schema.column_names == tiny_db.catalog.table("Trans").column_names
        assert schema.is_unique_key({"tid"})
        assert loaded.catalog.find_foreign_key("Trans", "Loc") is not None

    def test_date_values_retyped(self, tiny_db, tmp_path):
        import datetime

        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        value = loaded.table("Trans").rows[0][4]
        assert isinstance(value, datetime.date)

    def test_summary_tables_round_trip(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert "s1" in loaded.summary_tables
        # The restored AST is matched again, without re-materializing.
        result = loaded.rewrite(
            "select faid, count(*) as n from Trans group by faid"
        )
        assert result is not None
        assert tables_equal(
            loaded.execute_graph(result.graph),
            tiny_db.execute(
                "select faid, count(*) as n from Trans group by faid",
                use_summary_tables=False,
            ),
        )

    def test_queries_agree_after_reload(self, tiny_db, tmp_path):
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        sql = (
            "select faid, state, count(*) as n from Trans, Loc "
            "where flid = lid group by faid, state"
        )
        assert tables_equal(
            tiny_db.execute(sql, use_summary_tables=False),
            loaded.execute(sql, use_summary_tables=False),
        )

    def test_empty_database(self, tmp_path):
        from repro.engine import Database

        save_database(Database(), tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert not loaded.catalog.tables


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            load_database(tmp_path / "nope")

    def test_bad_format_version(self, tiny_db, tmp_path):
        import json

        target = save_database(tiny_db, tmp_path / "db")
        manifest = json.loads((target / "catalog.json").read_text())
        manifest["format_version"] = 99
        (target / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError):
            load_database(target)

    def test_row_width_mismatch(self, tiny_db, tmp_path):
        from repro.framing import frame

        target = save_database(tiny_db, tmp_path / "db")
        # A checksummed-but-wrong-width row inside the file is genuine
        # corruption, not a torn tail — still fatal, with line context.
        lines = (target / "PGroup.jsonl").read_text().splitlines()
        lines[0] = frame("[1]")
        (target / "PGroup.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError, match="width mismatch.*line 1"):
            load_database(target)


class TestShellIntegration:
    def test_save_and_open_commands(self, tiny_db, tmp_path):
        import io

        from repro.cli import Shell
        from repro.engine import Database

        out = io.StringIO()
        shell = Shell(tiny_db, out=out)
        assert shell.handle_line(f"\\save {tmp_path / 'snap'}")
        fresh = Shell(Database(), out=out)
        assert fresh.handle_line(f"\\open {tmp_path / 'snap'}")
        fresh.handle_line("select count(*) as n from Trans;")
        assert "(1 rows)" in out.getvalue()

    def test_open_missing_reports_error(self, tmp_path):
        import io

        from repro.cli import Shell
        from repro.engine import Database

        out = io.StringIO()
        shell = Shell(Database(), out=out)
        shell.handle_line(f"\\open {tmp_path / 'missing'}")
        assert "error:" in out.getvalue()

    def test_usage_messages(self):
        import io

        from repro.cli import Shell
        from repro.engine import Database

        out = io.StringIO()
        shell = Shell(Database(), out=out)
        shell.handle_line("\\save")
        shell.handle_line("\\open")
        text = out.getvalue()
        assert "usage: \\save" in text and "usage: \\open" in text


class TestRefreshStateRoundTrip:
    """Deferred-maintenance state survives save/load: refresh mode,
    staleness counters, and the staged delta log itself."""

    def _stage(self, database, row):
        # the write pipeline's apply stage, without waking the scheduler
        database._write_rows("Trans", [row], +1)

    def test_mode_and_staleness_round_trip(self, tiny_db, tmp_path):
        import datetime

        tiny_db.create_summary_table(
            "S1",
            "select faid, count(*) as cnt from Trans group by faid",
            refresh_mode="deferred",
        )
        row = (301, 1, 1, 10, datetime.date(1994, 3, 3), 1, 9.0, 0.0)
        self._stage(tiny_db, row)
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        state = loaded.summary_tables["s1"].refresh
        assert state.mode == "deferred"
        assert state.pending_deltas == 1
        assert loaded.delta_log.lsn == tiny_db.delta_log.lsn
        assert loaded.delta_log.batches() == tiny_db.delta_log.batches()
        tiny_db.close()
        loaded.close()

    def test_loaded_database_can_drain_to_freshness(self, tiny_db, tmp_path):
        import datetime

        sql = "select faid, count(*) as cnt from Trans group by faid"
        tiny_db.create_summary_table("S1", sql, refresh_mode="deferred")
        row = (302, 2, 2, 20, datetime.date(1994, 4, 4), 2, 11.0, 0.1)
        self._stage(tiny_db, row)
        save_database(tiny_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        loaded.drain_refresh()
        summary = loaded.summary_tables["s1"]
        assert summary.refresh.pending_deltas == 0
        assert tables_equal(
            summary.table, loaded.execute(sql, use_summary_tables=False)
        )
        tiny_db.close()
        loaded.close()

    def test_old_format_loads_as_immediate(self, tiny_db, tmp_path):
        import json

        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        target = save_database(tiny_db, tmp_path / "db")
        # Strip the new keys, as a pre-refresh-subsystem save would be.
        manifest = json.loads((target / "catalog.json").read_text())
        manifest.pop("refresh_lsn")
        for entry in manifest["summary_tables"]:
            for key in ("refresh_mode", "pending_deltas", "last_refresh_lsn"):
                entry.pop(key)
        (target / "catalog.json").write_text(json.dumps(manifest))
        loaded = load_database(target)
        state = loaded.summary_tables["s1"].refresh
        assert state.mode == "immediate"
        assert state.pending_deltas == 0
        assert loaded.delta_log.lsn == 0

    def test_fresh_database_writes_no_delta_file(self, tiny_db, tmp_path):
        tiny_db.create_summary_table(
            "S1", "select faid, count(*) as cnt from Trans group by faid"
        )
        target = save_database(tiny_db, tmp_path / "db")
        assert not (target / "deltas.jsonl").exists()
