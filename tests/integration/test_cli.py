"""The interactive shell (driven through StringIO, no subprocess)."""

import io

import pytest

from repro.cli import Shell, demo_database
from repro.engine.database import Database


def run_shell(script: str, database: Database | None = None) -> str:
    out = io.StringIO()
    shell = Shell(database or Database(), out=out)
    shell.run(io.StringIO(script), interactive=False)
    return out.getvalue()


class TestShellBasics:
    def test_ddl_query_roundtrip(self):
        output = run_shell(
            "create table T (a integer not null, primary key (a));\n"
            "insert into T values (1), (2), (3);\n"
            "select count(*) as n from T;\n"
        )
        assert "table T created" in output
        assert "3 row(s) inserted" in output
        assert "(1 rows)" in output

    def test_multiline_statement(self):
        output = run_shell(
            "create table T (a integer not null);\n"
            "select a\n"
            "from T\n"
            "where a > 0;\n"
        )
        assert "(0 rows)" in output

    def test_two_statements_on_one_line(self):
        output = run_shell(
            "create table T (a integer not null); insert into T values (1);\n"
            "select a from T where a = 1; select a from T where a = 2;\n"
        )
        assert "1 row(s) inserted" in output
        assert "(1 rows)" in output and "(0 rows)" in output
        assert "error" not in output

    def test_describe(self):
        output = run_shell(
            "create table T (a integer not null);\n\\d\n"
        )
        assert "table T (0 rows): a" in output

    def test_describe_empty(self):
        assert "(no tables)" in run_shell("\\d\n")

    def test_error_reported_not_fatal(self):
        output = run_shell(
            "select broken from Nowhere;\nselect 1 as x from Nowhere;\n"
        )
        assert output.count("error:") == 2

    def test_quit(self):
        output = run_shell("\\q\nselect nope;\n")
        assert "error" not in output

    def test_timing_toggle(self):
        output = run_shell(
            "\\timing\n"
            "create table T (a integer not null);\n"
        )
        assert "timing is on" in output
        assert "time:" in output

    def test_unknown_command(self):
        assert "unknown command" in run_shell("\\frobnicate\n")


class TestShellWithSummaries:
    def test_noast_toggle_changes_plan(self):
        db = demo_database()
        out = run_shell(
            "explain select faid, count(*) as n from Trans group by faid;\n",
            db,
        )
        assert "AST1" in out
        out_disabled = run_shell(
            "\\noast\n"
            "select faid, count(*) as n from Trans group by faid;\n",
            db,
        )
        assert "rewriting disabled" in out_disabled

    def test_demo_database_has_ast1(self):
        db = demo_database()
        assert "ast1" in db.summary_tables
        output = run_shell("\\d\n", db)
        assert "summary table AST1" in output


class TestCliMain:
    def test_script_file(self, tmp_path):
        script = tmp_path / "script.sql"
        script.write_text(
            "create table T (a integer not null);\n"
            "insert into T values (5);\n"
            "select a from T;\n"
        )
        from repro.cli import main

        assert main([str(script)]) == 0

    def test_unknown_command_fails_the_script(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "script.sql"
        script.write_text("\\nosuch\n")
        assert main([str(script)]) == 1

    def test_a_failed_refresh_fails_the_script(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "script.sql"
        script.write_text("\\refresh nope\n")
        assert main([str(script)]) == 1

    @pytest.mark.parametrize("command", [
        "\\refresh nope", "\\metrics nope", "\\status nope", "\\connect",
        "\\save", "\\open", "\\open /nonexistent/saved-db",
    ])
    def test_every_failed_command_counts(self, command):
        shell = Shell(out=io.StringIO())
        shell.handle_line(command)
        assert shell.out.getvalue().startswith(("error: ", "usage: "))
        assert shell.errors == 1

    def test_failed_save_counts(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        shell = Shell(out=io.StringIO())
        shell.handle_line(f"\\save {blocker}/db")
        assert shell.out.getvalue().startswith("error: ")
        assert shell.errors == 1

    def test_metrics_of_a_server_that_went_away(self):
        from repro.server.server import QueryServer

        server = QueryServer(Database())
        host, port = server.start_in_thread()
        shell = Shell(out=io.StringIO())
        shell.handle_line(f"\\connect {host}:{port}")
        server.stop()
        for command in ("\\metrics json", "\\metrics"):
            assert shell.handle_line(command)  # the shell goes on
        lines = shell.out.getvalue().splitlines()
        assert lines[1] == "error: server closed the connection"
        assert lines[2].startswith("error: cannot reach any server")
        assert shell.errors == 2

    @pytest.mark.parametrize(
        "command", ["\\governor", "\\stats", "\\slowlog", "\\trace on"]
    )
    def test_deleted_commands_are_unknown(self, command):
        shell = Shell(out=io.StringIO())
        shell.handle_line(command)
        assert f"unknown command {command} " in shell.out.getvalue()
        assert shell.errors == 1


class TestRefreshCommand:
    SETUP = (
        "create table T (a integer not null, b integer not null);\n"
        "insert into T values (1, 10), (1, 20), (2, 30);\n"
        "create summary table S refresh deferred as "
        "select a, count(*) as cnt from T group by a;\n"
    )

    def test_status_lists_modes_and_counters(self):
        output = run_shell(self.SETUP + "\\refresh\n")
        assert "refresh deferred" in output  # CREATE status line
        assert "session refresh age: 0" in output
        assert "S: deferred" in output
        assert "scheduler:" in output

    def test_status_empty_database(self):
        assert "(no summary tables)" in run_shell("\\refresh\n")

    def test_drain_command(self):
        output = run_shell(
            self.SETUP
            + "insert into T values (3, 40);\n"
            + "\\refresh drain\n"
            + "\\refresh\n"
        )
        assert "refresh queue drained" in output
        assert "0 pending delta batch(es)" in output

    def test_named_refresh(self):
        output = run_shell(self.SETUP + "\\refresh S\n")
        assert "refreshed: S" in output

    def test_named_refresh_unknown(self):
        output = run_shell("\\refresh nope\n")
        assert "error:" in output

    def test_set_refresh_age_statement(self):
        output = run_shell(
            self.SETUP
            + "insert into T values (3, 40);\n"
            + "set refresh age any;\n"
            + "select a, cnt from S;\n"
        )
        assert "refresh age set to ANY" in output


class TestStatusCommand:
    def test_local_status_renders(self):
        output = run_shell(
            "create table T (a integer not null);\n"
            "select count(*) as n from T;\n"
            "\\status\n"
        )
        assert "status (local): role=local" in output
        assert "governor:" in output
        assert "refresh: 0 queued" in output
        assert "tracing:" in output
        assert "latency (ms):" in output
        assert "p99=" in output  # live histograms carry quantiles

    def test_status_usage(self):
        assert "usage: \\status" in run_shell("\\status extra\n")

    def test_status_reflects_trace_sample(self):
        from repro.obs import spans

        spans.uninstall()
        try:
            output = run_shell(
                "set trace sample 0.5;\n"
                "\\status\n"
                "set trace sample off;\n"
                "\\status\n"
            )
            assert "trace sample rate set to 0.5" in output
            assert "tracing: on (sample rate 0.5" in output
            assert "request tracing disabled" in output
            assert "tracing: off (SET TRACE SAMPLE <rate> enables it)" in output
        finally:
            spans.uninstall()


class TestDiagnostics:
    def test_trace_and_slowlog_script(self, tiny_db):
        """``SET TRACE SAMPLE 1`` samples every statement, ``\\trace last``
        renders the match trace its ``db.rewrite`` span carries, and
        ``\\status`` lists the event log's ``query.slow`` entries."""
        from repro.obs import events, spans

        tiny_db.create_summary_table(
            "AST1",
            "select faid, flid, year(date) as year, count(*) as cnt "
            "from Trans group by faid, flid, year(date)",
        )
        events.LOG.clear()
        spans.uninstall()
        try:
            output = run_shell(
                "set trace sample 1;\n"
                "select faid, count(*) as n from Trans group by faid;\n"
                "\\trace last\n"
                "set trace sample off;\n"
                "set slow query 0;\n"
                "select flid, count(*) as n from Trans group by flid;\n"
                "\\status\n",
                tiny_db,
            )
            assert spans.TRACER is None
        finally:
            spans.uninstall()
        traced = output.split("trace sample rate set to 1\n")[1].split(
            "request tracing disabled"
        )[0]
        query = "select faid, count(*) as n from Trans group by faid"
        assert f"\n  query: {query}\n" in traced
        assert "\n  [AST1] rewritten via 4.2.4\n" in traced
        assert (
            "\n    - GroupBy(GB-2Q) vs GroupBy(GB-2A): matched 4.1.2 (compensated)\n"
            in traced
        )
        assert "\n    - Select(Sel-3Q) vs Select(Sel-3A): matched 4.2.4" in traced
        slowlog = output.split("slow query threshold set to 0 ms\n")[1]
        assert "slow queries: over 0 ms logged" in slowlog
        assert " ms  select flid, count(*) as n from Trans group by flid" in slowlog
