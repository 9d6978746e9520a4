"""Interactive SQL shell with transparent summary-table rewriting.

Run ``python -m repro`` for an empty database, or
``python -m repro --demo`` to start with the paper's credit-card schema
pre-loaded with synthetic data and AST1 materialized.

Statements end with ``;``. Besides the SQL subset (see README), the
shell understands:

* ``\\d`` — list tables and summary tables
* ``\\timing`` — toggle per-query timing
* ``\\noast`` — toggle summary-table rewriting off/on
* ``\\refresh`` — per-summary refresh mode and staleness;
  ``\\refresh drain`` applies every staged delta and waits;
  ``\\refresh NAME ...`` recomputes the named summaries now
* ``\\trace last`` — renders the newest match trace in the span ring
  (``SET TRACE SAMPLE 1`` records one per statement, ``OFF`` stops)
* ``\\metrics`` — the unified metrics registry (matching fast path,
  scheduler, executor, governor, phase timers); ``\\metrics json`` /
  ``\\metrics prom`` dump machine-readable forms, ``\\metrics reset``
  zeroes everything
* ``\\status`` — the state snapshot: governor limits (``SET QUERY
  TIMEOUT|MAXROWS|MAXMEM``), admission and circuit breaker, memory,
  refresh backlog, tracing, the slow-query threshold (``SET SLOW QUERY
  <ms> | OFF``) and this database's newest events in the event log
* ``\\connect HOST:PORT`` — switch to remote mode: subsequent SQL,
  ``\\metrics`` and ``\\status`` go to a ``repro serve`` server over
  the wire protocol (docs/SERVER.md)
* ``\\disconnect`` — switch back to the in-process database
* ``\\save DIR`` / ``\\open DIR`` — save the database to a directory,
  or load one (and run the recovery pass over it)
* ``\\q`` — quit

A command that fails — unknown, misused or refused — counts like a
failed statement: a script holding one exits 1.

``repro serve [--demo] [--host H] [--port P] ...`` runs the query
server instead of the shell; see ``repro serve --help``.

``EXPLAIN SELECT ...`` prints the QGM graph, the match, and the
rewritten SQL; ``EXPLAIN ANALYZE SELECT ...`` also executes the query
and reports phase timings plus the per-AST match verdict table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO

from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ReproError
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.obs.trace import render_trace
from repro.sql.statements import split_statements


class Shell:
    """The REPL engine, separated from stdin/stdout for testability."""

    def __init__(self, database: Database | None = None, out: IO[str] | None = None):
        self.database = database or Database()
        self.out = out or sys.stdout
        self.timing = False
        self.use_summary_tables = True
        #: a live ReproClient when \connect-ed to a server, else None
        self.remote = None
        #: statements that failed (drives the non-interactive exit code)
        self.errors = 0

    # ------------------------------------------------------------------
    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def fail(self, text: str) -> bool:
        """Print ``text`` and count a failed command (a script exits 1)."""
        self.write(text)
        self.errors += 1
        return True

    def handle_line(self, line: str) -> bool:
        """Process one complete input (a backslash command or
        ';'-terminated statements). Returns False to quit."""
        stripped = line.strip()
        if stripped.startswith("\\"):
            return self._handle_command(stripped)
        for statement in split_statements(stripped):
            self._handle_sql(statement)
        return True

    def _handle_command(self, command: str) -> bool:
        parts = command.split()
        name = parts[0]
        if name == "\\q":
            return False
        if name == "\\d":
            self._describe()
            return True
        if name == "\\timing":
            self.timing = not self.timing
            self.write(f"timing is {'on' if self.timing else 'off'}")
            return True
        if name == "\\noast":
            self.use_summary_tables = not self.use_summary_tables
            state = "disabled" if not self.use_summary_tables else "enabled"
            self.write(f"summary-table rewriting {state}")
            return True
        if name == "\\refresh":
            return self._handle_refresh(parts)
        if name == "\\trace" and parts[1:] == ["last"]:
            return self._handle_trace_last()
        if name == "\\metrics":
            return self._handle_metrics(parts)
        if name == "\\status":
            return self._handle_status(parts)
        if name == "\\connect":
            return self._handle_connect(parts)
        if name == "\\disconnect":
            return self._handle_disconnect()
        if name == "\\save":
            return self._handle_save(parts)
        if name == "\\open":
            return self._handle_open(parts)
        return self.fail(
            f"unknown command {command} "
            "(try \\d, \\timing, \\noast, \\refresh, \\trace last, "
            "\\metrics, \\status, \\connect HOST:PORT, \\disconnect, "
            "\\save DIR, \\open DIR, \\q)"
        )

    def _handle_refresh(self, parts: list[str]) -> bool:
        if len(parts) >= 2 and parts[1] == "drain":
            self.database.drain_refresh()
            self.write("refresh queue drained; all summary tables fresh")
            return True
        if len(parts) >= 2:
            try:
                self.database.refresh_summary_tables(parts[1:])
            except ReproError as error:
                return self.fail(f"error: {error}")
            self.write(f"refreshed: {', '.join(parts[1:])}")
            return True
        status = self.database.status()["refresh"]["summaries"]
        if not status:
            self.write("(no summary tables)")
            return True
        self.write(
            f"session refresh age: {self.database.refresh_age.describe()}"
        )
        for entry in status:
            line = (
                f"{entry['name']}: {entry['mode']}, "
                f"{entry['pending_deltas']} pending delta batch(es), "
                f"last refresh at lsn {entry['last_refresh_lsn']}"
            )
            if entry.get("quarantined"):
                line += (
                    f" QUARANTINED ({entry['quarantine_reason']}; "
                    "REFRESH SUMMARY TABLE re-admits)"
                )
            if "last_fallback" in entry:
                line += f" [last fallback: {entry['last_fallback']}]"
            self.write(line)
        scheduler = self.database.refresh_scheduler
        self.write(
            f"scheduler: {scheduler.refreshes_applied} refresh(es) applied, "
            f"{scheduler.batches_applied} delta batch(es) merged, "
            f"{scheduler.fallback_recomputes} fallback recompute(s), "
            f"{scheduler.quarantines} quarantine(s), "
            f"{scheduler.queued} queued"
        )
        return True

    def _handle_trace_last(self) -> bool:
        tracer = _spans.TRACER
        spans = tracer.buffer.snapshot() if tracer is not None else []
        for span in reversed(spans):
            if span["name"] == "db.rewrite" and "match_trace" in span["attrs"]:
                self.write(render_trace(
                    span["attrs"]["match_trace"], f"trace {span['trace_id']}"
                ))
                return True
        self.write("(no traces recorded; try SET TRACE SAMPLE 1; first)")
        return True

    def _handle_metrics(self, parts: list[str]) -> bool:
        if self.remote is not None:
            return self._handle_remote_metrics(parts)
        metrics = self.database.metrics
        if len(parts) == 2 and parts[1] == "reset":
            metrics.reset()
            self.write("metrics reset")
            return True
        if len(parts) == 2 and parts[1] == "json":
            self.write(metrics.to_json())
            return True
        if len(parts) == 2 and parts[1] in ("prom", "prometheus"):
            self.write(metrics.to_prometheus().rstrip("\n"))
            return True
        if len(parts) != 1:
            return self.fail("usage: \\metrics [json|prom|reset]")
        dump = metrics.to_dict()
        self._render_metrics(dump)
        return True

    def _handle_remote_metrics(self, parts: list[str]) -> bool:
        json_dump = parts[1:] == ["json"]
        if len(parts) != 1 and not json_dump:
            return self.fail("usage (remote): \\metrics [json]")
        try:
            dump = self.remote.metrics()
        except ReproError as error:
            return self.fail(f"error: {error}")
        if json_dump:
            import json

            self.write(json.dumps(dump, indent=2, sort_keys=True))
        else:
            self._render_metrics(dump)
        return True

    def _render_metrics(self, dump: dict) -> None:
        if not dump:
            self.write("(no metrics recorded)")
            return
        width = max(len(name) for name in dump)
        for name in sorted(dump):
            entry = dump[name]
            if entry["type"] == "histogram":
                count = entry["count"]
                mean = entry["sum"] / count if count else 0.0
                value = f"count={count} mean={mean:.3f}"
                # quantiles (absent from dumps made by older servers)
                p50, p95, p99 = (
                    entry.get("p50"), entry.get("p95"), entry.get("p99")
                )
                if None not in (p50, p95, p99):
                    value += f" p50={p50:.3f} p95={p95:.3f} p99={p99:.3f}"
            else:
                value = f"{entry['value']:g}"
            self.write(f"  {name:<{width}} {value}")

    def _handle_status(self, parts: list[str]) -> bool:
        if len(parts) != 1:
            return self.fail("usage: \\status")
        # unconnected: the in-process subset of the server's ``status``
        # op — no wire, no WAL, no result cache
        try:
            status = (
                self.remote.status() if self.remote is not None
                else {"role": "local", **self.database.status()}
            )
        except ReproError as error:
            return self.fail(f"error: {error}")
        self._render_status(status, remote=self.remote is not None)
        return True

    def _render_status(self, status: dict, remote: bool) -> None:
        where = "remote" if remote else "local"
        line = f"status ({where}): role={status.get('role', '?')}"
        if "address" in status:
            line += f" address={status['address']}"
        if "uptime_s" in status:
            line += f" uptime={status['uptime_s']:.1f}s"
        self.write(line)
        if "connections" in status:
            misses = status.get("misses", {})
            self.write(
                f"  requests: {status.get('requests', 0)} "
                f"({status.get('errors', 0)} errors), "
                f"{status['connections']} connection(s) open; SELECT "
                f"misses: {misses.get('loop', 0)} on the loop, "
                f"{misses.get('pool', 0)} on the pool"
            )
        replication = status.get("replication")
        if replication:
            line = (
                f"  replication: lag {replication.get('lag', 0)} record(s)"
                f" / {replication.get('lag_seconds', 0.0):g}s, "
                f"applied lsn {replication.get('applied_lsn', 0)}"
            )
            if "subscribers" in replication:
                line += f", {replication['subscribers']} subscriber(s)"
            self.write(line)
        wal = status.get("wal")
        if wal:
            line = (
                f"  wal: {wal.get('depth_since_checkpoint', 0)} record(s) "
                f"since checkpoint (durable lsn {wal.get('durable_lsn', 0)}, "
                f"checkpoint lsn {wal.get('checkpoint_lsn', 0)}, "
                f"{wal.get('checkpoints', 0)} checkpoint(s), "
                f"last {wal.get('last_checkpoint_ms', 0.0):g} ms, "
                f"sync={wal.get('sync', '?')})"
            )
            if wal.get("disk_full"):
                line += " DISK FULL — mutations refused until space returns"
            self.write(line)
        cache = status.get("cache")
        if cache:
            rate = cache.get("hit_rate")
            rate_text = f"{rate:.1%}" if rate is not None else "n/a"
            line = (
                f"  cache: {cache.get('entries', 0)} entries, "
                f"hit rate {rate_text} "
                f"({cache.get('hits', 0)} hits / "
                f"{cache.get('stale_hits', 0)} stale / "
                f"{cache.get('misses', 0)} misses)"
            )
            if "bytes" in cache:
                limit = cache.get("max_bytes")
                line += f", {cache['bytes']} byte(s)"
                if limit is not None:
                    line += f" of {limit}"
            self.write(line)
        memory = status.get("memory")
        if memory:
            limit = memory.get("limit")
            limit_text = f"{limit} byte(s)" if limit is not None else "off"
            self.write(
                f"  memory: limit {limit_text}, "
                f"{memory.get('reserved_bytes', 0)} reserved "
                f"(peak {memory.get('peak_bytes', 0)}), "
                f"{memory.get('denials', 0)} denial(s), "
                f"{memory.get('sheds', 0)} shed(s) freeing "
                f"{memory.get('shed_bytes', 0)} byte(s)"
            )
        # of the database's newest events: its slow queries, last governor one
        events = status.get("events", [])
        governor = status.get("governor")
        if governor:
            admission = governor.get("admission", {})
            breaker = governor.get("breaker", {})
            self.write(
                f"  governor: {admission.get('running', 0)} running, "
                f"{admission.get('waiting', 0)} queued; breaker "
                f"{breaker.get('open', 0)} open / "
                f"{breaker.get('half_open_due', 0)} half-open "
                f"({breaker.get('tracked', 0)} tracked; "
                f"{breaker.get('threshold', '?')} timeouts open a shape for "
                f"{breaker.get('cooldown_s', 0):g} s)"
            )
            limits = governor.get("limits", {})
            self.write(
                f"    limits: timeout {_onoff(limits.get('timeout_ms'), ' ms')}"
                f", maxrows {_onoff(limits.get('max_rows'))}"
                f", maxmem {_onoff(limits.get('max_mem'), ' bytes')}"
                f", match budget {_onoff(limits.get('match_budget'))}"
            )
            if admission.get("enabled"):
                self.write(
                    f"    admission: {admission['max_concurrent']} concurrent, "
                    f"{admission['max_queue']} queued, "
                    f"{admission['queue_timeout_ms']:g} ms queue wait"
                )
            else:
                self.write("    admission: off (unbounded concurrency)")
            for entry in reversed(events):
                if entry["event"] == "governor.degraded":
                    self.write(
                        "    last event: degraded to base tables: "
                        f"{entry['detail']}"
                    )
                    break
                if entry["event"].startswith("breaker."):
                    self.write(
                        f"    last event: {entry['event']} "
                        f"(shape {entry['fingerprint']})"
                    )
                    break
        refresh = status.get("refresh")
        if refresh:
            line = (
                f"  refresh: {refresh.get('queued', 0)} queued, "
                f"{refresh.get('pending_retries', 0)} retry(ies) pending"
            )
            quarantined = refresh.get("quarantined") or []
            if quarantined:
                line += f", quarantined: {', '.join(quarantined)}"
            recomputes = refresh.get("recomputes")
            if recomputes:
                counts = ", ".join(f"{k} x{n}" for k, n in recomputes.items())
                line += f"; recomputed: {counts}"
            self.write(line)
        tracing = status.get("tracing")
        if tracing:
            if tracing.get("enabled"):
                self.write(
                    f"  tracing: on (sample rate "
                    f"{tracing.get('sample_rate', 1.0):g}, "
                    f"{tracing.get('spans', 0)} span(s) buffered)"
                )
            else:
                self.write(
                    "  tracing: off (SET TRACE SAMPLE <rate> enables it)"
                )
        if "slow_query_ms" in status:
            threshold = status["slow_query_ms"]
            self.write(
                "  slow queries: not logged (SET SLOW QUERY <ms> enables it)"
                if threshold is None
                else f"  slow queries: over {threshold:g} ms logged"
            )
        for entry in events:
            if entry["event"] == "query.slow":
                sql = " ".join(entry["sql"].split())
                if len(sql) > 60:
                    sql = sql[:57] + "..."
                line = f"    {entry['ms']:>10.3f} ms  {sql}"
                if "trace_id" in entry:
                    line += f"  [trace {entry['trace_id'][:8]}]"
                self.write(line)
        latency = status.get("latency_ms")
        if latency:
            self.write("  latency (ms):")
            width = max(len(name) for name in latency)
            for name in sorted(latency):
                entry = latency[name]  # a live histogram: quantiles set
                self.write(
                    f"    {name:<{width}} count={entry['count']} "
                    f"p50={entry['p50']:.3f} p95={entry['p95']:.3f} "
                    f"p99={entry['p99']:.3f}"
                )

    def _handle_connect(self, parts: list[str]) -> bool:
        if len(parts) != 2:
            return self.fail("usage: \\connect HOST:PORT (or just PORT)")
        from repro.server.client import ReproClient

        target = parts[1]
        host, _, port_text = target.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            return self.fail(f"error: bad port in {target!r}")
        try:
            client = ReproClient(host, port)
            client.ping()
        except (OSError, ReproError) as error:
            return self.fail(f"error: cannot connect to {host}:{port}: {error}")
        if self.remote is not None:
            self.remote.close()
        self.remote = client
        self.write(
            f"connected to {host}:{port} — SQL, \\metrics and \\status "
            "now go to the server (\\disconnect to return)"
        )
        return True

    def _handle_disconnect(self) -> bool:
        if self.remote is None:
            self.write("(not connected)")
            return True
        self.remote.close()
        self.remote = None
        self.write("disconnected; back to the in-process database")
        return True

    def _handle_save(self, parts: list[str]) -> bool:
        if len(parts) != 2:
            return self.fail("usage: \\save DIRECTORY")
        from repro.engine.persist import save_database

        try:
            target = save_database(self.database, parts[1])
        except (OSError, ReproError) as error:
            return self.fail(f"error: {error}")
        self.write(f"saved to {target}")
        return True

    def _handle_open(self, parts: list[str]) -> bool:
        if len(parts) != 2:
            return self.fail("usage: \\open DIRECTORY")
        from repro.engine.persist import load_database, verify_database

        try:
            self.database = load_database(parts[1])
        except (OSError, ReproError) as error:
            return self.fail(f"error: {error}")
        self.write(f"opened {parts[1]}")
        # Startup recovery pass: repair or quarantine anything the crash
        # left inconsistent, and tell the user what happened.
        report = verify_database(self.database)
        if not report.clean:
            self.write(report.describe())
        return True

    def _describe(self) -> None:
        summaries = set(self.database.summary_tables)
        base = [
            schema
            for key, schema in sorted(self.database.catalog.tables.items())
            if key not in summaries
        ]
        if not base and not summaries:
            self.write("(no tables)")
            return
        for schema in base:
            rows = len(self.database.table(schema.name))
            self.write(f"table {schema.name} ({rows} rows): "
                       + ", ".join(schema.column_names))
        for key in sorted(summaries):
            summary = self.database.summary_tables[key]
            self.write(
                f"summary table {summary.name} ({summary.row_count} rows)"
            )

    def _handle_sql(self, sql: str) -> None:
        start = time.perf_counter()
        cache_label = None
        try:
            if self.remote is not None:
                reply = self.remote.query(
                    sql, use_summary_tables=self.use_summary_tables
                )
                result = reply.value
                cache_label = reply.cache
            else:
                # local statements mint their own trace root (the remote
                # path gets one from ReproClient.query)
                tracer = _spans.TRACER
                root = (
                    tracer.start_trace("shell.statement", sql=sql[:200])
                    if tracer is not None
                    else _spans.NOOP
                )
                with root:
                    result = self.database.run_sql(
                        sql, use_summary_tables=self.use_summary_tables
                    )
        except ReproError as error:
            self.fail(f"error: {error}")
            return
        elapsed = time.perf_counter() - start
        if isinstance(result, Table):
            self.write(result.pretty(limit=40))
            suffix = f", cache {cache_label}" if cache_label else ""
            self.write(f"({len(result)} rows{suffix})")
        else:
            self.write(str(result))
        if self.timing:
            self.write(f"time: {elapsed * 1e3:.1f} ms")

    # ------------------------------------------------------------------
    def run(self, stream: IO[str], interactive: bool = True) -> None:
        buffer: list[str] = []
        if interactive:
            self.write("repro SQL shell — \\d tables, \\q quit, ; ends a statement")
        while True:
            if interactive:
                prompt = "repro> " if not buffer else "   ... "
                self.out.write(prompt)
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffer and stripped.startswith("\\"):
                if not self.handle_line(stripped):
                    break
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "".join(buffer)
                buffer = []
                if not self.handle_line(statement):
                    break


def _onoff(value, unit: str = "") -> str:
    return f"{value:g}{unit}" if value is not None else "off"


def demo_database() -> Database:
    """The paper's schema with synthetic data and AST1 pre-built."""
    from repro.catalog.sample import credit_card_catalog
    from repro.workloads.datagen import bench_config, populate_credit_db

    database = Database(credit_card_catalog())
    populate_credit_db(database, bench_config(0.25))
    database.create_summary_table(
        "AST1",
        "select faid, flid, year(date) as year, count(*) as cnt "
        "from Trans group by faid, flid, year(date)",
    )
    return database


def serve_main(argv: list[str]) -> int:
    """``repro serve``: run the query server instead of the shell."""
    from repro.server.server import QueryServer

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Multi-client query server (docs/SERVER.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument(
        "--demo",
        action="store_true",
        help="preload the paper's credit-card schema, data, and AST1",
    )
    parser.add_argument(
        "--open",
        dest="open_dir",
        metavar="DIR",
        help="serve a database saved with \\save DIR",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="admission control: queries allowed to run at once "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=None,
        metavar="N",
        help="admission control: bounded wait-queue depth",
    )
    parser.add_argument(
        "--queue-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="admission control: max queue wait before QueryRejected",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="semantic result cache entries (LRU; 0 turns the cache off)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="semantic result cache byte budget (estimated; entries are "
        "evicted byte-weighted LRU once exceeded)",
    )
    parser.add_argument(
        "--mem-limit",
        type=int,
        default=None,
        metavar="BYTES",
        help="process-wide query working-memory budget: queries spill "
        "or shed once reservations reach this many bytes (default: "
        "unbounded; per-query: SET QUERY MAXMEM)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=32,
        metavar="N",
        help="execution thread-pool size (keep above --max-concurrent "
        "so overload reaches admission control)",
    )
    parser.add_argument(
        "--wal",
        metavar="DIR",
        help="journal every mutation to DIR before acknowledging it; an "
        "existing journal is recovered (checkpoint + replay) at startup",
    )
    parser.add_argument(
        "--sync",
        choices=("fsync", "os"),
        default="fsync",
        help="journal durability: fsync survives OS crashes, os only "
        "process crashes (default: fsync)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=512,
        metavar="N",
        help="compact the journal into a snapshot every N records",
    )
    parser.add_argument(
        "--standby-of",
        metavar="HOST:PORT",
        help="run as a read-only warm standby of the given primary "
        "(bootstraps over the wire, tails its journal; --wal makes the "
        "standby itself durable and promotable across restarts)",
    )
    parser.add_argument(
        "--repl-ack",
        type=int,
        default=0,
        metavar="N",
        help="semi-sync: wait for N standby acks before acknowledging "
        "a mutation (0 = asynchronous replication)",
    )
    parser.add_argument(
        "--events-log",
        metavar="PATH",
        help="append ops lifecycle events (start/drain, promote, "
        "quarantine, checkpoint, breaker) to PATH as JSONL (bounded)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="enable request tracing at head-sampling RATE in (0, 1] "
        "(default: off; runtime: SET TRACE SAMPLE <rate>|OFF)",
    )
    args = parser.parse_args(argv)

    if args.events_log:
        _events.configure(args.events_log)
    if args.trace_sample is not None:
        if not 0.0 < args.trace_sample <= 1.0:
            parser.error("--trace-sample must be in (0, 1]")
        _spans.set_sample_rate(args.trace_sample)

    # Crash-matrix chaos runs arm fault points inside this process via
    # the environment — the only channel that reaches a subprocess that
    # will be SIGKILLed (see repro.testing.faults.arm_from_env).
    from repro.testing import faults as _faults

    armed = _faults.arm_from_env()
    if armed:
        print(f"fault injection armed: {', '.join(armed)}", file=sys.stderr)

    if args.mem_limit is not None:
        if args.mem_limit < 1:
            parser.error("--mem-limit must be a positive byte count")
        from repro.resources.broker import BROKER

        BROKER.set_limit(args.mem_limit)

    import signal
    import threading

    shutdown = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001
        shutdown.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _graceful)

    server_options = dict(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_max_bytes=args.cache_bytes,
        max_workers=args.workers,
    )

    def configure_admission(database: Database) -> None:
        if args.max_concurrent is not None or args.queue is not None:
            database.governor.admission.configure(
                args.max_concurrent,
                max_queue=args.queue,
                queue_timeout_ms=args.queue_timeout_ms,
            )

    if args.standby_of:
        from repro.replication.standby import StandbyServer

        standby = StandbyServer(
            args.standby_of,
            wal_dir=args.wal,
            sync=args.sync,
            checkpoint_every=args.checkpoint_every,
            **server_options,
        )
        host, port = standby.start()
        configure_admission(standby.server.db)
        if standby.recovery is not None:
            print(standby.recovery.describe(), file=sys.stderr)
        print(f"repro standby listening on {host}:{port} "
              f"(replicating {args.standby_of}; Ctrl-C to stop)",
              flush=True)
        shutdown.wait()
        standby.stop()
        print("standby stopped (journal flushed)", flush=True)
        return 0

    wal = None
    if args.wal:
        from repro.replication.wal import WriteAheadLog

        wal = WriteAheadLog(
            args.wal, sync=args.sync, checkpoint_every=args.checkpoint_every
        )
    recovery = None
    if wal is not None and wal.exists():
        # The journal is the authoritative state: recovery wins over
        # --demo/--open (those only seed a FRESH journal directory).
        recovery = wal.recover()
        database = recovery.database
        print(recovery.describe(), file=sys.stderr)
    elif args.open_dir:
        from repro.engine.persist import load_database, verify_database

        database = load_database(args.open_dir)
        report = verify_database(database)
        if not report.clean:
            print(report.describe(), file=sys.stderr)
    elif args.demo:
        database = demo_database()
    else:
        database = Database()
    if wal is not None and not wal.exists():
        wal.begin(database, previous=args.open_dir)
    configure_admission(database)
    server = QueryServer(
        database, wal=wal, repl_ack=args.repl_ack, **server_options
    )
    if recovery is not None:
        # the rebuilt token window: a client retrying a pre-crash
        # mutation must still dedup after the restart
        for token, status in recovery.tokens.items():
            server.dedup.put(token, status)
    host, port = server.start_in_thread()
    print(f"repro server listening on {host}:{port} (Ctrl-C to stop)",
          flush=True)
    shutdown.wait()
    # Graceful drain: stop accepting, finish in-flight handlers, then
    # flush and close the journal so every applied write is durable.
    server.stop()
    if wal is not None:
        wal.close()
    print("server stopped (journal flushed)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="SQL shell with automatic summary tables"
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="preload the paper's credit-card schema, data, and AST1",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="start connected to a repro serve server",
    )
    parser.add_argument(
        "script",
        nargs="?",
        help="SQL script to run instead of the interactive shell",
    )
    args = parser.parse_args(argv)
    database = demo_database() if args.demo else Database()
    shell = Shell(database)
    if args.connect:
        shell.handle_line(f"\\connect {args.connect}")
        if shell.remote is None:
            return 2
    try:
        if args.script:
            with open(args.script) as handle:
                shell.run(handle, interactive=False)
            # Non-interactive runs report failure through the exit code
            # so scripts and CI can gate on it.
            return 1 if shell.errors else 0
        interactive = sys.stdin.isatty()
        shell.run(sys.stdin, interactive=interactive)
        return 1 if shell.errors and not interactive else 0
    finally:
        if shell.remote is not None:
            shell.remote.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
