"""Staged replay: the server's request path, one layer call at a time.

The per-layer numbers come from replaying the first requests of a
workload's own seeded sequence in this process, on one thread, calling
each layer through its public function in the order
``repro.server.server.QueryServer`` calls it, with a span around every
call. The spans are recorded here, in the benchmark, not in the program;
they stay in memory until the run ends. What the replay leaves out —
sockets, the event loop, the hop to a pool thread, lock waits, the
interpreter lock shared with another connection — is what
``server.unattributed_ms`` measures.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from repro.asts.maintenance import maintain_insert
from repro.engine.persist import load_database
from repro.qgm.build import build_graph
from repro.qgm.fingerprint import fingerprint
from repro.replication.wal import WriteAheadLog, mutation_kind
from repro.rewrite.rewriter import rewrite_query
from repro.server import protocol
from repro.server.client import QueryReply
from repro.server.result_cache import ResultCache, cache_key
from repro.sql.statements import parse_statement

import rig

REPLAY_REQUESTS = 300
#: maintenance is ~150 ms a row; this many rows keep the traced run short
REPLAY_WRITES = 24
OVERHEAD_REQUESTS = 60
_DATABASE_STAGES = frozenset({
    "sql.parse", "qgm.bind", "qgm.fingerprint", "rewrite.decide",
    "engine.execute", "governor.admit",
})


class Spans:
    """Spans in memory: name, start, end, parent, request id."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.request = 0

    @contextmanager
    def span(self, name: str, **attributes):
        record = {
            "name": name,
            "request": self.request,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            **attributes,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (r["end"] - r["start"]) * 1000.0
            for r in self.records
            if r["name"] == name
        ]

    def request_totals_ms(self, kind: str) -> list[float]:
        return [
            (r["end"] - r["start"]) * 1000.0
            for r in self.records
            if r["name"] == "request" and r["kind"] == kind
        ]


class StagedServer:
    """The query server's handling of one request, rebuilt from the
    layers' public functions (same order, same memos, same cache)."""

    def __init__(self, database, spans: Spans, wal: WriteAheadLog | None):
        self.db = database
        self.spans = spans
        self.wal = wal
        self.cache = ResultCache(database.delta_log, metrics=database.metrics)
        self._parse_memo: dict = {}
        self._fingerprint_memo: dict = {}
        self.reply_bytes: list[int] = []
        #: (request id, sql, use_summary_tables) of every executed SELECT
        self.executed: list[tuple[int, str, bool]] = []
        self.rewritten = 0
        self.selects_using_asts = 0
        self.match_errors = 0
        self.wal_bytes: list[int] = []

    def request(self, sql: str, template: str, use_summary_tables=True):
        self.spans.request += 1
        message = {"op": "query", "id": self.spans.request, "sql": sql}
        if not use_summary_tables:
            message["use_summary_tables"] = False
        line = protocol.encode_message(message)
        span = self.spans.span
        kind = "read" if sql.startswith("select") else "write"
        with span("request", kind=kind, template=template):
            with span("protocol.decode"):
                request = protocol.decode_message(line)
            sql = request["sql"]
            statement = self._parse_memo.get(sql)
            if statement is None:
                with span("sql.parse"):
                    statement = parse_statement(sql)
                self._parse_memo[sql] = statement
            if kind == "read":
                response = self._select(
                    statement, sql, template,
                    bool(request.get("use_summary_tables", True)),
                )
            else:
                response = self._mutation(statement, sql)
            response["id"] = request["id"]
            response["elapsed_ms"] = 0.0
            with span("protocol.encode"):
                if "table" in response:
                    response["table"] = protocol.encode_table(response["table"])
                payload = protocol.encode_message(response)
            self.reply_bytes.append(len(payload))
            with span("client.decode"):
                QueryReply(protocol.decode_message(payload))

    def _select(self, statement, sql, template, use_summaries) -> dict:
        db, span = self.db, self.spans.span
        tolerance = db.refresh_age
        memo_key = (sql, use_summaries)
        entry = self._fingerprint_memo.get(memo_key)
        if entry is None:
            with span("qgm.bind"):
                graph = build_graph(statement, db.catalog)
            with span("qgm.fingerprint"):
                fp_key = fingerprint(graph).key
            entry = (fp_key, sorted(graph.base_tables()))
            self._fingerprint_memo[memo_key] = entry
        fp_key, base_tables = entry
        key = cache_key(fp_key, tolerance, use_summaries)
        with span("result_cache.lookup"):
            hit = self.cache.lookup(key)
        if hit is not None:
            return {"ok": True, "table": hit[0], "cache": hit[1]}
        self.executed.append((self.spans.request, sql, use_summaries))
        snapshot = db.delta_log.change_counts(base_tables)
        # the server executes a private parse: the memoised tree is
        # shared between its threads
        with span("sql.parse"):
            private = parse_statement(sql)
        with span("governor.admit"):
            with db.governor.admission.admit():
                pass
        with span("qgm.bind"):
            graph = build_graph(private, db.catalog)
        if use_summaries:
            self.selects_using_asts += 1
            with span("rewrite.decide"):
                try:
                    result = db.rewrite(graph)
                except Exception:  # noqa: BLE001 - mirrors the rewrite sandbox
                    self.match_errors += 1
                    result = None
                    graph = build_graph(private, db.catalog)
            if result is not None:
                self.rewritten += 1
                graph = result.graph
        with span("engine.execute", template=template):
            table = db.execute_graph(graph)
        with span("result_cache.store"):
            self.cache.store(key, table, base_tables, snapshot, tolerance)
        return {"ok": True, "table": table, "cache": "miss"}

    def _mutation(self, statement, sql) -> dict:
        db, span = self.db, self.spans.span
        with span("sql.parse"):
            private = parse_statement(sql)
        with span("asts.maintain.total"):
            status = str(db.run_statement(private, sql))
        journal = self.wal.directory
        before = sum(p.stat().st_size for p in journal.glob("journal-*"))
        with span("replication.wal_append"):
            self.wal.append(mutation_kind(statement), sql, status=status)
        after = sum(p.stat().st_size for p in journal.glob("journal-*"))
        self.wal_bytes.append(after - before)
        with span("result_cache.invalidate"):
            self.cache.invalidate_table(statement.table)
        return {"ok": True, "status": status}

    def cold_match(self, sql: str) -> None:
        """The matcher with no decision cache in front of it."""
        graph = build_graph(sql, self.db.catalog)
        with self.spans.span("matching.cold_match"):
            try:
                rewrite_query(graph, self.db.enabled_summary_tables())
            except Exception:  # noqa: BLE001 - counted by the request path
                pass


def p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def replay(server_dir, reads, writes, warm) -> dict:
    """Replay ``reads`` (``(sql, template, use_summary_tables)``) and,
    on ``ingest_mixed``, ``writes`` (SQL text) through a
    :class:`StagedServer` over a fresh load of the saved database;
    ``warm`` statements run first, unrecorded. Returns the per-layer
    numbers and the span list."""
    started = time.perf_counter()
    database = load_database(server_dir / "db")
    load_s = time.perf_counter() - started

    wal = None
    if writes:
        wal = WriteAheadLog(
            server_dir / "staged-wal", sync=rig.WAL_SYNC,
            checkpoint_every=rig.CHECKPOINT_EVERY,
        )
        wal.begin(database)
    staged = StagedServer(database, Spans(), wal)
    for sql, template, use_asts in warm:
        staged.request(sql, template, use_asts)
    # the warm-up's spans and counts are dropped, its cache and memos kept
    spans = staged.spans = Spans()
    staged.reply_bytes.clear()
    staged.executed.clear()
    staged.rewritten = staged.selects_using_asts = staged.match_errors = 0

    # one write, then its share of the reads, as the generator does it
    every = len(reads) // len(writes) if writes else 0
    pending = list(writes)
    for index, (sql, template, use_asts) in enumerate(reads):
        if pending and index % every == 0:
            staged.request(pending.pop(0), "write", True)
        staged.request(sql, template, use_asts)

    if writes:
        # the replay is shorter than a checkpoint cycle; time one anyway
        with spans.span("replication.checkpoint"):
            wal.checkpoint(database)
    for _request, sql, use_asts in staged.executed[:OVERHEAD_REQUESTS]:
        if use_asts:
            staged.cold_match(sql)
    layers = _layer_metrics(staged, spans)
    layers["engine.persist_load_s"] = load_s
    layers["obs.trace_overhead_frac"] = _trace_overhead(
        database, spans, staged.executed, warm
    )
    if writes:
        wal.close()
        layers.update(_maintenance_metrics(database, writes))
    return {"layers": layers, "spans": spans.records}


_TIMED_LAYERS = {
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "client.decode_ms": "client.decode",
    "sql.parse_ms": "sql.parse",
    "qgm.bind_ms": "qgm.bind",
    "qgm.fingerprint_ms": "qgm.fingerprint",
    "rewrite.decide_ms": "rewrite.decide",
    "matching.cold_match_ms": "matching.cold_match",
    "engine.execute_ms": "engine.execute",
    "result_cache.lookup_ms": "result_cache.lookup",
    "result_cache.store_ms": "result_cache.store",
    "governor.admit_ms": "governor.admit",
    "asts.maintain_ms.total": "asts.maintain.total",
    "replication.wal_append_ms": "replication.wal_append",
    "replication.checkpoint_ms": "replication.checkpoint",
}


def _layer_metrics(staged, spans) -> dict:
    layers: dict[str, float] = {}
    for metric, name in _TIMED_LAYERS.items():
        durations = spans.durations_ms(name)
        layers[metric] = p50(durations)
        layers[metric.replace("_ms", "_calls", 1)] = len(durations)
    by_template: dict[str, list[float]] = {}
    for record in spans.records:
        if record["name"] == "engine.execute":
            by_template.setdefault(record["template"], []).append(
                (record["end"] - record["start"]) * 1000.0
            )
    for template, durations in by_template.items():
        layers[f"engine.execute_ms.{template}"] = p50(durations)
    layers["protocol.reply_bytes"] = p50(staged.reply_bytes)
    layers["rewrite.rewritten_frac"] = (
        staged.rewritten / staged.selects_using_asts
        if staged.selects_using_asts else 0.0
    )
    layers["rewrite.match_errors"] = staged.match_errors
    layers["replication.wal_bytes_per_write"] = p50(staged.wal_bytes)
    layers["staged.read_total_p50_ms"] = p50(spans.request_totals_ms("read"))
    layers["staged.write_total_p50_ms"] = p50(spans.request_totals_ms("write"))
    # share of a read's staged time that is the executor's
    execute = sum(spans.durations_ms("engine.execute"))
    total = sum(spans.request_totals_ms("read"))
    layers["engine.execute_share"] = execute / total if total else 0.0
    return layers


def _trace_overhead(database, spans, executed, warm) -> float:
    """(staged, traced cost of the database-side stages - one untraced
    ``Database.execute``) / untraced, over the same executed SELECTs:
    the last of the replay, when the freshly loaded database has long
    built what it builds lazily."""
    executed = executed[-OVERHEAD_REQUESTS:]
    if not executed:
        return 0.0
    requests = {request for request, _sql, _use in executed}
    traced = sum(
        (r["end"] - r["start"]) * 1000.0
        for r in spans.records
        if r["request"] in requests and r["name"] in _DATABASE_STAGES
    )
    # The traced pass left its decisions in the rewrite cache. Switching
    # the cache off and on empties it; the warm-up statements then fill
    # it as they did before the traced pass, so both passes meet the
    # same cache.
    database.configure_fast_path(cache=False)
    database.configure_fast_path(cache=True)
    for sql, _template, use_asts in warm:
        database.execute(sql, use_summary_tables=use_asts)
    begin = time.perf_counter()
    for _request, sql, use_asts in executed:
        database.execute(sql, use_summary_tables=use_asts)
    untraced = (time.perf_counter() - begin) * 1000.0
    return (traced - untraced) / untraced


def _maintenance_metrics(database, writes) -> dict:
    """Per-AST maintenance of a single inserted row, and the same insert
    with no AST to maintain."""
    layers: dict[str, float] = {}
    trans = database.table("Trans")
    summaries = list(database.summary_tables.values())
    rows = [
        parse_statement(sql).rows[0] for sql in writes
        if sql.startswith("insert")
    ][:6]
    per_ast: dict[str, list[float]] = {s.name: [] for s in summaries}
    for row in rows:
        # The row goes in once per AST and out of the base table again.
        # The ASTs drift from the base table, which only timing reads:
        # this copy of the database is thrown away.
        for summary in summaries:
            begin = time.perf_counter()
            maintain_insert(database, "Trans", [row], summaries=[summary])
            per_ast[summary.name].append(
                (time.perf_counter() - begin) * 1000.0
            )
            trans.rows.remove(tuple(row))
    for name, durations in per_ast.items():
        layers[f"asts.maintain_ms.{name}"] = p50(durations)
    for summary in summaries:
        database.drop_summary_table(summary.name)
    bare = []
    for row in rows:
        begin = time.perf_counter()
        database.insert_rows("Trans", [row])
        bare.append((time.perf_counter() - begin) * 1000.0)
    layers["engine.insert_ms.no_asts"] = p50(bare)
    return layers
