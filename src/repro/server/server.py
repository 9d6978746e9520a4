"""The asyncio query server: many clients, one shared ``Database``.

One :class:`QueryServer` wraps one :class:`~repro.engine.database.
Database`. Connections are handled on the event loop — framing, JSON,
dispatch, result-cache hits (a memo probe, a cache probe and a socket
write of bytes the miss already encoded) and the misses of a SELECT
shape whose last run took under ``INLINE_MISS_CPU_MS`` of thread CPU.
Every other statement runs on a thread pool via ``run_in_executor``, so
a long scan never blocks another client's ``ping`` (or hit). Real
concurrency control is the engine's own query governor: the pool is
sized *above* the admission limit on purpose, so overload reaches
:class:`~repro.governor.admission.AdmissionController` and sheds load
as typed ``QueryRejected`` errors instead of silently queueing in the
pool; while admission control is on, every miss takes the pool.

Request routing (see :mod:`repro.server.protocol` for the wire format):

* SELECT / UNION ALL — through the semantic result cache, probed once
  per request: on the event loop when the statement text is in the
  prepared-SELECT memo, else on the side that binds it. A ``query``
  whose text starts with SELECT is never parsed here: the loop lexes it
  once for its shape key and the engine binds those tokens (its bind
  cache binds a known shape by substitution). On a miss the statement runs
  through ``Database.run_select`` with the session's knobs
  (``Session.overrides``) passed as per-query overrides (never
  mutating shared state); the result is encoded once and cached, table
  and bytes, with a pre-execution change-count snapshot.
* session-scoped SET — recorded on the connection's
  :class:`~repro.server.session.Session` only; ``SET SLOW QUERY`` and
  ``SET TRACE SAMPLE`` apply process-wide, on any server.
* INSERT, DELETE, CREATE TABLE, CREATE/DROP/REFRESH SUMMARY TABLE —
  through ``Database.run_write`` with the server's journal; the
  :class:`~repro.engine.pipeline.WriteRun` it returns names what the
  result cache drops: entries a write to ``run.changed`` permanently
  killed, or stale-tolerant entries over ``run.evicted`` (see
  :mod:`repro.server.result_cache`).
* EXPLAIN — runs with the session's freshness tolerance; EXPLAIN
  ANALYZE — runs the query like any other, under all of the session's
  knobs.

Durability and replication (see docs/ROBUSTNESS.md, "Durability &
failover") are opt-in per server:

* With a :class:`~repro.replication.wal.WriteAheadLog` attached, every
  write is applied and staged under the database's writer lock (so
  journal order equals apply order) and group-committed durable
  *before* its reply is sent. If the journal refuses the record, the
  write is taken back and the client gets the error — the ACKed set is
  always a subset of the journal. The server adds only what is its
  own: the dedup claim, the disk-full gate, the semi-sync ack wait and
  the checkpoint.
* Mutations carrying an ``idempotency token`` dedup against
  ``QueryServer.dedup``, a window of the last 4096 tokens' statuses: a
  retried request whose original ACK was lost replays the recorded
  status instead of applying twice.
* ``repl.*`` ops serve a warm standby: ``repl.snapshot`` bootstraps it
  with the full database state, ``repl.stream`` tails the journal over
  the same line-delimited JSON wire (backlog, then live records and
  heartbeats, with optional acks flowing back for semi-sync), and
  ``repl.promote`` flips a read-only standby into a primary.
* A ``read_only=True`` server (the standby role) rejects mutations with
  :class:`~repro.errors.ReadOnlyError` and gates reads on replication
  lag through the session's ``SET REFRESH AGE`` tolerance — a read that
  would silently violate the requested freshness raises
  :class:`~repro.errors.ReplicaLagExceeded` instead.
"""

from __future__ import annotations

import asyncio
import errno
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from repro.engine.database import Database
from repro.lru import LRU
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.qgm.bind_cache import lex
from repro.errors import (
    BudgetExhausted,
    ReadOnlyError,
    ReplicaLagExceeded,
    ReplicationError,
    ReproError,
    WalError,
    WalGapError,
    WriteInProgress,
)
from repro.resources.broker import BROKER
from repro.replication.wal import WalRecord, WriteAheadLog, mutation_kind
from repro.server import protocol
from repro.server.result_cache import ResultCache, cache_key
from repro.server.session import SESSION_SET_TYPES, Session
from repro.sql.ast import SelectStatement, UnionAll
from repro.sql.statements import (
    Explain,
    SetSlowQuery,
    SetTraceSample,
    parse_statement,
)
from repro.testing import faults

#: a ``query`` whose text starts with SELECT goes to the engine unparsed
_SELECT = re.compile(r"\s*select\b", re.IGNORECASE)

#: a result-cache miss whose shape's last completed run took less thread
#: CPU than this (milliseconds) is answered on the event loop: over 2x
#: every rewritten ledger template, above most base-table ones
#: (docs/SERVER.md, "Choosing the bound", has the sweep)
INLINE_MISS_CPU_MS = 40.0


class _PreparedSelect(NamedTuple):
    """What the server remembers about one SELECT text: enough to probe
    the result cache without parsing. No parse tree — trees are mutable
    and whatever executes needs a private one."""

    result_key: tuple
    base_tables: list[str]
    #: ``Database.rewrite_epoch`` the text was bound under
    epoch: int
    #: the bind cache's shape key of the text
    spelling: tuple | None


class _Miss:
    """A SELECT the result cache missed, as far as the loop took it: its
    shape key (None when only a parse found it a SELECT), its lex, and
    its cache key and base tables once prepared — so the side that runs
    it neither lexes nor probes again."""

    __slots__ = ("spelling", "lexed", "probed")

    def __init__(self, spelling=None, lexed=None, probed=None):
        self.spelling, self.lexed, self.probed = spelling, lexed, probed


class QueryServer:
    """Line-delimited JSON query server around one shared database."""

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        cache_max_bytes: int | None = None,
        max_workers: int = 32,
        wal: WriteAheadLog | None = None,
        read_only: bool = False,
        primary: str | None = None,
        repl_ack: int = 0,
        repl_ack_timeout_ms: float = 5000.0,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.started_at = time.time()
        metrics = db.metrics
        # ---- durability & replication ----
        self.wal = wal
        #: idempotency token → the status its mutation returned; aging
        #: is by put order (a read is a retry that will not come back)
        self.dedup = LRU(4096)
        #: standby role: mutations rejected, reads gated on lag
        self.read_only = read_only
        #: ``host:port`` of the primary (the redirect hint a standby
        #: attaches to ReadOnlyError replies)
        self.primary = primary
        #: semi-sync: standby acks a mutation waits for before replying
        #: (0 = fully asynchronous replication)
        self.repl_ack = repl_ack
        self.repl_ack_timeout_ms = repl_ack_timeout_ms
        #: highest LSN applied locally (standby tracker; a primary's is
        #: implied by wal.durable_lsn)
        self.applied_lsn = wal.durable_lsn if wal is not None else 0
        #: the primary's durable LSN as last heard (standby, heartbeats)
        self._primary_durable = self.applied_lsn
        #: called by the repl.promote op when a standby wrapper (see
        #: repro.replication.standby) needs to stop its tailer first
        self.on_promote = None
        self._subscribers: dict[int, asyncio.Queue] = {}
        self._subscriber_lock = threading.Lock()
        self._next_subscriber = 0
        self._ack_cond = threading.Condition()
        self._standby_acks: dict[int, int] = {}
        #: set by stop(): wakes semi-sync ack waiters so a graceful
        #: drain is not held hostage by the ack timeout (the records
        #: are already durable locally — availability over strictness)
        self._draining = threading.Event()
        #: tokens whose mutation is mid-flight: a concurrent retry of
        #: the same token parks on the event instead of double-applying
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        #: wall-clock when nonzero replication lag first appeared (for
        #: the status surface's lag-in-seconds; None while caught up)
        self._lag_since: float | None = None
        if wal is not None:
            wal.on_durable = self._on_durable
        #: journal disk exhausted (ENOSPC): mutations are refused with
        #: ReadOnlyError until a writability probe succeeds — reads and
        #: the already-durable state stay available, the process lives
        self._disk_full = False
        #: ``cache_size`` 0 turns it off: replies read ``"bypass"``
        self.cache = ResultCache(
            db.delta_log,
            metrics=metrics,
            max_entries=cache_size,
            max_bytes=cache_max_bytes,
        )
        # Under global memory pressure the broker calls back into the
        # result cache: cached tables are the cheapest bytes to give up.
        BROKER.add_shedder(self._shed_cache)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-server"
        )
        #: SQL text → :class:`_PreparedSelect`. Parsing and binding the
        #: same text are deterministic, so a repeated SELECT pays for
        #: them once per catalog epoch instead of once per request.
        self._prepared = LRU(4096)
        self._next_client = 0
        self._client_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()
        self.connections = metrics.gauge(
            "server.connections", "Client connections currently open"
        )
        self.connections_total = metrics.counter(
            "server.connections_total", "Client connections accepted"
        )
        self.requests = metrics.counter(
            "server.requests", "Requests received (all ops)"
        )
        self.errors = metrics.counter(
            "server.errors", "Requests answered with an error response"
        )
        self.misses = {
            route: metrics.counter(
                f"server.misses_{route}", f"SELECT misses executed on the {route}"
            ) for route in ("loop", "pool")
        }
        self.request_ms = metrics.histogram(
            "server.request_ms", "Wall-clock per request, milliseconds"
        )
        self.wal_records = metrics.counter(
            "server.wal_records", "Mutations journaled before their ACK"
        )
        self.deduped = metrics.counter(
            "server.deduped", "Mutations answered from the dedup window"
        )
        self.repl_lag = metrics.gauge(
            "server.repl_lag", "Standby: journal records behind the primary"
        )

    # ------------------------------------------------------------------
    # lifecycle
    async def _main(self, started: threading.Event | None = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.address = server.sockets[0].getsockname()[:2]
        _events.emit(
            "server.start",
            host=self.address[0], port=self.address[1],
            role="standby" if self.read_only else "primary",
        )
        if started is not None:
            started.set()
        async with server:
            await self._stop_event.wait()
        # Graceful drain: closing each transport makes the handler's
        # pending readline() return EOF, so the handlers finish on their
        # own instead of being cancelled mid-await by asyncio.run().
        for writer in list(self._writers):
            writer.close()
        if self._tasks:
            await asyncio.wait(self._tasks, timeout=5)

    def serve(self) -> None:
        """Run the server on the calling thread until interrupted
        (``repro serve``)."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass

    def start_in_thread(self) -> tuple[str, int]:
        """Run the server on a daemon thread; returns ``(host, port)``
        once it is accepting connections (tests, benchmarks, and the
        CLI's embedded mode)."""
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(started)),
            name="repro-server-loop",
            daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("server failed to start within 10 s")
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread.

        Drains connections, then flushes the journal — on a graceful
        shutdown every acknowledged (and even every applied-but-not-yet
        -fsynced) mutation is durable before the process exits.
        Idempotent: a second call (a test fixture's teardown after an
        explicit stop) is a no-op."""
        if self._draining.is_set():
            return
        self._draining.set()
        _events.emit(
            "server.drain",
            connections=int(self.connections.value),
            requests=self.requests.value,
        )
        with self._ack_cond:
            self._ack_cond.notify_all()
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._pool.shutdown(wait=False)
        BROKER.remove_shedder(self._shed_cache)
        if self.wal is not None:
            try:
                self.wal.flush()
            except ReproError:  # pragma: no cover - best-effort drain
                pass

    # ------------------------------------------------------------------
    # connection handling
    def _new_client_id(self) -> str:
        with self._client_lock:
            self._next_client += 1
            return f"client-{self._next_client}"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session(self._new_client_id())
        self.connections.inc()
        self.connections_total.inc()
        _events.emit("conn.open", client=session.client_id)
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: a line exceeded the stream limit — the
                    # peer is buggy or hostile; drop the connection.
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE_BYTES:
                    break
                response = await self._handle_request(session, line)
                stream_after = response.pop("_stream", None)
                writer.write(
                    protocol.encode_reply(response, response.pop("_table", None))
                )
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if stream_after is not None:
                    # The connection now belongs to the replication
                    # stream; when it ends (standby gone, injected
                    # fault, shutdown), the connection closes.
                    await self._stream_journal(reader, writer, stream_after)
                    break
        except asyncio.CancelledError:
            # shutdown cancelled this handler mid-request: the drain is
            # deliberate, not an error worth a traceback in the logs
            pass
        finally:
            self.connections.dec()
            _events.emit(
                "conn.close", client=session.client_id,
                queries=session.queries,
            )
            self._writers.discard(writer)
            if task is not None:
                self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_request(self, session: Session, line: bytes) -> dict:
        started = time.perf_counter()
        self.requests.inc()
        request_id = None
        req_span = None
        try:
            request = protocol.decode_message(line)
            request_id = request.get("id")
            op = request.get("op")
            tracer = _spans.TRACER
            if tracer is not None:
                # Continue the client's trace; when the request carried
                # no context (an untraced or unsampled caller) the
                # server flips its own sampling coin, so --trace-sample
                # works without client cooperation.
                span = tracer.continue_trace(
                    "server.request", request.get("trace"),
                    op=op, client=session.client_id,
                )
                if not span:
                    span = tracer.start_trace(
                        "server.request", op=op, client=session.client_id,
                    )
                if span:
                    req_span = span
            if op == "ping":
                response = {"ok": True, "pong": True,
                            "session": session.describe()}
            elif op == "status":
                response = await self._run_blocking(
                    lambda: {"ok": True, "status": self.status()}
                )
            elif op == "metrics":
                response = {"ok": True, "metrics": self.db.metrics.to_dict()}
            elif op == "governor":
                response = {
                    "ok": True,
                    "governor": self.db.governor.describe_lines(),
                }
            elif op == "repl.status":
                response = {"ok": True, "replication": self.repl_status()}
            elif op == "repl.snapshot":
                response = await self._run_blocking(self._snapshot_response)
            elif op == "repl.stream":
                if self.wal is None:
                    raise protocol.ProtocolError(
                        "this server has no journal to stream"
                    )
                after = int(request.get("after", 0))
                if not self.wal.covers(after):
                    # Checkpoint compaction deleted part of the backlog
                    # this subscriber needs; a typed refusal here sends
                    # the standby back to a fresh snapshot bootstrap
                    # instead of letting it consume a gapped stream.
                    raise WalGapError(
                        f"journal backlog after lsn {after} is gone "
                        f"(checkpoint at {self.wal.checkpoint_lsn}); "
                        "bootstrap from a fresh snapshot"
                    )
                response = {
                    "ok": True,
                    "streaming": True,
                    "after": after,
                    "durable_lsn": self.wal.durable_lsn,
                    "_stream": after,
                }
            elif op == "repl.promote":
                response = await self._run_blocking(self._promote_response)
            elif op in ("query", "set", "explain"):
                sql = request.get("sql")
                if not isinstance(sql, str):
                    raise protocol.ProtocolError(
                        f"op {op!r} requires a string 'sql' field"
                    )
                response = miss = None
                if op == "query":
                    with _spans.attach(req_span):
                        response, miss = self._probe(session, sql, request)
                if req_span is not None:
                    req_span.set("route", "pool" if response is None else "loop")
                if response is None:
                    response = await self._run_blocking(
                        self._execute_request, session, op, sql, request,
                        req_span, miss,
                    )
            else:
                raise protocol.ProtocolError(f"unknown op {op!r}")
        except ReproError as error:
            self.errors.inc()
            response = {"ok": False, "error": protocol.error_payload(error)}
        except Exception as error:  # noqa: BLE001 - wire boundary
            self.errors.inc()
            response = {"ok": False, "error": protocol.error_payload(error)}
        response.setdefault("ok", True)
        if request_id is not None:
            response["id"] = request_id
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.request_ms.observe(elapsed_ms)
        response["elapsed_ms"] = elapsed_ms
        if req_span is not None:
            if not response["ok"]:
                error_info = response.get("error") or {}
                req_span.set("error", error_info.get("type", "error"))
            req_span.finish(ok=response["ok"])
        return response

    async def _run_blocking(self, fn, *args):
        assert self._loop is not None
        return await self._loop.run_in_executor(self._pool, fn, *args)

    # ------------------------------------------------------------------
    # SELECTs: the result cache, probed once per request
    def _probe(self, session: Session, sql: str, request: dict):
        """The event-loop half of a ``query``: ``(reply, miss)``.

        A memo probe and a cache probe, or a lex; no parse, no bind.
        ``reply`` is the finished response when ``sql`` is a prepared
        SELECT whose result is cached and servable, or a SELECT of a
        shape whose last run was cheap, answered here. Otherwise ``miss``
        is the :class:`_Miss` a pool thread runs (None when the text is
        neither prepared nor starts with SELECT)."""
        db = self.db
        tolerance = session.effective_tolerance(db)
        use_summaries = bool(request.get("use_summary_tables", True))
        prepared = self._prepared.get(sql)
        if prepared is not None and prepared.epoch == db.rewrite_epoch:
            session.queries += 1
            key = cache_key(prepared.result_key, tolerance, use_summaries)
            reply = self._serve_cached(session, key, tolerance)
            if reply is not None:
                return reply, None
            miss = _Miss(prepared.spelling, probed=(key, prepared.base_tables))
        elif _SELECT.match(sql):
            session.queries += 1
            lexed = lex(sql, "Q")
            miss = _Miss(lexed[1], lexed)
        else:
            return None, None
        # Known and cheap last time: answering here costs less than the
        # hop, and the loop never waits in the admission queue.
        cost = db.shape_cost(miss.spelling, (use_summaries, tolerance.key))
        if cost is None or cost >= INLINE_MISS_CPU_MS or db.governor.admission.enabled:
            return None, miss
        try:
            return self._answer_select(session, sql, request, miss, "loop"), None
        except WriteInProgress:  # nor for a write: a pool thread waits
            return None, miss

    def _serve_cached(self, session: Session, key: tuple, tolerance):
        """The reply for ``key`` from the result cache, or None on a
        miss. A hit still answers to the session's limits: the standby
        lag gate and ``MAXROWS``."""
        lookup_pc = time.perf_counter()
        found = self.cache.probe(key)
        if found is None:
            _spans.record("cache.lookup", lookup_pc, outcome="miss")
            return None
        entry, label = found
        _spans.record("cache.lookup", lookup_pc, outcome=label)
        self._check_replica_lag(tolerance)
        max_rows = session.effective_max_rows(self.db)
        if max_rows is not None and len(entry.table) > max_rows:
            # Governed execution would have stopped at the cap;
            # serving the oversized cached result would bypass it.
            raise BudgetExhausted(
                f"result has {len(entry.table)} rows, exceeds "
                f"QUERY MAXROWS {max_rows}"
            )
        return {"ok": True, "cache": label, "_table": entry.payload}

    def _check_replica_lag(self, tolerance) -> None:
        """The standby serves reads only when its lag fits the session's
        freshness tolerance — the same contract SET REFRESH AGE gives
        stale summary tables, applied to the whole replica: N records
        behind is admissible iff the session tolerates N pending
        changes."""
        if not self.read_only:
            return
        lag = self.replication_lag()
        if not tolerance.admits(lag):
            raise ReplicaLagExceeded(
                f"standby is {lag} record(s) behind the primary; "
                f"SET REFRESH AGE {lag} (or ANY) to read at this lag"
            )

    def _prepare(self, sql: str, lexed=None):
        """Run the engine's prepare stage on SELECT text ``sql`` (the
        engine's shape cache may bind it without a parse; ``lexed`` is
        its :func:`~repro.qgm.bind_cache.lex`, if taken) and memoize
        what a repeat of the text needs; returns the memo entry and the
        prepared run, which the caller may execute (it is shared with
        nobody)."""
        run = self.db.prepare_select(sql, sql, lexed=lexed)
        prepared = _PreparedSelect(
            run.result_key(), run.base_tables, run.epoch, run.spelling
        )
        self._prepared.put(sql, prepared)
        return prepared, run

    # ------------------------------------------------------------------
    # statement execution (thread-pool side)
    def _execute_request(
        self, session: Session, op: str, sql: str, request: dict,
        req_span=None, miss=None,
    ) -> dict:
        # The request span was created on the event loop; re-attach it
        # on this pool thread so child spans (parse, admission, rewrite,
        # WAL) nest under it. The loop side finishes it.
        with _spans.attach(req_span):
            if miss is not None:
                # the loop knew the text as a SELECT and missed the cache
                return self._answer_select(session, sql, request, miss)
            return self._execute_attached(session, op, sql, request)

    def _execute_attached(
        self, session: Session, op: str, sql: str, request: dict
    ) -> dict:
        # a private parse: whatever executes below may keep or change it
        parse_pc = time.perf_counter()
        statement = parse_statement(sql)
        _spans.record("server.parse", parse_pc)
        if op == "set" and not isinstance(
            statement, SESSION_SET_TYPES + (SetSlowQuery, SetTraceSample)
        ):
            raise protocol.ProtocolError("op 'set' accepts only SET statements")
        if op == "explain" or isinstance(statement, Explain):
            if isinstance(statement, Explain):
                inner, analyze = statement.sql, statement.analyze
            else:
                inner, analyze = sql, bool(request.get("analyze"))
            if analyze:
                text = self.db.explain_analyze(
                    inner, **session.overrides(self.db)
                )
            else:
                text = self.db.explain(
                    inner, tolerance=session.effective_tolerance(self.db)
                )
            return {"ok": True, "text": text}
        status = session.apply_set(statement)
        if status is not None:
            return {"ok": True, "status": status}
        if isinstance(statement, (SelectStatement, UnionAll)):
            session.queries += 1
            return self._answer_select(session, sql, request, _Miss())
        if mutation_kind(statement) is None:
            # SET SLOW QUERY / TRACE SAMPLE: process-wide, not journaled,
            # so neither a standby nor a full disk refuses them
            return {"ok": True, "status": str(self.db.run_statement(statement, sql))}
        return self._execute_write(statement, sql, request.get("token"))

    def _answer_select(self, session: Session, sql: str, request: dict,
                        miss: _Miss, route: str = "pool") -> dict:
        """Answer one SELECT text ``sql`` the cache probe did not, on the
        ``route`` side, from what the loop took of it (``miss``). The
        thread CPU of the whole miss is its shape's cost; a miss that
        fails costs more than any bound, so the next one takes the pool."""
        cpu = time.thread_time()
        db = self.db
        epoch = db.rewrite_epoch
        overrides = session.overrides(db)
        tolerance = overrides["tolerance"]
        use_summaries = bool(request.get("use_summary_tables", True))
        source = sql
        caching = self.cache.max_entries > 0
        if caching:
            if miss.probed is None:
                prepared, source = self._prepare(sql, miss.lexed)
                key = cache_key(
                    prepared.result_key, tolerance, use_summaries
                )
                reply = self._serve_cached(session, key, tolerance)
                if reply is not None:
                    return reply
                miss.probed = key, prepared.base_tables
            key, base_tables = miss.probed
            # Snapshot BEFORE execution: a write landing mid-query makes
            # the entry look staler than it is — the safe direction.
            snapshot = db.delta_log.change_counts(base_tables)
        elif miss.lexed is not None:
            source = db.prepare_select(sql, sql, lexed=miss.lexed)
        ms = math.inf
        try:
            self._check_replica_lag(tolerance)
            table = db.run_select(
                source, sql, use_summary_tables=use_summaries,
                wait=route == "pool", **overrides,
            ).table
            self.misses[route].inc()
            payload = protocol.encode_table_fragment(table)
            if caching:
                self.cache.store(
                    key, table, base_tables, snapshot, tolerance, payload=payload
                )
            ms = (time.thread_time() - cpu) * 1e3
        finally:
            variant = (use_summaries, tolerance.key)
            db.note_shape_cost(miss.spelling, epoch, variant, ms)
        label = "miss" if caching else "bypass"
        return {"ok": True, "cache": label, "_table": payload}

    def _shed_cache(self, target: int) -> int:
        """Memory-broker shedder: free ~``target`` bytes of cached
        results (oldest first); returns the bytes actually freed."""
        return self.cache.shed(target)

    def _execute_write(self, statement, sql: str, token: str | None) -> dict:
        """A journaled kind of statement, through ``Database.run_write``
        with this server's journal: refused on a standby or a full disk,
        answered from the dedup window when ``token`` already committed,
        acknowledged once durable (and acked by ``repl_ack`` standbys)."""
        if self.read_only:
            hint = f" (primary: {self.primary})" if self.primary else ""
            raise ReadOnlyError(
                f"this server is a read-only standby{hint}; "
                "send mutations to the primary"
            )
        if self._disk_full:
            self._check_disk_recovered()
        if token is not None:
            deduped = self._claim_token(token)
            if deduped is not None:
                # A retry of a mutation we already applied (its ACK was
                # lost in flight): replay the original status, apply
                # nothing — exactly-once from the client's view.
                self.deduped.inc()
                return {"ok": True, "status": deduped, "deduped": True}
        try:
            run = self.db.run_write(statement, sql, journal=self.wal, token=token)
            if token is not None:
                self.dedup.put(token, run.status)
        except WalError as error:
            self._note_disk_error(error)
            raise
        finally:
            if token is not None:
                self._release_token(token)
        self._invalidate(run)
        if run.lsn is None:
            return {"ok": True, "status": run.status}
        self.wal_records.inc()
        self.applied_lsn = max(self.applied_lsn, run.lsn)
        response = {"ok": True, "status": run.status, "lsn": run.lsn}
        if self.repl_ack > 0:
            ack_pc = time.perf_counter()
            acks = response["repl_acks"] = self._await_acks(run.lsn)
            _spans.record("repl.ack_wait", ack_pc, lsn=run.lsn, acks=acks)
        self._maybe_checkpoint()
        return response

    def _claim_token(self, token: str) -> str | None:
        """Claim ``token`` for this request, or return the recorded
        status when it already completed. A retry that races the
        original request (the client gave up waiting, the server is
        still executing) parks here until the original finishes —
        without this, dedup-on-completion alone would double-apply."""
        while True:
            prior = self.dedup.peek(token)
            if prior is not None:
                return prior
            with self._inflight_lock:
                pending = self._inflight.get(token)
                if pending is None:
                    self._inflight[token] = threading.Event()
                    return None
            pending.wait(timeout=60)

    def _release_token(self, token: str) -> None:
        with self._inflight_lock:
            pending = self._inflight.pop(token, None)
        if pending is not None:
            pending.set()

    def _invalidate(self, run) -> None:
        """Drop the cached results ``run`` (a ``WriteRun``) made wrong."""
        if run.changed is not None:
            self.cache.invalidate_table(run.changed)
        elif run.evicted:
            self.cache.evict_tables(run.evicted)

    # ------------------------------------------------------------------
    # disk-full degradation (ENOSPC → read-only, never a crash)
    @staticmethod
    def _is_disk_full(error: BaseException) -> bool:
        """Walk the exception chain looking for an ``OSError`` with
        errno ENOSPC (the WAL wraps append/fsync/checkpoint failures in
        typed errors, so the OSError usually sits in ``__cause__``)."""
        seen: set[int] = set()
        current: BaseException | None = error
        while current is not None and id(current) not in seen:
            seen.add(id(current))
            if (
                isinstance(current, OSError)
                and current.errno == errno.ENOSPC
            ):
                return True
            current = current.__cause__ or current.__context__
        return False

    def _note_disk_error(self, error: BaseException) -> bool:
        """Classify a journal/checkpoint failure: on ENOSPC, flip the
        server read-only-for-mutations and emit ``wal.disk_full`` (once
        per episode). Returns True when the error was disk exhaustion."""
        if not self._is_disk_full(error):
            return False
        if not self._disk_full:
            self._disk_full = True
            _events.emit(
                "wal.disk_full", error=str(error), durable_lsn=self.wal.durable_lsn
            )
        return True

    def _check_disk_recovered(self) -> None:
        """Probe the journal volume; clear the degradation flag when
        space has returned, else refuse the mutation with the standby's
        typed ReadOnlyError (same wire path, same client handling)."""
        try:
            self.wal.probe_writable()
        except (OSError, ReproError):
            raise ReadOnlyError(
                "journal disk is full; this server is read-only "
                "until space is freed (reads still served)"
            ) from None
        self._disk_full = False
        _events.emit("wal.disk_recovered", durable_lsn=self.wal.durable_lsn)

    # ------------------------------------------------------------------
    # replication: status, snapshot, streaming, promotion
    def replication_lag(self) -> int:
        """Standby: durable journal records this replica has not applied
        yet (0 on a primary, and on a standby that is fully caught up as
        of the last heartbeat)."""
        return max(0, self._primary_durable - self.applied_lsn)

    def note_primary_durable(self, lsn: int) -> None:
        """Standby tailer: record the primary's durable LSN (from a
        heartbeat or a shipped batch) so lag is observable even while
        no records are flowing."""
        self._primary_durable = max(self._primary_durable, lsn)
        self._note_lag()

    def _note_lag(self) -> None:
        """Publish the lag gauge and maintain the wall-clock marker
        behind ``lag_seconds``: set when nonzero lag first appears,
        cleared once caught up."""
        lag = self.replication_lag()
        self.repl_lag.set(lag)
        if lag > 0:
            if self._lag_since is None:
                self._lag_since = time.time()
        else:
            self._lag_since = None

    def lag_seconds(self) -> float:
        """How long this replica has continuously been behind, in
        seconds (0.0 while caught up)."""
        since = self._lag_since
        if since is None or self.replication_lag() == 0:
            return 0.0
        return max(0.0, time.time() - since)

    def repl_status(self) -> dict:
        wal = self.wal
        status = {
            "role": "standby" if self.read_only else "primary",
            "read_only": self.read_only,
            "applied_lsn": self.applied_lsn,
            "lag": self.replication_lag(),
            "lag_seconds": round(self.lag_seconds(), 3),
            "dedup_window": len(self.dedup),
        }
        if self.primary:
            status["primary"] = self.primary
        if wal is not None:
            status.update(
                durable_lsn=wal.durable_lsn,
                checkpoint_lsn=wal.checkpoint_lsn,
                checkpoints=wal.checkpoints,
                sync=wal.sync,
            )
        with self._subscriber_lock:
            status["subscribers"] = len(self._subscribers)
        return status

    # ------------------------------------------------------------------
    # cluster health surface (the `status` op / \status)
    def status(self) -> dict:
        """One aggregated health view: role, replication lag (records +
        seconds), WAL depth since the last checkpoint, result-cache hit
        rates, governor admission/breaker state, refresh backlog, and
        p50/p95/p99 from every live histogram — the server's own half,
        on top of :meth:`Database.status`."""
        wal = self.wal
        status: dict = {
            "role": "standby" if self.read_only else "primary",
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections": int(self.connections.value),
            "requests": self.requests.value,
            "errors": self.errors.value,
            "misses": {route: c.value for route, c in self.misses.items()},
            "replication": self.repl_status(),
        }
        if self.address is not None:
            status["address"] = f"{self.address[0]}:{self.address[1]}"
        if wal is not None:
            status["wal"] = {
                "depth_since_checkpoint": wal.last_lsn - wal.checkpoint_lsn,
                "last_lsn": wal.last_lsn,
                "durable_lsn": wal.durable_lsn,
                "checkpoint_lsn": wal.checkpoint_lsn,
                "checkpoints": wal.checkpoints,
                "last_checkpoint_ms": wal.last_checkpoint_ms,
                "sync": wal.sync,
                "disk_full": self._disk_full,
            }
        status["cache"] = self._cache_status()
        status.update(self.db.status())
        return status

    def _cache_status(self) -> dict:
        metrics = self.db.metrics

        def value(name: str) -> int:
            metric = metrics.get(name)
            return int(metric.value) if metric is not None else 0

        hits = value("cache.hits")
        stale = value("cache.stale_hits")
        misses = value("cache.misses")
        lookups = hits + stale + misses
        return {
            "enabled": self.cache.max_entries > 0,
            "entries": len(self.cache),
            "bytes": self.cache.nbytes,
            "max_bytes": self.cache.max_bytes,
            "hits": hits,
            "stale_hits": stale,
            "misses": misses,
            "hit_rate": (
                round((hits + stale) / lookups, 4) if lookups else None
            ),
        }

    def _snapshot_response(self) -> dict:
        """A consistent full-state snapshot for standby bootstrap: built
        under the database's writer lock, so it corresponds exactly to
        the journal prefix up to the reported LSN; the background refresh
        worker, which that lock does not park, cannot land inside it
        because the payload is one capture of the database
        (:func:`repro.engine.persist.database_state_payload`)."""
        from repro.engine.persist import database_state_payload

        db = self.db
        with db._catalog_lock:
            if self.wal is not None:
                # Drain the journal while holding the lock: the state we
                # are about to capture includes every applied+staged
                # mutation, including ones whose group-commit fsync is
                # still in flight outside the lock. Reporting a durable
                # LSN below those would make the stream re-ship them and
                # the standby double-apply. After the drain every staged
                # record is durable, so durable_lsn IS the state's
                # watermark. (A staged record whose flush failed — it
                # rolls back once we release the lock — aborts the
                # snapshot instead of leaking its effect to the standby.)
                self.wal.flush()
                lsn = self.wal.durable_lsn
                if lsn < self.wal.last_lsn:
                    raise ReplicationError(
                        "snapshot aborted: a journal flush failed with "
                        "mutations in flight; retry"
                    )
            else:
                lsn = self.applied_lsn
            state = database_state_payload(db)
            tokens = dict(self.dedup.items())
        return {"ok": True, "state": state, "lsn": lsn, "tokens": tokens}

    def promote(self) -> dict:
        """Flip this standby into a primary: mutations are accepted (and
        journaled, when a journal is attached) from here on."""
        self.read_only = False
        self._primary_durable = self.applied_lsn
        self.repl_lag.set(0)
        self._lag_since = None
        _events.emit("standby.promote", applied_lsn=self.applied_lsn)
        return {"role": "primary", "applied_lsn": self.applied_lsn}

    def _promote_response(self) -> dict:
        if not self.read_only:
            raise ReproError("this server is already a primary")
        if self.on_promote is not None:
            promoted = self.on_promote()
        else:
            promoted = self.promote()
        return {"ok": True, "promoted": promoted}

    def reset_database(
        self, db: Database, lsn: int, tokens: dict[str, str] | None = None
    ) -> None:
        """Replace the served database wholesale (standby re-bootstrap:
        the primary's journal no longer covers our position, so the
        tailer fetched a fresh snapshot at ``lsn``). Re-anchors the
        local journal at ``lsn``, carries the admission limits over and
        drops caches built over the old database."""
        admission = self.db.governor.admission
        with self.db._catalog_lock:
            if self.wal is not None:
                self.wal.rebase(db, tokens=tokens or {}, base_lsn=lsn)
            db.governor.admission.configure(
                admission.max_concurrent,
                max_queue=admission.max_queue,
                queue_timeout_ms=admission.queue_timeout_ms,
            )
            self.db = db
            self.cache = ResultCache(
                db.delta_log,
                metrics=db.metrics,
                max_entries=self.cache.max_entries,
                max_bytes=self.cache.max_bytes,
            )
            # entries are epoch-keyed per database; the new database
            # restarts its epoch counter
            self._prepared.clear()
            for token, status in (tokens or {}).items():
                self.dedup.put(token, status)
            self.applied_lsn = lsn
            self._primary_durable = max(self._primary_durable, lsn)
        self._note_lag()

    def apply_replicated(self, record: WalRecord) -> None:
        """Standby: apply one shipped journal record through
        ``Database.run_write``, journaled locally under the primary's
        LSN, and remember its token; a failure leaves nothing applied
        and ``applied_lsn`` where it was, so the record is shipped again.
        Called by the standby's tailer thread, in LSN order. The
        record's ``trace`` (shipped when the primary traced the
        originating mutation) joins the apply span to that trace."""
        tracer = _spans.TRACER
        span = (
            tracer.root_for(
                "standby.apply", record.trace,
                lsn=record.lsn, kind=record.kind,
            )
            if tracer is not None
            else _spans.NOOP
        )
        with span:
            run = self.db.run_write(
                parse_statement(record.sql), record.sql,
                journal=self.wal, record=record,
            )
            self.applied_lsn = max(self.applied_lsn, record.lsn)
            if record.token is not None:
                self.dedup.put(record.token, record.status)
            self._invalidate(run)
            self._note_lag()
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        wal = self.wal
        if wal is None or not wal.should_checkpoint():
            return
        with self.db._catalog_lock:
            if not wal.should_checkpoint():  # another thread beat us
                return
            try:
                wal.checkpoint(self.db, dict(self.dedup.items()))
            except Exception as error:  # noqa: BLE001
                # A full disk must not fail the mutation that
                # triggered the checkpoint — the record itself is
                # already durable; compaction just waits for space.
                if not self._note_disk_error(error):
                    raise

    # ---- journal streaming (primary side) ----
    def _subscribe(self) -> tuple[int, asyncio.Queue]:
        queue: asyncio.Queue = asyncio.Queue()
        with self._subscriber_lock:
            self._next_subscriber += 1
            sid = self._next_subscriber
            self._subscribers[sid] = queue
        return sid, queue

    def _unsubscribe(self, sid: int) -> None:
        with self._subscriber_lock:
            self._subscribers.pop(sid, None)
        with self._ack_cond:
            self._standby_acks.pop(sid, None)
            self._ack_cond.notify_all()

    def _on_durable(self, records: list[WalRecord]) -> None:
        """WriteAheadLog callback (pool thread): fan a durable batch out
        to every streaming subscriber on the event loop."""
        loop = self._loop
        if loop is None:
            return
        with self._subscriber_lock:
            queues = list(self._subscribers.values())
        for queue in queues:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, records)
            except RuntimeError:  # loop already closed (shutdown race)
                return

    def _note_ack(self, who, lsn: int) -> None:
        with self._ack_cond:
            if lsn > self._standby_acks.get(who, 0):
                self._standby_acks[who] = lsn
                self._ack_cond.notify_all()

    def _await_acks(self, lsn: int) -> int:
        """Semi-sync wait: block until ``repl_ack`` standbys acked
        ``lsn`` or the timeout passes (availability wins over strictness
        — the record is already durable locally)."""
        if self.repl_ack <= 0:
            return 0
        deadline = time.monotonic() + self.repl_ack_timeout_ms / 1000.0
        with self._ack_cond:
            while True:
                count = sum(
                    1 for acked in self._standby_acks.values()
                    if acked >= lsn
                )
                if count >= self.repl_ack:
                    return count
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._draining.is_set():
                    return count
                self._ack_cond.wait(remaining)

    async def _stream_journal(self, reader, writer, after: int) -> None:
        """Serve one ``repl.stream`` subscription: durable backlog
        first, then live batches as they fsync, with heartbeats while
        idle. Acks (`repl.ack` lines) flow back on the same connection
        for semi-sync. Any error — including an injected
        ``repl.stream`` fault — drops the connection; the standby
        reconnects and resumes from its applied LSN."""
        assert self.wal is not None
        sid, queue = self._subscribe()
        ack_task = asyncio.ensure_future(self._read_stream_acks(reader, sid))
        try:
            backlog = await self._run_blocking(self.wal.records_after, after)
            sent = await self._send_records(writer, backlog, after)
            while not self._stop_event.is_set():
                try:
                    batch = await asyncio.wait_for(queue.get(), timeout=0.5)
                except asyncio.TimeoutError:
                    writer.write(protocol.encode_message({
                        "repl": "heartbeat",
                        "durable_lsn": self.wal.durable_lsn,
                    }))
                    await writer.drain()
                    continue
                sent = await self._send_records(writer, batch, sent)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        except Exception:  # noqa: BLE001 - injected faults drop the link
            pass
        finally:
            ack_task.cancel()
            self._unsubscribe(sid)

    async def _send_records(self, writer, records, sent: int) -> int:
        fresh = [r for r in records if r.lsn > sent]
        if not fresh:
            return sent
        for _ in fresh:
            faults.fire("repl.stream")
        entries = []
        for r in fresh:
            entry = {
                "lsn": r.lsn,
                "kind": r.kind,
                "sql": r.sql,
                "token": r.token,
                "status": r.status,
            }
            if r.trace is not None:
                entry["trace"] = r.trace
            entries.append(entry)
        writer.write(protocol.encode_message({
            "repl": "records",
            "records": entries,
            "durable_lsn": self.wal.durable_lsn,
        }))
        await writer.drain()
        return fresh[-1].lsn

    async def _read_stream_acks(self, reader, sid: int) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, ValueError):
                return
            if not line:
                return
            try:
                message = protocol.decode_message(line)
            except Exception:  # noqa: BLE001 - ignore junk on the wire
                continue
            if message.get("op") == "repl.ack":
                self._note_ack(sid, int(message.get("lsn", 0)))
