"""A blocking client for the query server, with failover.

:class:`ReproClient` speaks the protocol in :mod:`repro.server.
protocol` over a plain TCP socket — one request line out, one response
line back — and re-raises server-side failures as the same typed
:mod:`repro.errors` exceptions the in-process library would raise
(``QueryRejected`` from admission overflow, ``QueryTimeout`` from a
session deadline, ...), so callers handle remote and local execution
identically. Non-``repro`` server failures surface as
:class:`ServerError`.

Failover (docs/ROBUSTNESS.md, "Durability & failover") is opt-in via
``retries``/``failover``:

* A transport failure — connection refused/reset, a timeout, a
  half-read reply — closes the socket (a connection in an unknown
  protocol state is never reused), reconnects, and retries with
  exponential backoff plus deterministic jitter, rotating through the
  failover addresses.
* Every retried ``query`` carries the same client-generated
  *idempotency token*, so a mutation whose ACK was lost is answered
  from the server's dedup window instead of applying twice —
  exactly-once from the caller's view.
* A :class:`~repro.errors.ReadOnlyError` reply (the request landed on
  a standby) is treated as a redirect hint: the client rotates to the
  next address and retries there.
* Session ``SET`` statements issued through :meth:`set` are replayed
  after every reconnect, so a failover is transparent to session knobs.

With ``retries=0`` (the default) nothing is retried, but the
close-on-timeout rule still applies: the old behavior of leaving a
partially-read reply buffered on a live socket desynced every
subsequent request on that connection.
"""

from __future__ import annotations

import random
import socket
import time
import uuid

from repro.engine.table import Table
from repro.errors import ReadOnlyError, ReproError
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.server import protocol
from repro.testing import faults


class ServerError(ReproError):
    """The server reported a failure with no matching typed error."""


class ConnectionLost(ServerError):
    """The transport failed mid-request (refused, reset, timed out, or
    the reply was cut short). The connection has been closed; whether
    the server processed the request is unknown — which is exactly what
    idempotency tokens exist for."""


class QueryReply:
    """One decoded server response to ``query``/``set``/``explain``."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.table: Table | None = (
            protocol.decode_table(raw["table"]) if "table" in raw else None
        )
        self.status: str | None = raw.get("status")
        self.text: str | None = raw.get("text")
        #: "hit" | "stale-hit" | "miss" | "bypass" | None (non-SELECT)
        self.cache: str | None = raw.get("cache")
        self.elapsed_ms: float = raw.get("elapsed_ms", 0.0)
        #: True when the server answered from its dedup window (a retry
        #: of a mutation it had already applied)
        self.deduped: bool = bool(raw.get("deduped"))

    @property
    def value(self):
        """The payload: a Table for SELECT/EXPLAIN, else the status."""
        if self.table is not None:
            return self.table
        if self.text is not None:
            return self.text
        return self.status


class ReproClient:
    """One connection to a :class:`~repro.server.server.QueryServer`.

    ``failover`` lists additional ``(host, port)`` addresses (the warm
    standby); ``retries`` bounds transport retries per request (0
    disables retrying). ``seed`` fixes the jitter stream for
    deterministic tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        failover: tuple[tuple[str, int], ...] = (),
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int | None = None,
    ):
        self._addresses = [(host, port), *failover]
        self._addr_index = 0
        self._timeout = timeout
        self.retries = max(0, retries)
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_id = 0
        #: successful session SETs, replayed after every reconnect
        self._session_sets: list[str] = []
        self.reconnects = 0
        self.retried = 0
        self._connect()

    # ------------------------------------------------------------------
    # connection management
    @property
    def address(self) -> tuple[str, int]:
        """The address the client is currently pointed at."""
        return self._addresses[self._addr_index]

    def _connect(self) -> None:
        """Connect to the current address, trying each failover address
        in turn; replays the session's SETs on the fresh connection."""
        last_error: Exception | None = None
        for _ in range(len(self._addresses)):
            host, port = self._addresses[self._addr_index]
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=self._timeout
                )
                self._reader = self._sock.makefile("rb")
                for sql in self._session_sets:
                    # A replay that fails (rejected, or the connection
                    # died mid-replay) must fail the whole connection:
                    # silently dropping a knob (REFRESH AGE, a timeout)
                    # would change query semantics behind the caller's
                    # back. OSError keeps the rotation going.
                    try:
                        reply = self._send_one({"op": "set", "sql": sql})
                    except ConnectionLost as error:
                        raise OSError(str(error)) from error
                    if not reply.get("ok"):
                        message = (reply.get("error") or {}).get(
                            "message", "rejected"
                        )
                        raise OSError(
                            f"session SET replay failed ({message})"
                        )
                return
            except OSError as error:
                last_error = error
                self._disconnect()
                self._addr_index = (
                    (self._addr_index + 1) % len(self._addresses)
                )
        raise ConnectionLost(
            f"cannot reach any server ({last_error})"
        ) from last_error

    def _disconnect(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:  # pragma: no cover
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _rotate(self) -> None:
        self._addr_index = (self._addr_index + 1) % len(self._addresses)

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # requests
    def request(self, op: str, **fields) -> dict:
        """Send one request, wait for its response; raises the typed
        :mod:`repro.errors` exception on a failure response.

        With retries enabled, every ``query`` carries an idempotency
        token (the same one across all attempts), transport failures
        reconnect and retry with backoff, and ``ReadOnlyError`` rotates
        to the next address.

        When the process tracer is installed (``repro.obs.spans``), the
        request is a trace root: every attempt is a child span, and the
        sampled trace context rides the wire in a ``trace`` field so the
        server's spans join the same trace.
        """
        if self.retries > 0 and op == "query" and "token" not in fields:
            fields["token"] = uuid.uuid4().hex
        tracer = _spans.TRACER
        root = (
            tracer.start_trace("client.request", op=op)
            if tracer is not None
            else _spans.NOOP
        )
        if root:
            # one context across every attempt: retries stay one trace
            fields["trace"] = root.context()
        attempts = self.retries + 1
        last_error: Exception | None = None
        with root:
            for attempt in range(attempts):
                if attempt > 0:
                    self.retried += 1
                    self._sleep_backoff(attempt)
                attempt_span = root.child(
                    "client.attempt", attempt=attempt,
                    address=f"{self.address[0]}:{self.address[1]}",
                )
                try:
                    with attempt_span:
                        return self._request_once(op, fields)
                except ConnectionLost as error:
                    last_error = error
                    self._disconnect()
                    self._rotate()
                    if attempt < attempts - 1:
                        _events.emit(
                            "client.failover",
                            trace_id=root.trace_id,
                            reason=str(error),
                            next=f"{self.address[0]}:{self.address[1]}",
                        )
                except ReadOnlyError:
                    # Redirect hint: this address is a standby. With no
                    # alternative address the caller needs to know.
                    if len(self._addresses) == 1 or attempt == attempts - 1:
                        raise
                    self._disconnect()
                    self._rotate()
                    _events.emit(
                        "client.redirect",
                        trace_id=root.trace_id,
                        next=f"{self.address[0]}:{self.address[1]}",
                    )
            assert last_error is not None
            raise last_error

    def _request_once(self, op: str, fields: dict) -> dict:
        if self._sock is None:
            self._connect()
            self.reconnects += 1
        self._next_id += 1
        request = {"op": op, "id": self._next_id, **fields}
        try:
            assert self._sock is not None and self._reader is not None
            self._sock.sendall(protocol.encode_message(request))
            faults.fire("client.send")
            line = self._reader.readline()
        except faults.InjectedFault as error:
            # The armed client.send point models a lost ACK: the bytes
            # left this socket, the reply never arrived. Same handling
            # as a real transport loss.
            self._disconnect()
            raise ConnectionLost(str(error)) from error
        except socket.timeout as error:
            # The reply may be half-buffered — the socket is in an
            # undefined protocol state and must never be reused.
            self._disconnect()
            raise ConnectionLost(
                f"timed out after {self._timeout:g}s waiting for a reply"
            ) from error
        except OSError as error:
            self._disconnect()
            raise ConnectionLost(f"connection failed ({error})") from error
        if not line:
            self._disconnect()
            raise ConnectionLost("server closed the connection")
        if not line.endswith(b"\n"):
            # A short read: the server (or the network) died mid-reply.
            self._disconnect()
            raise ConnectionLost("reply cut short mid-line")
        response = protocol.decode_message(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            cls = protocol.error_class(str(error.get("type", "")))
            if cls is ReproError:
                cls = ServerError
            exc = cls(error.get("message", "server error"))
            details = error.get("details")
            if isinstance(details, dict):
                # QueryRejected ships a structured load snapshot;
                # re-raise with it attached so callers can back off on
                # data (running/queued/reserved bytes), not prose.
                exc.details = details
            raise exc
        return response

    def _send_one(self, request: dict) -> dict:
        """One raw request on the already-open socket (SET replay during
        reconnect — bypasses the retry machinery on purpose)."""
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(protocol.encode_message(request))
        line = self._reader.readline()
        if not line:
            raise ConnectionLost("server closed the connection")
        return protocol.decode_message(line)

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(
            self._backoff_cap, self._backoff * (2 ** (attempt - 1))
        )
        time.sleep(delay * (0.5 + self._rng.random()))

    # ------------------------------------------------------------------
    def query(self, sql: str, use_summary_tables: bool = True,
              token: str | None = None) -> QueryReply:
        """Run any supported statement; SELECTs return a decoded table.
        ``token`` pins the idempotency token (a fresh one is generated
        per logical request when retries are enabled)."""
        fields = {}
        if not use_summary_tables:
            fields["use_summary_tables"] = False
        if token is not None:
            fields["token"] = token
        return QueryReply(self.request("query", sql=sql, **fields))

    def set(self, sql: str) -> str:
        """Apply a session-scoped (or ``SLOW QUERY``: global) SET; the
        statement is replayed after any reconnect so failover preserves
        session knobs."""
        status = QueryReply(self.request("set", sql=sql)).status or ""
        self._session_sets.append(sql)
        return status

    def explain(self, sql: str, analyze: bool = False) -> str:
        fields = {"analyze": True} if analyze else {}
        return self.request("explain", sql=sql, **fields)["text"]

    def metrics(self) -> dict:
        return self.request("metrics")["metrics"]

    def status(self) -> dict:
        """The server's aggregated health view (the ``status`` op)."""
        return self.request("status")["status"]

    def ping(self) -> dict:
        return self.request("ping")

    def promote(self) -> dict:
        """Promote the standby this client is pointed at."""
        return self.request("repl.promote")["promoted"]
