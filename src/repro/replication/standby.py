"""The warm standby: a second query server tailing the primary's journal.

:class:`StandbyServer` wires three pieces together:

* **Bootstrap** — ask the primary for a consistent full-state snapshot
  (op ``repl.snapshot``: schemas, rows, summary definitions with their
  refresh state, the staged delta log, the dedup-token window) and
  rebuild a :class:`~repro.engine.database.Database` from it. With a
  local journal directory that already holds a journal, recovery
  replaces bootstrap — a restarted standby resumes from its own
  checkpoint and tail, and only fetches the records it missed.
* **Tail** — a background thread holds one ``repl.stream`` connection
  to the primary and applies shipped records in LSN order through
  :meth:`~repro.server.server.QueryServer.apply_replicated` (which
  journals them locally under the *primary's* LSNs, so the standby is
  itself durable and promotable). Heartbeats carry the primary's
  durable LSN, making replication lag observable while idle; each
  applied batch is acked back on the same connection for the primary's
  semi-sync mode. A dropped connection reconnects with capped backoff
  and resumes from the standby's applied LSN.
* **Serve** — the embedded :class:`~repro.server.server.QueryServer`
  runs ``read_only=True``: mutations are rejected with a redirect hint,
  reads are gated on replication lag through ``SET REFRESH AGE``
  (see ``QueryServer._answer_select``).

:meth:`promote` (or the ``repl.promote`` op) stops the tailer and flips
the server into a primary: it starts accepting mutations, journaling
them after the last applied primary LSN — the promoted database is
bit-identical to the primary's journal prefix it had applied.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import ReplicationError, WalGapError
from repro.obs import events as _events
from repro.server import protocol
from repro.server.server import QueryServer


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port)


class StandbyServer:
    """A warm-standby query server replicating one primary."""

    def __init__(
        self,
        primary: str | tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        wal_dir: str | None = None,
        sync: str = "fsync",
        checkpoint_every: int = 512,
        cache_enabled: bool = True,
        cache_size: int = 256,
        max_workers: int = 32,
        ack: bool = True,
        reconnect_backoff: float = 0.2,
        reconnect_cap: float = 2.0,
        connect_timeout: float = 10.0,
    ):
        if isinstance(primary, str):
            primary = parse_address(primary)
        self.primary = primary
        self.host = host
        self.port = port
        self.wal_dir = wal_dir
        self.sync = sync
        self.checkpoint_every = checkpoint_every
        self.cache_enabled = cache_enabled
        self.cache_size = cache_size
        self.max_workers = max_workers
        self.ack = ack
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_cap = reconnect_cap
        self.connect_timeout = connect_timeout
        self.server: QueryServer | None = None
        self.address: tuple[str, int] | None = None
        #: recovery description when a restart recovered a local journal
        self.recovery = None
        self._stop = threading.Event()
        self._promoted = threading.Event()
        self._tailer: threading.Thread | None = None
        #: the tailer's live stream socket — promote()/stop() close it
        #: to unblock a readline() parked in its socket timeout
        self._tail_sock: socket.socket | None = None

    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        return self.server.replication_lag() if self.server else 0

    @property
    def applied_lsn(self) -> int:
        return self.server.applied_lsn if self.server else 0

    def start(self) -> tuple[str, int]:
        """Bootstrap (or recover), start serving read-only, start
        tailing; returns the standby's listen address."""
        from repro.replication.wal import WriteAheadLog

        wal = None
        tokens: dict[str, str] = {}
        if self.wal_dir is not None:
            wal = WriteAheadLog(
                self.wal_dir,
                sync=self.sync,
                checkpoint_every=self.checkpoint_every,
            )
        if wal is not None and wal.exists():
            recovery = wal.recover()
            self.recovery = recovery
            db, tokens = recovery.database, recovery.tokens
        else:
            state, lsn, tokens = self._fetch_snapshot()
            from repro.engine.persist import database_from_payload

            db = database_from_payload(state)
            if wal is not None:
                wal.begin(db, tokens=tokens, base_lsn=lsn)
        self.server = QueryServer(
            db,
            host=self.host,
            port=self.port,
            cache_enabled=self.cache_enabled,
            cache_size=self.cache_size,
            max_workers=self.max_workers,
            wal=wal,
            read_only=True,
            primary=f"{self.primary[0]}:{self.primary[1]}",
        )
        self.server.dedup.seed(tokens)
        self.server.applied_lsn = wal.durable_lsn if wal is not None else (
            self.server.applied_lsn
        )
        self.server.on_promote = self.promote
        self.address = self.server.start_in_thread()
        self._tailer = threading.Thread(
            target=self._tail_forever, name="repro-standby-tail", daemon=True
        )
        self._tailer.start()
        return self.address

    def stop(self) -> None:
        self._stop.set()
        self._close_tail_sock()
        if self._tailer is not None:
            self._tailer.join(timeout=10)
            self._tailer = None
        if self.server is not None:
            self.server.stop()

    def promote(self) -> dict:
        """Stop following the primary and start accepting mutations.

        The flag is set *and the stream socket is closed* before the
        join: the tailer may be parked in ``readline()`` for its whole
        socket timeout, and must not apply records it already read
        after the promotion decision — closing the socket fails its
        read immediately, and :meth:`_tail_once` re-checks the flag
        before every apply."""
        self._promoted.set()
        self._close_tail_sock()
        if (
            self._tailer is not None
            and self._tailer is not threading.current_thread()
        ):
            self._tailer.join(timeout=10)
            self._tailer = None
        assert self.server is not None
        return self.server.promote()

    def _close_tail_sock(self) -> None:
        sock = self._tail_sock
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # bootstrap
    def _fetch_snapshot(self) -> tuple[dict, int, dict[str, str]]:
        with socket.create_connection(
            self.primary, timeout=self.connect_timeout
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(protocol.encode_message({"op": "repl.snapshot"}))
            line = reader.readline()
            if not line:
                raise ReplicationError(
                    "primary closed the connection during snapshot"
                )
            response = protocol.decode_message(line)
        if not response.get("ok"):
            error = (response.get("error") or {}).get("message", "snapshot")
            raise ReplicationError(f"snapshot bootstrap failed: {error}")
        return (
            response["state"],
            int(response.get("lsn", 0)),
            dict(response.get("tokens", {})),
        )

    # ------------------------------------------------------------------
    # tailing
    def _tail_forever(self) -> None:
        failures = 0
        while not (self._stop.is_set() or self._promoted.is_set()):
            try:
                self._tail_once()
                failures = 0
            except WalGapError:
                # The primary compacted past our position (long outage,
                # or a primary restart emptied its backlog ring): the
                # stream cannot resume gap-free, so bootstrap again from
                # a fresh snapshot and resume tailing from there.
                _events.emit(
                    "standby.rebootstrap",
                    applied_lsn=(
                        self.server.applied_lsn if self.server else 0
                    ),
                )
                try:
                    self._rebootstrap()
                    failures = 0
                except Exception:  # noqa: BLE001 - retry with backoff
                    failures += 1
            except Exception as error:  # noqa: BLE001 - reconnect on any failure
                failures += 1
                _events.emit(
                    "standby.reconnect", failures=failures,
                    reason=f"{type(error).__name__}: {error}",
                )
            if self._stop.is_set() or self._promoted.is_set():
                return
            delay = min(
                self.reconnect_cap, self.reconnect_backoff * (2 ** failures)
            )
            self._stop.wait(delay)

    def _rebootstrap(self) -> None:
        """Fetch a fresh snapshot and swap it into the running server,
        re-anchoring the local journal at the snapshot's LSN (see
        :meth:`QueryServer.reset_database`)."""
        from repro.engine.persist import database_from_payload

        assert self.server is not None
        state, lsn, tokens = self._fetch_snapshot()
        db = database_from_payload(state)
        self.server.reset_database(db, lsn=lsn, tokens=tokens)

    def _tail_once(self) -> None:
        """One streaming session: subscribe after the applied LSN, apply
        records and note heartbeats until the connection drops."""
        assert self.server is not None
        server = self.server
        with socket.create_connection(
            self.primary, timeout=self.connect_timeout
        ) as sock:
            self._tail_sock = sock
            try:
                self._tail_stream(server, sock)
            finally:
                self._tail_sock = None

    def _tail_stream(self, server: QueryServer, sock: socket.socket) -> None:
        # The read timeout doubles as a liveness check: heartbeats
        # arrive every ~0.5 s, so several missed intervals mean the
        # primary (or the path to it) is gone.
        sock.settimeout(max(5.0, self.connect_timeout))
        reader = sock.makefile("rb")
        sock.sendall(protocol.encode_message({
            "op": "repl.stream", "after": server.applied_lsn,
        }))
        opened = protocol.decode_message(self._read_line(reader))
        if not opened.get("ok"):
            error = opened.get("error") or {}
            message = error.get("message", "stream")
            if error.get("type") == WalGapError.__name__:
                # typed refusal: the backlog we need is gone — the
                # caller falls back to a fresh snapshot bootstrap
                raise WalGapError(message)
            raise ReplicationError(f"stream rejected: {message}")
        while not (self._stop.is_set() or self._promoted.is_set()):
            message = protocol.decode_message(self._read_line(reader))
            if "durable_lsn" in message:
                server.note_primary_durable(int(message["durable_lsn"]))
            if message.get("repl") != "records":
                continue
            from repro.replication.wal import WalRecord

            applied = 0
            for entry in message["records"]:
                if self._stop.is_set() or self._promoted.is_set():
                    # promotion may have landed while this batch was in
                    # flight — applying the rest would race the new
                    # primary's own mutations for LSNs
                    return
                record = WalRecord(
                    lsn=int(entry["lsn"]),
                    kind=entry["kind"],
                    sql=entry["sql"],
                    token=entry.get("token"),
                    status=entry.get("status", ""),
                )
                if record.lsn <= server.applied_lsn:
                    continue  # overlap after a reconnect
                server.apply_replicated(record, trace_id=entry.get("trace"))
                applied += 1
            if applied and self.ack:
                sock.sendall(protocol.encode_message({
                    "op": "repl.ack", "lsn": server.applied_lsn,
                }))

    @staticmethod
    def _read_line(reader) -> bytes:
        line = reader.readline()
        if not line:
            raise ReplicationError("stream connection closed")
        return line


def wait_for_catchup(
    standby: StandbyServer, lsn: int, timeout: float = 30.0
) -> None:
    """Block until the standby has applied ``lsn`` (tests and controlled
    promotion); raises :class:`ReplicationError` on timeout."""
    deadline = time.monotonic() + timeout
    while standby.applied_lsn < lsn:
        if time.monotonic() >= deadline:
            raise ReplicationError(
                f"standby stuck at lsn {standby.applied_lsn}, "
                f"waiting for {lsn}"
            )
        time.sleep(0.01)
