"""The wire protocol: one JSON object per line, bit-identical values.

Requests and responses are single JSON objects terminated by ``\\n``
(no embedded newlines — the standard library's serializer never emits
them). A request carries an ``op`` plus op-specific fields and an
optional client-chosen ``id`` that the response echoes back:

``{"op": "query", "id": 7, "sql": "SELECT ..."}``

Ops: ``query`` (any supported statement), ``set`` (a ``SET`` statement
only), ``explain`` (with optional ``"analyze": true``), ``metrics``,
``governor``, ``status`` (the aggregated cluster-health view),
``ping``. Responses always carry ``ok``; successful ones
add ``table`` (SELECT results), ``status`` (DDL/DML/SET), or
op-specific payloads, and failures add
``{"error": {"type": "...", "message": "..."}}`` where ``type`` is the
:mod:`repro.errors` class name (``QueryRejected``, ``QueryTimeout``,
...) so clients re-raise the same typed exception the library would
have raised in process.

**Trace propagation.** Any request may carry an optional
``"trace": {"trace_id": "...", "parent": "..."}`` field — the span
context minted by a traced :class:`~repro.server.client.ReproClient`
(see :mod:`repro.obs.spans`). The server continues the trace into its
own child spans; requests without the field (tracing off, or the trace
was head-sampled away) cost nothing. On the replication stream, shipped
journal records may carry a ``"trace"`` string (the originating
trace_id) so the standby's apply span joins the same trace.

**Result tables** are column-major — ``{"columns": [names...],
"data": [[column 0's values...], [column 1's...], ...]}`` — because
that is how the engine holds them: :func:`encode_table` hands
``Table.columns_data()`` to the serializer (no row tuple is ever built
to be sent), an all-``float`` column as ``{"$f8": base64}`` of its
little-endian doubles; :func:`decode_table` adopts the decoded lists as
the client table's storage. The server encodes a result's table to
bytes once (:func:`encode_table_fragment`), keeps the bytes in its
result cache, and :func:`encode_reply` — the one reply assembler, for
hits and misses alike — splices them in as the last field of the small
per-request envelope (``ok``, ``cache``, ``id``, ``elapsed_ms``).

**Bit-identity.** The differential tests demand that a result served
over the wire equals direct in-process execution exactly. A packed
column keeps each double's bits, NaN payloads too; JSON text
round-trips ``int``, ``str``, ``bool``, ``None`` and a mixed column's
floats (a NaN as the canonical NaN). The one engine value type JSON
lacks is ``datetime.date``; it travels as ``{"$date": "YYYY-MM-DD"}``
wherever it sits, a column's value list included — :mod:`repro.framing`'s
tagged dialect, whose encoder is one prebuilt JSON encoder with a
``default=`` hook and whose decoder revives ``$date`` and no other tag.
"""

from __future__ import annotations

from repro import errors as _errors
from repro.engine.table import Table
from repro.framing import dumps_tagged, loads_tagged, pack_column, unpack_column

#: cap on one encoded message line; a line longer than this is a
#: protocol error (keeps a hostile or buggy peer from ballooning the
#: reader's buffer). Result tables are large — give them room.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(_errors.ReproError):
    """A malformed request or response line."""


def _dumps(payload: dict) -> bytes:
    return dumps_tagged(payload).encode("utf-8")


def encode_message(message: dict) -> bytes:
    """One request/response as a newline-terminated JSON line."""
    return _dumps(message) + b"\n"


def decode_message(line: bytes | str) -> dict:
    """Parse one line back into a message, reviving tagged values."""
    try:
        message = loads_tagged(line)
    except ValueError as error:
        raise ProtocolError(f"bad message line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message line must be a JSON object")
    return message


# ----------------------------------------------------------------------
def encode_table(table: Table) -> dict:
    """A result table as a JSON-ready, column-major payload: each float
    column packed, every other one the table's own list, never rows."""
    data = [pack_column(values) for values in table.columns_data()]
    return {"columns": list(table.columns), "data": data}


def encode_table_fragment(table: Table) -> bytes:
    """:func:`encode_table` serialised once: the bytes the server sends
    on a miss, keeps in the result cache, and sends again on every hit."""
    return _dumps(encode_table(table))


def encode_reply(envelope: dict, table_fragment: bytes | None = None) -> bytes:
    """One response line: the small per-request ``envelope`` (``ok``,
    ``cache``, ``id``, ``elapsed_ms``, ... — never empty) with a
    pre-encoded ``table`` spliced in as its last field."""
    head = _dumps(envelope)
    if table_fragment is None:
        return head + b"\n"
    return b"".join((head[:-1], b',"table":', table_fragment, b"}\n"))


def decode_table(payload: dict) -> Table:
    """Rebuild a :class:`Table` from an :func:`encode_table` payload
    that came through :func:`decode_message` (dates already revived);
    the decoded lists, float columns unpacked, become its storage."""
    try:
        data = [unpack_column(column) for column in payload["data"]]
        return Table.from_columns(payload["columns"], data)
    except (KeyError, TypeError, ValueError, _errors.ExecutionError) as error:
        raise ProtocolError(f"bad table payload: {error}") from None


# ----------------------------------------------------------------------
def error_payload(error: BaseException) -> dict:
    """The ``error`` field for a failure response. Typed errors that
    carry a structured ``details`` dict (``QueryRejected``'s load
    snapshot) ship it alongside the message so clients can back off on
    data instead of parsing prose."""
    payload = {"type": type(error).__name__, "message": str(error)}
    details = getattr(error, "details", None)
    if details:
        payload["details"] = details
    return payload


def error_class(name: str) -> type:
    """The :mod:`repro.errors` class for a wire error ``type`` — falls
    back to :class:`~repro.errors.ReproError` for unknown names (a newer
    server may grow error types an older client has never heard of)."""
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        return cls
    return _errors.ReproError
