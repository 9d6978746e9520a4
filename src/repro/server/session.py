"""Per-connection session state: ``SET`` knobs that never leak.

Every server connection owns one :class:`Session`. ``SET`` statements
that tune *query behavior* — ``REFRESH AGE``, ``QUERY TIMEOUT``,
``QUERY MAXROWS``, ``QUERY MAXMEM`` — are intercepted here and
recorded on the session instead of mutating the shared
:class:`~repro.engine.database.Database`; at query time the recorded
values flow, as :meth:`Session.overrides`, through
``Database.run_select``'s per-query override parameters (see the
:data:`~repro.governor.governor.UNSET` sentinel) — for queries and
``EXPLAIN ANALYZE`` alike — so two clients with different knobs never
observe each other's limits.

Knobs start *inherited*: until a connection issues its own ``SET``, it
sees the database-level defaults (whatever the operator configured the
shared engine with). ``SET SLOW QUERY`` and ``SET TRACE SAMPLE`` are
deliberately **not** session-scoped — the slow-query log and the
request tracer are shared observability surfaces, so those statements
apply database/process-wide (the two documented exceptions).
"""

from __future__ import annotations

from repro.governor.governor import UNSET
from repro.refresh.policy import RefreshAge
from repro.sql.statements import (
    SetQueryMaxMem,
    SetQueryMaxRows,
    SetQueryTimeout,
    SetRefreshAge,
)

#: session-scoped SET statement types (everything else falls through to
#: ``Database.run_statement`` and applies globally)
SESSION_SET_TYPES = (
    SetRefreshAge,
    SetQueryTimeout,
    SetQueryMaxRows,
    SetQueryMaxMem,
)


class Session:
    """One connection's private ``SET`` state."""

    def __init__(self, client_id: str):
        self.client_id = client_id
        #: None ⇒ inherit the database's session-level ``refresh_age``
        self.refresh_age: RefreshAge | None = None
        # UNSET ⇒ inherit; None ⇒ explicitly OFF for this session
        self.timeout_ms = UNSET
        self.max_rows = UNSET
        self.max_mem = UNSET
        #: queries answered for this connection (ping/metrics excluded)
        self.queries = 0

    # ------------------------------------------------------------------
    def effective_tolerance(self, db) -> RefreshAge:
        """The freshness tolerance this connection's queries run under."""
        return self.refresh_age if self.refresh_age is not None else db.refresh_age

    def effective_max_rows(self, db):
        """The row cap a cache hit must respect (``None`` ⇒ uncapped)."""
        if self.max_rows is UNSET:
            return db.governor.max_rows
        return self.max_rows

    def overrides(self, db) -> dict:
        """This connection's knobs as ``Database.run_select``'s
        per-query keyword arguments — the one place they are spelled."""
        return {
            "tolerance": self.effective_tolerance(db),
            "timeout_ms": self.timeout_ms,
            "max_rows": self.max_rows,
            "max_mem": self.max_mem,
            "client": self.client_id,
        }

    # ------------------------------------------------------------------
    def apply_set(self, statement) -> str | None:
        """Record a session-scoped ``SET``; returns the status message,
        or ``None`` when the statement is not session-scoped (the caller
        should route it to the shared database instead)."""
        if isinstance(statement, SetRefreshAge):
            self.refresh_age = RefreshAge(statement.max_pending)
        elif isinstance(statement, SetQueryTimeout):
            self.timeout_ms = statement.timeout_ms
        elif isinstance(statement, SetQueryMaxRows):
            self.max_rows = statement.max_rows
        elif isinstance(statement, SetQueryMaxMem):
            self.max_mem = statement.max_mem
        else:
            return None
        return statement.status()

    def describe(self) -> dict:
        """The session's knobs as a JSON-ready dict (``ping`` payload)."""

        def show(value):
            return "inherit" if value is UNSET else value

        return {
            "client_id": self.client_id,
            "refresh_age": (
                "inherit"
                if self.refresh_age is None
                else self.refresh_age.describe()
            ),
            "timeout_ms": show(self.timeout_ms),
            "max_rows": show(self.max_rows),
            "max_mem": show(self.max_mem),
            "queries": self.queries,
        }
