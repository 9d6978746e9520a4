"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type. The subtypes mirror the pipeline stages:
parsing, semantic analysis (binding SQL to a catalog), execution, and
matching/rewrite.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    callers can point at the exact spot in the query text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindError(ReproError):
    """A parsed query references unknown tables/columns or is ambiguous."""


class CatalogError(ReproError):
    """Invalid schema definition (duplicate tables, bad constraints, ...)."""


class ExecutionError(ReproError):
    """A runtime failure while evaluating a query graph."""


class TypeMismatchError(ExecutionError):
    """Row data did not match the declared column types."""


class UnsupportedSqlError(ReproError):
    """The SQL construct is valid but outside the supported subset.

    The paper explicitly excludes correlated and recursive queries; those
    raise this error rather than silently producing a wrong graph.
    """


class RewriteError(ReproError):
    """The rewrite engine could not apply a match to the query graph."""


class GovernorError(ReproError):
    """Base class for query-governor interventions (see
    :mod:`repro.governor`): deadlines, budgets, cancellation, and
    admission control all raise subtypes of this."""


class QueryRejected(GovernorError):
    """Admission control shed this query: the concurrent-query limit was
    reached and the wait queue was full (or the queue wait timed out),
    or the memory broker reported global pressure.

    Load shedding is deliberate back-pressure, not a fault — retrying
    later is the expected response. ``details`` carries the structured
    load snapshot (running/queued/reserved bytes and the configured
    limits) so clients can back off intelligently; it rides the wire in
    the error payload's ``details`` field.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class QueryTimeout(GovernorError):
    """The query's ``SET QUERY TIMEOUT`` deadline expired while it was
    executing. (A deadline that expires during the *match* phase never
    raises this — matching is optional work, so the governor degrades to
    base-table execution instead; see :class:`MatchBudgetExceeded`.)"""


class QueryCancelled(GovernorError):
    """The query's cancellation token was triggered (scheduler shutdown,
    ``REFRESH`` preemption, or an explicit ``cancel()``)."""


class BudgetExhausted(GovernorError):
    """A governor work budget (``SET QUERY MAXROWS``, match-pairing
    budget) was exceeded."""


class MatchBudgetExceeded(BudgetExhausted):
    """The match phase ran out of budget (its deadline expired or its
    pairing budget was spent). The rewrite sandbox catches this and
    degrades the query to base-table execution — it only escapes to
    callers who invoke the matcher directly."""


class MemoryBudgetExceeded(BudgetExhausted):
    """A query's memory reservation (``SET QUERY MAXMEM`` or the
    process-wide ``--mem-limit`` broker) could not grant a charge. The
    executor's spill-capable operators catch this and degrade to
    spill-to-disk execution; it only escapes from sites with no spill
    recourse (and from the reservation API when called directly)."""


class QueryResourceError(GovernorError):
    """The query exhausted its memory budget *and* the spill path could
    not absorb the overflow (spill disk full or unwritable). This is the
    bottom rung of the resource degradation ladder: the query fails with
    a typed error instead of taking the process down with MemoryError or
    an unhandled ENOSPC."""


class WriteInProgress(ReproError):
    """A SELECT run told not to wait (``Database.run_select(wait=False)``)
    found a write holding the tables it reads."""


class MaintenanceError(ReproError):
    """A summary table could not be incrementally maintained."""


class ReplicationError(ReproError):
    """Base class for durability/replication failures (see
    :mod:`repro.replication`): journal write failures, standby
    restrictions, and replication-lag rejections derive from this."""


class WalError(ReplicationError):
    """The write-ahead journal could not accept or replay a record."""


class WalGapError(ReplicationError):
    """The journal no longer holds a contiguous backlog after the
    requested LSN (checkpoint compaction deleted it, and the in-memory
    ring does not reach back that far). Streaming from here would
    silently skip mutations — the subscriber must bootstrap from a
    fresh snapshot instead."""


class ReadOnlyError(ReplicationError):
    """A mutation reached a read-only (standby) server. Clients with
    failover enabled treat this as a redirect hint and retry against
    the other address; a promoted standby stops raising it."""


class ReplicaLagExceeded(ReplicationError):
    """A standby's replication lag exceeds the session's ``SET REFRESH
    AGE`` tolerance, so serving the read would silently violate the
    freshness the client asked for. Lower the tolerance requirement
    (``SET REFRESH AGE ANY | <n>``) or read from the primary."""
