"""The governor's cooperative primitives: Budget, Deadline, token, scope.

The paper's rewrite engine runs inside DB2's compiler, where a runaway
match search or a pathological plan is bounded by the server's workload
manager. This reproduction has no host server, so the bound has to be
cooperative: every phase of query processing (parse / bind / match /
compensate / execute) periodically *ticks* the active
:class:`QueryBudget`, which checks three independent limits:

* a :class:`CancellationToken` — an externally triggered kill switch
  (scheduler shutdown, ``REFRESH`` preemption, an impatient caller);
* a :class:`Deadline` — the wall-clock budget from ``SET QUERY
  TIMEOUT``;
* a :class:`Budget` — a work-unit allowance (match pairings, and the
  ``SET QUERY MAXROWS`` high-water mark on materialized rows).

The *degradation ladder* lives in the phase rules: the token cancels in
any phase, but the deadline only ever raises in the match phase (as
:class:`~repro.errors.MatchBudgetExceeded`, which the rewrite sandbox
converts into base-table execution — matching is optional work) and the
execute phase (as :class:`~repro.errors.QueryTimeout` — execution is
not). Parse and bind are bounded by the input text, so expiring there
just means the match phase starts already exhausted and degrades
immediately. A degradation *disarms* the deadline for the rest of the
query: having spent the budget searching for a better plan, killing the
base plan too would punish the caller twice.

Zero cost when disarmed: :class:`repro.engine.database.Database` only
creates a scope when some limit is configured, every instrumentation
site reads the thread-local slot once (see :mod:`repro.governor.scope`)
and guards on ``is not None`` — the same test the match tracer's
sites make on the trace they were handed (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import time

from repro.errors import (
    BudgetExhausted,
    MatchBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)

#: phases a tick may be charged to, in pipeline order
PHASES = ("parse", "bind", "match", "compensate", "execute")

#: accumulated ticks between deadline/token checkpoints in the batched
#: phases (parse/bind/execute); match pairings checkpoint on every tick
#: because a single pairing is already a heavyweight unit of work
DEFAULT_CHECK_EVERY = 256


class CancellationToken:
    """A thread-safe one-shot kill switch, checked cooperatively.

    ``cancel()`` may be called from any thread; the query observes it at
    its next budget checkpoint and raises
    :class:`~repro.errors.QueryCancelled`.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: str | None = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled") -> None:
        # reason before flag: a checker that sees the flag must see why
        self.reason = reason
        self._cancelled = True

    def check(self) -> None:
        if self._cancelled:
            raise QueryCancelled(self.reason or "cancelled")


class Deadline:
    """A wall-clock budget (monotonic), disarmable after degradation."""

    __slots__ = ("timeout_ms", "expires_at", "armed", "_clock")

    def __init__(self, timeout_ms: float, clock=time.monotonic):
        self.timeout_ms = timeout_ms
        self._clock = clock
        self.expires_at = clock() + timeout_ms / 1e3
        self.armed = True

    @property
    def expired(self) -> bool:
        return self.armed and self._clock() >= self.expires_at

    def remaining_ms(self) -> float:
        return max(0.0, (self.expires_at - self._clock()) * 1e3)

    def disarm(self) -> None:
        """Stop enforcing (the degradation ladder's second rung)."""
        self.armed = False


class Budget:
    """A work-unit allowance: ``charge`` until ``limit`` is exceeded."""

    __slots__ = ("limit", "used", "what")

    def __init__(self, limit: int | None, what: str = "work units"):
        self.limit = limit
        self.used = 0
        self.what = what

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used > self.limit

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted(
                f"budget of {self.limit} {self.what} exhausted "
                f"({self.used} used)"
            )


class QueryBudget:
    """One query's governor scope: the Budget/Deadline/token trio plus
    per-phase tick accounting (rendered by ``EXPLAIN ANALYZE``).

    ``max_rows`` is the ``SET QUERY MAXROWS`` limit — a *high-water* cap
    on the rows the executor may materialize in any one intermediate or
    result table, so a runaway join is caught while it explodes, not
    after. ``match_budget`` bounds navigator box-pairings.
    ``counters`` is an optional dict of
    :class:`repro.obs.metrics.Counter` objects (``timeouts``,
    ``cancellations``, ``maxrows_exceeded``) bumped at the raise sites.
    """

    __slots__ = (
        "deadline", "token", "max_rows", "match_pairings", "check_every",
        "phase_ticks", "degraded", "degraded_reason", "fingerprint",
        "reservation", "_since_check", "_counters",
    )

    def __init__(
        self,
        deadline: Deadline | None = None,
        token: CancellationToken | None = None,
        max_rows: int | None = None,
        match_budget: int | None = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        counters: dict | None = None,
        reservation=None,
    ):
        self.deadline = deadline
        self.token = token or CancellationToken()
        self.max_rows = max_rows
        #: the query's MemoryReservation (``SET QUERY MAXMEM`` /
        #: ``--mem-limit``), or None when memory is unbudgeted; the
        #: executor's spill-capable operators charge against it
        self.reservation = reservation
        self.match_pairings = Budget(match_budget, "match pairings")
        self.check_every = check_every
        self.phase_ticks: dict[str, int] = {}
        self.degraded = False
        self.degraded_reason: str | None = None
        #: the query graph's shape key (its structural fingerprint with
        #: the comparison constants templated out), stashed by the
        #: rewrite fast path *before* any in-place rewriting so the
        #: circuit breaker can key on the pristine shape
        self.fingerprint = None
        self._since_check = 0
        self._counters = counters or {}

    # -- cooperative check sites ---------------------------------------
    def tick(self, amount: int = 1, phase: str = "execute") -> None:
        """Charge ``amount`` work units to ``phase``; every
        ``check_every`` accumulated units runs a checkpoint."""
        self.phase_ticks[phase] = self.phase_ticks.get(phase, 0) + amount
        self._since_check += amount
        if self._since_check >= self.check_every:
            self._since_check = 0
            self.checkpoint(phase)

    def tick_match(self, amount: int = 1) -> None:
        """One navigator box-pairing: charged, budgeted, and
        checkpointed immediately (pairings are coarse work units)."""
        self.phase_ticks["match"] = self.phase_ticks.get("match", 0) + amount
        self.token.check()
        self.match_pairings.used += amount
        if self.match_pairings.exhausted:
            raise MatchBudgetExceeded(
                f"match budget of {self.match_pairings.limit} pairings "
                f"exhausted ({self.match_pairings.used} attempted)"
            )
        self._check_match_deadline()

    def enter_match(self) -> None:
        """Called as the match phase begins: a deadline that already
        expired (during parse/bind) degrades immediately rather than
        letting the navigator start work it cannot afford."""
        self.token.check()
        self._check_match_deadline()

    def checkpoint(self, phase: str = "execute") -> None:
        """The full limit check, phase-aware (the degradation ladder)."""
        token = self.token
        if token.cancelled:
            self._count("cancellations")
            token.check()
        deadline = self.deadline
        if deadline is None or not deadline.armed:
            return
        if phase == "match":
            self._check_match_deadline()
        elif phase == "execute" and deadline.expired:
            self._count("timeouts")
            raise QueryTimeout(
                f"query exceeded SET QUERY TIMEOUT "
                f"{deadline.timeout_ms:g} ms (expired during execute)"
            )
        # parse/bind: bounded by the statement text; never killed here.

    def check_rows(self, produced: int, what: str = "rows") -> None:
        """The MAXROWS high-water check on one materialized table."""
        if self.max_rows is not None and produced > self.max_rows:
            self._count("maxrows_exceeded")
            raise BudgetExhausted(
                f"SET QUERY MAXROWS {self.max_rows} exceeded "
                f"({produced} {what} materialized)"
            )

    def _check_match_deadline(self) -> None:
        deadline = self.deadline
        if deadline is not None and deadline.expired:
            raise MatchBudgetExceeded(
                f"SET QUERY TIMEOUT {deadline.timeout_ms:g} ms expired "
                "during the match phase"
            )

    # -- degradation ---------------------------------------------------
    def mark_degraded(self, reason: str) -> None:
        """Record that matching was abandoned and disarm the deadline so
        the base-table plan runs to completion (never punish the query
        twice for the optimizer's spending)."""
        self.degraded = True
        self.degraded_reason = reason
        if self.deadline is not None:
            self.deadline.disarm()

    # -- presentation --------------------------------------------------
    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc()

    def describe_lines(self) -> list[str]:
        """Rendered for the ``EXPLAIN ANALYZE`` governor section."""
        lines = []
        if self.deadline is not None:
            state = (
                "disarmed after degradation"
                if not self.deadline.armed
                else f"{self.deadline.remaining_ms():.3f} ms remaining"
            )
            lines.append(
                f"  timeout     {self.deadline.timeout_ms:g} ms ({state})"
            )
        else:
            lines.append("  timeout     off")
        lines.append(
            "  maxrows     "
            + (str(self.max_rows) if self.max_rows is not None else "off")
        )
        if self.reservation is not None:
            lines.extend(
                "  " + line for line in self.reservation.describe_lines()
            )
        if self.match_pairings.limit is not None:
            lines.append(
                f"  match budget {self.match_pairings.limit} pairings "
                f"({self.match_pairings.used} used)"
            )
        ticks = ", ".join(
            f"{phase}={self.phase_ticks[phase]}"
            for phase in PHASES
            if phase in self.phase_ticks
        )
        lines.append(f"  ticks       {ticks or '(none)'}")
        if self.degraded:
            lines.append(
                f"  verdict     budget-exhausted ({self.degraded_reason}); "
                "rewriting abandoned, ran on base tables"
            )
        return lines
