"""The :class:`QueryGovernor` facade wired into every ``Database``.

One object owns the session's limit configuration (``SET QUERY TIMEOUT``
/ ``SET QUERY MAXROWS`` / the programmatic match budget), the admission
gate, and the circuit breaker, and mints a fresh
:class:`~repro.governor.budget.QueryBudget` per query. All of its
observable state lands in the database's
:class:`~repro.obs.metrics.MetricsRegistry` under ``governor.*`` names
so ``\\metrics`` and the Prometheus exposition pick it up for free.

Everything defaults to *off*: a freshly constructed governor reports
``enabled == False`` and :meth:`open_scope` returns ``None``, which the
database treats as "skip all governor plumbing" — that is the ≤3%
overhead contract the benchmark pins.
"""

from __future__ import annotations

from repro.governor.admission import AdmissionController
from repro.governor.breaker import CircuitBreaker
from repro.governor.budget import CancellationToken, Deadline, QueryBudget
from repro.resources.broker import BROKER

if False:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: sentinel for "no per-query override; use the governor's session value"
#: (None is a meaningful override — it means "limit off for this query")
UNSET = object()


class QueryGovernor:
    """Session-level governor configuration and per-query scope factory."""

    def __init__(self, metrics: "MetricsRegistry | None" = None, emit=None):
        self.timeout_ms: float | None = None
        self.max_rows: int | None = None
        self.max_mem: int | None = None
        self.match_budget: int | None = None
        self._metrics = metrics
        self._budget_counters = {}
        admission_metrics = {}
        breaker_metrics = {}
        if metrics is not None:
            self._budget_counters = {
                "timeouts": metrics.counter(
                    "governor.timeouts",
                    "Queries killed by SET QUERY TIMEOUT during execute",
                ),
                "cancellations": metrics.counter(
                    "governor.cancellations",
                    "Queries stopped by a cancellation token",
                ),
                "maxrows_exceeded": metrics.counter(
                    "governor.maxrows_exceeded",
                    "Queries stopped by SET QUERY MAXROWS",
                ),
            }
            self.degradations = metrics.counter(
                "governor.degradations",
                "Match phases abandoned for base-table fallback "
                "(budget-exhausted verdicts)",
            )
            self.breaker_skips = metrics.counter(
                "governor.breaker_skips",
                "Match phases skipped because the circuit was open",
            )
            admission_metrics = {
                "admitted": metrics.counter(
                    "governor.admitted", "Queries admitted to run"
                ),
                "rejected": metrics.counter(
                    "governor.rejected",
                    "Queries shed by admission control (QueryRejected)",
                ),
                "gauge_running": metrics.gauge(
                    "governor.running", "Queries currently executing"
                ),
                "gauge_waiting": metrics.gauge(
                    "governor.waiting", "Queries waiting for an admission slot"
                ),
            }
            breaker_metrics = {
                "tripped": metrics.counter(
                    "governor.breaker_tripped",
                    "Circuit-breaker closed-to-open transitions",
                ),
            }
        else:
            self.degradations = None
            self.breaker_skips = None
        self.admission = AdmissionController(metrics=admission_metrics)
        self.breaker = CircuitBreaker(metrics=breaker_metrics, emit=emit)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when any per-query limit is configured (admission control
        gates independently via ``admission.enabled``)."""
        return (
            self.timeout_ms is not None
            or self.max_rows is not None
            or self.max_mem is not None
            or self.match_budget is not None
        )

    def open_scope(
        self,
        token: CancellationToken | None = None,
        timeout_ms=UNSET,
        max_rows=UNSET,
        max_mem=UNSET,
    ) -> QueryBudget | None:
        """Mint the budget for one query, or None when fully disarmed.

        A caller-supplied ``token`` forces a scope even with no limits
        set, so programmatic cancellation works without a timeout.
        ``timeout_ms`` / ``max_rows`` are per-query overrides of the
        governor's session limits — the query server passes each
        connection's ``SET`` state here so one client's limits never
        leak into another's queries (``None`` means "off for this
        query"; leaving them :data:`UNSET` keeps the session values).
        """
        effective_timeout = (
            self.timeout_ms if timeout_ms is UNSET else timeout_ms
        )
        effective_rows = self.max_rows if max_rows is UNSET else max_rows
        effective_mem = self.max_mem if max_mem is UNSET else max_mem
        if (
            effective_timeout is None
            and effective_rows is None
            and self.match_budget is None
            and token is None
            and effective_mem is None
            and not BROKER.limited
        ):
            return None
        deadline = (
            Deadline(effective_timeout)
            if effective_timeout is not None
            else None
        )
        reservation = (
            BROKER.reserve(limit=effective_mem)
            if effective_mem is not None or BROKER.limited
            else None
        )
        return QueryBudget(
            deadline=deadline,
            token=token,
            max_rows=effective_rows,
            match_budget=self.match_budget,
            counters=self._budget_counters,
            reservation=reservation,
        )

    def note_degradation(self) -> None:
        if self.degradations is not None:
            self.degradations.inc()

    def note_breaker_skip(self) -> None:
        if self.breaker_skips is not None:
            self.breaker_skips.inc()
