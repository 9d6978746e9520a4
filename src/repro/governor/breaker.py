"""Per-fingerprint circuit breaker over the match phase.

A query shape that times out during matching once will usually time out
again: the navigator's search space is a function of the graph's
structure, not its literals. Retrying the doomed search on every arrival
burns the whole timeout budget before degrading — the worst of both
worlds. The breaker remembers, per *shape key* (the structural
fingerprint with its comparison constants templated out,
:func:`repro.qgm.fingerprint.shape_key` — the key the decision cache
files plans under, so ad hoc traffic whose every statement carries a
fresh constant still counts as one shape), how many *consecutive*
match-phase timeouts a shape has suffered; after ``threshold`` of them
the circuit opens and the shape skips matching entirely (straight to
base tables, recorded as a ``circuit-open`` trace verdict) until
``cooldown_s`` elapses. The first arrival after the cool-down is the
half-open probe: it attempts the match again, and a success closes the
circuit while another timeout re-opens it for a fresh cool-down.

States per fingerprint: **closed** (no entry / failures < threshold,
match runs), **open** (failures ≥ threshold and inside cool-down, match
skipped), **half-open** (cool-down elapsed, one probe runs).
"""

from __future__ import annotations

import threading
import time

from repro.obs import events as _events


class CircuitBreaker:
    """Tracks consecutive match timeouts per query fingerprint.

    ``clock`` is injectable for tests. The ``tripped`` counter (if
    provided via ``metrics``) increments once per closed→open
    transition, not per skipped query — skips are counted by the
    caller's ``governor_breaker_skips``.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 30.0,
        clock=time.monotonic,
        metrics: dict | None = None,
    ):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        #: fingerprint -> [consecutive_failures, opened_at | None]
        self._entries: dict = {}
        self._metrics = metrics or {}

    @property
    def active(self) -> bool:
        """Fast emptiness check so the happy path skips the lock."""
        return bool(self._entries)

    # ------------------------------------------------------------------
    def should_skip(self, fingerprint) -> bool:
        """True while the circuit for this shape is open (and not yet
        due for a half-open probe)."""
        if not self._entries:
            return False
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or entry[1] is None:
                return False
            if self._clock() - entry[1] >= self.cooldown_s:
                # Half-open: let this one probe through. Clearing
                # opened_at (but keeping the failure count) means a
                # concurrent second arrival also runs — acceptable: the
                # probe is best-effort, not a strict singleton.
                entry[1] = None
                _events.emit(
                    "breaker.half_open", fingerprint=str(fingerprint),
                    failures=entry[0],
                )
                return False
            return True

    def record_timeout(self, fingerprint) -> None:
        """A match phase for this shape hit its deadline/budget."""
        if fingerprint is None:
            return
        with self._lock:
            entry = self._entries.setdefault(fingerprint, [0, None])
            entry[0] += 1
            if entry[0] >= self.threshold and entry[1] is None:
                entry[1] = self._clock()
                counter = self._metrics.get("tripped")
                if counter is not None:
                    counter.inc()
                _events.emit(
                    "breaker.open", fingerprint=str(fingerprint),
                    failures=entry[0], cooldown_s=self.cooldown_s,
                )

    def record_success(self, fingerprint) -> None:
        """A match phase for this shape completed: close the circuit."""
        if fingerprint is None or not self._entries:
            return
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
        if entry is not None and entry[0] >= self.threshold:
            # only shapes that actually opened get a close event; a
            # sub-threshold success is just the counter resetting
            _events.emit(
                "breaker.close", fingerprint=str(fingerprint),
            )

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """State summary for ``\\governor`` and tests."""
        now = self._clock()
        with self._lock:
            open_count = 0
            half_open = 0
            for failures, opened_at in self._entries.values():
                if opened_at is None:
                    continue
                if now - opened_at >= self.cooldown_s:
                    half_open += 1
                else:
                    open_count += 1
            return {
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "tracked": len(self._entries),
                "open": open_count,
                "half_open_due": half_open,
            }
