"""Match tracer — a per-query event tree over the navigator's decisions.

The paper's navigator (§4) pairs every query box with every AST box and
tests the sufficient conditions of each match pattern (§4.1.1 select/
select, §4.1.2 groupby/groupby, §4.2.x compensated and recursive forms).
When a summary table silently fails to apply, the only question that
matters is *which condition of which pattern rejected it* — this module
records exactly that.

A :class:`MatchTrace` collects, per candidate summary table:

* one :class:`PairAttempt` per (query box, AST box) pairing the
  navigator tried, carrying the pattern section that matched or the
  :class:`Reject` events (named reason + paper section + detail)
  accumulated while the match functions ran;
* a per-summary **verdict**: the matched pattern section, or the named
  reject reason closest to the root pairing;
* fast-path verdicts that never reach the navigator — ``pruned``
  (signature index), ``refresh-age`` (staleness gate), ``quarantined``
  (fault sandbox), and ``cache-hit`` (a decision cache template) — so the
  verdict table is never empty on warm queries;
* phase timings (parse/bind/match/compensate/execute) in milliseconds.

A trace belongs to one statement: the SELECT pipeline creates it (when
``set_tracing`` is on or for EXPLAIN ANALYZE), keeps it on the run
record and hands it *down* — ``rewrite_query(trace=)``, ``apply_match``,
``MatchContext.trace`` — so any number of statements can be traced
concurrently and none sees another's verdicts. Zero cost when disabled:
untraced runs hand down ``None`` and every instrumentation site guards
on it first —

    t = ctx.trace
    if t is not None:
        t.reject("regroupability", "4.2.4", ...)

so the disabled path is one attribute load and an ``is not None`` test,
no allocation. Detail strings are built only inside the guard.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

#: Catalog of named reject reasons -> (paper section, description).
#: ``docs/OBSERVABILITY.md`` renders this table; tests assert membership.
REASONS = {
    "predicate-subsumption": (
        "4.1.1 cond 2-3",
        "subsumer predicates not provably implied, or an unmatched "
        "subsumee predicate could not be re-applied as compensation",
    ),
    "qcl-derivation": (
        "4.1.1 cond 1/4, 6",
        "an output or grouping column of the query could not be derived "
        "from the candidate's output columns (QCL translation failed)",
    ),
    "regroupability": (
        "4.1.2/4.2.x",
        "grouping structures incompatible: DISTINCT mismatch, cuboid not "
        "sliceable, cross-child grouping, or rejoin column collision",
    ),
    "aggregate-rederivation": (
        "4.1.2 rules a-g",
        "a query aggregate could not be re-derived from the candidate's "
        "aggregates (none of re-derivation rules (a)-(g) applied)",
    ),
    "child-match": (
        "4 common cond 1",
        "no usable match between the box's children, so the bottom-up "
        "navigator had nothing to build on",
    ),
    "lossless-extras": (
        "4.2.3",
        "extra quantifiers in the subsumer are not provably lossless "
        "(no one-tuple-guarantee join back to the matched core)",
    ),
    "base-table": (
        "3",
        "leaf base tables differ, so the pairing is trivially impossible",
    ),
    "box-kind": (
        "4",
        "no match pattern covers this combination of box kinds",
    ),
    "refresh-age": (
        "7",
        "summary's pending deltas exceed the session REFRESH AGE "
        "tolerance (staleness gate)",
    ),
    "quarantined": (
        "7",
        "summary quarantined after repeated refresh failures",
    ),
    "pruned": (
        "4",
        "signature index pruned the candidate before matching (required "
        "base tables / grouping shape cannot cover the query)",
    ),
    "cache-hit": (
        "4",
        "decision cache instantiated this query shape's proven template; "
        "the navigator did not run against this summary",
    ),
    "budget-exhausted": (
        "governor",
        "the match phase ran out of budget (SET QUERY TIMEOUT expired or "
        "the pairing budget was spent); the query degraded to base tables",
    ),
    "circuit-open": (
        "governor",
        "the circuit breaker skipped matching for this query shape after "
        "repeated consecutive match timeouts (cool-down in effect)",
    ),
}

_TRACE_IDS = itertools.count(1)


class Reject:
    """One named rejection raised while a match function ran."""

    __slots__ = ("reason", "section", "detail")

    def __init__(self, reason: str, section: str | None = None,
                 detail: str | None = None):
        self.reason = reason
        self.section = section or REASONS.get(reason, ("?",))[0]
        self.detail = detail

    def describe(self) -> str:
        text = self.reason
        if self.detail:
            text += f": {self.detail}"
        return text

    def as_dict(self) -> dict:
        return {"reason": self.reason, "section": self.section,
                "detail": self.detail}


class PairAttempt:
    """One navigator pairing of a query box against an AST box."""

    __slots__ = ("subsumee", "subsumer", "subsumer_id", "pattern",
                 "compensation", "rejects")

    def __init__(self, subsumee: str, subsumer: str, subsumer_id: int,
                 pattern: str | None, compensation: str | None,
                 rejects: list[Reject]):
        self.subsumee = subsumee
        self.subsumer = subsumer
        self.subsumer_id = subsumer_id
        self.pattern = pattern          # e.g. "4.1.2"; None on reject
        self.compensation = compensation
        self.rejects = rejects

    @property
    def matched(self) -> bool:
        return self.pattern is not None

    def describe(self) -> str:
        left = f"{self.subsumee} vs {self.subsumer}"
        if self.matched:
            text = f"{left}: matched {self.pattern}"
            if self.compensation:
                text += f" ({self.compensation})"
            return text
        if self.rejects:
            return f"{left}: rejected [{self.rejects[-1].describe()}]"
        return f"{left}: no match"

    def as_dict(self) -> dict:
        return {
            "subsumee": self.subsumee,
            "subsumer": self.subsumer,
            "pattern": self.pattern,
            "compensation": self.compensation,
            "rejects": [r.as_dict() for r in self.rejects],
        }


class SummaryAttempt:
    """All pairing attempts against one candidate summary table."""

    __slots__ = ("name", "root_id", "pairs", "pattern", "reason",
                 "detail", "applied")

    def __init__(self, name: str, root_id: int):
        self.name = name
        self.root_id = root_id
        self.pairs: list[PairAttempt] = []
        self.pattern: str | None = None
        self.reason: str | None = None
        self.detail: str | None = None
        self.applied = False

    @property
    def verdict(self) -> str:
        if self.applied:
            return f"rewritten via {self.pattern}"
        if self.pattern is not None:
            return f"matched {self.pattern} (not chosen)"
        return self.reason or "no match"

    def as_dict(self) -> dict:
        return {
            "summary": self.name,
            "pattern": self.pattern,
            "reason": self.reason,
            "detail": self.detail,
            "applied": self.applied,
            "pairs": [p.as_dict() for p in self.pairs],
        }


class MatchTrace:
    """The event tree for one traced query."""

    #: instances ever created — the overhead test asserts this stays
    #: flat while tracing is disabled (zero-allocation guarantee)
    created = 0

    def __init__(self, sql: str | None = None):
        MatchTrace.created += 1
        self.trace_id = next(_TRACE_IDS)
        self.sql = sql
        self.summaries: list[SummaryAttempt] = []
        self.phases: dict[str, float] = {}
        #: rejects raised since the last pair() — consumed by pair()
        self._pending: list[Reject] = []
        self._current: SummaryAttempt | None = None

    # -- recording (called from instrumented code, always guarded) -----
    def reject(self, reason: str, section: str | None = None,
               detail: str | None = None) -> None:
        self._pending.append(Reject(reason, section, detail))

    def pair(self, subsumee, subsumer, result) -> None:
        """Record one navigator pairing; consumes the rejects raised
        while the match functions ran on this pair."""
        rejects, self._pending = self._pending, []
        current = self._current
        if current is None:
            return
        pattern = compensation = None
        if result is not None:
            pattern = result.pattern
            compensation = None if result.exact else "compensated"
        current.pairs.append(
            PairAttempt(
                describe_box(subsumee), describe_box(subsumer),
                id(subsumer), pattern, compensation, rejects,
            )
        )

    def begin_summary(self, name: str, root_box) -> None:
        self._pending = []
        self._current = SummaryAttempt(name, id(root_box))
        self.summaries.append(self._current)

    def end_summary(self, match) -> None:
        current, self._current = self._current, None
        self._pending = []
        if current is None:
            return
        if match is not None:
            current.pattern = match.pattern
            return
        # No root match: surface the most informative reject. A failure
        # deep in the tree cascades upward as generic child-match /
        # box-kind rejects, so prefer the last *semantic* reason (a
        # named pattern condition) over the structural fallout.
        semantic = [
            reject
            for pair in current.pairs
            for reject in pair.rejects
            if reject.reason not in ("box-kind", "child-match")
        ]
        if semantic:
            last = semantic[-1]
            current.reason = last.reason
            current.detail = last.detail
            return
        root_pairs = [p for p in current.pairs
                      if p.subsumer_id == current.root_id and p.rejects]
        candidates = root_pairs or [p for p in current.pairs if p.rejects]
        if candidates:
            last = candidates[-1].rejects[-1]
            current.reason = last.reason
            current.detail = last.detail
        elif current.pairs:
            current.reason = "child-match"
        else:
            current.reason = "box-kind"

    def verdict(self, name: str, reason: str, detail: str | None = None,
                applied: bool = False, pattern: str | None = None) -> None:
        """Record a fast-path verdict (pruned / refresh-age /
        quarantined / cache-hit) that bypassed the navigator."""
        attempt = SummaryAttempt(name, 0)
        attempt.reason = reason
        attempt.detail = detail
        attempt.pattern = pattern
        attempt.applied = applied
        self.summaries.append(attempt)

    def mark_applied(self, name: str) -> None:
        for attempt in self.summaries:
            if attempt.name == name and attempt.pattern is not None:
                attempt.applied = True
                return

    # -- timing --------------------------------------------------------
    @staticmethod
    def clock() -> float:
        return time.perf_counter()

    def add_phase(self, name: str, started: float) -> float:
        """Accumulate elapsed ms since ``started`` into phase ``name``."""
        elapsed = (time.perf_counter() - started) * 1e3
        self.phases[name] = self.phases.get(name, 0.0) + elapsed
        return elapsed

    def set_phase(self, name: str, ms: float) -> None:
        self.phases[name] = ms

    # -- presentation --------------------------------------------------
    def verdict_rows(self) -> list[tuple[str, str, str]]:
        """(summary, verdict, detail) rows for the EXPLAIN ANALYZE table."""
        rows = []
        for attempt in self.summaries:
            rows.append((attempt.name, attempt.verdict, attempt.detail or ""))
        return rows

    def render(self, verbose: bool = False) -> str:
        lines = [f"trace #{self.trace_id}"]
        if self.sql:
            lines.append(f"  query: {self.sql}")
        if self.phases:
            timing = "  ".join(
                f"{name}={ms:.3f}ms" for name, ms in self.phases.items()
            )
            lines.append(f"  phases: {timing}")
        for attempt in self.summaries:
            lines.append(f"  [{attempt.name}] {attempt.verdict}")
            if attempt.detail:
                lines.append(f"      detail: {attempt.detail}")
            pairs = attempt.pairs if verbose else [
                p for p in attempt.pairs
                if p.matched or p.subsumer_id == attempt.root_id
            ]
            for pair in pairs:
                lines.append(f"    - {pair.describe()}")
                if verbose:
                    for rej in pair.rejects[:-1]:
                        lines.append(f"        tried: {rej.describe()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "sql": self.sql,
            "phases": dict(self.phases),
            "summaries": [s.as_dict() for s in self.summaries],
        }


def describe_box(box) -> str:
    kind = type(box).__name__.removesuffix("Box")
    name = getattr(box, "name", None)
    return f"{kind}({name})" if name else kind


class TraceBuffer:
    """Bounded ring of recently finished traces (``\\trace last``)."""

    def __init__(self, capacity: int = 32):
        self._traces: deque[MatchTrace] = deque(maxlen=capacity)

    def append(self, trace: MatchTrace) -> None:
        self._traces.append(trace)

    @property
    def last(self) -> MatchTrace | None:
        return self._traces[-1] if self._traces else None

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces)

    def clear(self) -> None:
        self._traces.clear()
