"""The rewrite decisions of one SELECT text shape: one proven template
per class.

A text's shape entry (:mod:`repro.qgm.bind_cache`) holds them in a
bounded :class:`repro.lru.LRU` keyed by the freshness tolerance, the
statement's skeleton and form (where its constants stand among each
other, :func:`repro.qgm.fingerprint.bind_constants`) and its
*obligation class* (:func:`obligations`: where each constant stands
among the admissible summaries' literals). The
matcher compares constants only by ``=``, ``<``, ``<=``, ``>``, ``>=``
and IN membership (:mod:`repro.expr.subsume`), so each binding of a
class gets the same verdict from every summary: "no rewrite applies",
or :class:`CachedStep` templates a statement *instantiates* with its own
constants (:func:`repro.rewrite.rewriter.instantiate`), matching
nothing. As a literal the matcher writes into a compensation can equal a
query constant (fig11_q10's ``coalesce(SUM(cnt), 0)`` under ``HAVING
count(*) > 0``), a template substitutes a constant class only once a
cold match confirmed it (:meth:`CacheEntry.confirm`).

The shape entry dies with the catalog epoch it was filed under; each
:class:`CacheEntry` is stamped with the exact set of *admissible*
summary names — enabled **and** fresh enough for the query's
refresh-age tolerance, which moves without an epoch bump (staged deltas,
``summary.enabled`` assigned directly) — and dropped on lookup when that
set moved (:func:`valid_entry`). docs/ALGORITHM.md, "the matching fast
path", has the argument.

:class:`RewriteStats` holds one rewrite's fast-path counts — what
``EXPLAIN`` renders; flushed into the metrics registry they become the
totals behind ``Database.rewrite_stats()`` and the CLI's ``\\metrics``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from repro.expr.nodes import Literal, same_value
from repro.lru import LRU
from repro.matching.framework import rebase_chain, replace_literals
from repro.obs.metrics import Counter, MetricsRegistry
from repro.qgm.bind_cache import TEMPLATES_PER_SHAPE
from repro.qgm.boxes import QGMBox
from repro.qgm.fingerprint import fingerprint
from repro.rewrite.index import summary_constants
from repro.rewrite.rewriter import RewriteResult, instantiate

#: fast-path counter names and their one-line help (exposition strings)
_STAT_FIELDS = {
    "queries": "rewrite attempts routed through the fast path",
    "candidates_considered": "summaries seen by the index",
    "candidates_pruned": "... of which pruned without navigation",
    "matches_attempted": "full match_graphs navigations run",
    "rewrites_applied": "accepted (summary, match) applications",
    "cache_hits": "positive decision-cache hits (templates instantiated)",
    "cache_negative_hits": "cached 'no rewrite applies' hits",
    "cache_shape_hits": "... of both, for constants other than the template's",
    "cache_misses": "shape not cached (or stale), or a binding matched cold",
    "cache_stores": "decisions written to the cache",
    "cache_invalidations": "entries dropped as stale on lookup",
    "stale_rejections": "summaries too stale for the query's tolerance",
    "quarantined_rejections": "quarantined summaries kept out of routing",
    "rewrite_errors": "sandboxed rewrite failures (query fell back)",
}


class RewriteStats:
    """One rewrite's fast-path counts: plain ints, private to the run.

    The rewrite stage makes one per statement, hands it down as the
    ``stats=`` argument and keeps it on the run record
    (:class:`repro.engine.pipeline.SelectRun`), which is what ``EXPLAIN``
    renders. The database-wide totals (``Database.rewrite_stats()``,
    ``\\metrics``) are :func:`register_counters`' registry counters;
    :meth:`flush` adds a finished rewrite's counts to them, once.
    """

    __slots__ = tuple(_STAT_FIELDS)

    def __init__(self) -> None:
        for name in _STAT_FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def flush(self, counters: dict[str, Counter]) -> None:
        """Add the non-zero counts to ``counters`` under each one's lock."""
        for name in _STAT_FIELDS:
            value = getattr(self, name)
            if value:
                counters[name].inc(value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RewriteStats({inner})"


def register_counters(registry: MetricsRegistry) -> dict[str, Counter]:
    """The cumulative ``rewrite_<field>`` counters, created at zero so a
    fresh database already lists all of them."""
    return {
        name: registry.counter(f"rewrite_{name}", help)
        for name, help in _STAT_FIELDS.items()
    }


@dataclass(frozen=True)
class CachedStep:
    """One applied (summary, match) pair, as a template: the matched box
    and the boxes the chain's rejoin quantifiers range over (in
    :func:`~repro.matching.framework.chain_rejoin_quantifiers` order) by
    their positions in ``graph.boxes()`` when the step ran — a graph of
    the same shape enumerates identically — and the proven chain,
    detached from the graph it was proven on and never executed."""

    summary_name: str
    subsumee_index: int
    chain: tuple[QGMBox, ...]
    rejoins: tuple[int, ...]
    column_map: tuple[tuple[str, str], ...]
    pattern: str


#: what a template's rejoin quantifiers (and its chain bottom) range over
_DETACHED = QGMBox("detached")


def cached_steps(result) -> tuple[CachedStep, ...] | None:
    """A cold :class:`~repro.rewrite.rewriter.RewriteResult` (None: no
    rewrite) as templates."""
    if result is None:
        return None
    return tuple(
        CachedStep(
            step.summary.name.lower(), step.subsumee_index,
            tuple(rebase_chain(
                step.match.chain, _DETACHED, lambda box: box.name,
                rejoins=itertools.repeat(_DETACHED),
            )),
            step.rejoins, tuple(sorted(step.match.column_map.items())),
            step.match.pattern,
        )
        for step in result.applied
    )


@dataclass
class CacheEntry:
    """One cached decision plus its validity stamp: ``admissible`` is the
    exact set of summary names enabled *and* fresh enough for the
    query's tolerance when it was made. ``binding`` is the constants the
    template was proven for and ``confirmed`` the classes it may
    substitute."""

    admissible: frozenset[str]
    steps: tuple[CachedStep, ...] | None  # None ⇒ negative (no rewrite)
    binding: dict[str, tuple] | None = None
    confirmed: frozenset[tuple[str, int]] = frozenset()
    cold_only: bool = False
    #: bind template → its plan template (:meth:`file_plan`)
    plans: LRU = field(default_factory=lambda: LRU(TEMPLATES_PER_SHAPE))

    def changes(self, binding: dict[str, tuple]) -> dict:
        """``{(domain, rank): (old, new)}`` for each constant class
        ``binding`` changes. A binding of the entry's form ranks its
        constants as the entry's did, so every class pairs and no kept
        constant moves."""
        return {
            (name, rank): (was, now)
            for name, values in binding.items()
            for rank, (was, now) in enumerate(zip(self.binding[name], values))
            if not same_value(was, now)
        }

    def serves(self, changed: dict) -> bool:
        """May a binding with these changes use the entry, unmatched?"""
        return self.steps is None or not changed or (
            not self.cold_only and changed.keys() <= self.confirmed
        )

    def confirm(self, changed: dict, steps) -> None:
        """``steps`` is the cold decision for a binding with these
        changes: may the template substitute them from now on?"""
        if steps is not None and _form(steps) == _form(
            self.steps, substitution(changed)
        ):
            self.confirmed = self.confirmed | changed.keys()
        else:
            self.cold_only = True

    def plan(self, template, values: list, summaries: dict):
        """The rewrite of a statement bound from bind ``template`` with
        literal ``values``: one clone of the plan filed for the template,
        its steps on the admitted ``summaries``. Falsy: no plan."""
        plan = self.plans.get(template)
        return plan and RewriteResult(plan.instantiate(values), [
            replace(step, summary=summaries[step.summary.name.lower()])
            for step in plan.applied
        ])

    def file_plan(self, template, values: list, binding: dict,
                  summaries: dict, result) -> None:
        """Once per bind ``template``: instantiate the steps on a clone of
        its probe graph, each constant class of the entry's binding at
        what stands for the statement's constant there; file that plan
        if substituting ``values`` gives ``result``'s graph, else False."""
        if template is None or self.plans.peek(template) is not None:
            return
        targets = template.literals(values)
        literals = {(type(was), was): targets[type(now), now]
                    for name, constants in binding.items()
                    for was, now in zip(self.binding[name], constants)}
        probed = instantiate(template.instantiate(), self.steps, summaries, literals)
        plan = type(template)(probed.graph, template.probes)
        plan.applied = probed.applied
        confirmed = fingerprint(plan.instantiate(values)) == fingerprint(result.graph)
        self.plans.put(template, confirmed and plan)


def substitution(changed: dict) -> dict:
    """:meth:`CacheEntry.changes` as :func:`~repro.matching.framework.
    replace_literals` reads them."""
    return {(type(was), was): Literal(now) for was, now in changed.values()}


def _form(steps: tuple[CachedStep, ...], literals: dict | None = None) -> list:
    """What instantiating ``steps`` with ``literals`` builds, box names
    aside (literals compare by type and value)."""
    return [
        (
            step.summary_name, step.subsumee_index, step.rejoins,
            step.column_map, step.pattern,
            [
                (
                    box.kind, [q.name for q in box.quantifiers()],
                    [replace_literals(p, literals)
                     for p in getattr(box, "predicates", ())],
                    [(q.name, replace_literals(q.expr, literals), q.nullable)
                     for q in box.outputs],
                    [getattr(box, name, None)
                     for name in ("distinct", "grouping_items", "grouping_sets")],
                )
                for box in step.chain
            ],
        )
        for step in steps
    ]


def pivots(summaries) -> tuple:
    """The literals of ``summaries`` (:func:`~repro.rewrite.index.
    summary_constants`) per domain, sorted: what :func:`obligations`
    places a binding's constants among. A function of the admissible
    set alone, so a shape's entry keeps it per admissible set."""
    found: dict[str, set] = {}
    for summary in summaries:
        for name, values in summary_constants(summary).items():
            found.setdefault(name, set()).update(values)
    return tuple((name, sorted(values)) for name, values in sorted(found.items()))


def obligations(binding: dict[str, tuple], pivots: tuple) -> tuple:
    """Where each of ``binding``'s constants stands among the ``pivots``
    of its domain: ``2 * bisect_left + (equal to the one there)``."""
    return tuple(
        (name, tuple(_position(ordered, v) for v in binding.get(name, ())))
        for name, ordered in pivots
    )


def _position(ordered: list, value) -> int:
    index = bisect_left(ordered, value)
    return 2 * index + (index < len(ordered) and ordered[index] == value)


def valid_entry(cache: LRU, key, admissible: frozenset[str],
                stats=None) -> CacheEntry | None:
    """``cache``'s entry for ``key`` if it was decided over exactly the
    ``admissible`` summaries; a stale one is dropped and, with
    ``stats``, counted as an invalidation."""
    entry = cache.get(key)
    if entry is None or entry.admissible == admissible:
        return entry
    if cache.discard(key, entry) and stats is not None:
        stats.cache_invalidations += 1
    return None
