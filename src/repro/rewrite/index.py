"""AST candidate index: cheap pruning before any navigation.

``rewrite_query`` historically ran the full navigator
(:func:`repro.matching.navigator.match_graphs`) against *every*
registered summary table — O(summaries × boxes²) per query. With many
ASTs registered, rewrite latency is dominated by candidates that could
never match. This module extracts a small :class:`SummarySignature` from
each AST at registration time and, at query time, keeps only *plausible*
candidates via set-containment checks that are **conservative**: a
summary is pruned only when the matching patterns provably cannot
produce a root match.

The checks, and why each is safe:

* **Base-table overlap** — a root match needs at least one subsumee
  child matching a subsumer child, which bottoms out at base-table boxes
  that match only when they scan the same stored table. No shared base
  table ⇒ no match.
* **Peelable extras** — every subsumer box is either matched against a
  same-kind query box or peeled as an *extra* child, and extras must be
  base tables joined through a declared foreign key whose parent side is
  the extra (``Catalog.ri_join_is_lossless``). So an AST base table
  absent from the query must at least be the parent of *some* declared
  foreign key; otherwise no peel — and no match — is possible.
* **Box-kind containment** — by the same either-matched-or-peeled
  induction, every non-base AST box must match a query box of the same
  kind (GROUP-BY compensation chains only ever contain GROUP-BY boxes
  that originated from query-side grouping). An AST with a GROUP-BY (or
  UNION ALL) box therefore cannot match a query without one.

The signature also records the AST's grouping columns and root output
columns. These are *not* used for pruning — output and grouping columns
are matched semantically (derivation through compensations and column
equivalences), so name-level containment would wrongly prune e.g. a
``year``/``year(date)`` pair — but they are cheap to keep and feed
diagnostics and the advisor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asts.definition import SummaryTable
from repro.catalog.schema import Catalog
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QGMBox,
    QueryGraph,
    SelectBox,
)
from repro.qgm.fingerprint import domain

#: box kinds whose presence in the AST requires presence in the query
_STRUCTURAL_KINDS = ("groupby", "union")


@dataclass(frozen=True)
class SummarySignature:
    """The matching-relevant shape of one QGM graph."""

    base_tables: frozenset[str]
    box_kinds: frozenset[str]
    grouping_columns: frozenset[str]
    output_columns: frozenset[str]

    @property
    def has_grouping(self) -> bool:
        return "groupby" in self.box_kinds


def graph_signature(
    graph: QueryGraph, order: list[QGMBox] | None = None
) -> SummarySignature:
    """Extract the signature of a bound graph (query or AST side);
    ``order`` is ``graph.boxes()`` when the caller already took it."""
    base_tables = set()
    box_kinds = set()
    grouping: set[str] = set()
    for box in order or graph.boxes():
        box_kinds.add(box.kind)
        if isinstance(box, BaseTableBox):
            base_tables.add(box.table_name.lower())
        elif isinstance(box, GroupByBox):
            grouping.update(name.lower() for name in box.grouping_items)
    outputs = frozenset(qcl.name.lower() for qcl in graph.root.outputs)
    return SummarySignature(
        base_tables=frozenset(base_tables),
        box_kinds=frozenset(box_kinds),
        grouping_columns=frozenset(grouping),
        output_columns=outputs,
    )


def summary_signature(summary: SummaryTable) -> SummarySignature:
    """The signature of a summary table, extracted on first use and
    cached on the object. ``Database`` asks at registration, so the
    first query after ``CREATE SUMMARY TABLE`` pays no extraction; a
    summary handed straight to ``rewrite_query`` pays it once."""
    cached = getattr(summary, "_signature", None)
    if cached is None:
        cached = graph_signature(summary.graph)
        summary._signature = cached
    return cached


def summary_constants(summary: SummaryTable) -> dict[str, frozenset]:
    """The non-NULL literals of the summary's definition by
    :func:`~repro.qgm.fingerprint.domain`, cached on the object like the
    signature. Only these can match one binding of a query shape and
    not another (``disc > 0.1`` subsumes ``disc > 0.2`` but not
    ``disc > 0.05``): they are the pivots of a binding's obligations
    (:func:`repro.rewrite.cache.obligations`)."""
    cached = getattr(summary, "_constants", None)
    if cached is None:
        found: dict[str, set] = {}
        for box in summary.graph.boxes():
            for expr in _box_exprs(box):
                for value in expr.literal_values():
                    if value is not None:
                        found.setdefault(domain(value), set()).add(value)
        cached = {name: frozenset(values) for name, values in found.items()}
        summary._constants = cached
    return cached


def _box_exprs(box):
    for qcl in box.outputs:
        if qcl.expr is not None:
            yield qcl.expr
    if isinstance(box, SelectBox):
        yield from box.predicates


def _fk_parent_tables(catalog: Catalog) -> frozenset[str]:
    return frozenset(
        fk.parent_table.lower() for fk in catalog.foreign_keys
    )


def plausible(
    query: SummarySignature,
    ast: SummarySignature,
    fk_parents: frozenset[str],
) -> bool:
    """Could an AST with signature ``ast`` possibly root-match a query
    with signature ``query``? False only when a match is impossible."""
    if not ast.base_tables & query.base_tables:
        return False
    if not (ast.base_tables - query.base_tables) <= fk_parents:
        return False
    for kind in _STRUCTURAL_KINDS:
        if kind in ast.box_kinds and kind not in query.box_kinds:
            return False
    return True


def filter_fresh(
    summaries: list[SummaryTable],
    tolerance,
    log,
    stats=None,
    trace=None,
) -> list[SummaryTable]:
    """The subset of ``summaries`` fresh enough for ``tolerance``.

    This is the staleness gate in front of the candidate index: a
    REFRESH DEFERRED summary with staged delta batches is only *offered*
    to the matcher when the query's freshness tolerance
    (:class:`repro.refresh.policy.RefreshAge`) admits its lag. Fully
    fresh summaries (no pending deltas — which includes every REFRESH
    IMMEDIATE summary) always pass.

    ``log`` is the database's :class:`repro.refresh.log.DeltaLog`:
    freshness is decided by its per-table high-water LSNs — a summary
    is fully fresh exactly when no base table it reads has changed past
    its ``last_refresh_lsn``, an O(base tables) dict lookup against
    :meth:`~repro.refresh.log.DeltaLog.high_water` instead of trusting
    (or recomputing) per-summary pending counters. The per-summary
    ``pending_deltas`` counter is still what sizes the lag for
    tolerance admission (it counts the same staged-batch units ``SET
    REFRESH AGE <n>`` is expressed in).

    **Quarantined** summaries — ones the refresh pipeline gave up on
    (see :mod:`repro.refresh.scheduler`) or that recovery could not
    rebuild (:func:`repro.engine.persist.verify_database`) — are
    excluded unconditionally, at every tolerance: their contents are
    untrusted, which is stronger than stale.

    ``stats`` is an optional :class:`repro.rewrite.cache.RewriteStats`;
    rejected candidates are counted as ``stale_rejections`` /
    ``quarantined_rejections``, and named as ``quarantined`` /
    ``refresh-age`` verdicts in ``trace`` (the statement's
    :class:`repro.obs.trace.MatchTrace`) when one is given.
    """
    kept = []
    rejected = 0
    quarantined = 0
    for summary in summaries:
        state = getattr(summary, "refresh", None)
        if state is not None and state.quarantined:
            quarantined += 1
            if trace is not None:
                trace.verdict(
                    summary.name, "quarantined",
                    state.quarantine_reason
                    if getattr(state, "quarantine_reason", None)
                    else "contents untrusted after refresh failures",
                )
            continue
        # REFRESH IMMEDIATE summaries are maintained synchronously with
        # every base-table change — they are fresh by construction.
        if state is None or not state.is_deferred:
            kept.append(summary)
            continue
        fresh = all(
            log.high_water(table) <= state.last_refresh_lsn
            for table in summary_signature(summary).base_tables
        )
        pending = 0 if fresh else max(state.pending_deltas, 1)
        if tolerance.admits(pending):
            kept.append(summary)
        else:
            rejected += 1
            if trace is not None:
                trace.verdict(
                    summary.name, "refresh-age",
                    f"{pending} pending delta batch(es) exceed "
                    + tolerance.describe(),
                )
    if stats is not None:
        if rejected:
            stats.stale_rejections += rejected
        if quarantined:
            stats.quarantined_rejections += quarantined
    return kept


def prune_candidates(
    graph: QueryGraph,
    summaries: list[SummaryTable],
    stats=None,
    trace=None,
    order: list[QGMBox] | None = None,
) -> list[SummaryTable]:
    """The plausible subset of ``summaries`` for ``graph``, in order.

    ``stats`` is an optional :class:`repro.rewrite.cache.RewriteStats`;
    when given, considered/pruned counters are updated. A given
    ``trace`` receives a ``pruned`` verdict per dropped summary.
    ``order`` is ``graph.boxes()`` when the caller already took it.
    """
    if not summaries:
        return []
    query_sig = graph_signature(graph, order)
    fk_parents = _fk_parent_tables(graph.catalog)
    kept = []
    for summary in summaries:
        if plausible(query_sig, summary_signature(summary), fk_parents):
            kept.append(summary)
        elif trace is not None:
            trace.verdict(
                summary.name, "pruned",
                "signature index: base tables or box kinds cannot cover "
                "the query",
            )
    if stats is not None:
        stats.candidates_considered += len(summaries)
        stats.candidates_pruned += len(summaries) - len(kept)
    return kept

