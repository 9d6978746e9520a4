"""The match function: pattern dispatch (Section 3).

The two common conditions of every pattern are enforced here: the boxes
must be of the same type (condition 2 — base tables match when they scan
the same stored table), and at least one subsumee child must match a
subsumer child (condition 1, checked inside the pattern routines, which
need the pairing anyway).
"""

from __future__ import annotations

from repro.matching.framework import MatchContext, MatchResult
from repro.matching.groupby_boxes import match_groupby_boxes
from repro.matching.select_boxes import match_select_boxes
from repro.qgm.boxes import BaseTableBox, GroupByBox, QGMBox, SelectBox


def match_boxes(
    subsumee: QGMBox, subsumer: QGMBox, ctx: MatchContext
) -> MatchResult | None:
    """Try to match one (subsumee, subsumer) pair; child pairs must have
    been attempted already (the navigator guarantees bottom-up order)."""
    governor = ctx.governor
    if governor is not None:
        governor.tick_match()
    if isinstance(subsumee, BaseTableBox) and isinstance(subsumer, BaseTableBox):
        return _match_base_tables(subsumee, subsumer, ctx)
    if isinstance(subsumee, SelectBox) and isinstance(subsumer, SelectBox):
        return match_select_boxes(subsumee, subsumer, ctx)
    if isinstance(subsumee, GroupByBox) and isinstance(subsumer, GroupByBox):
        return match_groupby_boxes(subsumee, subsumer, ctx)
    # common condition 2: same box type
    t = ctx.trace
    if t is not None:
        t.reject(
            "box-kind",
            detail=f"{type(subsumee).__name__} vs {type(subsumer).__name__}",
        )
    return None


def _match_base_tables(
    subsumee: BaseTableBox, subsumer: BaseTableBox, ctx: MatchContext
) -> MatchResult | None:
    if subsumee.table_name.lower() != subsumer.table_name.lower():
        t = ctx.trace
        if t is not None:
            t.reject(
                "base-table",
                detail=f"{subsumee.table_name} != {subsumer.table_name}",
            )
        return None
    column_map = {name: name for name in subsumee.output_names}
    return MatchResult(subsumee, subsumer, [], column_map, pattern="base-table")
