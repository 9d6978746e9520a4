"""GROUP-BY/GROUP-BY matching — patterns 4.1.2, 4.2.1, 4.2.2, 5.1, 5.2.

One analysis routine (:func:`_try_cuboid`) covers the simple patterns and
their cube generalizations: it checks the conditions of 4.1.2/4.2.1
*restricted to one subsumer grouping set* (Section 5.1's trick), decides
whether regrouping compensation is needed, derives the aggregates with
the rules of Section 4.1.2, and builds the compensation (slicing
predicate + pulled-up predicates + optional regrouping GROUP-BY).

Pattern 4.2.2 (a grouping child compensation) is the paper's recursive
case: the lowest GROUP-BY of the child chain is matched against the
subsumer, and the rest of the chain plus a copy of the subsumee are
stacked above the intermediate compensation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.expr.equivalence import EquivalenceClasses, canonical
from repro.expr.nodes import AggCall, ColumnRef, Expr, IsNull
from repro.matching.derivation import (
    AggRecipe,
    AggregateScope,
    DerivationScope,
    derive_aggregate,
    derive_scalar,
    match_aggregate_exact,
)
from repro.matching.framework import (
    MAIN,
    MatchContext,
    MatchResult,
    SubsumerRef,
    chain_has_grouping,
    chain_predicates,
    chain_rejoin_quantifiers,
    clone_chain_box,
    inline_through_chain,
)
from repro.matching.translation import ChildTranslator, MatchedChildPair
from repro.qgm.unparse import render_expr
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QCL,
    QGMBox,
    Quantifier,
    SelectBox,
    expr_nullable,
)


def match_groupby_boxes(
    subsumee: GroupByBox, subsumer: GroupByBox, ctx: MatchContext
) -> MatchResult | None:
    child_match = ctx.get(
        subsumee.child_quantifier.box, subsumer.child_quantifier.box
    )
    if child_match is None:
        # common condition 1
        t = ctx.trace
        if t is not None:
            t.reject(
                "child-match", "4.1.2",
                "the GROUP-BY inputs did not match",
            )
        return None
    if any(
        isinstance(box, SelectBox) and box.distinct for box in child_match.chain
    ):
        # duplicate elimination breaks multiplicity reasoning
        t = ctx.trace
        if t is not None:
            t.reject(
                "regroupability", "4.1.2",
                "child compensation eliminates duplicates (DISTINCT), so "
                "multiplicities cannot be re-derived",
            )
        return None
    if chain_has_grouping(child_match.chain):
        return _match_via_recursion(subsumee, subsumer, child_match, ctx)
    if subsumee.is_multidimensional and subsumer.is_multidimensional:
        return _match_cube_cube(subsumee, subsumer, child_match, ctx)
    # Subsumee multidimensional over a simple subsumer is not in the
    # paper's pattern list but is sound: treat the subsumee as a simple
    # GROUP-BY over the union of its grouping sets and regroup with its
    # own supergroup structure (the same move 5.2 makes internally).
    return _match_against_best_cuboid(subsumee, subsumer, child_match, ctx)


def _match_against_best_cuboid(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
) -> MatchResult | None:
    """5.1 (and its degenerate simple/simple case): try each subsumer
    cuboid, preferring no-regroup matches, then fewer grouping columns."""
    candidates = []
    for cuboid in subsumer.grouping_sets:
        analysis = _try_cuboid(subsumee, subsumer, child_match, ctx, cuboid)
        if analysis is not None:
            candidates.append(analysis)
    if not candidates:
        return None
    if ctx.option("prefer_small_cuboid"):
        candidates.sort(key=lambda a: (a.regroup_needed, len(a.cuboid)))
    else:  # ablation: take the largest usable cuboid instead
        candidates.sort(key=lambda a: (a.regroup_needed, -len(a.cuboid)))
    return _build_compensation(subsumee, subsumer, ctx, candidates[0])


# ----------------------------------------------------------------------
# Analysis of one (subsumee, subsumer, cuboid) combination
# ----------------------------------------------------------------------
@dataclass
class _Analysis:
    cuboid: tuple[str, ...]
    rejoins: list[Quantifier]
    derived_preds: list[Expr]
    derived_grouping: dict[str, Expr]  # subsumee grouping output -> derived expr
    regroup_needed: bool
    agg_exact: dict[str, str]  # subsumee agg output -> subsumer agg output
    agg_recipes: dict[str, AggRecipe]
    slicing: list[Expr]


def _try_cuboid(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
    cuboid: tuple[str, ...],
) -> _Analysis | None:
    rq = subsumer.child_quantifier
    rejoins = chain_rejoin_quantifiers(child_match.chain)
    rejoin_names = {q.name for q in rejoins}
    translator = ChildTranslator(
        [MatchedChildPair(subsumee.child_quantifier, rq, child_match)],
        rejoin_names,
    )

    t = ctx.trace
    if subsumer.is_multidimensional and not _sliceable(subsumer, ctx):
        if t is not None:
            t.reject(
                "regroupability", "5.1",
                "cube AST not sliceable: a grouping column is nullable or "
                "computed, so IS [NOT] NULL slicing is unsound",
            )
        return None

    if ctx.option("column_equivalence"):
        classes = _lifted_output_classes(rq)
    else:  # ablation knob
        classes = EquivalenceClasses()
    grouping_outputs = {
        name: subsumer.output(name).expr
        for name in subsumer.grouping_items
        if name in cuboid
    }
    scope = DerivationScope(grouping_outputs, classes, rejoin_names)

    # Pull-up condition: child-compensation predicates must be derivable
    # from the cuboid's grouping columns and/or rejoin columns.
    derived_preds: list[Expr] = []
    for index, predicate in chain_predicates(child_match.chain):
        inlined = inline_through_chain(predicate, child_match.chain, index, rq.name)
        derived = derive_scalar(inlined, scope)
        if derived is None:
            if t is not None:
                t.reject(
                    "predicate-subsumption", "4.2.1",
                    "pulled-up child predicate not derivable from grouping "
                    "columns: " + render_expr(predicate),
                )
            return None
        derived_preds.append(derived)

    # Condition 1: subsumee grouping columns derivable from the cuboid's
    # grouping columns and/or rejoins.
    derived_grouping: dict[str, Expr] = {}
    for qcl in subsumee.grouping_outputs():
        translated = translator.translate(qcl.expr)
        if translated.contains_aggregate():
            if t is not None:
                t.reject(
                    "qcl-derivation", "4.1.2 cond 1",
                    f"grouping column {qcl.name!r} translates to an "
                    "aggregate of the AST",
                )
            return None
        derived = derive_scalar(translated, scope)
        if derived is None:
            if t is not None:
                t.reject(
                    "qcl-derivation", "4.1.2 cond 1",
                    f"grouping column {qcl.name!r} not derivable from the "
                    "cuboid: " + render_expr(qcl.expr),
                )
            return None
        derived_grouping[qcl.name] = derived

    regroup_needed = subsumee.is_multidimensional or not _grouping_sets_align(
        derived_grouping, cuboid, derived_preds, rejoins, ctx
    )

    # Aggregates. Translate each argument once; aggregation over rejoin
    # columns is outside the pattern (the 4.2.1 assumption).
    empty_groups = any(not s for s in subsumee.grouping_sets)
    agg_scope = _aggregate_scope(
        subsumer, rq, scope, cuboid, empty_groups_possible=empty_groups
    )
    translated_args: dict[str, Expr | None] = {}
    for qcl in subsumee.aggregate_outputs():
        call = qcl.expr
        translated_arg = (
            translator.translate(call.arg) if call.arg is not None else None
        )
        if translated_arg is not None and (
            translated_arg.contains_aggregate()
            or any(
                ref.qualifier in rejoin_names
                for ref in translated_arg.column_refs()
            )
        ):
            if t is not None:
                t.reject(
                    "aggregate-rederivation", "4.2.1",
                    f"aggregate {qcl.name!r} ranges over rejoin or "
                    "already-aggregated columns",
                )
            return None
        translated_args[qcl.name] = translated_arg

    # Without regrouping every aggregate must correspond to a subsumer
    # aggregate outright (condition 2 of 4.1.2). If one is missing we fall
    # back to regrouping — re-aggregating within unchanged groups is sound.
    agg_exact: dict[str, str] = {}
    if not regroup_needed:
        for qcl in subsumee.aggregate_outputs():
            exact = match_aggregate_exact(
                qcl.expr, translated_args[qcl.name], agg_scope
            )
            if exact is None:
                regroup_needed = True
                agg_exact.clear()
                break
            agg_exact[qcl.name] = exact

    agg_recipes: dict[str, AggRecipe] = {}
    if regroup_needed:
        for qcl in subsumee.aggregate_outputs():
            recipe = derive_aggregate(
                qcl.expr, translated_args[qcl.name], agg_scope
            )
            if recipe is None:
                if t is not None:
                    t.reject(
                        "aggregate-rederivation", "4.1.2 rules a-g",
                        f"{qcl.expr.func.upper()} output {qcl.name!r} not "
                        "re-derivable from the AST's aggregates (no rule "
                        "(a)-(g) applies)",
                    )
                return None
            agg_recipes[qcl.name] = recipe

    slicing = _slicing_predicate(subsumer, cuboid)
    return _Analysis(
        cuboid=cuboid,
        rejoins=rejoins,
        derived_preds=derived_preds,
        derived_grouping=derived_grouping,
        regroup_needed=regroup_needed,
        agg_exact=agg_exact,
        agg_recipes=agg_recipes,
        slicing=slicing,
    )


def _aggregate_scope(
    subsumer: GroupByBox,
    rq: Quantifier,
    scalar: DerivationScope,
    cuboid: tuple[str, ...],
    empty_groups_possible: bool = False,
) -> AggregateScope:
    aggregate_outputs = {
        qcl.name: qcl.expr for qcl in subsumer.aggregate_outputs()
    }
    grouping_outputs = {
        name: subsumer.output(name).expr for name in subsumer.grouping_items
    }

    def arg_nullable(arg: Expr) -> bool:
        def resolve(ref: ColumnRef) -> bool:
            if ref.qualifier != rq.name:
                return True
            return rq.box.output(ref.name).nullable

        return expr_nullable(arg, resolve)

    return AggregateScope(
        scalar,
        aggregate_outputs,
        grouping_outputs,
        arg_nullable,
        usable_grouping=set(cuboid),
        empty_groups_possible=empty_groups_possible,
    )


def _grouping_sets_align(
    derived_grouping: dict[str, Expr],
    cuboid: tuple[str, ...],
    derived_preds: list[Expr],
    rejoins: list[Quantifier],
    ctx: MatchContext,
) -> bool:
    """No regrouping needed: the derived grouping set equals the cuboid
    (modulo compensation equalities) and every rejoin is 1:N with the
    rejoin on the 1 side, keyed by grouping columns (4.2.1's rule)."""
    classes = EquivalenceClasses()
    for predicate in derived_preds:
        classes.add_predicate(predicate)
    subsumee_keys = {canonical(e, classes) for e in derived_grouping.values()}
    cuboid_keys = {canonical(ColumnRef(MAIN, g), classes) for g in cuboid}
    if subsumee_keys != cuboid_keys:
        return False
    for rejoin in rejoins:
        if not _rejoin_is_one_to_n(rejoin, derived_preds, subsumee_keys, classes, ctx):
            return False
    return True


def _rejoin_is_one_to_n(
    rejoin: Quantifier,
    derived_preds: list[Expr],
    grouping_keys: set[Expr],
    classes: EquivalenceClasses,
    ctx: MatchContext,
) -> bool:
    if not isinstance(rejoin.box, BaseTableBox):
        return False
    keyed_columns: set[str] = set()
    for predicate in derived_preds:
        if not (
            hasattr(predicate, "op")
            and getattr(predicate, "op", None) == "="
            and isinstance(getattr(predicate, "left", None), ColumnRef)
            and isinstance(getattr(predicate, "right", None), ColumnRef)
        ):
            continue
        left, right = predicate.left, predicate.right
        for mine, other in ((left, right), (right, left)):
            if mine.qualifier != rejoin.name:
                continue
            if canonical(other, classes) in grouping_keys:
                keyed_columns.add(mine.name)
    return rejoin.box.schema.is_unique_key(keyed_columns)


def _lifted_output_classes(quantifier: Quantifier) -> EquivalenceClasses:
    """Column equivalences among a child box's *outputs*, lifted to the
    consumer's QNC space (how ``flid``/``lid`` equality survives a box
    boundary)."""
    lifted = EquivalenceClasses()
    box = quantifier.box
    if not isinstance(box, SelectBox):
        return lifted
    inner = box.equivalence_classes()
    by_canonical: dict[Expr, ColumnRef] = {}
    for qcl in box.outputs:
        if qcl.expr is None:
            continue
        key = canonical(qcl.expr, inner)
        ref = ColumnRef(quantifier.name, qcl.name)
        if key in by_canonical:
            lifted.add_equality(by_canonical[key], ref)
        else:
            by_canonical[key] = ref
    return lifted


def _sliceable(subsumer: GroupByBox, ctx: MatchContext) -> bool:
    """Slicing with IS [NOT] NULL is sound only when every grouping
    column's source is non-nullable (the paper's standing assumption)."""
    child = subsumer.child_quantifier.box
    for name in subsumer.grouping_items:
        expr = subsumer.output(name).expr
        if not isinstance(expr, ColumnRef):
            return False
        if child.output(expr.name).nullable:
            return False
    return True


def _slicing_predicate(
    subsumer: GroupByBox, cuboid: tuple[str, ...]
) -> list[Expr]:
    if not subsumer.is_multidimensional:
        return []
    chosen = set(cuboid)
    return [
        IsNull(ColumnRef(MAIN, name), negated=(name in chosen))
        for name in subsumer.grouping_items
    ]


# ----------------------------------------------------------------------
# Compensation construction
# ----------------------------------------------------------------------
def _build_compensation(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    ctx: MatchContext,
    analysis: _Analysis,
) -> MatchResult:
    pattern = _pattern_name(subsumee, subsumer, analysis)
    if not analysis.regroup_needed:
        return _build_select_only(subsumee, subsumer, ctx, analysis, pattern)
    return _build_regrouping(subsumee, subsumer, ctx, analysis, pattern)


def _pattern_name(
    subsumee: GroupByBox, subsumer: GroupByBox, analysis: _Analysis
) -> str:
    if subsumer.is_multidimensional:
        return "5.2" if subsumee.is_multidimensional else "5.1"
    if analysis.derived_preds or analysis.rejoins:
        return "4.2.1"
    return "4.1.2"


def _build_select_only(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    ctx: MatchContext,
    analysis: _Analysis,
    pattern: str,
) -> MatchResult:
    exact = (
        not analysis.derived_preds
        and not analysis.rejoins
        and not analysis.slicing
        and all(
            isinstance(expr, ColumnRef) and expr.qualifier == MAIN
            for expr in analysis.derived_grouping.values()
        )
    )
    if exact:
        column_map = {
            name: expr.name for name, expr in analysis.derived_grouping.items()
        }
        column_map.update(analysis.agg_exact)
        return MatchResult(subsumee, subsumer, [], column_map, pattern=pattern)

    comp = SelectBox(ctx.fresh_name("Sel"))
    comp.add_quantifier(MAIN, SubsumerRef(subsumer))
    for quantifier in analysis.rejoins:
        comp.add_quantifier(quantifier.name, quantifier.box)
    comp.predicates = analysis.slicing + analysis.derived_preds
    for qcl in subsumee.outputs:
        if qcl.name in analysis.derived_grouping:
            expr: Expr = analysis.derived_grouping[qcl.name]
        else:
            expr = ColumnRef(MAIN, analysis.agg_exact[qcl.name])
        comp.add_output(QCL(qcl.name, expr, qcl.nullable))
    return MatchResult(subsumee, subsumer, [comp], pattern=pattern)


def _build_regrouping(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    ctx: MatchContext,
    analysis: _Analysis,
    pattern: str,
) -> MatchResult:
    bottom = SelectBox(ctx.fresh_name("Sel"))
    bottom.add_quantifier(MAIN, SubsumerRef(subsumer))
    for quantifier in analysis.rejoins:
        bottom.add_quantifier(quantifier.name, quantifier.box)
    bottom.predicates = analysis.slicing + analysis.derived_preds

    component_names: dict[str, list[str]] = {}
    used_names = set(subsumee.output_names)
    for name, expr in analysis.derived_grouping.items():
        bottom.add_output(QCL(name, expr, subsumee.output(name).nullable))
    for agg_name, recipe in analysis.agg_recipes.items():
        names = []
        for i, component in enumerate(recipe.components):
            if len(recipe.components) == 1:
                column = agg_name
            else:
                column = f"{agg_name}_{i + 1}"
                while column in used_names:
                    column = f"{column}x"
            used_names.add(column)
            bottom.add_output(QCL(column, component.pre_expr, nullable=True))
            names.append(column)
        component_names[agg_name] = names

    regroup = GroupByBox(ctx.fresh_name("GB"), MAIN, bottom)
    regroup.set_grouping(subsumee.grouping_items, subsumee.grouping_sets)
    needs_top = any(
        not recipe.simple for recipe in analysis.agg_recipes.values()
    )
    for qcl in subsumee.outputs:
        if qcl.name in analysis.derived_grouping:
            regroup.add_grouping_output(qcl.name, qcl.name, qcl.nullable)
        else:
            recipe = analysis.agg_recipes[qcl.name]
            for column, component in zip(
                component_names[qcl.name], recipe.components
            ):
                regroup.add_aggregate_output(
                    column,
                    AggCall(component.func, ColumnRef(MAIN, column), component.distinct),
                    nullable=True,
                )
    chain: list[QGMBox] = [bottom, regroup]
    if needs_top:
        top = SelectBox(ctx.fresh_name("Sel"))
        top.add_quantifier(MAIN, regroup)
        for qcl in subsumee.outputs:
            if qcl.name in analysis.derived_grouping:
                top.add_output(QCL(qcl.name, ColumnRef(MAIN, qcl.name), qcl.nullable))
            else:
                recipe = analysis.agg_recipes[qcl.name]
                refs = [ColumnRef(MAIN, c) for c in component_names[qcl.name]]
                top.add_output(QCL(qcl.name, recipe.combine(refs), qcl.nullable))
        chain.append(top)
    return MatchResult(subsumee, subsumer, chain, pattern=pattern)


# ----------------------------------------------------------------------
# 5.2: cube query against cube AST
# ----------------------------------------------------------------------
def _match_cube_cube(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
) -> MatchResult | None:
    # First try the no-regroup path: every subsumee cuboid matched exactly
    # with some subsumer cuboid; a disjunctive slicing predicate selects
    # them all at once.
    direct = _match_cube_cube_direct(subsumee, subsumer, child_match, ctx)
    if direct is not None:
        return direct
    # Otherwise treat the subsumee as a simple GROUP-BY over the union of
    # its grouping sets and regroup with its own supergroup structure.
    return _match_against_best_cuboid(subsumee, subsumer, child_match, ctx)


def _match_cube_cube_direct(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
) -> MatchResult | None:
    if not _sliceable(subsumer, ctx):
        return None
    rq = subsumer.child_quantifier
    rejoins = chain_rejoin_quantifiers(child_match.chain)
    rejoin_names = {q.name for q in rejoins}
    translator = ChildTranslator(
        [MatchedChildPair(subsumee.child_quantifier, rq, child_match)],
        rejoin_names,
    )
    classes = _lifted_output_classes(rq)
    grouping_outputs = {
        name: subsumer.output(name).expr for name in subsumer.grouping_items
    }
    scope = DerivationScope(grouping_outputs, classes, rejoin_names)

    # Every subsumee grouping column must be exactly a subsumer grouping
    # column for the direct (no-regroup) path.
    mapping: dict[str, str] = {}
    for qcl in subsumee.grouping_outputs():
        derived = derive_scalar(translator.translate(qcl.expr), scope)
        if not isinstance(derived, ColumnRef) or derived.qualifier != MAIN:
            return None
        mapping[qcl.name] = derived.name

    subsumer_sets = {frozenset(s) for s in subsumer.grouping_sets}
    chosen: list[tuple[str, ...]] = []
    for grouping_set in subsumee.grouping_sets:
        image = frozenset(mapping[name] for name in grouping_set)
        if image not in subsumer_sets:
            return None
        for candidate in subsumer.grouping_sets:
            if frozenset(candidate) == image:
                chosen.append(candidate)
                break

    # Child-compensation predicates must be derivable from the grouping
    # columns of *every* selected cuboid (they filter each one).
    derived_preds: list[Expr] = []
    for index, predicate in chain_predicates(child_match.chain):
        inlined = inline_through_chain(predicate, child_match.chain, index, rq.name)
        common = set(subsumer.grouping_items)
        for cuboid in chosen:
            common &= set(cuboid)
        restricted = DerivationScope(
            {name: subsumer.output(name).expr for name in common},
            classes,
            rejoin_names,
        )
        derived = derive_scalar(inlined, restricted)
        if derived is None:
            return None
        derived_preds.append(derived)

    agg_scope = _aggregate_scope(subsumer, rq, scope, subsumer.grouping_items)
    agg_map: dict[str, str] = {}
    for qcl in subsumee.aggregate_outputs():
        call = qcl.expr
        translated_arg = (
            translator.translate(call.arg) if call.arg is not None else None
        )
        exact = match_aggregate_exact(call, translated_arg, agg_scope)
        if exact is None:
            return None
        agg_map[qcl.name] = exact

    from repro.expr.nodes import conjunction, disjunction

    slices = []
    for cuboid in chosen:
        slices.append(conjunction(_slicing_predicate(subsumer, cuboid)))
    comp = SelectBox(ctx.fresh_name("Sel"))
    comp.add_quantifier(MAIN, SubsumerRef(subsumer))
    for quantifier in rejoins:
        comp.add_quantifier(quantifier.name, quantifier.box)
    comp.predicates = [disjunction(slices)] + derived_preds
    for qcl in subsumee.outputs:
        if qcl.name in mapping:
            comp.add_output(
                QCL(qcl.name, ColumnRef(MAIN, mapping[qcl.name]), qcl.nullable)
            )
        else:
            comp.add_output(
                QCL(qcl.name, ColumnRef(MAIN, agg_map[qcl.name]), qcl.nullable)
            )
    return MatchResult(subsumee, subsumer, [comp], pattern="5.2")


# ----------------------------------------------------------------------
# 4.2.2: grouping child compensation (recursive matching)
# ----------------------------------------------------------------------
def _match_via_recursion(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
) -> MatchResult | None:
    chain = child_match.chain
    gb_index = next(
        i for i, box in enumerate(chain) if isinstance(box, GroupByBox)
    )
    below = chain[:gb_index]
    lowest_gb = chain[gb_index]
    above = chain[gb_index + 1:]

    subsumer_child = subsumer.child_quantifier.box
    if below:
        synthetic = MatchResult(
            subsumee=below[-1],
            subsumer=subsumer_child,
            chain=below,
            pattern="synthetic",
        )
    else:
        leaf = lowest_gb.child_quantifier.box
        synthetic = MatchResult(
            subsumee=leaf,
            subsumer=subsumer_child,
            chain=[],
            column_map={name: name for name in subsumer_child.output_names},
            pattern="synthetic",
        )
    intermediate = match_groupby_boxes_with_child(
        lowest_gb, subsumer, synthetic, ctx
    )
    if intermediate is None:
        return None

    new_chain: list[QGMBox] = list(intermediate.chain)
    if intermediate.exact:
        # Align names with a thin projection so the copied boxes above can
        # keep referencing the lowest GROUP-BY's output names.
        projection = SelectBox(ctx.fresh_name("Sel"))
        projection.add_quantifier(MAIN, SubsumerRef(subsumer))
        for qcl in lowest_gb.outputs:
            projection.add_output(
                QCL(
                    qcl.name,
                    ColumnRef(MAIN, intermediate.column_map[qcl.name]),
                    qcl.nullable,
                )
            )
        new_chain = [projection]

    top: QGMBox = new_chain[-1]
    for box in above:
        clone = clone_chain_box(
            box,
            top,
            ctx.fresh_name("GB" if isinstance(box, GroupByBox) else "Sel"),
        )
        new_chain.append(clone)
        top = clone
    subsumee_copy = _clone_groupby_rebased(subsumee, top, ctx.fresh_name("GB"))
    new_chain.append(subsumee_copy)
    return MatchResult(subsumee, subsumer, new_chain, pattern="4.2.2")


def match_groupby_boxes_with_child(
    subsumee: GroupByBox,
    subsumer: GroupByBox,
    child_match: MatchResult,
    ctx: MatchContext,
) -> MatchResult | None:
    """Match two GROUP-BY boxes given an explicit child match (used by the
    4.2.2 recursion, where the child match is synthetic)."""
    if chain_has_grouping(child_match.chain):
        return None  # a second grouping level is resolved by the caller
    if subsumee.is_multidimensional and subsumer.is_multidimensional:
        return _match_cube_cube(subsumee, subsumer, child_match, ctx)
    if subsumee.is_multidimensional:
        t = ctx.trace
        if t is not None:
            t.reject(
                "regroupability", "4.2.2",
                "cube query over a simple AST inside the recursive pattern",
            )
        return None
    return _match_against_best_cuboid(subsumee, subsumer, child_match, ctx)


def _clone_groupby_rebased(
    box: GroupByBox, new_child: QGMBox, name: str
) -> GroupByBox:
    """Copy a query GROUP-BY box as a chain box: same grouping structure,
    child references re-qualified to MAIN."""
    old_qualifier = box.child_quantifier.name
    clone = GroupByBox(name, MAIN, new_child)
    clone.grouping_items = box.grouping_items
    clone.grouping_sets = box.grouping_sets

    def requalify(expr: Expr) -> Expr:
        def visit(node: Expr) -> Expr | None:
            if isinstance(node, ColumnRef) and node.qualifier == old_qualifier:
                return ColumnRef(MAIN, node.name)
            return None

        return expr.transform(visit)

    for qcl in box.outputs:
        clone.outputs.append(QCL(qcl.name, requalify(qcl.expr), qcl.nullable))
    return clone
