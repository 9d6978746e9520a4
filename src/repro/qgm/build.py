"""SQL parse tree → QGM graph (the binder).

An aggregated block becomes the SELECT → GROUP-BY → SELECT sandwich of the
paper's Figure 3:

* the lower SELECT box joins the FROM items, applies WHERE, and computes
  every grouping expression and aggregate argument as a QCL (GROUP-BY
  boxes only ever see *simple* input columns);
* the GROUP-BY box groups and computes the aggregates (with canonical
  grouping sets when ROLLUP/CUBE/GROUPING SETS are present);
* the upper SELECT box applies HAVING and computes the final output
  expressions over grouping columns and aggregate results.

Scalar subqueries become ordinary quantifiers over single-row subgraphs
(the paper excludes correlation, which makes this sound); the binder
requires them to be scalar aggregates so they always produce exactly one
row.
"""

from __future__ import annotations

from repro.catalog.schema import Catalog
from repro.catalog.types import infer_literal_type, is_numeric
from repro.errors import BindError, UnsupportedSqlError
from repro.governor import scope as governor_scope
from repro.expr.functions import lookup_function
from repro.expr.nodes import (
    AggCall,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    NaryOp,
    UnaryOp,
    split_conjuncts,
)
from repro.expr.normalize import normalize
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QCL,
    QGMBox,
    QueryGraph,
    SelectBox,
    UnionAllBox,
    cross_combine,
    expand_cube,
    expand_rollup,
    expr_nullable,
)
from repro.sql.ast import (
    Cube,
    DerivedTableRef,
    GroupingSets,
    Rollup,
    SelectStatement,
    SimpleGrouping,
    SubqueryExpr,
    TableRef,
    UnionAll,
)
from repro.sql.parser import parse


def build_graph(
    statement: SelectStatement | str, catalog: Catalog, label: str = "Q"
) -> QueryGraph:
    """Bind a statement (or SQL text) against ``catalog``.

    ``label`` suffixes generated box names (the paper uses Q for queries
    and A for ASTs), which makes debug output line up with its figures.
    """
    if isinstance(statement, str):
        statement = parse(statement)
    binder = _Binder(catalog, label)
    if isinstance(statement, UnionAll):
        root = binder.build_union(statement)
    else:
        root = binder.build_block(statement, is_top=True)
    graph = QueryGraph(root, catalog)
    graph.order_by = binder.top_order_by
    graph.limit = binder.top_limit
    graph.validate()
    _check_calls(graph)
    return graph


def _check_calls(graph: QueryGraph) -> None:
    """Every scalar function call names a built-in and passes it a number
    of arguments its arity admits, and no operand of ``+ - * / %`` or of
    unary ``-`` is a string literal or a text or date base column."""
    for box in graph.boxes():
        exprs = [qcl.expr for qcl in box.outputs if qcl.expr is not None]
        if isinstance(box, SelectBox):
            exprs.extend(box.predicates)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (NaryOp, BinaryOp, UnaryOp)) and node.op in "+-*/%":
                    for operand in node.children():
                        for kind in _operand_types(box, operand):
                            if kind is not None and not is_numeric(kind):
                                raise BindError(f"arithmetic on a {kind.value}")
                if not isinstance(node, FuncCall):
                    continue
                function = lookup_function(node.name)
                if function is None:
                    raise BindError(f"unknown function {node.name!r}")
                if not function.check_arity(len(node.args)):
                    raise BindError(
                        f"wrong number of arguments to {node.name}(): "
                        f"{len(node.args)}"
                    )


def _operand_types(box: QGMBox, expr: Expr):
    """The types ``expr``'s value may take: a literal's, or the declared
    type of the base column a column reference passes through to — and
    every branch's of a MIN/MAX, CASE, COALESCE or UNION ALL; none for
    anything else computed."""
    if isinstance(expr, Literal):
        yield infer_literal_type(expr.value)
    elif isinstance(expr, ColumnRef):
        child = box.quantifier(expr.qualifier).box
        if isinstance(child, BaseTableBox):
            yield child.schema.column(expr.name).dtype
        elif isinstance(child, UnionAllBox):
            at = child.output_names.index(expr.name)
            for q in child.quantifiers():
                branch = ColumnRef(q.name, q.box.outputs[at].name)
                yield from _operand_types(child, branch)
        else:
            yield from _operand_types(child, child.output(expr.name).expr)
    elif isinstance(expr, AggCall) and expr.func in ("min", "max"):
        yield from _operand_types(box, expr.arg)
    elif isinstance(expr, CaseWhen):
        for value in (*expr.branches[1::2], expr.default):
            yield from _operand_types(box, value)
    elif isinstance(expr, FuncCall) and expr.name.lower() == "coalesce":
        for arg in expr.args:
            yield from _operand_types(box, arg)


class _Scope:
    """Name resolution over a set of quantifiers (case-insensitive)."""

    def __init__(self) -> None:
        self._bindings: dict[str, tuple[str, QGMBox]] = {}
        self.order: list[tuple[str, QGMBox]] = []

    def bind(self, name: str, box: QGMBox) -> None:
        key = name.lower()
        if key in self._bindings:
            raise BindError(f"duplicate table name or alias {name!r} in FROM")
        self._bindings[key] = (name, box)
        self.order.append((name, box))

    def resolve_qualified(self, qualifier: str, column: str) -> ColumnRef:
        key = qualifier.lower()
        if key not in self._bindings:
            raise BindError(f"unknown table or alias {qualifier!r}")
        name, box = self._bindings[key]
        matched = _find_column(box, column)
        if matched is None:
            raise BindError(f"no column {column!r} in {qualifier!r}")
        return ColumnRef(name, matched)

    def resolve_unqualified(self, column: str) -> ColumnRef:
        hits: list[ColumnRef] = []
        for name, box in self.order:
            matched = _find_column(box, column)
            if matched is not None:
                hits.append(ColumnRef(name, matched))
        if not hits:
            raise BindError(f"unknown column {column!r}")
        if len(hits) > 1:
            owners = ", ".join(ref.qualifier or "?" for ref in hits)
            raise BindError(f"ambiguous column {column!r} (in {owners})")
        return hits[0]


def _find_column(box: QGMBox, column: str) -> str | None:
    wanted = column.lower()
    for qcl in box.outputs:
        if qcl.name.lower() == wanted:
            return qcl.name
    return None


class _Binder:
    def __init__(self, catalog: Catalog, label: str):
        self._catalog = catalog
        self._label = label
        self._box_counter = 0
        self._derived_counter = 0
        self.top_order_by: list[tuple[str, bool]] = []
        self.top_limit: int | None = None
        self._order_binder = None  # set by the most recent block builder
        # Governor scope, read once: each block built ticks the bind
        # phase (token checks only — deadlines never kill a bind).
        self._budget = governor_scope.current()

    # ------------------------------------------------------------------
    def _box_name(self, kind: str) -> str:
        self._box_counter += 1
        return f"{kind}-{self._box_counter}{self._label}"

    def build_union(self, union: UnionAll) -> QGMBox:
        box = UnionAllBox(self._box_name("Union"))
        for index, branch in enumerate(union.branches, start=1):
            child = self.build_block(branch)
            if index > 1 and len(child.outputs) != len(box.outputs):
                raise BindError(
                    "UNION ALL branches must have the same number of columns"
                )
            box.add_branch(f"b{index}", child)
        return box

    def build_block(self, stmt: SelectStatement, is_top: bool = False) -> QGMBox:
        if self._budget is not None:
            self._budget.tick(1, "bind")
        if stmt.order_by and not is_top:
            raise UnsupportedSqlError("ORDER BY is only supported at the top level")
        if stmt.limit is not None and not is_top:
            raise UnsupportedSqlError("LIMIT is only supported at the top level")

        scope = _Scope()
        from_boxes: list[tuple[str, QGMBox]] = []
        for item in stmt.from_items:
            name, box = self._build_from_item(item)
            scope.bind(name, box)
            from_boxes.append((name, box))

        aggregated = self._is_aggregated(stmt)
        if aggregated:
            root = self._build_aggregated_block(stmt, scope, from_boxes)
        elif stmt.distinct and not stmt.select_star:
            # Footnote 2 of the paper: SELECT DISTINCT eliminates
            # duplicates just like GROUP-BY. Building it as a GROUP BY
            # over every output expression lets the GROUP-BY matching
            # patterns handle DISTINCT queries against grouped ASTs.
            root = self._build_aggregated_block(
                _distinct_as_group_by(stmt), scope, from_boxes
            )
        else:
            root = self._build_plain_block(stmt, scope, from_boxes)
        if is_top:
            self.top_order_by = self._bind_order_by(stmt, root)
            self.top_limit = stmt.limit
        return root

    def _build_from_item(self, item: TableRef | DerivedTableRef) -> tuple[str, QGMBox]:
        if isinstance(item, TableRef):
            schema = self._catalog.table(item.name)
            box = BaseTableBox(schema.name, schema)
            return item.alias or schema.name, box
        if isinstance(item.query, UnionAll):
            box: QGMBox = self.build_union(item.query)
        else:
            box = self.build_block(item.query)
        alias = item.alias
        if alias is None:
            self._derived_counter += 1
            alias = f"dt{self._derived_counter}"
        return alias, box

    @staticmethod
    def _is_aggregated(stmt: SelectStatement) -> bool:
        if stmt.group_by:
            return True
        candidates = [item.expr for item in stmt.items]
        if stmt.having is not None:
            candidates.append(stmt.having)
        return any(expr.contains_aggregate() for expr in candidates)

    # ------------------------------------------------------------------
    # Name resolution and scalar subqueries
    # ------------------------------------------------------------------
    def _resolve(
        self,
        expr: Expr,
        scope: _Scope,
        sink: "_SubquerySink",
    ) -> Expr:
        def visit(node: Expr) -> Expr | None:
            if isinstance(node, ColumnRef):
                if node.qualifier is None:
                    return scope.resolve_unqualified(node.name)
                return scope.resolve_qualified(node.qualifier, node.name)
            if isinstance(node, SubqueryExpr):
                return sink.install(node)
            return None

        return expr.transform(visit)

    # ------------------------------------------------------------------
    # Non-aggregated block
    # ------------------------------------------------------------------
    def _build_plain_block(
        self,
        stmt: SelectStatement,
        scope: _Scope,
        from_boxes: list[tuple[str, QGMBox]],
    ) -> QGMBox:
        box = SelectBox(self._box_name("Sel"))
        for name, child in from_boxes:
            box.add_quantifier(name, child)
        sink = _SubquerySink(self, box)
        if stmt.where is not None:
            for predicate in split_conjuncts(stmt.where):
                bound = self._resolve(predicate, scope, sink)
                if bound.contains_aggregate():
                    raise BindError("aggregates are not allowed in WHERE")
                box.add_predicate(bound)

        self._order_binder = lambda expr: self._resolve(
            expr, scope, _ReadOnlySink()
        )
        namer = _OutputNamer()
        if stmt.select_star:
            for name, child in from_boxes:
                for qcl in child.outputs:
                    ref = ColumnRef(name, qcl.name)
                    box.add_output(QCL(namer.name_for(ref, None), ref, qcl.nullable))
        else:
            for item in stmt.items:
                resolved = self._resolve(item.expr, scope, sink)
                if resolved.contains_aggregate():
                    raise BindError("aggregate not allowed without GROUP BY context")
                nullable = expr_nullable(resolved, _nullable_resolver(box))
                box.add_output(QCL(namer.name_for(resolved, item.alias), resolved, nullable))
        box.distinct = stmt.distinct
        return box

    # ------------------------------------------------------------------
    # Aggregated block: SELECT -> GROUP-BY -> SELECT
    # ------------------------------------------------------------------
    def _build_aggregated_block(
        self,
        stmt: SelectStatement,
        scope: _Scope,
        from_boxes: list[tuple[str, QGMBox]],
    ) -> QGMBox:
        if stmt.select_star:
            raise BindError("SELECT * is not allowed in a grouped query")

        lower = SelectBox(self._box_name("Sel"))
        for name, child in from_boxes:
            lower.add_quantifier(name, child)
        lower_sink = _SubquerySink(self, lower)
        if stmt.where is not None:
            for predicate in split_conjuncts(stmt.where):
                bound = self._resolve(predicate, scope, lower_sink)
                if bound.contains_aggregate():
                    raise BindError("aggregates are not allowed in WHERE")
                lower.add_predicate(bound)

        # ---- grouping expressions -> lower QCLs ----
        alias_by_norm: dict[Expr, str] = {}
        for item in stmt.items:
            if not item.alias or item.expr.contains_aggregate():
                continue
            try:
                resolved_item = self._resolve(item.expr, scope, _ReadOnlySink())
            except BindError:
                continue  # contains a subquery or an upper-level name
            alias_by_norm.setdefault(normalize(resolved_item), item.alias)
        lower_namer = _OutputNamer()
        lower_qcl_by_norm: dict[Expr, str] = {}

        def lower_qcl_for(resolved: Expr, alias_hint: str | None) -> str:
            key = normalize(resolved)
            if key in lower_qcl_by_norm:
                return lower_qcl_by_norm[key]
            hint = alias_hint or alias_by_norm.get(key)
            name = lower_namer.name_for(resolved, hint)
            nullable = expr_nullable(resolved, _nullable_resolver(lower))
            lower.add_output(QCL(name, resolved, nullable))
            lower_qcl_by_norm[key] = name
            return name

        element_sets: list[tuple[tuple[str, ...], ...]] = []
        grouping_names: list[str] = []

        def grouping_name(expr: Expr) -> str:
            resolved = self._resolve(expr, scope, lower_sink)
            name = lower_qcl_for(resolved, None)
            if name not in grouping_names:
                grouping_names.append(name)
            return name

        for element in stmt.group_by:
            if isinstance(element, SimpleGrouping):
                element_sets.append(((grouping_name(element.expr),),))
            elif isinstance(element, Rollup):
                names = tuple(grouping_name(e) for e in element.items)
                element_sets.append(expand_rollup(names))
            elif isinstance(element, Cube):
                names = tuple(grouping_name(e) for e in element.items)
                element_sets.append(expand_cube(names))
            elif isinstance(element, GroupingSets):
                expanded = tuple(
                    tuple(grouping_name(e) for e in grouping_set)
                    for grouping_set in element.sets
                )
                element_sets.append(expanded)
            else:  # pragma: no cover - parser produces only the above
                raise BindError(f"unknown grouping element {element!r}")

        sets: tuple[tuple[str, ...], ...] = ((),)
        for element in element_sets:
            sets = cross_combine(sets, element)

        # ---- aggregate calls -> lower QCLs + GROUP-BY outputs ----
        aggregate_calls: list[tuple[AggCall, str | None]] = []
        for item in stmt.items:
            for node in item.expr.walk():
                if isinstance(node, AggCall):
                    alias = item.alias if item.expr == node else None
                    aggregate_calls.append((node, alias))
        if stmt.having is not None:
            for node in stmt.having.walk():
                if isinstance(node, AggCall):
                    aggregate_calls.append((node, None))

        groupby = GroupByBox(self._box_name("GB"), "g", lower)
        groupby.set_grouping(tuple(grouping_names), sets)
        for name in grouping_names:
            child_qcl = lower.output(name)
            groupby.add_grouping_output(name, name, child_qcl.nullable)

        agg_namer = _OutputNamer(prefix="agg")
        agg_output_by_key: dict[Expr, str] = {}
        for call, alias in aggregate_calls:
            resolved_arg = (
                self._resolve(call.arg, scope, lower_sink)
                if call.arg is not None
                else None
            )
            if resolved_arg is not None and resolved_arg.contains_aggregate():
                raise BindError("nested aggregate functions are not allowed")
            arg_ref = None
            if resolved_arg is not None:
                arg_name = lower_qcl_for(resolved_arg, None)
                arg_ref = groupby.child_quantifier.ref(arg_name)
            bound_call = AggCall(call.func, arg_ref, call.distinct)
            key = normalize(bound_call)
            if key in agg_output_by_key:
                continue
            name = agg_namer.name_for(bound_call, alias)
            while groupby.has_output(name):
                name = agg_namer.fresh()
            nullable = call.func != "count" and (
                arg_ref is None or lower.output(arg_ref.name).nullable
            )
            groupby.add_aggregate_output(name, bound_call, nullable)
            agg_output_by_key[key] = name

        # ---- upper SELECT: HAVING + final projections ----
        upper = SelectBox(self._box_name("Sel"))
        gq = upper.add_quantifier("g", groupby)
        upper_sink = _SubquerySink(self, upper)

        group_map = {
            key: gq.ref(name) for key, name in lower_qcl_by_norm.items()
            if name in grouping_names
        }

        def substitute(expr: Expr) -> Expr:
            def visit(node: Expr) -> Expr | None:
                if isinstance(node, AggCall):
                    resolved_arg = (
                        self._resolve(node.arg, scope, lower_sink)
                        if node.arg is not None
                        else None
                    )
                    arg_ref = None
                    if resolved_arg is not None:
                        arg_ref = groupby.child_quantifier.ref(
                            lower_qcl_for(resolved_arg, None)
                        )
                    key = normalize(AggCall(node.func, arg_ref, node.distinct))
                    return gq.ref(agg_output_by_key[key])
                if isinstance(node, SubqueryExpr):
                    return upper_sink.install(node)
                if isinstance(node, ColumnRef) or not node.children():
                    resolved = self._resolve(node, scope, _ReadOnlySink())
                    key = normalize(resolved)
                    if key in group_map:
                        return group_map[key]
                    return None
                # Try to match a whole sub-expression against a grouping
                # expression (e.g. SELECT year(date) with GROUP BY year(date)).
                try:
                    resolved = self._resolve(node, scope, _ReadOnlySink())
                except BindError:
                    return None
                key = normalize(resolved)
                if key in group_map:
                    return group_map[key]
                return None

            return expr.transform(visit)

        if stmt.having is not None:
            for predicate in split_conjuncts(stmt.having):
                bound = substitute(predicate)
                self._check_grouped(bound, upper, "HAVING")
                upper.add_predicate(bound)

        upper_namer = _OutputNamer()
        for item in stmt.items:
            bound = substitute(item.expr)
            self._check_grouped(bound, upper, "SELECT")
            nullable = expr_nullable(bound, _nullable_resolver(upper))
            upper.add_output(QCL(upper_namer.name_for(bound, item.alias), bound, nullable))
        upper.distinct = stmt.distinct
        self._order_binder = substitute
        return upper

    @staticmethod
    def _check_grouped(expr: Expr, upper: SelectBox, clause: str) -> None:
        names = {q.name for q in upper.quantifiers()}
        for ref in expr.column_refs():
            if ref.qualifier not in names:
                raise BindError(
                    f"{clause} expression references {ref!r}, which is neither "
                    "a grouping expression nor an aggregate"
                )
        if any(isinstance(node, SubqueryExpr) for node in expr.walk()):
            raise BindError(f"unresolved subquery in {clause}")

    def _bind_order_by(self, stmt: SelectStatement, root: QGMBox) -> list[tuple[str, bool]]:
        keys: list[tuple[str, bool]] = []
        for item in stmt.order_by:
            keys.append((self._order_key(item.expr, root), item.ascending))
        return keys

    def _order_key(self, expr: Expr, root: QGMBox) -> str:
        """An ORDER BY key: an output column name, or any expression
        that equals an output expression (e.g. ``ORDER BY count(*)``)."""
        if isinstance(expr, ColumnRef) and expr.qualifier is None:
            matched = _find_column(root, expr.name)
            if matched is not None:
                return matched
        if self._order_binder is not None:
            try:
                bound = self._order_binder(expr)
            except BindError:
                bound = None
            if bound is not None and not any(
                isinstance(node, SubqueryExpr) for node in bound.walk()
            ):
                key = normalize(bound)
                for qcl in root.outputs:
                    if qcl.expr is not None and normalize(qcl.expr) == key:
                        return qcl.name
        raise BindError(
            f"ORDER BY must reference an output column or a select-list "
            f"expression (got {expr!r})"
        )


def _distinct_as_group_by(stmt: SelectStatement) -> SelectStatement:
    """Rewrite SELECT DISTINCT e1, ..., en as GROUP BY e1, ..., en."""
    from repro.sql.ast import SimpleGrouping

    return SelectStatement(
        items=stmt.items,
        from_items=stmt.from_items,
        where=stmt.where,
        group_by=tuple(SimpleGrouping(item.expr) for item in stmt.items),
        having=None,
        distinct=False,
        order_by=stmt.order_by,
        select_star=False,
        limit=stmt.limit,
    )


class _SubquerySink:
    """Installs scalar subqueries as quantifiers of a target box."""

    def __init__(self, binder: _Binder, box: SelectBox):
        self._binder = binder
        self._box = box
        self._installed: dict[SubqueryExpr, ColumnRef] = {}
        self._counter = 0

    def install(self, node: SubqueryExpr) -> ColumnRef:
        if node in self._installed:
            return self._installed[node]
        subgraph = self._binder.build_block(node.query)
        self._require_single_row(subgraph)
        if len(subgraph.outputs) != 1:
            raise BindError("scalar subquery must return exactly one column")
        self._counter += 1
        name = f"sq{self._counter}"
        while any(q.name == name for q in self._box.quantifiers()):
            self._counter += 1
            name = f"sq{self._counter}"
        quantifier = self._box.add_quantifier(name, subgraph)
        ref = quantifier.ref(subgraph.outputs[0].name)
        self._installed[node] = ref
        return ref

    @staticmethod
    def _require_single_row(subgraph: QGMBox) -> None:
        """Only scalar-aggregate subqueries are guaranteed single-row;
        anything else would change cardinality under our join encoding."""
        box = subgraph
        while isinstance(box, SelectBox) and len(box.quantifiers()) == 1:
            child = box.quantifiers()[0].box
            if isinstance(child, GroupByBox) and child.grouping_sets == ((),):
                if not box.predicates:
                    return
            box = child
        raise UnsupportedSqlError(
            "scalar subqueries must be ungrouped aggregates "
            "(e.g. (SELECT COUNT(*) FROM t))"
        )


class _ReadOnlySink:
    """A sink that refuses subqueries — used when resolving expressions
    purely for comparison, where installing quantifiers would be a side
    effect."""

    def install(self, node: SubqueryExpr) -> ColumnRef:
        raise BindError("subquery not allowed in this clause")


class _OutputNamer:
    """Assigns unique output column names: alias > column name > generated."""

    def __init__(self, prefix: str = "c"):
        self._prefix = prefix
        self._used: set[str] = set()
        self._counter = 0

    def fresh(self) -> str:
        while True:
            self._counter += 1
            candidate = f"{self._prefix}{self._counter}"
            if candidate.lower() not in self._used:
                self._used.add(candidate.lower())
                return candidate

    def name_for(self, expr: Expr, alias: str | None) -> str:
        candidate = alias
        if candidate is None and isinstance(expr, ColumnRef):
            candidate = expr.name
        if candidate is None and isinstance(expr, AggCall) and isinstance(
            expr.arg, ColumnRef
        ):
            candidate = f"{expr.func}_{expr.arg.name}"
        if candidate is None or candidate.lower() in self._used:
            return self.fresh()
        self._used.add(candidate.lower())
        return candidate


def _nullable_resolver(box: QGMBox):
    """column_nullable callback for :func:`expr_nullable` over ``box``'s
    quantifiers."""
    quantifiers = {q.name: q for q in box.quantifiers()}

    def resolve(ref: ColumnRef) -> bool:
        quantifier = quantifiers.get(ref.qualifier)
        if quantifier is None:
            return True
        return quantifier.box.output(ref.name).nullable

    return resolve
