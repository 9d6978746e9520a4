"""Recursive-descent parser for the supported SQL subset.

Grammar highlights (see README for the full list):

* SELECT [DISTINCT] list FROM items [WHERE] [GROUP BY] [HAVING] [ORDER BY]
* comma joins and explicit [INNER] JOIN ... ON (desugared to WHERE
  conjuncts), CROSS JOIN
* derived tables ``(SELECT ...) AS t`` and scalar subqueries in
  expressions
* aggregates COUNT(*) / COUNT|SUM|AVG|MIN|MAX([DISTINCT] e)
* supergroups: ROLLUP, CUBE, GROUPING SETS (with nested () grand total)
* BETWEEN (desugared), IN lists, IS [NOT] NULL, CASE WHEN,
  DATE 'YYYY-MM-DD' literals
"""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.governor import scope as governor_scope
from repro.expr.nodes import (
    AGGREGATE_FUNCS,
    AggCall,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    NaryOp,
    UnaryOp,
    conjunction,
)
from repro.sql.ast import (
    Cube,
    DerivedTableRef,
    FromItem,
    GroupingElement,
    GroupingSets,
    OrderItem,
    Rollup,
    SelectItem,
    SelectStatement,
    SimpleGrouping,
    SubqueryExpr,
    TableRef,
)
from repro.sql.lexer import Token, parse_date_literal, tokenize

_COMPARISON_PUNCT = ("=", "<>", "<", "<=", ">", ">=")


def parse(sql: str | list[Token]):
    """Parse one query (SELECT or UNION ALL chain; optional ';') from
    its text or its :func:`tokenize` tokens."""
    parser = _Parser(tokenize(sql) if isinstance(sql, str) else sql)
    statement = parser.parse_query()
    parser.accept_punct(";")
    parser.expect_eof()
    return statement


def parse_expression(sql: str) -> Expr:
    """Parse a standalone scalar expression (used in tests and tools)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        # Governor scope, read once at construction: when a budget is
        # active, every consumed token ticks the parse phase (token-only
        # checks — a deadline never kills a query mid-parse).
        self._budget = governor_scope.current()

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "eof":
            self._index += 1
            if self._budget is not None:
                self._budget.tick(1, "parse")
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._current
        shown = token.text or "<end of input>"
        return SqlSyntaxError(f"{message} (found {shown!r})", token.line, token.column)

    def accept_keyword(self, *names: str) -> Token | None:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.accept_keyword(*names)
        if token is None:
            raise self._error(f"expected {' or '.join(names).upper()}")
        return token

    def accept_punct(self, *symbols: str) -> Token | None:
        if self._current.is_punct(*symbols):
            return self._advance()
        return None

    def expect_punct(self, *symbols: str) -> Token:
        token = self.accept_punct(*symbols)
        if token is None:
            raise self._error(f"expected {' or '.join(symbols)!r}")
        return token

    def accept_ident(self) -> Token | None:
        if self._current.kind == "ident":
            return self._advance()
        return None

    def expect_ident(self) -> Token:
        token = self.accept_ident()
        if token is None:
            raise self._error("expected identifier")
        return token

    def expect_eof(self) -> None:
        if self._current.kind != "eof":
            raise self._error("unexpected trailing input")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_query(self):
        """A SELECT or a UNION ALL chain of SELECTs."""
        from repro.sql.ast import UnionAll

        branches = [self.parse_select()]
        while self.accept_keyword("union"):
            self.expect_keyword("all")
            branches.append(self.parse_select())
        if len(branches) == 1:
            return branches[0]
        for branch in branches:
            if branch.order_by or branch.limit is not None:
                raise self._error(
                    "ORDER BY/LIMIT are not supported inside UNION ALL"
                )
        return UnionAll(tuple(branches))

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct") is not None
        items, select_star = self._parse_select_list()
        self.expect_keyword("from")
        from_items, join_predicates = self._parse_from_clause()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        if join_predicates:
            where_parts = join_predicates + ([where] if where is not None else [])
            where = conjunction(where_parts)
        group_by: tuple[GroupingElement, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self._parse_group_by()
        having = None
        if self.accept_keyword("having"):
            having = self.parse_expr()
        order_by: tuple[OrderItem, ...] = ()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self._parse_order_by()
        limit = None
        if self.accept_keyword("limit"):
            token = self._current
            if token.kind != "number" or not isinstance(token.value, int):
                raise self._error("LIMIT expects an integer")
            self._advance()
            limit = token.value
        return SelectStatement(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            order_by=order_by,
            select_star=select_star,
            limit=limit,
        )

    def _parse_select_list(self) -> tuple[list[SelectItem], bool]:
        if self.accept_punct("*"):
            return [], True
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items, False

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident().value
        else:
            ident = self.accept_ident()
            if ident is not None:
                alias = ident.value
        return SelectItem(expr, alias)

    def _parse_from_clause(self) -> tuple[list[FromItem], list[Expr]]:
        items = [self._parse_from_item()]
        predicates: list[Expr] = []
        while True:
            if self.accept_punct(","):
                items.append(self._parse_from_item())
                continue
            if self.accept_keyword("cross"):
                self.expect_keyword("join")
                items.append(self._parse_from_item())
                continue
            if self._current.is_keyword("inner", "join"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                items.append(self._parse_from_item())
                self.expect_keyword("on")
                predicates.append(self.parse_expr())
                continue
            return items, predicates

    def _parse_from_item(self) -> FromItem:
        if self.accept_punct("("):
            query = self.parse_query()
            self.expect_punct(")")
            if self.accept_keyword("as"):
                alias = self.expect_ident().value
            else:
                ident = self.accept_ident()
                alias = ident.value if ident is not None else None
            return DerivedTableRef(query, alias)
        name = self.expect_ident().value
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident().value
        else:
            ident = self.accept_ident()
            if ident is not None:
                alias = ident.value
        return TableRef(name, alias)

    def _parse_group_by(self) -> tuple[GroupingElement, ...]:
        elements = [self._parse_grouping_element()]
        while self.accept_punct(","):
            elements.append(self._parse_grouping_element())
        return tuple(elements)

    def _parse_grouping_element(self) -> GroupingElement:
        if self.accept_keyword("rollup"):
            self.expect_punct("(")
            items = self._parse_expr_list()
            self.expect_punct(")")
            return Rollup(tuple(items))
        if self.accept_keyword("cube"):
            self.expect_punct("(")
            items = self._parse_expr_list()
            self.expect_punct(")")
            return Cube(tuple(items))
        if self._current.is_keyword("grouping"):
            self.expect_keyword("grouping")
            self.expect_keyword("sets")
            self.expect_punct("(")
            sets = [self._parse_grouping_set()]
            while self.accept_punct(","):
                sets.append(self._parse_grouping_set())
            self.expect_punct(")")
            return GroupingSets(tuple(sets))
        return SimpleGrouping(self.parse_expr())

    def _parse_grouping_set(self) -> tuple[Expr, ...]:
        if self.accept_punct("("):
            if self.accept_punct(")"):
                return ()
            items = self._parse_expr_list()
            self.expect_punct(")")
            return tuple(items)
        return (self.parse_expr(),)

    def _parse_order_by(self) -> tuple[OrderItem, ...]:
        keys = [self._parse_order_item()]
        while self.accept_punct(","):
            keys.append(self._parse_order_item())
        return tuple(keys)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return OrderItem(expr, ascending)

    def _parse_expr_list(self) -> list[Expr]:
        items = [self.parse_expr()]
        while self.accept_punct(","):
            items.append(self.parse_expr())
        return items

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        operands = [left]
        while self.accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return left
        return NaryOp("or", tuple(operands))

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        operands = [left]
        while self.accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return left
        return NaryOp("and", tuple(operands))

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        while True:
            punct = self.accept_punct(*_COMPARISON_PUNCT)
            if punct is not None:
                right = self._parse_additive()
                left = BinaryOp(punct.value, left, right)
                continue
            if self.accept_keyword("is"):
                negated = self.accept_keyword("not") is not None
                self.expect_keyword("null")
                left = IsNull(left, negated)
                continue
            if self._current.is_keyword("not") and self._peek_is_in_or_between():
                self.expect_keyword("not")
                if self.accept_keyword("in"):
                    left = self._parse_in_tail(left, negated=True)
                else:
                    self.expect_keyword("between")
                    left = UnaryOp("not", self._parse_between_tail(left))
                continue
            if self.accept_keyword("in"):
                left = self._parse_in_tail(left, negated=False)
                continue
            if self.accept_keyword("between"):
                left = self._parse_between_tail(left)
                continue
            return left

    def _peek_is_in_or_between(self) -> bool:
        nxt = self._tokens[self._index + 1]
        return nxt.is_keyword("in", "between")

    def _parse_in_tail(self, operand: Expr, negated: bool) -> Expr:
        self.expect_punct("(")
        items = self._parse_expr_list()
        self.expect_punct(")")
        return InList(operand, tuple(items), negated)

    def _parse_between_tail(self, operand: Expr) -> Expr:
        low = self._parse_additive()
        self.expect_keyword("and")
        high = self._parse_additive()
        return NaryOp(
            "and",
            (BinaryOp(">=", operand, low), BinaryOp("<=", operand, high)),
        )

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept_punct("+"):
                right = self._parse_multiplicative()
                left = self._append_nary("+", left, right)
            elif self.accept_punct("-"):
                right = self._parse_multiplicative()
                left = BinaryOp("-", left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self.accept_punct("*"):
                right = self._parse_unary()
                left = self._append_nary("*", left, right)
            elif self.accept_punct("/"):
                right = self._parse_unary()
                left = BinaryOp("/", left, right)
            elif self.accept_punct("%"):
                right = self._parse_unary()
                left = BinaryOp("%", left, right)
            else:
                return left

    @staticmethod
    def _append_nary(op: str, left: Expr, right: Expr) -> Expr:
        if isinstance(left, NaryOp) and left.op == op:
            return NaryOp(op, left.operands + (right,))
        return NaryOp(op, (left, right))

    def _parse_unary(self) -> Expr:
        if self.accept_punct("-"):
            return UnaryOp("-", self._parse_unary())
        if self.accept_punct("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.kind == "number":
            self._advance()
            return Literal(token.value)
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.is_keyword("date"):
            # DATE 'YYYY-MM-DD' literal; bare `date` is also a column name
            # in the paper's schema, so only treat it as a literal prefix
            # when a string follows.
            nxt = self._tokens[self._index + 1]
            if nxt.kind == "string":
                self._advance()
                literal = self._advance()
                return Literal(
                    parse_date_literal(literal.value, literal.line, literal.column)
                )
            self._advance()
            return self._parse_column_tail("date")
        if token.is_keyword("case"):
            return self._parse_case()
        if token.is_punct("("):
            self._advance()
            if self._current.is_keyword("select"):
                query = self.parse_select()
                self.expect_punct(")")
                return SubqueryExpr(query)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.kind == "ident":
            self._advance()
            return self._parse_identifier_tail(token)
        raise self._error("expected expression")

    def _parse_case(self) -> Expr:
        self.expect_keyword("case")
        branches: list[Expr] = []
        while self.accept_keyword("when"):
            condition = self.parse_expr()
            self.expect_keyword("then")
            value = self.parse_expr()
            branches.extend((condition, value))
        default: Expr = Literal(None)
        if self.accept_keyword("else"):
            default = self.parse_expr()
        self.expect_keyword("end")
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        return CaseWhen(tuple(branches), default)

    def _parse_identifier_tail(self, token: Token) -> Expr:
        name = token.value
        if self.accept_punct("("):
            return self._parse_call(name)
        return self._parse_column_tail(name)

    def _parse_column_tail(self, first: str) -> Expr:
        if self.accept_punct("."):
            column = self._expect_column_name()
            return ColumnRef(first, column)
        return ColumnRef(None, first)

    def _expect_column_name(self) -> str:
        # `date` is a keyword but also a valid column name (Trans.date).
        if self._current.is_keyword("date"):
            self._advance()
            return "date"
        return self.expect_ident().value

    def _parse_call(self, name: str) -> Expr:
        lowered = name.lower()
        if lowered in AGGREGATE_FUNCS:
            return self._parse_aggregate(lowered)
        args: list[Expr] = []
        if not self.accept_punct(")"):
            args = self._parse_expr_list()
            self.expect_punct(")")
        return FuncCall(lowered, tuple(args))

    def _parse_aggregate(self, func: str) -> Expr:
        if func == "count" and self.accept_punct("*"):
            self.expect_punct(")")
            return AggCall("count")
        distinct = self.accept_keyword("distinct") is not None
        arg = self.parse_expr()
        self.expect_punct(")")
        return AggCall(func, arg, distinct)
