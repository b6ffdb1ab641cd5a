"""Recursive-descent parser for EXCESS DML statements.

Grammar (clauses may appear in any order after the target list, matching
the paper's examples, which write both ``… by … where …`` and
``… from … where …``)::

    statement   := range_decl | retrieve
    range_decl  := "range" "of" IDENT "is" IDENT {"," IDENT "is" IDENT}
    retrieve    := "retrieve" ["unique"] ["value"] "(" targets ")"
                   { from | where | by } ["into" IDENT]
    targets     := target {"," target}
    target      := [IDENT "="] expr
    from        := "from" IDENT "in" expr {"," IDENT "in" expr}
    where       := "where" pred
    by          := "by" expr {"," expr}

    pred        := conj {"or" conj}
    conj        := unit {"and" unit}
    unit        := "not" unit | "(" pred ")" | expr (CMP | "in") expr
    expr        := mult {("+"|"-") mult}
    mult        := unary {("*"|"/") unary}
    unary       := "-" unary | postfix
    postfix     := primary { "." IDENT ["(" args ")"] | "[" index "]" }
    primary     := literal | "(" expr ")" | "{" [args] "}" | "[" [args] "]"
                 | AGG "(" expr [from] [where] ")" | IDENT ["(" args ")"]
    index       := (INT|"last") [".." (INT|"last")]

Predicate-vs-expression parenthesis ambiguity (``where (x.a = 1)``) is
resolved by backtracking.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..lang import Lexer, ParseError
from . import ast

_COMPARATORS = {"=", "!=", "<", "<=", ">", ">="}

_CLAUSE_WORDS = ("from", "where", "by", "into", "retrieve", "range",
                 "define", "create", "and", "or", "not", "in", "is")


class Parser:
    """Parses EXCESS statements from a token stream.

    Built over source text, or over an existing :class:`Lexer` — a
    cursor shared with the DDL interpreter, so one script may mix DDL
    and DML statements without tokenizing twice.
    """

    def __init__(self, source: Union[str, Lexer]):
        self.lexer = source if isinstance(source, Lexer) else Lexer(source)

    # -- entry points ---------------------------------------------------

    def parse_statements(self) -> List[ast.Node]:
        statements: List[ast.Node] = []
        while not self.lexer.at_end():
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> ast.Node:
        token = self.lexer.peek()
        if token.is_word("range"):
            return self.parse_range_decl()
        if token.is_word("retrieve"):
            return self.parse_retrieve()
        if token.is_word("append"):
            return self.parse_append()
        if token.is_word("delete"):
            return self.parse_delete()
        if token.is_word("replace"):
            return self.parse_replace()
        raise ParseError("expected an EXCESS statement, found %r"
                         % (token.value or "end of input"),
                         token.line, token.column)

    def parse_append(self) -> ast.Append:
        self.lexer.expect_word("append")
        self.lexer.expect_word("to")
        collection = self.lexer.expect_ident().value
        value_mode = bool(self.lexer.accept_word("value"))
        self.lexer.expect_op("(")
        targets = [self.parse_target()]
        while self.lexer.accept_op(","):
            targets.append(self.parse_target())
        self.lexer.expect_op(")")
        from_clauses: List[ast.FromClause] = []
        where: Optional[ast.Pred] = None
        while True:
            token = self.lexer.peek()
            if token.is_word("from"):
                self.lexer.advance()
                from_clauses.extend(self._parse_from_list())
            elif token.is_word("where"):
                self.lexer.advance()
                where = self.parse_pred()
            else:
                break
        return ast.Append(collection, targets, from_clauses, where,
                          value_mode)

    def parse_delete(self) -> ast.Delete:
        self.lexer.expect_word("delete")
        var = self.lexer.expect_ident().value
        where = None
        if self.lexer.accept_word("where"):
            where = self.parse_pred()
        return ast.Delete(var, where)

    def parse_replace(self) -> ast.Replace:
        self.lexer.expect_word("replace")
        var = self.lexer.expect_ident().value
        self.lexer.expect_op("(")
        assignments = []
        while True:
            field = self.lexer.expect_ident().value
            self.lexer.expect_op("=")
            assignments.append((field, self.parse_expr()))
            if self.lexer.accept_op(")"):
                break
            self.lexer.expect_op(",")
        where = None
        if self.lexer.accept_word("where"):
            where = self.parse_pred()
        return ast.Replace(var, assignments, where)

    # -- statements ----------------------------------------------------

    def parse_range_decl(self) -> ast.RangeDecl:
        self.lexer.expect_word("range")
        self.lexer.expect_word("of")
        bindings: List[Tuple[str, str]] = []
        while True:
            var = self.lexer.expect_ident().value
            self.lexer.expect_word("is")
            collection = self.lexer.expect_ident().value
            bindings.append((var, collection))
            if not self.lexer.accept_op(","):
                break
        return ast.RangeDecl(bindings)

    def parse_retrieve(self) -> ast.Retrieve:
        self.lexer.expect_word("retrieve")
        unique = bool(self.lexer.accept_word("unique"))
        value_mode = bool(self.lexer.accept_word("value"))
        self.lexer.expect_op("(")
        targets = [self.parse_target()]
        while self.lexer.accept_op(","):
            targets.append(self.parse_target())
        self.lexer.expect_op(")")
        from_clauses: List[ast.FromClause] = []
        where: Optional[ast.Pred] = None
        by: List[ast.Node] = []
        into: Optional[str] = None
        while True:
            token = self.lexer.peek()
            if token.is_word("from"):
                self.lexer.advance()
                from_clauses.extend(self._parse_from_list())
            elif token.is_word("where"):
                if where is not None:
                    raise ParseError("duplicate where clause",
                                     token.line, token.column)
                self.lexer.advance()
                where = self.parse_pred()
                where.span = (token.line, token.column)
            elif token.is_word("by"):
                self.lexer.advance()
                by.append(self.parse_expr())
                while self.lexer.accept_op(","):
                    by.append(self.parse_expr())
            elif token.is_word("into"):
                self.lexer.advance()
                into = self.lexer.expect_ident().value
            else:
                break
        return ast.Retrieve(targets, from_clauses, where, by, unique,
                            value_mode, into)

    def parse_target(self) -> ast.Target:
        # "alias = expr" — only when an IDENT is directly followed by "=",
        # and the ident isn't itself the start of a comparison (targets
        # hold value expressions, so a leading "x =" can only be an alias).
        token = self.lexer.peek()
        span = (token.line, token.column)
        if (token.kind == "IDENT"
                and self.lexer.peek(1).kind == "OP"
                and self.lexer.peek(1).value == "="):
            alias = self.lexer.advance().value
            self.lexer.advance()  # '='
            target = ast.Target(self.parse_expr(), alias=alias)
        else:
            target = ast.Target(self.parse_expr())
        target.span = span
        return target

    def _parse_from_list(self) -> List[ast.FromClause]:
        clauses: List[ast.FromClause] = []
        while True:
            token = self.lexer.peek()
            var = self.lexer.expect_ident().value
            self.lexer.expect_word("in")
            clause = ast.FromClause(var, self.parse_expr())
            clause.span = (token.line, token.column)
            clauses.append(clause)
            if not self.lexer.accept_op(","):
                break
        return clauses

    # -- predicates -----------------------------------------------------

    def parse_pred(self) -> ast.Pred:
        pred = self._parse_conj()
        while self.lexer.accept_word("or"):
            pred = ast.OrPred(pred, self._parse_conj())
        return pred

    def _parse_conj(self) -> ast.Pred:
        pred = self._parse_pred_unit()
        while self.lexer.accept_word("and"):
            pred = ast.AndPred(pred, self._parse_pred_unit())
        return pred

    def _parse_pred_unit(self) -> ast.Pred:
        if self.lexer.accept_word("not"):
            return ast.NotPred(self._parse_pred_unit())
        token = self.lexer.peek()
        if token.kind == "OP" and token.value == "(":
            # Could be "(pred)" or a parenthesized comparison operand;
            # try the predicate reading first, backtracking on failure.
            saved = self.lexer.position
            try:
                self.lexer.advance()
                inner = self.parse_pred()
                self.lexer.expect_op(")")
                return inner
            except ParseError:
                self.lexer.position = saved
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Comparison:
        left = self.parse_expr()
        token = self.lexer.peek()
        if token.is_word("in"):
            self.lexer.advance()
            return ast.Comparison(left, "in", self.parse_expr())
        if token.kind == "OP" and token.value in _COMPARATORS:
            op = self.lexer.advance().value
            return ast.Comparison(left, op, self.parse_expr())
        raise ParseError("expected a comparison operator, found %r"
                         % (token.value or "end of input"),
                         token.line, token.column)

    # -- value expressions --------------------------------------------

    def parse_expr(self) -> ast.Node:
        left = self._parse_mult()
        while True:
            token = self.lexer.peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                op = self.lexer.advance().value
                left = ast.BinOp(op, left, self._parse_mult())
            else:
                return left

    def _parse_mult(self) -> ast.Node:
        left = self._parse_unary()
        while True:
            token = self.lexer.peek()
            if token.kind == "OP" and token.value in ("*", "/"):
                op = self.lexer.advance().value
                left = ast.BinOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Node:
        if self.lexer.peek().kind == "OP" and self.lexer.peek().value == "-":
            self.lexer.advance()
            return ast.FuncCall("neg", [self._parse_unary()])
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Node:
        base = self._parse_primary()
        steps: List[ast.PathStep] = []
        while True:
            if self.lexer.accept_op("."):
                name = self.lexer.expect_ident().value
                if self.lexer.peek().kind == "OP" and self.lexer.peek().value == "(":
                    steps.append(ast.CallStep(name, self._parse_args()))
                else:
                    steps.append(ast.FieldStep(name))
            elif self.lexer.peek().kind == "OP" and self.lexer.peek().value == "[":
                self.lexer.advance()
                lower = self._parse_index_bound()
                upper = None
                if self.lexer.accept_op(".."):
                    upper = self._parse_index_bound()
                self.lexer.expect_op("]")
                steps.append(ast.IndexStep(lower, upper))
            else:
                break
        if steps:
            return ast.Path(base, steps)
        return base

    def _parse_index_bound(self):
        token = self.lexer.peek()
        if token.kind == "INT":
            return int(self.lexer.advance().value)
        if token.is_word("last"):
            self.lexer.advance()
            return "last"
        raise ParseError("expected an array index or 'last', found %r"
                         % (token.value or "end of input"),
                         token.line, token.column)

    def _parse_args(self) -> List[ast.Node]:
        self.lexer.expect_op("(")
        args: List[ast.Node] = []
        if not self.lexer.accept_op(")"):
            while True:
                args.append(self.parse_expr())
                if self.lexer.accept_op(")"):
                    break
                self.lexer.expect_op(",")
        return args

    def _parse_primary(self) -> ast.Node:
        token = self.lexer.peek()
        if token.kind == "INT":
            self.lexer.advance()
            return ast.Literal(int(token.value))
        if token.kind == "FLOAT":
            self.lexer.advance()
            return ast.Literal(float(token.value))
        if token.kind == "STRING":
            self.lexer.advance()
            return ast.Literal(token.value)
        if token.is_word("true"):
            self.lexer.advance()
            return ast.Literal(True)
        if token.is_word("false"):
            self.lexer.advance()
            return ast.Literal(False)
        if token.kind == "OP" and token.value == "(":
            self.lexer.advance()
            inner = self.parse_expr()
            self.lexer.expect_op(")")
            return inner
        if token.kind == "OP" and token.value == "{":
            self.lexer.advance()
            items: List[ast.Node] = []
            if not self.lexer.accept_op("}"):
                while True:
                    items.append(self.parse_expr())
                    if self.lexer.accept_op("}"):
                        break
                    self.lexer.expect_op(",")
            return ast.SetLiteral(items)
        if token.kind == "OP" and token.value == "[":
            self.lexer.advance()
            items = []
            if not self.lexer.accept_op("]"):
                while True:
                    items.append(self.parse_expr())
                    if self.lexer.accept_op("]"):
                        break
                    self.lexer.expect_op(",")
            return ast.ArrayLiteral(items)
        if token.kind == "IDENT":
            name = self.lexer.advance().value
            lowered = name.lower()
            if (lowered in ast.AGGREGATE_NAMES
                    and self.lexer.peek().kind == "OP"
                    and self.lexer.peek().value == "("):
                return self._parse_aggregate(lowered)
            if (self.lexer.peek().kind == "OP"
                    and self.lexer.peek().value == "("):
                return ast.FuncCall(name, self._parse_args())
            return ast.Name(name)
        raise ParseError("expected an expression, found %r"
                         % (token.value or "end of input"),
                         token.line, token.column)

    def _parse_aggregate(self, func: str) -> ast.Node:
        """``agg( expr [from …] [where …] )`` — a plain call
        ``agg(expr)`` (no subquery clauses) stays an aggregate whose
        operand is evaluated directly."""
        self.lexer.expect_op("(")
        expr = self.parse_expr()
        from_clauses: List[ast.FromClause] = []
        where: Optional[ast.Pred] = None
        while True:
            token = self.lexer.peek()
            if token.is_word("from"):
                self.lexer.advance()
                from_clauses.extend(self._parse_from_list())
            elif token.is_word("where"):
                self.lexer.advance()
                where = self.parse_pred()
            else:
                break
        self.lexer.expect_op(")")
        return ast.Aggregate(func, expr, from_clauses, where)


def parse(source: str) -> List[ast.Node]:
    """Parse EXCESS DML source into statement ASTs."""
    return Parser(source).parse_statements()
