"""Parser and interpreter for the EXTRA data definition language.

Supports the statements of Figure 1 and Section 4:

* ``define type T: ( field: type, … ) [inherits A, B]``
* ``create Name : <type expression>``
* ``define T function f (p: type, …) returns <type> { <EXCESS body> }``

Type expressions compose the four constructors: ``ref T``, ``{ T }``,
``array [1..n] of T`` / ``array of T``, inline tuples, scalars
(``int4``, ``char[]``, ``char[20]``, ``float4``, ``bool``), and named
tuple types used by value.

``create`` registers a named, persistent top-level object initialized
to an empty instance of its type (empty multiset / empty array / tuple
of defaults); data is loaded through the API or EXCESS.  Function
bodies are EXCESS text, handed to a translator callback (wired up by
:mod:`repro.excess`) that turns them into stored algebraic query trees.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from ..core.values import Arr, MultiSet, Tup
from ..lang import Lexer, ParseError
from .types import (SCALAR_KEYWORDS, ArrayType, NamedType, RefType,
                    ScalarType, SetType, TupleTypeExpr, TypeExpr, TypeSystem,
                    TypeError_)


class FunctionDef:
    """A parsed ``define T function f`` statement (body still EXCESS text)."""

    def __init__(self, type_name: str, name: str,
                 params: Sequence[Tuple[str, TypeExpr]],
                 returns: TypeExpr, body_text: str):
        self.type_name = type_name
        self.name = name
        self.params = tuple(params)
        self.returns = returns
        self.body_text = body_text

    def __repr__(self) -> str:
        return "<FunctionDef %s.%s(%s)>" % (
            self.type_name, self.name,
            ", ".join(n for n, _ in self.params))


def parse_type_expr(lexer: Lexer, types: TypeSystem) -> TypeExpr:
    """Parse one EXTRA type expression at the cursor."""
    token = lexer.peek()
    if token.is_word("ref"):
        lexer.advance()
        target = lexer.expect_ident().value
        return RefType(target)
    if token.kind == "OP" and token.value == "{":
        lexer.advance()
        element = parse_type_expr(lexer, types)
        lexer.expect_op("}")
        return SetType(element)
    if token.is_word("array"):
        lexer.advance()
        lower = upper = None
        if lexer.accept_op("["):
            lower = int(lexer.advance().value)
            lexer.expect_op("..")
            upper = int(lexer.advance().value)
            lexer.expect_op("]")
        lexer.expect_word("of")
        element = parse_type_expr(lexer, types)
        return ArrayType(element, lower, upper)
    if token.kind == "OP" and token.value == "(":
        return TupleTypeExpr(_parse_field_list(lexer, types))
    if token.kind == "IDENT":
        name = lexer.advance().value
        if name in SCALAR_KEYWORDS:
            return ScalarType(name, SCALAR_KEYWORDS[name])
        if name == "char":
            # char[] or char[20] — length is documentation only here.
            if lexer.accept_op("["):
                if lexer.peek().kind == "INT":
                    lexer.advance()
                lexer.expect_op("]")
            return ScalarType("char[]", str)
        alias = types.scalar_alias(name)
        if alias is not None:
            return ScalarType(name, alias)
        return NamedType(name)
    raise ParseError("expected a type expression, found %r"
                     % (token.value or "end of input"), token.line, token.column)


def _parse_field_list(lexer: Lexer, types: TypeSystem
                      ) -> List[Tuple[str, TypeExpr]]:
    lexer.expect_op("(")
    fields: List[Tuple[str, TypeExpr]] = []
    if not lexer.accept_op(")"):
        while True:
            name = lexer.expect_ident().value
            lexer.expect_op(":")
            fields.append((name, parse_type_expr(lexer, types)))
            if lexer.accept_op(")"):
                break
            lexer.expect_op(",")
    return fields


def default_instance(type_expr: TypeExpr, types: TypeSystem) -> Any:
    """The empty/default value a freshly created object of this type holds."""
    if isinstance(type_expr, SetType):
        return MultiSet()
    if isinstance(type_expr, ArrayType):
        return Arr()
    if isinstance(type_expr, ScalarType):
        return type_expr.py_type()
    if isinstance(type_expr, TupleTypeExpr):
        return Tup({name: default_instance(t, types)
                    for name, t in type_expr.fields})
    if isinstance(type_expr, NamedType):
        return Tup({name: default_instance(t, types)
                    for name, t in types.effective_fields(type_expr.name)},
                   type_name=type_expr.name)
    if isinstance(type_expr, RefType):
        raise TypeError_(
            "a bare 'create X : ref T' has no default instance; create the "
            "target object first and assign its reference")
    raise TypeError_("no default instance for %r" % type_expr)


class DDLInterpreter:
    """Executes EXTRA DDL statements against a database.

    Parameters
    ----------
    database:
        The :class:`repro.storage.Database` to define types/objects in.
    types:
        The type system; defaults to one attached to (and shared with)
        the database.
    function_translator:
        Callback ``(FunctionDef) -> None`` that translates an EXCESS
        function body and registers the stored method.  Wired up by
        ``repro.excess``; without it, ``define … function`` raises.
    """

    def __init__(self, database, types: TypeSystem = None,
                 function_translator: Callable = None):
        self.database = database
        self.types = types or ensure_type_system(database)
        self.function_translator = function_translator
        #: Declared types of created top-level objects, by name.
        self.created: dict = getattr(database, "created_types", {})
        database.created_types = self.created

    # -- statement dispatch ----------------------------------------------

    def run(self, source: str) -> List[Any]:
        """Execute every DDL statement in *source*; returns a list of
        results (type/object/function descriptors, in order)."""
        lexer = Lexer(source)
        results: List[Any] = []
        while not lexer.at_end():
            results.append(self.run_statement(lexer))
        return results

    def run_statement(self, lexer: Lexer) -> Any:
        token = lexer.peek()
        if token.is_word("define"):
            if lexer.peek(1).is_word("type"):
                return self._define_type(lexer)
            return self._define_function(lexer)
        if token.is_word("create"):
            return self._create(lexer)
        raise ParseError("expected a DDL statement, found %r"
                         % (token.value or "end of input"),
                         token.line, token.column)

    # -- statements -----------------------------------------------------

    def _define_type(self, lexer: Lexer):
        lexer.expect_word("define")
        lexer.expect_word("type")
        name = lexer.expect_ident().value
        lexer.expect_op(":")
        fields = _parse_field_list(lexer, self.types)
        parents: List[str] = []
        if lexer.accept_word("inherits"):
            parents.append(lexer.expect_ident().value)
            while lexer.accept_op(","):
                parents.append(lexer.expect_ident().value)
        return self.types.define(name, fields, parents)

    def _create(self, lexer: Lexer):
        lexer.expect_word("create")
        name = lexer.expect_ident().value
        lexer.expect_op(":")
        type_expr = parse_type_expr(lexer, self.types)
        self.created[name] = type_expr
        journal = getattr(self.database, "journal", None)
        if journal is not None:
            # The created *value* is journaled by database.create below;
            # the declared type only lives in this side table.
            journal.log_ddl({"kind": "created_type", "name": name,
                             "type": type_expr.describe()})
        self.database.create(name, default_instance(type_expr, self.types))
        return (name, type_expr)

    def _define_function(self, lexer: Lexer) -> FunctionDef:
        lexer.expect_word("define")
        type_name = lexer.expect_ident().value
        lexer.expect_word("function")
        func_name = lexer.expect_ident().value
        params: List[Tuple[str, TypeExpr]] = []
        lexer.expect_op("(")
        if not lexer.accept_op(")"):
            while True:
                param = lexer.expect_ident().value
                lexer.expect_op(":")
                params.append((param, parse_type_expr(lexer, self.types)))
                if lexer.accept_op(")"):
                    break
                lexer.expect_op(",")
        lexer.expect_word("returns")
        returns = parse_type_expr(lexer, self.types)
        body_text = _raw_braced_body(lexer)
        definition = FunctionDef(type_name, func_name, params, returns,
                                 body_text)
        if self.function_translator is None:
            raise TypeError_(
                "define function needs an EXCESS translator; run DDL "
                "through repro.connect(...).execute()")
        self.function_translator(definition)
        return definition


def _raw_braced_body(lexer: Lexer) -> str:
    """Collect the raw token text of a balanced ``{ … }`` body."""
    lexer.expect_op("{")
    depth = 1
    parts: List[str] = []
    while depth > 0:
        token = lexer.advance()
        if token.kind == "EOF":
            raise ParseError("unterminated function body")
        if token.kind == "OP" and token.value == "{":
            depth += 1
        elif token.kind == "OP" and token.value == "}":
            depth -= 1
            if depth == 0:
                break
        if token.kind == "STRING":
            parts.append('"%s"' % token.value)
        else:
            parts.append(token.value)
    return " ".join(parts)


def ensure_type_system(database) -> TypeSystem:
    """The type system attached to *database*, created on first use."""
    types = getattr(database, "types", None)
    if types is None:
        types = TypeSystem(database.hierarchy)
        database.types = types
    return types
