"""Translation of EXCESS statements into algebra trees.

This is the constructive content of the equipollence theorem's first
half (Section 3.4): an algorithm mapping any EXCESS query to an
algebraic query tree.  It works the way the paper describes — "like one
of the methods for translating a QUEL-like relational query into
relational algebra: everything in the retrieval list is combined using
either joins or cross-products, then the criteria of the where clause
are applied, then the actual information desired is projected" — with
the complications the paper flags: retrieval-list elements are built
from SET_APPLY, TUP_EXTRACT, DEREF, and ARR_EXTRACT chains rather than
bare attributes.

Key mechanisms:

* **Environment tuples.**  Each iteration variable becomes a field of an
  *environment tuple*; the variable set is combined by nesting, per
  variable, the pattern ``SET_COLLAPSE(SET_APPLY_{…SET(INPUT) ×
  domain…})`` so later domains may depend on earlier variables
  (correlated ``from`` clauses and the correlated aggregate of Section
  2.2's second example).  A query with a single variable skips the
  tuple and binds the element itself (producing exactly the
  Figure-4-shaped chains).
* **Implicit variables.**  QUEL heritage: a set-valued *named object*
  used with a path (``Employees.city``) ranges implicitly, and a
  set-valued attribute path with further steps (``this.kids.name``)
  introduces one implicit variable per distinct prefix, so two mentions
  of ``this.kids`` correlate — exactly what the get_ssnum method of
  Section 4 needs.
* **Implicit dereferencing.**  A path step through a ``ref`` attribute
  inserts DEREF (``E.dept.floor``); range variables over sets of
  references are dereferenced on entry, matching the "initial
  dereferencing of Students and Employees" the paper's example trees
  start with.
* **Typed translation.**  The EXTRA type system drives all of the
  above; where types are unknown the translator falls back to
  polymorphic builtins (plus/minus) and untyped extraction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.expr import Const, Expr, Input, Named
from ..core.methods import MethodCall, Param
from ..core.operators import (DE, AddUnion, ArrCat, ArrCollapse, ArrCreate,
                              ArrCross, ArrDE, ArrDiff, ArrExtract, Comp,
                              Cross, Deref, Diff, Grp, RefOp, SetApply,
                              SetCollapse, SetCreate, SubArr, TupCat,
                              TupCreate, TupExtract)
from ..core.predicates import And, Atom, Not, Or, Predicate
from ..core.values import Arr, MultiSet, Ref, Tup
from ..core.expr import Func
from ..extra.ddl import ensure_type_system
from ..extra.types import (ArrayType, NamedType, RefType, ScalarType,
                           SetType, TupleTypeExpr, TypeExpr)
from . import ast


class TranslationError(ValueError):
    """The statement cannot be translated (unknown name, bad path, …)."""


#: Function names the translator maps straight to algebra operators,
#: giving EXCESS syntactic reach over every primitive (used by the
#: algebra→EXCESS printer for the reverse half of the theorem).
_OPERATOR_FUNCS: Dict[str, Callable] = {
    "addunion": lambda a, b: AddUnion(a, b),
    "diff": lambda a, b: Diff(a, b),
    "cross": lambda a, b: Cross(a, b),
    "de": lambda a: DE(a),
    "collapse": lambda a: SetCollapse(a),
    "setof": lambda a: SetCreate(a),
    "arr": lambda a: ArrCreate(a),
    "arrcat": lambda a, b: ArrCat(a, b),
    "arrcollapse": lambda a: ArrCollapse(a),
    "arrde": lambda a: ArrDE(a),
    "arrdiff": lambda a, b: ArrDiff(a, b),
    "arrcross": lambda a, b: ArrCross(a, b),
    "deref": lambda a: Deref(a),
    "mkref": lambda a: RefOp(a),
    "tupcat": lambda a, b: TupCat(a, b),
}


class VarSpec:
    """One iteration variable: how to build its domain, and its type."""

    def __init__(self, name: str, key: Any, domain_ast: Optional[ast.Node],
                 collection_name: Optional[str], elem_type: Optional[TypeExpr],
                 deref: bool):
        self.name = name
        self.key = key
        self.domain_ast = domain_ast          # from/implicit-path domains
        self.collection_name = collection_name  # range/named-object domains
        self.elem_type = elem_type
        self.deref = deref
        self.span = None  # parser (line, column), when known


class Scope:
    """Variable bindings available while compiling an expression."""

    def __init__(self, variables: Sequence[str] = (), bare: Optional[str] = None,
                 types: Dict[str, Optional[TypeExpr]] = None,
                 params: Dict[str, Optional[TypeExpr]] = None):
        self.variables = list(variables)
        self.bare = bare
        self.types = dict(types or {})
        self.params = dict(params or {})

    def has_var(self, name: str) -> bool:
        return name == self.bare or name in self.variables

    def access(self, name: str) -> Expr:
        if name == self.bare:
            return Input()
        if name in self.variables:
            return TupExtract(name, Input())
        raise TranslationError("variable %r is not in scope" % name)

    def var_type(self, name: str) -> Optional[TypeExpr]:
        return self.types.get(name)

    def extended(self, name: str, elem_type: Optional[TypeExpr]) -> "Scope":
        scope = Scope(self.variables, self.bare, self.types, self.params)
        scope.variables.append(name)
        scope.types[name] = elem_type
        return scope

    def all_var_names(self) -> List[str]:
        names = list(self.variables)
        if self.bare:
            names.append(self.bare)
        return names


class Translator:
    """Translates parsed EXCESS statements against a database."""

    def __init__(self, database, ranges: Dict[str, str] = None):
        self.db = database
        self.types = ensure_type_system(database)
        self.ranges = dict(ranges or {})
        if not hasattr(database, "method_signatures"):
            database.method_signatures = {}
        self._counter = 0
        # expr → source position, fed by the parser's (line, column)
        # annotations; the plan linter uses it to point findings back
        # at the query text.
        from ..core.analysis.diagnostics import SourceMap
        self.source_map = SourceMap()

    def record_span(self, expr: Optional[Expr],
                    span: Optional[Tuple[int, int]]) -> None:
        """Attach a parser span to a translated expression (and its
        span-less sub-expressions)."""
        if expr is None or span is None:
            return
        from ..core.analysis.diagnostics import Span
        self.source_map.record(expr, Span(span[0], span[1]))

    # ------------------------------------------------------------------
    # Collection typing helpers
    # ------------------------------------------------------------------

    def _created_type(self, name: str) -> Optional[TypeExpr]:
        return getattr(self.db, "created_types", {}).get(name)

    def collection_elem_type(self, name: str) -> Optional[TypeExpr]:
        declared = self._created_type(name)
        if isinstance(declared, (SetType, ArrayType)):
            return declared.element
        if declared is None and name in self.db:
            value = self.db.get(name)
            if isinstance(value, MultiSet):
                for element in value.elements():
                    if isinstance(element, Tup) and element.type_name:
                        return NamedType(element.type_name)
                    break
        return None

    def _is_set_object(self, name: str) -> bool:
        declared = self._created_type(name)
        if isinstance(declared, SetType):
            return True
        return name in self.db and isinstance(self.db.get(name), MultiSet)

    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return "_%s%d" % (hint, self._counter)

    # ------------------------------------------------------------------
    # Statement translation
    # ------------------------------------------------------------------

    def translate_retrieve(self, stmt: ast.Retrieve,
                           outer: Optional[Scope] = None
                           ) -> Tuple[Expr, Optional[TypeExpr]]:
        """Translate a retrieve statement to one algebra expression.

        Returns (expression, best-effort result type).  *outer* carries
        enclosing bindings (a method's ``this`` or an aggregate's outer
        environment).
        """
        state = _QueryState(self, stmt, outer)
        return state.build()

    def translate_function(self, definition) -> None:
        """Translate a ``define T function f`` body and register it."""
        from .parser import parse
        statements = parse(definition.body_text)
        if len(statements) != 1 or not isinstance(statements[0], ast.Retrieve):
            raise TranslationError(
                "function body must be a single retrieve statement")
        this_type = NamedType(definition.type_name)
        scope = Scope(bare="this", types={"this": this_type},
                      params={name: t for name, t in definition.params})
        body, _ = self.translate_retrieve(statements[0], outer=scope)
        self.db.methods.define(definition.type_name, definition.name,
                               [name for name, _ in definition.params], body)
        self.db.method_signatures[(definition.type_name, definition.name)] = (
            tuple(definition.params), definition.returns)

    def translate_update(self, stmt: ast.Node) -> Tuple[Expr, str]:
        """An append / delete / replace → (delta plan, target collection
        C).

        The delta is evaluated whole before anything is stored:

        * append — the ⊎ operand, the statement translated as a retrieve;
        * delete — the stored elements of C (refs, not the objects they
          reference) for which *some* binding of the where clause is T,
          each at its stored count: ``SET_APPLY[COMP[P](INPUT)](C)``, or
          with implicit set variables ``SET_COLLAPSE(SET_APPLY[DE(…)](C))``
          so an element qualifies once, not once per binding;
        * replace — that selection, each element paired with its
          assigned values, each value boxed in a one-element multiset
          so a null value is stored rather than nulling the pair:
          ``TUP(element = e, values = TUP(f = SET_APPLY[…](SET(INPUT)),
          …))``.

        The update variable is bound to the *stored* element, typed as
        C declares it (or, undeclared, as its first stored element), so
        paths through a ref dereference inside the predicate and the
        assignments only.  A U verdict yields ``unk`` in place of the
        element or pair, which names no non-null stored element.  COMP
        passes a null input through, so a stored ``unk`` is its own
        answer, as in the retrieve: delete always takes it, replace
        (which needs a tuple) never.
        """
        if isinstance(stmt, ast.Append):
            target = stmt.collection
            self._require_multiset(target, "append")
            expr, _ = self.translate_retrieve(ast.Retrieve(
                stmt.targets, stmt.from_clauses, stmt.where,
                value_mode=stmt.value_mode))
            return expr, target
        target = self.ranges.get(stmt.var, stmt.var)
        if target not in self.db:
            raise TranslationError(
                "%r is neither a range variable nor a named object"
                % stmt.var)
        self._require_multiset(target, type(stmt).__name__.lower())
        elem_type = self.collection_elem_type(target)
        if elem_type is None:
            # Made without ``create``: a stored ref still dereferences.
            first = next(iter(self.db.get(target).elements()), None)
            if isinstance(first, Ref) and first.type_name:
                elem_type = RefType(first.type_name)
        scope = Scope(bare=stmt.var, types={stmt.var: elem_type})
        state = _QueryState(self, ast.Retrieve(
            [ast.Target(ast.Name(stmt.var))], (), stmt.where,
            value_mode=True), scope)
        probe, _ = state.build()
        delta: Expr = Named(target)
        if state.specs:
            delta = SetCollapse(SetApply(DE(probe), delta))
        elif stmt.where is not None:
            delta = SetApply(probe, delta)
        if isinstance(stmt, ast.Replace):
            values: Optional[Expr] = None
            for field, value_ast in stmt.assignments:
                value, _ = _QueryState(self, ast.Retrieve(
                    [ast.Target(value_ast)], (), None, value_mode=True),
                    scope).build()
                piece = TupCreate(field, SetApply(value, SetCreate(Input())))
                values = piece if values is None else TupCat(values, piece)
            delta = SetApply(TupCat(TupCreate("element", Input()),
                                    TupCreate("values", values)), delta)
        return delta, target

    def _require_multiset(self, name: str, kind: str) -> None:
        if not isinstance(self.db.get(name), MultiSet):
            raise TranslationError(
                "%s target %r is not a multiset" % (kind, name))

    # ------------------------------------------------------------------
    # Expression compilation (shared with _QueryState)
    # ------------------------------------------------------------------

    def method_return_type(self, type_name: Optional[str],
                           method: str) -> Optional[TypeExpr]:
        if type_name is None:
            return None
        hierarchy = self.db.hierarchy
        if type_name not in hierarchy:
            return None
        for candidate in hierarchy.linearize(type_name):
            signature = self.db.method_signatures.get((candidate, method))
            if signature is not None:
                return signature[1]
        return None

    def has_method(self, type_name: Optional[str], method: str) -> bool:
        if type_name is None or self.db.methods is None:
            return False
        hierarchy = self.db.hierarchy
        if type_name not in hierarchy:
            return False
        try:
            self.db.methods.resolve(type_name, method)
            return True
        except Exception:
            return False


class _QueryState:
    """Per-retrieve translation state: variables, discovery, assembly."""

    def __init__(self, translator: Translator, stmt: ast.Retrieve,
                 outer: Optional[Scope]):
        self.t = translator
        self.stmt = stmt
        self.outer = outer
        self.specs: List[VarSpec] = []
        self.spec_by_key: Dict[Any, VarSpec] = {}

    # -- variable registration -------------------------------------------

    def _register(self, key: Any, make: Callable[[], VarSpec]) -> VarSpec:
        if key not in self.spec_by_key:
            spec = make()
            self.spec_by_key[key] = spec
            self.specs.append(spec)
        return self.spec_by_key[key]

    def _register_from_var(self, clause: ast.FromClause,
                           scope: Scope) -> VarSpec:
        def make():
            _, domain_type = self._compile(clause.domain, scope,
                                           discover=True)
            elem, deref = _element_of(domain_type)
            spec = VarSpec(clause.var, ("from", clause.var), clause.domain,
                           None, elem, deref)
            spec.span = clause.span
            return spec
        return self._register(("from", clause.var), make)

    def _register_range_var(self, var: str, collection: str) -> VarSpec:
        def make():
            elem_type = self.t.collection_elem_type(collection)
            elem, deref = _element_of(
                SetType(elem_type) if elem_type is not None else None)
            return VarSpec(var, ("range", var), None, collection, elem, deref)
        return self._register(("range", var), make)

    def _register_path_var(self, prefix: ast.Node, scope: Scope,
                           set_type: Optional[SetType]) -> VarSpec:
        def make():
            elem, deref = _element_of(set_type)
            return VarSpec(self.t._fresh("it"), ("path", prefix), prefix,
                           None, elem, deref)
        return self._register(("path", prefix), make)

    # -- main assembly ---------------------------------------------------

    def build(self) -> Tuple[Expr, Optional[TypeExpr]]:
        stmt = self.stmt
        # Discovery pass: register every variable the statement uses.
        discovery_scope = self._scope_for_discovery()
        for clause in stmt.from_clauses:
            self._register_from_var(clause, discovery_scope)
            discovery_scope = discovery_scope.extended(
                clause.var, self.spec_by_key[("from", clause.var)].elem_type)
        for target in stmt.targets:
            self._compile(target.expr, discovery_scope, discover=True)
        for key_expr in stmt.by:
            self._compile(key_expr, discovery_scope, discover=True)
        if stmt.where is not None:
            self._compile_pred(stmt.where, discovery_scope, discover=True)

        self._order_specs()
        env, scope = self._build_env()
        plan = env

        if stmt.where is not None and plan is not None:
            pred = self._compile_pred(stmt.where, scope, discover=False)
            plan = SetApply(Comp(pred, Input()), plan)
            self.t.record_span(plan, stmt.where.span)

        group_key: Optional[Expr] = None
        if stmt.by:
            group_key = self._compile_by(scope)
            if plan is None:
                raise TranslationError("'by' requires an iterated query")
            plan = Grp(group_key, plan)

        target_body, result_type = self._compile_targets(scope)

        if plan is None:
            result = target_body
            if stmt.where is not None:
                pred = self._compile_pred(stmt.where, scope, discover=False)
                result = Comp(pred, result)
            if stmt.unique:
                result = DE(result) if isinstance(result_type, SetType) else result
            return result, result_type
        if stmt.by:
            per_group: Expr = SetApply(target_body, Input())
            if stmt.unique:
                per_group = DE(per_group)
            plan = SetApply(per_group, plan)
            return plan, SetType(SetType(result_type)
                                 if result_type else None)
        plan = SetApply(target_body, plan)
        if stmt.unique:
            plan = DE(plan)
        return plan, SetType(result_type) if result_type else None

    def _order_specs(self) -> None:
        """Topologically order variables so every domain only references
        variables bound before it (a ``from C in E.kids`` clause places
        E's binding ahead of C's regardless of discovery order)."""

        def references(spec: VarSpec, other: VarSpec) -> bool:
            if spec.domain_ast is None:
                return False
            if (other.key[0] == "path" and other is not spec
                    and _ast_contains(spec.domain_ast, other.domain_ast)):
                return True
            names = set()
            _collect_names(spec.domain_ast, names)
            if other.key[0] in ("range", "from") and other.name in names:
                return True
            if (other.key[0] == "range"
                    and other.key[1] in names):
                return True
            return False

        ordered: List[VarSpec] = []
        remaining = list(self.specs)
        while remaining:
            progressed = False
            for spec in list(remaining):
                if all(not references(spec, other) for other in remaining
                       if other is not spec):
                    ordered.append(spec)
                    remaining.remove(spec)
                    progressed = True
            if not progressed:
                raise TranslationError(
                    "circular variable dependencies among %s"
                    % [s.name for s in remaining])
        self.specs = ordered

    def _scope_for_discovery(self) -> Scope:
        if self.outer is not None:
            return Scope(self.outer.variables, self.outer.bare,
                         self.outer.types, self.outer.params)
        return Scope()

    def _build_env(self) -> Tuple[Optional[Expr], Scope]:
        """Construct the environment expression and final scope."""
        outer = self.outer
        if not self.specs:
            scope = self._scope_for_discovery()
            return None, scope

        env: Optional[Expr] = None
        if outer is not None and (outer.variables or outer.bare):
            if outer.bare is not None and not outer.variables:
                scope = Scope([outer.bare], None,
                              {outer.bare: outer.types.get(outer.bare)},
                              outer.params)
                env = SetCreate(TupCreate(outer.bare, Input()))
            else:
                scope = Scope(outer.variables, None, outer.types, outer.params)
                env = SetCreate(Input())
        else:
            scope = Scope(params=(outer.params if outer else {}))

        # Single-variable fast path: bind the element bare (Figure 4 shape).
        if env is None and len(self.specs) == 1:
            spec = self.specs[0]
            domain = self._domain_expr(spec, scope)
            scope = Scope([], spec.name,
                          dict(scope.types, **{spec.name: spec.elem_type}),
                          scope.params)
            return domain, scope

        for spec in self.specs:
            domain = self._domain_expr(spec, scope)
            if env is None:
                env = SetApply(TupCreate(spec.name, Input()), domain)
            else:
                flatten = SetApply(
                    TupCat(TupExtract("field1", Input()),
                           TupCreate(spec.name,
                                     TupExtract("field2", Input()))),
                    Cross(SetCreate(Input()), domain))
                env = SetCollapse(SetApply(flatten, env))
            scope = scope.extended(spec.name, spec.elem_type)
        return env, scope

    def _domain_expr(self, spec: VarSpec, scope: Scope) -> Expr:
        if spec.collection_name is not None:
            domain: Expr = Named(spec.collection_name)
            declared = self.t._created_type(spec.collection_name)
            if isinstance(declared, ArrayType):
                # Iterating an array (e.g. TopTen) forgets order; the
                # bagof builtin is the array→multiset coercion.
                domain = Func("bagof", [domain])
        else:
            domain, domain_type = self._compile(spec.domain_ast, scope,
                                                discover=False,
                                                as_domain_of=spec)
            if isinstance(domain_type, ArrayType):
                domain = Func("bagof", [domain])
        if spec.deref:
            domain = SetApply(Deref(Input()), domain)
        self.t.record_span(domain, getattr(spec, "span", None))
        return domain

    # -- targets / by ------------------------------------------------------

    def _compile_targets(self, scope: Scope) -> Tuple[Expr, Optional[TypeExpr]]:
        stmt = self.stmt
        if stmt.value_mode:
            if len(stmt.targets) != 1:
                raise TranslationError(
                    "'retrieve value' takes exactly one target expression")
            expr, expr_type = self._compile(stmt.targets[0].expr, scope,
                                            discover=False)
            self.t.record_span(expr, stmt.targets[0].span)
            return expr, expr_type
        used: Dict[str, int] = {}
        fields: List[Tuple[str, Expr, Optional[TypeExpr]]] = []
        for index, target in enumerate(stmt.targets):
            alias = target.alias or _default_alias(target.expr, index)
            if alias in used:
                used[alias] += 1
                alias = "%s_%d" % (alias, used[alias])
            else:
                used[alias] = 0
            expr, expr_type = self._compile(target.expr, scope, discover=False)
            self.t.record_span(expr, target.span)
            fields.append((alias, expr, expr_type))
        body: Optional[Expr] = None
        for alias, expr, _ in fields:
            piece = TupCreate(alias, expr)
            body = piece if body is None else TupCat(body, piece)
        if all(t is not None for _, _, t in fields):
            result_type: Optional[TypeExpr] = TupleTypeExpr(
                [(alias, t) for alias, _, t in fields])
        else:
            result_type = None
        return body, result_type

    def _compile_by(self, scope: Scope) -> Expr:
        keys = []
        for index, key_ast in enumerate(self.stmt.by):
            expr, _ = self._compile(key_ast, scope, discover=False)
            keys.append((_default_alias(key_ast, index), expr))
        if len(keys) == 1:
            return keys[0][1]
        body: Optional[Expr] = None
        for alias, expr in keys:
            piece = TupCreate(alias, expr)
            body = piece if body is None else TupCat(body, piece)
        return body

    # -- predicates -------------------------------------------------------

    def _compile_pred(self, pred: ast.Pred, scope: Scope,
                      discover: bool) -> Predicate:
        if isinstance(pred, ast.Comparison):
            left, _ = self._compile(pred.left, scope, discover)
            right, _ = self._compile(pred.right, scope, discover)
            return Atom(left, pred.op, right)
        if isinstance(pred, ast.AndPred):
            return And(self._compile_pred(pred.left, scope, discover),
                       self._compile_pred(pred.right, scope, discover))
        if isinstance(pred, ast.OrPred):
            return Or(self._compile_pred(pred.left, scope, discover),
                      self._compile_pred(pred.right, scope, discover))
        if isinstance(pred, ast.NotPred):
            return Not(self._compile_pred(pred.inner, scope, discover))
        raise TranslationError("unsupported predicate %r" % (pred,))

    # -- expressions -----------------------------------------------------

    def _compile(self, node: ast.Node, scope: Scope, discover: bool,
                 as_domain_of: Optional[VarSpec] = None
                 ) -> Tuple[Expr, Optional[TypeExpr]]:
        if isinstance(node, ast.Literal):
            value = node.value
            scalar = {int: "int4", float: "float4", str: "char[]",
                      bool: "bool"}.get(type(value))
            return Const(value), (ScalarType(scalar, type(value))
                                  if scalar else None)
        if isinstance(node, ast.Name):
            return self._compile_name(node, scope, discover)
        if isinstance(node, ast.Path):
            return self._compile_path(node, scope, discover, as_domain_of)
        if isinstance(node, ast.BinOp):
            return self._compile_binop(node, scope, discover)
        if isinstance(node, ast.FuncCall):
            return self._compile_func(node, scope, discover)
        if isinstance(node, ast.SetLiteral):
            items = [self._compile(i, scope, discover)[0] for i in node.items]
            if not items:
                return Const(MultiSet()), None
            expr: Expr = SetCreate(items[0])
            for item in items[1:]:
                expr = AddUnion(expr, SetCreate(item))
            return expr, None
        if isinstance(node, ast.ArrayLiteral):
            items = [self._compile(i, scope, discover)[0] for i in node.items]
            if not items:
                return Const(Arr()), None
            expr = ArrCreate(items[0])
            for item in items[1:]:
                expr = ArrCat(expr, ArrCreate(item))
            return expr, None
        if isinstance(node, ast.Aggregate):
            return self._compile_aggregate(node, scope, discover)
        raise TranslationError("unsupported expression %r" % (node,))

    def _compile_name(self, node: ast.Name, scope: Scope, discover: bool
                      ) -> Tuple[Expr, Optional[TypeExpr]]:
        name = node.name
        if scope.has_var(name):
            return scope.access(name), scope.var_type(name)
        if name in scope.params:
            return Param(name), scope.params[name]
        if name in self.t.ranges:
            spec = self._register_range_var(name, self.t.ranges[name])
            if discover:
                return Input(), spec.elem_type
            return scope.access(spec.name), spec.elem_type
        if name in self.t.db:
            elem = self.t.collection_elem_type(name)
            declared = self.t._created_type(name)
            if declared is None and elem is not None:
                declared = SetType(elem)
            return Named(name), declared
        raise TranslationError("unknown name %r" % name)

    def _compile_binop(self, node: ast.BinOp, scope: Scope, discover: bool
                       ) -> Tuple[Expr, Optional[TypeExpr]]:
        left, left_type = self._compile(node.left, scope, discover)
        right, right_type = self._compile(node.right, scope, discover)
        setish = isinstance(left_type, SetType) or isinstance(right_type, SetType)
        arrish = isinstance(left_type, ArrayType) or isinstance(right_type,
                                                                ArrayType)
        if node.op == "+":
            if setish:
                return AddUnion(left, right), left_type or right_type
            if arrish:
                return ArrCat(left, right), left_type or right_type
            return Func("plus", [left, right]), left_type or right_type
        if node.op == "-":
            if setish:
                return Diff(left, right), left_type or right_type
            return Func("minus", [left, right]), left_type or right_type
        if node.op == "*":
            return Func("times", [left, right]), left_type or right_type
        if node.op == "/":
            return Func("divide", [left, right]), ScalarType("float4", float)
        raise TranslationError("unknown operator %r" % node.op)

    def _compile_func(self, node: ast.FuncCall, scope: Scope, discover: bool
                      ) -> Tuple[Expr, Optional[TypeExpr]]:
        lowered = node.name.lower()
        # tup("f", e) / extract("f", e): the field name is a literal.
        if lowered in ("tup", "extract"):
            if (len(node.args) != 2
                    or not isinstance(node.args[0], ast.Literal)
                    or not isinstance(node.args[0].value, str)):
                raise TranslationError(
                    '%s() needs a string field name and a value' % lowered)
            field = node.args[0].value
            value, _ = self._compile(node.args[1], scope, discover)
            if lowered == "tup":
                return TupCreate(field, value), None
            return TupExtract(field, value), None
        args = [self._compile(a, scope, discover)[0] for a in node.args]
        if lowered in _OPERATOR_FUNCS:
            maker = _OPERATOR_FUNCS[lowered]
            try:
                return maker(*args), None
            except TypeError:
                raise TranslationError(
                    "wrong number of arguments for %s" % node.name)
        return Func(node.name, args), None

    def _compile_aggregate(self, node: ast.Aggregate, scope: Scope,
                           discover: bool) -> Tuple[Expr, Optional[TypeExpr]]:
        if not node.from_clauses and node.where is None:
            operand, _ = self._compile(node.expr, scope, discover)
            return Func(node.func, [operand]), None
        subquery = ast.Retrieve(
            targets=[ast.Target(node.expr)],
            from_clauses=node.from_clauses,
            where=node.where,
            value_mode=True)
        if discover:
            # The subquery manages its own variables; nothing of the
            # outer statement's env depends on its internals, but its
            # *outer* references must be discovered via the shared scope
            # when they touch range variables.  Building the real tree
            # registers those through the nested translation below, so
            # discovery only needs outer-name side effects:
            self._discover_outer_names(node, scope)
            return Const(0), None
        inner_translator = _QueryState(self.t, subquery, scope)
        inner_expr, _ = inner_translator.build()
        return Func(node.func, [inner_expr]), None

    def _discover_outer_names(self, node: ast.Aggregate, scope: Scope) -> None:
        """Register outer range variables mentioned inside an aggregate."""
        local = {clause.var for clause in node.from_clauses}

        def walk(n):
            if isinstance(n, ast.Name):
                if (n.name not in local and not scope.has_var(n.name)
                        and n.name in self.t.ranges):
                    self._register_range_var(n.name, self.t.ranges[n.name])
                return
            if isinstance(n, ast.Node):
                for value in n._values():
                    walk(value)
            elif isinstance(n, (list, tuple)):
                for item in n:
                    walk(item)

        walk(node.expr)
        for clause in node.from_clauses:
            walk(clause.domain)
        if node.where is not None:
            walk(node.where)

    # -- paths --------------------------------------------------------------

    def _compile_path(self, node: ast.Path, scope: Scope, discover: bool,
                      as_domain_of: Optional[VarSpec] = None
                      ) -> Tuple[Expr, Optional[TypeExpr]]:
        expr, current = self._compile(node.base, scope, discover)
        steps = list(node.steps)
        for index, step in enumerate(steps):
            prefix = (ast.Path(node.base, steps[:index])
                      if index else node.base)
            expr, current = self._apply_step(
                expr, current, step, prefix, scope, discover,
                is_final_domain=(as_domain_of is not None
                                 and as_domain_of.key == ("path", node)
                                 and index == len(steps) - 1))
        return expr, current

    def _apply_step(self, expr: Expr, current: Optional[TypeExpr],
                    step: ast.PathStep, prefix: ast.Node, scope: Scope,
                    discover: bool, is_final_domain: bool = False
                    ) -> Tuple[Expr, Optional[TypeExpr]]:
        # Implicit dereference through ref-typed values.
        while isinstance(current, RefType):
            expr = Deref(expr)
            current = NamedType(current.target)
        # A set-valued value with a field/call step ranges implicitly —
        # unless this path is itself being compiled as a domain.
        if (isinstance(current, SetType) or
            (current is None and isinstance(expr, Named)
             and self.t._is_set_object(expr.name))) and isinstance(
                 step, (ast.FieldStep, ast.CallStep)) and not is_final_domain:
            set_type = current if isinstance(current, SetType) else (
                SetType(self.t.collection_elem_type(expr.name))
                if isinstance(expr, Named)
                and self.t.collection_elem_type(expr.name) else None)
            spec = self._register_path_var(prefix, scope, set_type)
            if discover:
                expr, current = Input(), spec.elem_type
            else:
                expr, current = scope.access(spec.name), spec.elem_type
            while isinstance(current, RefType):
                expr = Deref(expr)
                current = NamedType(current.target)

        if isinstance(step, ast.FieldStep):
            type_name = current.name if isinstance(current, NamedType) else None
            if type_name is not None:
                if _has_field(self.t.types, type_name, step.name):
                    field_type = self.t.types.field_type(type_name, step.name)
                    return TupExtract(step.name, expr), field_type
                if self.t.has_method(type_name, step.name):
                    return (MethodCall(step.name, [], expr),
                            self.t.method_return_type(type_name, step.name))
                if step.name in self.t.db.functions:
                    # A registered scalar function used as a virtual
                    # field (GEM-style "dot application").
                    return Func(step.name, [expr]), None
                if type_name in self.t.types:
                    raise TranslationError(
                        "type %s has no attribute or method %r"
                        % (type_name, step.name))
            if isinstance(current, TupleTypeExpr):
                for fname, ftype in current.fields:
                    if fname == step.name:
                        return TupExtract(step.name, expr), ftype
            # Untyped, or a type with no EXTRA definition (the store's
            # default ``Object``): assume a field.
            return TupExtract(step.name, expr), None

        if isinstance(step, ast.CallStep):
            args = [self._compile(a, scope, discover)[0] for a in step.args]
            type_name = current.name if isinstance(current, NamedType) else None
            return (MethodCall(step.name, args, expr),
                    self.t.method_return_type(type_name, step.name))

        if isinstance(step, ast.IndexStep):
            elem = current.element if isinstance(current, ArrayType) else None
            if step.is_slice:
                return (SubArr(step.lower, step.upper, expr),
                        ArrayType(elem) if elem else None)
            return ArrExtract(step.lower, expr), elem
        raise TranslationError("unsupported path step %r" % (step,))


def _element_of(domain_type: Optional[TypeExpr]
                ) -> Tuple[Optional[TypeExpr], bool]:
    """(element type, needs-deref) for a set- or array-typed domain."""
    if isinstance(domain_type, (SetType, ArrayType)):
        element = domain_type.element
        if isinstance(element, RefType):
            return NamedType(element.target), True
        return element, False
    return None, False


def _has_field(types, type_name: str, field: str) -> bool:
    try:
        types.field_type(type_name, field)
        return True
    except Exception:
        return False


def _ast_contains(haystack, needle) -> bool:
    """Structural sub-tree containment over AST nodes."""
    if haystack == needle:
        return True
    if isinstance(haystack, ast.Node):
        return any(_ast_contains(v, needle) for v in haystack._values())
    if isinstance(haystack, (list, tuple)):
        return any(_ast_contains(v, needle) for v in haystack)
    return False


def _collect_names(node, out: set) -> None:
    """Collect every bare identifier mentioned in an AST subtree."""
    if isinstance(node, ast.Name):
        out.add(node.name)
    if isinstance(node, ast.Node):
        for value in node._values():
            _collect_names(value, out)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _collect_names(item, out)


def _default_alias(node: ast.Node, index: int) -> str:
    if isinstance(node, ast.Path):
        for step in reversed(node.steps):
            if isinstance(step, ast.FieldStep):
                return step.name
            if isinstance(step, ast.CallStep):
                return step.name
        return _default_alias(node.base, index)
    if isinstance(node, ast.Name):
        return node.name
    if isinstance(node, ast.Aggregate):
        return node.func
    if isinstance(node, ast.FuncCall):
        return node.name
    return "col%d" % (index + 1)
