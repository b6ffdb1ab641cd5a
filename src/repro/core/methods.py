"""Methods, overriding, and the two dispatch strategies of Section 4.

An EXTRA/EXCESS *method* is an EXCESS statement (here: an algebraic
expression) defined on a type and inherited — and possibly overridden —
by its subtypes.  When a method is defined it is translated once into a
stored query tree; invoking it "plugs in" that tree, so the whole query
(invoker + method body) optimizes as one tree rather than a black box.

The problem: invoking method ``f`` over a collection P : {Person} whose
occurrences may really be Students or Employees.  Two strategies:

* **switch-table** (:class:`MethodCall` inside a SET_APPLY) — resolve
  the receiver's exact type at run time and execute the matching stored
  body.  No compile-time optimization across bodies.
* **⊎-based** (:func:`build_union_plan`) — one typed SET_APPLY per
  relevant type (or per *distinct* body, the paper's "easy initial
  improvement"), results combined with ⊎.  The bodies are ordinary
  subtrees, so every transformation rule applies; the price is one scan
  of P per branch — unless per-type indexes exist, which
  :class:`IndexedTypeScan` exploits to remove the extra scans entirely.

Method bodies are expressions over ``INPUT`` (the receiver, the paper's
``this``) and :class:`Param` placeholders for declared parameters, bound
by substitution at invocation time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .expr import AlgebraError, EvalContext, Expr, Input
from .hierarchy import TypeHierarchy
from .operators.multiset import AddUnion, SetApply, exact_type_of
from .values import DNE, MultiSet, Ref, is_null


class MethodError(AlgebraError):
    """Unknown method, bad override, or unresolvable dispatch."""


class Param(Expr):
    """A method-parameter placeholder, replaced at invocation time."""

    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        raise MethodError(
            "unbound method parameter %r (instantiate the method body "
            "before evaluating it)" % self.name)

    def describe(self) -> str:
        return "$%s" % self.name


def bind_params(body: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Replace every :class:`Param` in *body* with its bound argument.

    Descends everywhere — including binding bodies and COMP predicate
    operands — since parameters are lexical placeholders, not INPUT
    references.
    """

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Param):
            try:
                return bindings[expr.name]
            except KeyError:
                raise MethodError("no argument bound for parameter %r"
                                  % expr.name)
        updates = {}
        for field in expr._fields:
            value = getattr(expr, field)
            if isinstance(value, Expr):
                new = rewrite(value)
                if new is not value:
                    updates[field] = new
            elif hasattr(value, "map_exprs"):  # a Predicate
                new = value.map_exprs(rewrite)
                if new != value:
                    updates[field] = new
            elif isinstance(value, (list, tuple)):
                new_seq = [rewrite(v) if isinstance(v, Expr) else v
                           for v in value]
                if any(a is not b for a, b in zip(new_seq, value)):
                    updates[field] = tuple(new_seq) if isinstance(
                        value, tuple) else new_seq
        return expr.replace(**updates) if updates else expr

    return rewrite(body)


class Method:
    """A stored method: a name, a defining type, parameters, and a body.

    Overriding requires identical type signatures (Section 4); since the
    algebra is dynamically checked here, we enforce the checkable part —
    identical parameter lists.
    """

    def __init__(self, type_name: str, name: str,
                 params: Sequence[str], body: Expr):
        self.type_name = type_name
        self.name = name
        self.params = tuple(params)
        self.body = body

    def instantiate(self, args: Sequence[Expr]) -> Expr:
        """The body with arguments substituted for parameters.

        The result is an expression over INPUT = the receiver, ready to
        be used as a SET_APPLY subscript or evaluated directly.
        """
        if len(args) != len(self.params):
            raise MethodError(
                "%s.%s expects %d argument(s), got %d"
                % (self.type_name, self.name, len(self.params), len(args)))
        return bind_params(self.body, dict(zip(self.params, args)))

    def __repr__(self) -> str:
        return "<Method %s.%s(%s)>" % (self.type_name, self.name,
                                       ", ".join(self.params))


class MethodRegistry:
    """All method definitions, resolved through the type hierarchy."""

    def __init__(self, hierarchy: TypeHierarchy):
        self.hierarchy = hierarchy
        self._methods: Dict[Tuple[str, str], Method] = {}
        #: Change counter, one of the terms of ``Database.version``:
        #: plans inline method bodies, so a redefinition voids them.
        self.version = 0

    def define(self, type_name: str, name: str, params: Sequence[str],
               body: Expr) -> Method:
        """Define (or override) method *name* on *type_name*.

        An override must keep the signature of every inherited
        definition of the same name.
        """
        if type_name not in self.hierarchy:
            raise MethodError("unknown type %r" % type_name)
        for ancestor in self.hierarchy.ancestors(type_name):
            inherited = self._methods.get((ancestor, name))
            if inherited and inherited.params != tuple(params):
                raise MethodError(
                    "override of %s.%s must keep the signature (%s), got (%s)"
                    % (ancestor, name, ", ".join(inherited.params),
                       ", ".join(params)))
        method = Method(type_name, name, params, body)
        self._methods[(type_name, name)] = method
        self.version += 1
        return method

    def defined_on(self, type_name: str, name: str) -> Optional[Method]:
        """The definition *directly* on this type, if any."""
        return self._methods.get((type_name, name))

    def resolve(self, exact_type: str, name: str) -> Method:
        """The method a receiver of *exact_type* executes.

        C3 linearization of the ancestry decides which definition wins
        under multiple inheritance (self first, then parents in a
        consistent order).
        """
        for candidate in self.hierarchy.linearize(exact_type):
            method = self._methods.get((candidate, name))
            if method is not None:
                return method
        raise MethodError("no method %r on type %r or its ancestors"
                          % (name, exact_type))

    def implementations(self, root_type: str, name: str) -> Dict[str, Method]:
        """exact type → resolved method, for every type at or below
        *root_type* — the branches of a ⊎-based plan."""
        out: Dict[str, Method] = {}
        for t in sorted(self.hierarchy.descendants_or_self(root_type)):
            out[t] = self.resolve(t, name)
        return out

    def distinct_implementations(self, root_type: str, name: str
                                 ) -> List[Tuple[Method, List[str]]]:
        """The paper's improvement: group types by the method they
        actually execute, so the plan needs only as many SET_APPLYs as
        there are distinct bodies."""
        groups: Dict[Tuple[str, str], List[str]] = {}
        impls = self.implementations(root_type, name)
        for t, method in impls.items():
            groups.setdefault((method.type_name, method.name), []).append(t)
        return [(self._methods[key], sorted(types))
                for key, types in sorted(groups.items())]


class MethodCall(Expr):
    """Run-time ("switch-table") method dispatch on a single receiver.

    Resolves the receiver's exact type when evaluated and runs the
    matching stored body.  A Ref receiver is dereferenced so the body's
    ``this`` is the object itself; dispatch still uses the ref's exact
    recorded type.  Used inside SET_APPLY this is precisely the paper's
    first strategy: the "switch table … implicitly associated with the
    set P".
    """

    _fields = ("name", "args", "receiver")
    _binding_fields = ("args",)  # arguments are bound per-receiver too

    def __init__(self, name: str, args: Sequence[Expr], receiver: Expr):
        self.name = name
        self.args = tuple(args)
        self.receiver = receiver

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        if ctx.methods is None:
            raise MethodError("no method registry in the context")
        receiver = self.receiver.evaluate(input_value, ctx)
        if is_null(receiver):
            return receiver
        exact = exact_type_of(receiver, ctx)
        if exact is None:
            raise MethodError(
                "cannot dispatch %r: receiver %r has no exact type"
                % (self.name, receiver))
        ctx.tick("method_dispatches")
        method = ctx.methods.resolve(exact, self.name)
        body = method.instantiate(list(self.args))
        if isinstance(receiver, Ref):
            ctx.tick("deref_count")
            receiver = ctx.store.get(receiver.oid, default=DNE)
            if receiver is DNE:
                return DNE
        return body.evaluate(receiver, ctx)

    def describe(self) -> str:
        inner = ", ".join(a.describe() for a in self.args)
        return "%s.%s(%s)" % (self.receiver.describe(), self.name, inner)


class IndexedTypeScan(Expr):
    """A typed scan of a named multiset served by a partition index.

    Evaluates to the sub-multiset of the named object whose occurrences
    have an exact type in *types*.  When the context carries an index
    catalog with a typed index on the object, the lookup is direct and
    no scan work is charged; otherwise it degrades to a filtered scan
    (charging ``set_apply_elements`` like a typed SET_APPLY would).
    """

    _fields = ("object_name", "types")

    def __init__(self, object_name: str, types):
        self.object_name = object_name
        if isinstance(types, str):
            types = [types]
        self.types = frozenset(types)

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        catalog = getattr(ctx, "indexes", None)
        if catalog is not None:
            index = catalog.typed(self.object_name)
            if index is not None:
                ctx.tick("index_lookups")
                return index.lookup(self.types)
        collection = ctx.lookup(self.object_name)
        if not isinstance(collection, MultiSet):
            raise MethodError("IndexedTypeScan needs a multiset object")
        tally = {}
        for element, count in collection.items():
            ctx.tick("elements_scanned", count)
            if exact_type_of(element, ctx) in self.types:
                tally[element] = count
        return MultiSet(counts=tally)

    def describe(self) -> str:
        return "IDXSCAN[%s](%s)" % ("/".join(sorted(self.types)),
                                    self.object_name)


def switch_table_plan(name: str, args: Sequence[Expr], source: Expr) -> Expr:
    """Strategy 1: SET_APPLY with run-time dispatch per occurrence."""
    return SetApply(MethodCall(name, args, Input()), source)


def build_union_plan(registry: MethodRegistry, root_type: str, name: str,
                     args: Sequence[Expr], source: Expr,
                     collapse_identical: bool = True,
                     deref_receiver: bool = False,
                     use_index: Optional[str] = None) -> Expr:
    """Strategy 2: the ⊎-based compile-time plan (Figure 5).

    One typed SET_APPLY per implementation (per *distinct* body when
    ``collapse_identical``), unioned with ⊎.  Each branch's body is the
    fully inlined stored query tree, so the optimizer can transform it
    together with the invoking query.

    ``deref_receiver`` inserts a DEREF so bodies written against objects
    work over collections of references.  ``use_index`` names the source
    object; branch inputs then become :class:`IndexedTypeScan` leaves,
    reproducing the paper's index-based variant in which "the need to
    scan P three times … disappears".
    """
    from .operators.refs import Deref

    if collapse_identical:
        branches = registry.distinct_implementations(root_type, name)
    else:
        branches = [(method, [t])
                    for t, method in
                    sorted(registry.implementations(root_type, name).items())]
    if not branches:
        raise MethodError("no implementations of %s on %s" % (name, root_type))
    plan: Optional[Expr] = None
    for method, types in branches:
        body = method.instantiate(list(args))
        if deref_receiver:
            from .expr import substitute_input
            body = substitute_input(body, Deref(Input()))
        if use_index is not None:
            branch_source: Expr = IndexedTypeScan(use_index, types)
            branch = SetApply(body, branch_source)
        else:
            branch = SetApply(body, source, type_filter=frozenset(types))
        plan = branch if plan is None else AddUnion(plan, branch)
    return plan
