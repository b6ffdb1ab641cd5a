"""Static, inheritance-aware schema inference for algebra trees.

The algebra is many-sorted, and the paper's well-formedness story is
all static: every operator has input sorts it accepts and an output
schema derivable from its inputs.  :class:`TypeInference` implements
that discipline as one pass over the type lattice — given schemas for
the named top-level objects (and, inside operator subscripts, for
INPUT), it infers the result schema of a whole tree, rejecting sort
errors *before* evaluation (π on a multiset, SET_APPLY on a tuple,
DEREF of a non-ref, TUP_CAT field clashes, …).  Over that sort
discipline it applies the parts of the story that need the type
hierarchy:

* **DOM(S) substitutability** — ⊎ of a ``{Student}`` and an
  ``{Employee}`` (and ARR_CAT of two such arrays) infers ``{Person}``,
  the least upper bound in the type hierarchy, instead of failing or
  forgetting everything;
* **typed narrowing** — a SET_APPLY/ARR_APPLY type filter narrows the
  body's INPUT schema to the filtered types, and an indexed type scan
  yields only its types (that is the point of the ⊎-based method
  plans: each branch knows its receiver's type);
* **declared function signatures** — builtin and registered scalar
  functions, including signatures that need the argument *expressions*
  (``drop_field`` reads field names from Const args);
* **method dispatch** — a MethodCall's schema is the lub of the
  schemas of every implementation the receiver's static type can
  dispatch to, each checked against its defining type's schema.

It deliberately mirrors the run-time checks in the operators, so a
tree that passes cannot raise a sort error at evaluation (function
results and untyped leaves are the honest exceptions: a registered
scalar function's output is opaque unless a signature is declared).
Unknown pieces are represented by ``None`` ("any"), which unifies with
everything — inference degrades gracefully instead of refusing
partially-typed trees.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set

from ..expr import Expr
from ..hierarchy import TypeHierarchy
from ..schema import (SchemaCatalog, SchemaNode, infer_schema, is_unknown,
                      unknown_schema)


class AlgebraTypeError(TypeError):
    """A static sort/schema violation in an algebra tree.

    Besides the human-readable message, the error carries structured
    fields so downstream tooling (the linter's diagnostics) can report
    *which* operator failed and what sort mismatch occurred without
    parsing the message text.
    """

    def __init__(self, message: str, operator: Optional[str] = None,
                 expected: Optional[str] = None, got: Optional[str] = None,
                 expr: Optional[Expr] = None):
        super().__init__(message)
        self.operator = operator
        self.expected = expected
        self.got = got
        self.expr = expr


#: ``None`` denotes the unknown ("any") schema throughout.
MaybeSchema = Optional[SchemaNode]


def _expect(schema: MaybeSchema, kind: str, operator: str) -> MaybeSchema:
    """Check *schema* (if known) has node *kind*; return its component
    knowledge for further inference."""
    if is_unknown(schema):
        return None
    if schema.kind != kind:
        raise AlgebraTypeError(
            "%s expects a %s input, got %s (%s)"
            % (operator, kind, schema.kind, schema.describe()),
            operator=operator, expected=kind, got=schema.kind)
    return schema


def _element(schema: MaybeSchema) -> MaybeSchema:
    if schema is None or not schema.children:
        return None
    child = schema.children[0]
    return None if is_unknown(child) else child


def _known(schema: MaybeSchema) -> SchemaNode:
    """*schema* as a component: a fresh copy, or the unknown placeholder."""
    return schema.clone() if schema is not None else unknown_schema()


def _pair(left: MaybeSchema, right: MaybeSchema) -> SchemaNode:
    """The (field1, field2) element of a × / ARR_CROSS result."""
    return SchemaNode.tup({"field1": _known(_element(left)),
                           "field2": _known(_element(right))})


def substitutable(sub: MaybeSchema, sup: MaybeSchema,
                  hierarchy: Optional[TypeHierarchy] = None) -> bool:
    """DOM(S) substitutability: may a *sub*-typed value appear where
    *sup* is expected?  Width/depth subtyping on tuples, inheritance on
    named refs and tuple base types, componentwise on collections."""
    if is_unknown(sub) or is_unknown(sup):
        return True
    if sub.kind != sup.kind:
        return False
    if sub.kind == "val":
        return (sup.scalar_type is None or sub.scalar_type is None
                or sub.scalar_type == sup.scalar_type)
    if sub.kind == "ref":
        if sub.target is not None and sup.target is not None:
            if hierarchy and sub.target in hierarchy \
                    and sup.target in hierarchy:
                return hierarchy.is_subtype(sub.target, sup.target)
            return sub.target == sup.target
        return True
    if sub.kind == "tup":
        if (hierarchy and sub.base_name and sup.base_name
                and sub.base_name in hierarchy
                and sup.base_name in hierarchy):
            return hierarchy.is_subtype(sub.base_name, sup.base_name)
        sub_fields = set(sub.field_names)
        return all(name in sub_fields
                   and substitutable(sub.field(name), sup.field(name),
                                     hierarchy)
                   for name in sup.field_names)
    return substitutable(sub.children[0], sup.children[0], hierarchy)


class TypeInference:
    """Infers result schemas; raises :class:`AlgebraTypeError` on
    sort violations.  One ``_chk_<Operator>`` method per node kind.

    Parameters
    ----------
    named_schemas:
        Schemas of the named top-level objects (what a catalog of
        ``create``\\ d objects provides).
    catalog:
        Resolves ref targets for DEREF and type names for narrowing.
    signatures:
        Optional result schemas for registered scalar functions,
        name → SchemaNode (or a callable arg-schemas → SchemaNode).
    hierarchy:
        The type hierarchy lubs and dispatch are computed in.
    methods:
        The method registry MethodCall dispatch resolves against.
    """

    def __init__(self, named_schemas: Optional[Dict[str, SchemaNode]] = None,
                 catalog: Optional[SchemaCatalog] = None,
                 signatures: Optional[Dict[str, Any]] = None,
                 hierarchy: Optional[TypeHierarchy] = None,
                 methods: Any = None):
        self.named = dict(named_schemas or {})
        self.catalog = catalog or SchemaCatalog()
        self.signatures = dict(signatures or {})
        self.hierarchy = hierarchy
        self.methods = methods
        self._method_stack: Set[Any] = set()

    # -- public API ----------------------------------------------------

    def check(self, expr: Expr,
              input_schema: MaybeSchema = None) -> MaybeSchema:
        """Infer the schema of *expr*; INPUT is bound to *input_schema*."""
        method = getattr(self, "_chk_%s" % type(expr).__name__, None)
        if method is None:
            return None  # unknown node kinds stay opaque
        try:
            return method(expr, input_schema)
        except AlgebraTypeError as error:
            if error.expr is None:
                # The innermost failing node wins; outer frames pass it up.
                error.expr = expr
            raise

    # -- least upper bounds under inheritance ---------------------------

    def _common_supertype(self, a: str, b: str) -> Optional[str]:
        """Most specific common supertype of two type names, or None."""
        if self.hierarchy is None or a not in self.hierarchy \
                or b not in self.hierarchy:
            return a if a == b else None
        for candidate in self.hierarchy.linearize(a):
            if self.hierarchy.is_subtype(b, candidate):
                return candidate
        return None

    def lub(self, a: MaybeSchema, b: MaybeSchema) -> MaybeSchema:
        """Least upper bound of two inferred schemas (None = unknown)."""
        if is_unknown(a):
            return b
        if is_unknown(b):
            return a
        if a.kind != b.kind:
            return None
        if a.kind == "val":
            if a.scalar_type == b.scalar_type:
                return a
            return SchemaNode.val()
        if a.kind == "ref":
            if a.target is not None and b.target is not None:
                if a.target == b.target:
                    return a
                common = self._common_supertype(a.target, b.target)
                return SchemaNode.ref_to(common) if common else None
            return a if a.target is None and b.target is None else None
        if a.kind == "tup":
            if a.base_name and a.base_name == b.base_name:
                return a
            common = None
            if a.base_name and b.base_name:
                common = self._common_supertype(a.base_name, b.base_name)
            if common is not None:
                return self._schema_of_type(common) or a
            shared = [n for n in a.field_names if n in set(b.field_names)]
            if not shared:
                return None
            return SchemaNode.tup(
                {name: _known(self.lub(a.field(name), b.field(name)))
                 for name in shared})
        wrap = SchemaNode.set_of if a.kind == "set" else SchemaNode.arr_of
        return wrap(_known(self.lub(a.children[0], b.children[0])))

    def _union(self, expr, input_schema, kind: str, operator: str,
               wrap: Callable[[SchemaNode], SchemaNode]) -> MaybeSchema:
        """⊎ and ARR_CAT: a collection of the lub of both element
        schemas, so each operand's values stay within DOM(S)."""
        left = _expect(self.check(expr.left, input_schema), kind, operator)
        right = _expect(self.check(expr.right, input_schema), kind, operator)
        if left is None or right is None:
            return left if right is None else right
        return wrap(_known(self.lub(_element(left), _element(right))))

    # -- typed narrowing -------------------------------------------------

    def _schema_of_type(self, type_name: str) -> MaybeSchema:
        if type_name in self.catalog:
            return self.catalog.resolve(type_name)
        return None

    def _narrow(self, element: MaybeSchema,
                type_filter: FrozenSet[str]) -> MaybeSchema:
        """The schema of an element whose exact type is in
        *type_filter* (no filter: *element* unchanged)."""
        if not type_filter:
            return element
        if element is not None and element.kind == "ref":
            narrowed = None
            for type_name in sorted(type_filter):
                narrowed = self.lub(narrowed, SchemaNode.ref_to(type_name))
            return narrowed if narrowed is not None else element
        narrowed = None
        for type_name in sorted(type_filter):
            schema = self._schema_of_type(type_name)
            if schema is None:
                return element  # unknown filtered type: keep what we had
            narrowed = self.lub(narrowed, schema)
        return narrowed if narrowed is not None else element

    def _apply(self, expr, input_schema, kind: str, operator: str,
               wrap: Callable[[SchemaNode], SchemaNode]) -> SchemaNode:
        """SET_APPLY and ARR_APPLY: the body runs once per element that
        passes the type filter, with INPUT narrowed accordingly."""
        source = _expect(self.check(expr.source, input_schema), kind,
                         operator)
        element = self._narrow(_element(source), expr.type_filter)
        body = self.check(expr.body, element)
        return wrap(body if body is not None else unknown_schema())

    # -- leaves ----------------------------------------------------------

    def _chk_Input(self, expr, input_schema):
        return input_schema

    def _chk_Named(self, expr, input_schema):
        return self.named.get(expr.name)

    def _chk_Const(self, expr, input_schema):
        try:
            return infer_schema(expr.value)
        except TypeError:
            return None

    def _chk_Param(self, expr, input_schema):
        return None

    def _chk_Func(self, expr, input_schema):
        arg_schemas = [self.check(arg, input_schema) for arg in expr.args]
        signature = self.signatures.get(expr.name)
        if callable(signature):
            if getattr(signature, "wants_exprs", False):
                return signature(arg_schemas, list(expr.args))
            return signature(arg_schemas)
        return signature

    # -- multiset operators ---------------------------------------------

    def _chk_SetApply(self, expr, input_schema):
        return self._apply(expr, input_schema, "set", "SET_APPLY",
                           SchemaNode.set_of)

    def _chk_Grp(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "set", "GRP")
        self.check(expr.by, _element(source))
        return SchemaNode.set_of(SchemaNode.set_of(_known(_element(source))))

    def _chk_DE(self, expr, input_schema):
        return _expect(self.check(expr.source, input_schema), "set", "DE")

    def _chk_SetCreate(self, expr, input_schema):
        inner = self.check(expr.source, input_schema)
        return SchemaNode.set_of(inner if inner is not None
                                 else unknown_schema())

    def _chk_SetCollapse(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "set",
                         "SET_COLLAPSE")
        inner = _element(source)
        if inner is not None and inner.kind != "set":
            raise AlgebraTypeError(
                "SET_COLLAPSE needs a multiset of multisets, inner sort "
                "is %s" % inner.kind,
                operator="SET_COLLAPSE", expected="set", got=inner.kind)
        return inner if inner is not None else SchemaNode.set_of(
            unknown_schema())

    def _chk_AddUnion(self, expr, input_schema):
        return self._union(expr, input_schema, "set", "⊎", SchemaNode.set_of)

    def _chk_Diff(self, expr, input_schema):
        left = _expect(self.check(expr.left, input_schema), "set", "−")
        _expect(self.check(expr.right, input_schema), "set", "−")
        return left

    def _chk_Cross(self, expr, input_schema):
        left = _expect(self.check(expr.left, input_schema), "set", "×")
        right = _expect(self.check(expr.right, input_schema), "set", "×")
        return SchemaNode.set_of(_pair(left, right))

    # -- tuple operators -------------------------------------------------

    def _chk_Pi(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "tup", "π")
        if source is None:
            return None
        fields = {}
        for name in expr.names:
            try:
                fields[name] = source.field(name).clone()
            except Exception:
                raise AlgebraTypeError(
                    "π names field %r absent from %s"
                    % (name, source.describe()),
                    operator="π", expected=name, got=source.describe())
        return SchemaNode.tup(fields)

    def _chk_TupExtract(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "tup",
                         "TUP_EXTRACT")
        if source is None:
            return None
        try:
            return source.field(expr.field)
        except Exception:
            raise AlgebraTypeError(
                "TUP_EXTRACT names field %r absent from %s"
                % (expr.field, source.describe()),
                operator="TUP_EXTRACT", expected=expr.field,
                got=source.describe())

    def _chk_TupCreate(self, expr, input_schema):
        inner = self.check(expr.source, input_schema)
        return SchemaNode.tup({expr.field: inner if inner is not None
                               else unknown_schema()})

    def _chk_TupCat(self, expr, input_schema):
        left = _expect(self.check(expr.left, input_schema), "tup", "TUP_CAT")
        right = _expect(self.check(expr.right, input_schema), "tup",
                        "TUP_CAT")
        if left is None or right is None:
            return None
        clash = set(left.field_names) & set(right.field_names)
        if clash:
            raise AlgebraTypeError(
                "TUP_CAT field clash: %s" % ", ".join(sorted(clash)),
                operator="TUP_CAT", expected="disjoint fields",
                got=", ".join(sorted(clash)))
        fields = {name: child.clone() for name, child in left.fields()}
        fields.update({name: child.clone()
                       for name, child in right.fields()})
        return SchemaNode.tup(fields)

    # -- array operators -------------------------------------------------

    def _chk_ArrApply(self, expr, input_schema):
        return self._apply(expr, input_schema, "arr", "ARR_APPLY",
                           SchemaNode.arr_of)

    def _chk_ArrCreate(self, expr, input_schema):
        inner = self.check(expr.source, input_schema)
        return SchemaNode.arr_of(inner if inner is not None
                                 else unknown_schema())

    def _chk_ArrExtract(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "arr",
                         "ARR_EXTRACT")
        return _element(source)

    def _chk_SubArr(self, expr, input_schema):
        return _expect(self.check(expr.source, input_schema), "arr",
                       "SUBARR")

    def _chk_ArrCat(self, expr, input_schema):
        return self._union(expr, input_schema, "arr", "ARR_CAT",
                           SchemaNode.arr_of)

    def _chk_ArrDiff(self, expr, input_schema):
        left = _expect(self.check(expr.left, input_schema), "arr", "ARR_DIFF")
        _expect(self.check(expr.right, input_schema), "arr", "ARR_DIFF")
        return left

    def _chk_ArrDE(self, expr, input_schema):
        return _expect(self.check(expr.source, input_schema), "arr",
                       "ARR_DE")

    def _chk_ArrCollapse(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "arr",
                         "ARR_COLLAPSE")
        inner = _element(source)
        if inner is not None and inner.kind != "arr":
            raise AlgebraTypeError(
                "ARR_COLLAPSE needs an array of arrays, inner sort is %s"
                % inner.kind,
                operator="ARR_COLLAPSE", expected="arr", got=inner.kind)
        return inner

    def _chk_ArrCross(self, expr, input_schema):
        left = _expect(self.check(expr.left, input_schema), "arr",
                       "ARR_CROSS")
        right = _expect(self.check(expr.right, input_schema), "arr",
                        "ARR_CROSS")
        return SchemaNode.arr_of(_pair(left, right))

    # -- references, predicates, methods ---------------------------------

    def _chk_Deref(self, expr, input_schema):
        source = _expect(self.check(expr.source, input_schema), "ref",
                         "DEREF")
        if source is None:
            return None
        if source.target is not None and source.target in self.catalog:
            return self.catalog.resolve(source.target)
        if source.children:
            return source.children[0]
        return None

    def _chk_RefOp(self, expr, input_schema):
        inner = self.check(expr.source, input_schema)
        return SchemaNode.ref_to(inner if inner is not None
                                 else unknown_schema())

    def _chk_Comp(self, expr, input_schema):
        source = self.check(expr.source, input_schema)
        for operand in expr.pred.deep_exprs():
            self.check(operand, source)
        return source

    def _chk_IndexedTypeScan(self, expr, input_schema):
        source = self.named.get(expr.object_name)
        if source is None:
            return None
        return SchemaNode.set_of(
            _known(self._narrow(_element(source), expr.types)))

    def _chk_MethodCall(self, expr, input_schema):
        receiver = self.check(expr.receiver, input_schema)
        root = self._receiver_type(receiver)
        if root is None or self.methods is None:
            return None
        key = (root, expr.name, len(expr.args))
        if key in self._method_stack:
            return None  # recursive method: give up on a fixed point
        try:
            implementations = self.methods.implementations(root, expr.name)
        except Exception:
            return None  # unresolvable dispatch is the linter's finding
        result: MaybeSchema = None
        self._method_stack.add(key)
        try:
            for type_name, method in implementations.items():
                try:
                    body = method.instantiate(list(expr.args))
                except Exception:
                    return None
                self_schema = self._schema_of_type(type_name)
                try:
                    schema = self.check(body, self_schema)
                except AlgebraTypeError:
                    # A body ill-typed for a type that may never occur at
                    # run time must not fail the whole plan statically.
                    return None
                if schema is None:
                    return None
                result = schema if result is None else self.lub(result,
                                                                schema)
        finally:
            self._method_stack.discard(key)
        return result

    def _receiver_type(self, receiver: MaybeSchema) -> Optional[str]:
        """The static type name a MethodCall dispatches under, if known."""
        if receiver is None or self.hierarchy is None:
            return None
        if receiver.kind == "ref" and receiver.target in self.hierarchy:
            return receiver.target
        if receiver.kind == "tup" and receiver.base_name in self.hierarchy:
            return receiver.base_name
        return None


def database_schemas(db) -> "tuple[Dict[str, SchemaNode], SchemaCatalog]":
    """(named-object schemas, type catalog) for a database.

    Named-object schemas come from the declared ``created_types`` (or
    are inferred from the stored values); the catalog resolves ref
    targets through the EXTRA type system.
    """
    from ...extra.ddl import ensure_type_system
    types = ensure_type_system(db)
    catalog = types.catalog
    named: Dict[str, SchemaNode] = {}
    for name in db.names():
        declared = getattr(db, "created_types", {}).get(name)
        if declared is not None:
            named[name] = declared.schema(types)
        else:
            try:
                named[name] = infer_schema(db.get(name))
            except TypeError:
                pass
    for type_name in types.names():
        types.schema_for(type_name)
    return named, catalog


def inference_for_database(db) -> TypeInference:
    """A TypeInference wired to a database: named-object schemas, the
    type catalog, the hierarchy/method registry, and every declared
    signature source (builtins, the operator library, registered
    functions)."""
    named, catalog = database_schemas(db)
    signatures: Dict[str, Any] = {}
    # Lazy imports: repro.excess imports this package (span plumbing),
    # so pulling its modules in at import time would cycle.
    try:
        from ...excess.builtins import BUILTIN_SIGNATURES
        signatures.update(BUILTIN_SIGNATURES)
    except ImportError:  # pragma: no cover - excess layer always ships
        pass
    try:
        from ..operators.library import LIBRARY_SIGNATURES
        signatures.update(LIBRARY_SIGNATURES)
    except ImportError:  # pragma: no cover
        pass
    signatures.update(getattr(db, "function_signatures", None) or {})
    return TypeInference(named, catalog, signatures,
                         hierarchy=db.hierarchy,
                         methods=getattr(db, "methods", None))


__all__: List[str] = ["AlgebraTypeError", "MaybeSchema", "TypeInference",
                      "database_schemas", "inference_for_database",
                      "substitutable"]
