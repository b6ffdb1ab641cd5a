"""The EXTRA type system: tuple types, inheritance, and type expressions.

EXTRA (Section 2.1) builds types from four orthogonal constructors —
tuple ``( … )``, multiset ``{ … }``, array ``array [l..u] of …``, and
reference ``ref T`` — over scalars and previously defined named tuple
types.  Top-level tuple types form a multiple-inheritance hierarchy;
"the semantics of this inheritance are that all attributes and methods
of Person are also attributes and methods of Student and Employee", and
any inherited attribute may be overridden with a new type specification.

A :class:`TypeSystem` owns the hierarchy, the effective (inherited +
overridden) field layout of every tuple type, the derived schema graphs,
and tuple construction/validation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.domains import DomainChecker
from ..core.hierarchy import HierarchyError, TypeHierarchy
from ..core.schema import SchemaCatalog, SchemaNode
from ..core.values import Arr, Ref, Tup


class TypeError_(ValueError):
    """An EXTRA typing error (named to avoid shadowing the builtin)."""


# ---------------------------------------------------------------------------
# Type expressions (the right-hand sides of field declarations).
# ---------------------------------------------------------------------------

class TypeExpr:
    """Base class for EXTRA type expressions."""

    def schema(self, system: "TypeSystem") -> SchemaNode:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            (k, repr(v)) for k, v in self.__dict__.items()))))


#: Scalar keyword → Python representation type.
SCALAR_KEYWORDS = {
    "int2": int, "int4": int, "int8": int, "int": int,
    "float4": float, "float8": float, "float": float,
    "bool": bool,
}


class ScalarType(TypeExpr):
    """A scalar: int4, float4, char[…], bool, or a registered ADT alias."""

    def __init__(self, keyword: str, py_type: type):
        self.keyword = keyword
        self.py_type = py_type

    def schema(self, system: "TypeSystem") -> SchemaNode:
        return SchemaNode.val(self.py_type)

    def describe(self) -> str:
        return self.keyword


class NamedType(TypeExpr):
    """A previously defined tuple type used *by value* (e.g. kids: {Person})."""

    def __init__(self, name: str):
        self.name = name

    def schema(self, system: "TypeSystem") -> SchemaNode:
        # Clone so the same named type can be embedded by value in
        # several places without sharing schema nodes (condition iv).
        return system.schema_for(self.name).clone()

    def describe(self) -> str:
        return self.name


class RefType(TypeExpr):
    """``ref T`` — an OID of an object of type T (or a subtype)."""

    def __init__(self, target: str):
        self.target = target

    def schema(self, system: "TypeSystem") -> SchemaNode:
        system.require(self.target)
        return SchemaNode.ref_to(self.target)

    def describe(self) -> str:
        return "ref %s" % self.target


class SetType(TypeExpr):
    """``{ T }`` — a multiset of T."""

    def __init__(self, element: TypeExpr):
        self.element = element

    def schema(self, system: "TypeSystem") -> SchemaNode:
        return SchemaNode.set_of(self.element.schema(system))

    def describe(self) -> str:
        return "{ %s }" % self.element.describe()


class ArrayType(TypeExpr):
    """``array [l..u] of T`` (fixed length) or ``array of T`` (variable)."""

    def __init__(self, element: TypeExpr, lower: Optional[int] = None,
                 upper: Optional[int] = None):
        if (lower is None) != (upper is None):
            raise TypeError_("array bounds must both be given or both omitted")
        if lower is not None and lower != 1:
            raise TypeError_("EXTRA arrays are 1-based; lower bound must be 1")
        self.element = element
        self.lower = lower
        self.upper = upper

    @property
    def fixed_length(self) -> Optional[int]:
        return self.upper

    def schema(self, system: "TypeSystem") -> SchemaNode:
        return SchemaNode.arr_of(self.element.schema(system),
                                 fixed_length=self.fixed_length)

    def describe(self) -> str:
        if self.fixed_length is not None:
            return "array [1..%d] of %s" % (self.fixed_length,
                                            self.element.describe())
        return "array of %s" % self.element.describe()


class TupleTypeExpr(TypeExpr):
    """An anonymous inline tuple type ``( f: T, … )``."""

    def __init__(self, fields: Sequence[Tuple[str, TypeExpr]]):
        self.fields = tuple(fields)

    def schema(self, system: "TypeSystem") -> SchemaNode:
        return SchemaNode.tup({name: t.schema(system)
                               for name, t in self.fields})

    def describe(self) -> str:
        return "(%s)" % ", ".join("%s: %s" % (n, t.describe())
                                  for n, t in self.fields)


# ---------------------------------------------------------------------------
# Named tuple types and the type system.
# ---------------------------------------------------------------------------

class TupleType:
    """A named, top-level tuple type with inheritance."""

    def __init__(self, name: str, own_fields: Sequence[Tuple[str, TypeExpr]],
                 parents: Sequence[str] = ()):
        self.name = name
        self.own_fields = tuple(own_fields)
        self.parents = tuple(parents)

    def __repr__(self) -> str:
        inherits = " inherits %s" % ", ".join(self.parents) if self.parents else ""
        return "<TupleType %s%s>" % (self.name, inherits)


class TypeSystem:
    """Registry of EXTRA tuple types over a shared hierarchy.

    Field inheritance follows C3 linearization: the effective layout
    starts from the *most distant* ancestors and is refined towards the
    type itself, so a type's own declaration (or the nearest override)
    wins, and under multiple inheritance the linearization order breaks
    ties deterministically.  Field *order* is ancestor-first, matching
    the intuition that a Student is a Person tuple extended with more
    fields.
    """

    def __init__(self, hierarchy: TypeHierarchy = None):
        self.hierarchy = hierarchy or TypeHierarchy()
        self.catalog = SchemaCatalog()
        self._types: Dict[str, TupleType] = {}
        self._schemas: Dict[str, SchemaNode] = {}
        self._scalar_aliases: Dict[str, type] = {"Date": str, "char": str}
        #: Change counter, one of the terms of ``Database.version``.
        self.version = 0

    # -- registration -----------------------------------------------------

    def register_scalar_alias(self, name: str, py_type: type) -> None:
        """Register an ADT-style scalar alias (the E-language stand-in)."""
        self._scalar_aliases[name] = py_type
        self.version += 1

    def scalar_alias(self, name: str) -> Optional[type]:
        return self._scalar_aliases.get(name)

    def define(self, name: str, fields: Sequence[Tuple[str, TypeExpr]],
               parents: Sequence[str] = ()) -> TupleType:
        """Define tuple type *name* with the given own fields and parents."""
        if name in self._types:
            raise TypeError_("type %r already defined" % name)
        for parent in parents:
            if parent not in self._types:
                raise TypeError_("unknown parent type %r" % parent)
        tuple_type = TupleType(name, fields, parents)
        self._types[name] = tuple_type
        if name in self.hierarchy:
            # The name may already be in the hierarchy — a parentless
            # stub auto-registered by the storage layer, or a restored
            # persistence snapshot.  Accept exactly matching ancestry.
            if list(self.hierarchy.parents(name)) != list(parents):
                raise HierarchyError(
                    "type %r already in the hierarchy with a different "
                    "ancestry" % name)
        else:
            self.hierarchy.add_type(name, parents)
        self.version += 1
        return tuple_type

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def require(self, name: str) -> TupleType:
        try:
            return self._types[name]
        except KeyError:
            raise TypeError_("no EXTRA type named %r" % name)

    def names(self) -> List[str]:
        return sorted(self._types)

    # -- effective layout ----------------------------------------------

    def effective_fields(self, name: str) -> List[Tuple[str, TypeExpr]]:
        """The inherited-plus-own field layout of *name*.

        Ancestors contribute first (in reverse linearization order, so
        the root's fields lead); overrides replace the type expression
        in place without moving the field.
        """
        self.require(name)
        layout: Dict[str, TypeExpr] = {}
        for type_name in reversed(self.hierarchy.linearize(name)):
            for field_name, type_expr in self._types[type_name].own_fields:
                layout[field_name] = type_expr
        return list(layout.items())

    def field_type(self, name: str, field: str) -> TypeExpr:
        for field_name, type_expr in self.effective_fields(name):
            if field_name == field:
                return type_expr
        raise TypeError_("type %s has no attribute %r" % (name, field))

    # -- schemas -----------------------------------------------------------

    def schema_for(self, name: str) -> SchemaNode:
        """The schema graph of tuple type *name* (cached, registered).

        Reference fields carry their target by name (cycles through
        ``ref`` are fine, per condition iv); a cycle through *value*
        nesting is rejected — such a type would have no finite
        instances.
        """
        if name not in self._schemas:
            self.require(name)
            building = getattr(self, "_building", None)
            if building is None:
                building = set()
                self._building = building
            if name in building:
                raise TypeError_(
                    "type %r is value-recursive (a cycle not broken by "
                    "ref violates schema condition iv)" % name)
            building.add(name)
            try:
                schema = SchemaNode.tup(
                    {field: type_expr.schema(self)
                     for field, type_expr in self.effective_fields(name)},
                    name=name)
            finally:
                building.discard(name)
            self._schemas[name] = schema
            if name not in self.catalog:
                self.catalog.register(schema, name)
        return self._schemas[name]

    def checker(self, oid_generator=None) -> DomainChecker:
        """A domain checker wired to this type system."""
        for name in self.names():
            self.schema_for(name)
        return DomainChecker(self.catalog, self.hierarchy, oid_generator)

    # -- construction -----------------------------------------------------

    def new(self, type_name: str, values: Dict[str, Any] = None,
            check: bool = True, **kwargs: Any) -> Tup:
        """Build an instance of tuple type *type_name*.

        Field values come from *values* and/or keyword arguments (the
        positional parameter is named ``type_name`` so fields called
        ``name`` remain usable as keywords).  Fields are laid out in
        the effective order; missing fields raise.  With ``check``
        (default), each field value is verified against the field's
        domain (via DOM, so subtype values are accepted —
        substitutability).
        """
        provided: Dict[str, Any] = {}
        if values:
            provided.update(values)
        provided.update(kwargs)
        layout = self.effective_fields(type_name)
        expected = [f for f, _ in layout]
        missing = [f for f in expected if f not in provided]
        if missing:
            raise TypeError_("missing field(s) %s for type %s"
                             % (", ".join(missing), type_name))
        extra = [f for f in provided if f not in expected]
        if extra:
            raise TypeError_("unknown field(s) %s for type %s"
                             % (", ".join(extra), type_name))
        ordered = {f: provided[f] for f in expected}
        instance = Tup(ordered, type_name=type_name)
        if check:
            checker = self.checker()  # pre-builds subtype schemas (DOM)
            for field, type_expr in layout:
                reason = checker.explain(type_expr.schema(self), ordered[field])
                if reason is not None:
                    raise TypeError_("%s.%s: %s" % (type_name, field, reason))
        return instance
