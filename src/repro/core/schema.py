"""Schema digraphs for algebra structures.

Section 3.1 of the paper defines a *structure* as a pair (S, I) where S is
a schema and I is an instance.  A schema is a labelled digraph whose nodes
are type constructors — ``set``, ``tup``, ``arr``, ``ref``, or ``val`` —
and whose edges mean "component of".  Four well-formedness conditions
apply:

  (i)   "val" nodes have no components;
  (ii)  a node with no components is a "val" or "tup" node (the empty
        tuple type is legal);
  (iii) "arr", "set", and "ref" nodes have exactly one component
        (homogeneity, modulo inheritance);
  (iv)  deref(S) — S with edges out of "ref" nodes removed — is a forest,
        so every cycle passes through a "ref" node.

Because of (iv), a schema reachable without crossing a ref edge is a tree;
we represent schemas as trees whose ref nodes name their *target* schema
rather than embedding it, which makes cyclic schemas (Employee.manager:
ref Employee) representable and finite.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .values import Arr, MultiSet, Null, Ref, Tup, is_scalar

#: Legal node kinds.
NODE_KINDS = ("val", "tup", "set", "arr", "ref")

#: Base name marking a "nothing known" component — the inferred element
#: of an empty collection.  The static checkers treat such nodes as the
#: unknown ("any") schema rather than as a genuine scalar.
UNKNOWN_NAME = "_unknown_"


def unknown_schema() -> "SchemaNode":
    """A fresh unknown-component placeholder node."""
    return SchemaNode.val(name=UNKNOWN_NAME)


def is_unknown(schema: Optional["SchemaNode"]) -> bool:
    """True for the unknown-component placeholder (or ``None``)."""
    return schema is None or (schema.kind == "val"
                              and schema.base_name == UNKNOWN_NAME)


_anon_counter = itertools.count(1)


def _fresh_name(kind: str) -> str:
    return "_%s_%d" % (kind, next(_anon_counter))


class SchemaError(ValueError):
    """A schema violates one of the paper's well-formedness conditions."""


class SchemaNode:
    """One node of a schema digraph.

    Attributes
    ----------
    kind:
        One of ``val``, ``tup``, ``set``, ``arr``, ``ref``.
    name:
        The unique type name of the node.  Auto-generated when anonymous.
    children:
        Component schemas.  Tuples hold one child per field (see
        ``field_names``); set/arr/ref nodes hold exactly one; val nodes
        none.
    field_names:
        For ``tup`` nodes, the component (field) names, parallel to
        ``children``.
    target:
        For ``ref`` nodes, the *name* of the referenced schema.  The child
        of a ref node is resolved lazily through a :class:`SchemaCatalog`
        (or given inline for acyclic cases).
    scalar_type:
        For ``val`` nodes, an optional python type restriction
        (int/float/str/bool) used by domain checking; None admits any
        scalar.
    """

    __slots__ = ("kind", "name", "children", "field_names", "target",
                 "scalar_type", "fixed_length", "base_name")

    def __init__(self, kind: str, name: str = None, children: List["SchemaNode"] = None,
                 field_names: List[str] = None, target: str = None,
                 scalar_type: type = None, fixed_length: int = None,
                 base_name: str = None):
        if kind not in NODE_KINDS:
            raise SchemaError("unknown node kind %r" % kind)
        self.kind = kind
        self.name = name or _fresh_name(kind)
        # The *semantic* type name (survives clone-renaming); used for
        # inheritance lookups (DOM) while ``name`` stays unique per tree.
        self.base_name = base_name or name
        self.children = list(children or [])
        self.field_names = list(field_names or [])
        self.target = target
        self.scalar_type = scalar_type
        self.fixed_length = fixed_length
        self._check_local()

    def _check_local(self) -> None:
        if self.kind == "val":
            if self.children:
                raise SchemaError(
                    "condition (i): val node %r must have no components" % self.name)
        elif self.kind == "tup":
            if len(self.children) != len(self.field_names):
                raise SchemaError(
                    "tup node %r: %d children but %d field names"
                    % (self.name, len(self.children), len(self.field_names)))
            if len(set(self.field_names)) != len(self.field_names):
                raise SchemaError(
                    "tup node %r has duplicate field names" % self.name)
        elif self.kind in ("set", "arr"):
            if len(self.children) != 1:
                raise SchemaError(
                    "condition (iii): %s node %r must have exactly one "
                    "component, has %d" % (self.kind, self.name, len(self.children)))
        elif self.kind == "ref":
            # A ref node names its target; an inline child is allowed for
            # acyclic schemas but never both absent.
            if not self.target and len(self.children) != 1:
                raise SchemaError(
                    "condition (iii): ref node %r needs a target name or "
                    "exactly one inline component" % self.name)
            if self.target and self.children:
                raise SchemaError(
                    "ref node %r has both a target name and an inline "
                    "component" % self.name)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def val(scalar_type: type = None, name: str = None) -> "SchemaNode":
        return SchemaNode("val", name=name, scalar_type=scalar_type)

    @staticmethod
    def tup(fields: Dict[str, "SchemaNode"] = None, name: str = None) -> "SchemaNode":
        fields = fields or {}
        return SchemaNode("tup", name=name,
                          children=list(fields.values()),
                          field_names=list(fields.keys()))

    @staticmethod
    def set_of(child: "SchemaNode", name: str = None) -> "SchemaNode":
        return SchemaNode("set", name=name, children=[child])

    @staticmethod
    def arr_of(child: "SchemaNode", name: str = None,
               fixed_length: int = None) -> "SchemaNode":
        return SchemaNode("arr", name=name, children=[child],
                          fixed_length=fixed_length)

    @staticmethod
    def ref_to(target, name: str = None) -> "SchemaNode":
        """Reference node; *target* is a type name or an inline SchemaNode."""
        if isinstance(target, SchemaNode):
            return SchemaNode("ref", name=name, children=[target])
        return SchemaNode("ref", name=name, target=target)

    # -- structure ------------------------------------------------------

    @property
    def component(self) -> "SchemaNode":
        """The single component of a set/arr/ref node."""
        if self.kind not in ("set", "arr", "ref"):
            raise SchemaError("%s node has no single component" % self.kind)
        if self.kind == "ref" and self.target is not None:
            raise SchemaError(
                "ref node %r targets %r by name; resolve it through a "
                "catalog" % (self.name, self.target))
        return self.children[0]

    def field(self, name: str) -> "SchemaNode":
        """The component schema of tuple field *name*."""
        if self.kind != "tup":
            raise SchemaError("field() on non-tuple node %r" % self.name)
        for fname, child in zip(self.field_names, self.children):
            if fname == name:
                return child
        raise SchemaError("tuple schema %r has no field %r" % (self.name, name))

    def fields(self) -> Iterator[Tuple[str, "SchemaNode"]]:
        if self.kind != "tup":
            raise SchemaError("fields() on non-tuple node %r" % self.name)
        return iter(zip(self.field_names, self.children))

    def walk(self) -> Iterator["SchemaNode"]:
        """Pre-order walk, not following ref targets (deref(S) view)."""
        yield self
        if self.kind == "ref" and self.target is not None:
            return
        for child in self.children:
            for node in child.walk():
                yield node

    def validate(self) -> None:
        """Re-check all local conditions plus node-name uniqueness.

        Condition (iv) — deref(S) is a forest — holds by construction for
        tree-shaped schemas with named ref targets, but inline ref children
        could still share nodes; we verify no node object is reachable
        twice without crossing a ref edge.
        """
        seen_ids = set()
        names = {}
        for node in self.walk():
            node._check_local()
            if id(node) in seen_ids:
                raise SchemaError(
                    "condition (iv): node %r is reachable twice without "
                    "crossing a ref edge (deref(S) is not a forest)" % node.name)
            seen_ids.add(id(node))
            if node.name in names and names[node.name] is not node:
                raise SchemaError("duplicate node name %r" % node.name)
            names[node.name] = node

    def clone(self, fresh_names: bool = True) -> "SchemaNode":
        """A deep copy of this schema tree.

        With ``fresh_names`` (default) every node gets a new unique name,
        so the copy can be embedded as a component of another schema
        without violating node-name uniqueness or the forest condition.
        Ref targets are carried by *name*, so they still resolve to the
        canonical registered schema.
        """
        children = [c.clone(fresh_names) for c in self.children]
        return SchemaNode(
            self.kind,
            name=None if fresh_names else self.name,
            children=children,
            field_names=list(self.field_names),
            target=self.target,
            scalar_type=self.scalar_type,
            fixed_length=self.fixed_length,
            base_name=self.base_name)

    # -- comparison & display --------------------------------------------

    def structurally_equal(self, other: "SchemaNode") -> bool:
        """Structural equality, ignoring auto-generated names."""
        if self.kind != other.kind:
            return False
        if self.kind == "val":
            return self.scalar_type == other.scalar_type
        if self.kind == "ref":
            if (self.target is None) != (other.target is None):
                return False
            if self.target is not None:
                return self.target == other.target
        if self.kind == "tup" and self.field_names != other.field_names:
            return False
        if self.kind == "arr" and self.fixed_length != other.fixed_length:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a.structurally_equal(b)
                   for a, b in zip(self.children, other.children))

    def describe(self) -> str:
        """A compact one-line type description, EXTRA-flavoured."""
        if self.kind == "val":
            return self.scalar_type.__name__ if self.scalar_type else "val"
        if self.kind == "tup":
            inner = ", ".join("%s: %s" % (n, c.describe())
                              for n, c in zip(self.field_names, self.children))
            return "(%s)" % inner
        if self.kind == "set":
            return "{ %s }" % self.children[0].describe()
        if self.kind == "arr":
            if self.fixed_length is not None:
                return "array [1..%d] of %s" % (
                    self.fixed_length, self.children[0].describe())
            return "array of %s" % self.children[0].describe()
        if self.kind == "ref":
            if self.target is not None:
                return "ref %s" % self.target
            return "ref %s" % self.children[0].describe()
        raise AssertionError(self.kind)

    def __repr__(self) -> str:
        return "Schema<%s: %s>" % (self.name, self.describe())


class SchemaCatalog:
    """Resolves named schemas, letting ref nodes form cycles.

    The catalog is the "type hierarchy by name" backdrop against which a
    schema with ``ref T`` edges is interpreted.
    """

    def __init__(self):
        self._by_name: Dict[str, SchemaNode] = {}

    def register(self, schema: SchemaNode, name: str = None) -> SchemaNode:
        key = name or schema.name
        if key in self._by_name and self._by_name[key] is not schema:
            raise SchemaError("schema name %r already registered" % key)
        self._by_name[key] = schema
        return schema

    def resolve(self, name: str) -> SchemaNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError("no schema registered under %r" % name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def target_of(self, ref_node: SchemaNode) -> SchemaNode:
        """The component schema of a ref node, resolving named targets."""
        if ref_node.kind != "ref":
            raise SchemaError("target_of() on non-ref node %r" % ref_node.name)
        if ref_node.target is not None:
            return self.resolve(ref_node.target)
        return ref_node.children[0]


def _merge_inferred(a: Optional["SchemaNode"],
                    b: "SchemaNode") -> "SchemaNode":
    """Unify two inferred component schemas.

    Inference treats an unconstrained ``val`` node (no scalar type) as
    "nothing known yet" — the inference of an *empty* nested collection
    — so it yields to any more specific schema.  Scalar-type conflicts
    widen to the unconstrained scalar; same-kind constructors merge
    componentwise.  Genuinely mixed sorts (condition (iii) violations)
    keep the first schema — such data is outside the model anyway.
    """
    if a is None:
        return b
    if a.kind == "val" and a.scalar_type is None:
        return b
    if b.kind == "val" and b.scalar_type is None:
        return a
    if a.kind != b.kind:
        return a
    if a.kind == "val":
        if a.scalar_type is b.scalar_type:
            return a
        return SchemaNode.val()
    if a.kind in ("set", "arr"):
        merged = _merge_inferred(a.children[0], b.children[0])
        if a.kind == "set":
            return SchemaNode.set_of(merged)
        return SchemaNode.arr_of(merged)
    if a.kind == "tup":
        if a.field_names != b.field_names:
            return a
        return SchemaNode.tup(
            {name: _merge_inferred(ca, cb)
             for (name, ca), (_, cb) in zip(a.fields(), b.fields())},
            name=(a.base_name if a.base_name == b.base_name else None))
    return a  # refs: keep the first target


def infer_schema(value: Any, catalog: SchemaCatalog = None) -> SchemaNode:
    """Infer a structural schema from a runtime value.

    Multisets and arrays unify the inferred schemas of all their
    occurrences (homogeneity is assumed, per condition (iii), but empty
    nested collections are widened correctly); empty collections get an
    unconstrained ``val`` component.  Refs become ref nodes targeting
    the carried type name when available.
    """
    if is_scalar(value):
        return SchemaNode.val(type(value))
    if isinstance(value, Null):
        return unknown_schema()
    if isinstance(value, Tup):
        return SchemaNode.tup(
            {name: infer_schema(v, catalog) for name, v in value.fields},
            name=value.type_name)
    if isinstance(value, MultiSet):
        component = None
        for element in value.elements():
            component = _merge_inferred(component,
                                        infer_schema(element, catalog))
        return SchemaNode.set_of(component if component is not None
                                 else unknown_schema())
    if isinstance(value, Arr):
        component = None
        for element in value:
            component = _merge_inferred(component,
                                        infer_schema(element, catalog))
        return SchemaNode.arr_of(component if component is not None
                                 else unknown_schema())
    if isinstance(value, Ref):
        if value.type_name:
            return SchemaNode.ref_to(value.type_name)
        return SchemaNode.ref_to(SchemaNode.val())
    raise TypeError("cannot infer schema for %r" % (value,))
