"""A library of derived operators built from the primitives.

Section 6 (and Section 1) frame this as the system's research purpose:
"the primitive nature of the algebraic operators allows other operators
to be defined in terms of them quite readily.  This will result in the
ability to test a wide variety of algebraic operators for utility and
optimizability."  This module is that library: each operator is a
constructor returning a pure composition of primitives, so every
transformation rule applies through it and the optimizer sees no new
node kinds.

Provided (beyond the appendix's ∪/∩/σ/rel_join/rel_×):

* :func:`nest` / :func:`unnest` — the nested-relational restructuring
  pair (the paper's model generalizes nested relations, so these come
  for free);
* :func:`semijoin` / :func:`antijoin` — membership-style joins;
* :func:`aggregate_per_group` — GRP followed by a per-group scalar;
* :func:`select_into_groups` — the corrected rule-10 right-hand shape,
  packaged;
* :func:`field_map_rebuild` — the π-with-transformation shape rule 26's
  field-map factoring recognises (Example 2's E).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..expr import Const, Expr, Func, Input
from ..predicates import Atom, Comp, Predicate
from ..schema import SchemaNode, is_unknown, unknown_schema
from .multiset import Grp, SetApply, SetCollapse
from .tuples import Pi, TupCat, TupCreate, TupExtract


def nest(key_fields: Sequence[str], nested_field: str, source: Expr) -> Expr:
    """NEST — group tuples by *key_fields* and pack the groups.

    Result: a multiset of tuples ``(key_fields…, nested_field = {the
    non-key remainder of each tuple with that key})`` — the ν of nested
    relational algebra, expressed as GRP + per-group rebuilding, with
    unnest as its left inverse.
    """
    key = Pi(list(key_fields), Input())
    members = SetApply(
        Func("drop_fields", [Input(), Const(",".join(key_fields))]),
        Input())
    per_group = TupCat(
        Pi(list(key_fields), _any_element(Input())),
        TupCreate(nested_field, members))
    return SetApply(per_group, Grp(key, source))


def _any_element(group: Expr) -> Expr:
    """A representative element of a non-empty group (all share the
    grouping key, so any representative works): collapse the singleton
    trick is unavailable, so we use an aggregate-style helper function
    registered as ``one_of`` by :func:`register_library_functions`."""
    return Func("one_of", [group])


def unnest(nested_field: str, source: Expr) -> Expr:
    """UNNEST — μ: flatten a set-valued field back into its parent.

    Each tuple t with t.f = {x₁ … xₙ} becomes n tuples
    TUP_CAT(π_rest(t), x_i).  Composition: per parent tuple, cross the
    singleton {t} with t.f and flatten the pairs; SET_COLLAPSE merges
    the per-parent results.  The nested set's elements must themselves
    be tuples, with fields disjoint from the parent's remaining ones.
    """
    return SetCollapse(SetApply(per_parent_body(nested_field), source))


def per_parent_body(nested_field: str) -> Expr:
    """The per-parent-tuple body of :func:`unnest` (exposed for tests)."""
    from .multiset import Cross, SetCreate
    return SetApply(
        TupCat(Func("drop_field", [TupExtract("field1", Input()),
                                   Const(nested_field)]),
               TupExtract("field2", Input())),
        Cross(SetCreate(Input()), TupExtract(nested_field, Input())))


def semijoin(pred: Predicate, left: Expr, right: Expr) -> Expr:
    """A ⋉ B — elements of A with at least one Θ-partner in B.

    Composition: σ over A whose predicate tests non-emptiness of the
    matching subset of B.  ``pred`` addresses the A-element as
    ``field1`` paths and the B-element as ``field2`` paths, exactly as
    in rel_join.
    """
    from .multiset import Cross, SetCreate

    matches = SetApply(
        Comp(pred, Input()),
        Cross(SetCreate(Input()), right))
    keep = Atom(Func("count", [matches]), ">", Const(0))
    return SetApply(Comp(keep, Input()), left)


def antijoin(pred: Predicate, left: Expr, right: Expr) -> Expr:
    """A ▷ B — elements of A with no Θ-partner in B."""
    from .multiset import Cross, SetCreate
    matches = SetApply(Comp(pred, Input()),
                       Cross(SetCreate(Input()), right))
    keep = Atom(Func("count", [matches]), "=", Const(0))
    return SetApply(Comp(keep, Input()), left)


def aggregate_per_group(key: Expr, agg_func: str, value: Expr,
                        source: Expr,
                        key_field: str = "key",
                        agg_field: str = "agg") -> Expr:
    """GRP-then-aggregate: one tuple (key, aggregate) per group.

    ``key`` and ``value`` are per-element expressions (INPUT = the
    element); ``agg_func`` names a registered aggregate (count, min,
    max, sum, avg).
    """
    per_group = TupCat(
        TupCreate(key_field, substituted_key(key)),
        TupCreate(agg_field,
                  Func(agg_func, [SetApply(value, Input())])))
    return SetApply(per_group, Grp(key, source))


def substituted_key(key: Expr) -> Expr:
    """The group's shared key, recovered from a representative element."""
    from ..expr import substitute_input
    return substitute_input(key, Func("one_of", [Input()]))


def select_into_groups(pred: Predicate, key: Expr, source: Expr) -> Expr:
    """The packaged rule-10 right-hand side: group first, then filter
    within groups, dropping emptied groups."""
    from ..values import MultiSet
    from .derived import sigma  # noqa: delayed to avoid import cycles
    body = Comp(Atom(Input(), "!=", Const(MultiSet())),
                sigma(pred, Input()))
    return SetApply(body, Grp(key, source))


def field_map_rebuild(mapping: Dict[str, Expr]) -> Expr:
    """TUP_CAT of TUP[f](e_f) — the Example-2 rebuild shape that rule
    26's field-map factoring recognises."""
    body = None
    for field, producer in mapping.items():
        piece = TupCreate(field, producer)
        body = piece if body is None else TupCat(body, piece)
    if body is None:
        raise ValueError("field_map_rebuild needs at least one field")
    return body


# -- declared type signatures for the static analysis layer -------------

def _sig_one_of(arg_schemas):
    """one_of: a representative element of the collection argument."""
    if arg_schemas and not is_unknown(arg_schemas[0]) \
            and arg_schemas[0].kind in ("set", "arr"):
        return arg_schemas[0].children[0].clone()
    return unknown_schema()


def _dropping_signature(split):
    """Signature factory for drop_field/drop_fields: the result is the
    argument tuple minus the named fields.  Needs the argument
    *expressions* — the dropped names live in a Const literal."""
    def signature(arg_schemas, exprs):
        if len(arg_schemas) != 2 or is_unknown(arg_schemas[0]) \
                or arg_schemas[0].kind != "tup":
            return unknown_schema()
        if not isinstance(exprs[1], Const) \
                or not isinstance(exprs[1].value, str):
            return unknown_schema()
        dropped = split(exprs[1].value)
        source = arg_schemas[0]
        return SchemaNode.tup({name: source.field(name).clone()
                               for name in source.field_names
                               if name not in dropped})

    signature.wants_exprs = True
    return signature


LIBRARY_SIGNATURES = {
    "one_of": _sig_one_of,
    "drop_field": _dropping_signature(lambda value: {value}),
    "drop_fields": _dropping_signature(lambda value: set(value.split(","))),
}


def register_library_functions(database) -> None:
    """Register the helper scalars the library compositions use
    (plus the aggregate builtins semijoin/antijoin count with)."""

    def one_of(group):
        for element in group.elements():
            return element
        raise ValueError("one_of over an empty group")

    def drop_field(t, field):
        return t.project([n for n in t.field_names if n != field])

    def drop_fields(t, names_csv):
        dropped = set(names_csv.split(","))
        return t.project([n for n in t.field_names if n not in dropped])

    if "one_of" not in database.functions:
        database.register_function("one_of", one_of,
                                   signature=LIBRARY_SIGNATURES["one_of"])
    if "drop_field" not in database.functions:
        database.register_function(
            "drop_field", drop_field,
            signature=LIBRARY_SIGNATURES["drop_field"])
    if "drop_fields" not in database.functions:
        database.register_function(
            "drop_fields", drop_fields,
            signature=LIBRARY_SIGNATURES["drop_fields"])
    # The aggregates the compositions lean on (count for semijoins,
    # sum/min/max/avg for aggregate_per_group).
    from ...excess.builtins import register_builtins
    register_builtins(database)
