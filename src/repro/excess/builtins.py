"""Builtin scalar and aggregate functions for EXCESS evaluation.

EXCESS supports "aggregate functions (written in E)" and arithmetic;
here they are Python callables registered into a database's function
table.  Aggregates consume a multiset; min/max/avg of an empty multiset
return ``dne`` (there is no such value), which downstream multiset
operators discard — the same discipline COMP uses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..core.schema import SchemaNode, is_unknown, unknown_schema
from ..core.values import DNE, Arr, MultiSet


def _occurrences(collection: Any):
    if isinstance(collection, (MultiSet, Arr)):
        return list(collection)
    raise TypeError("aggregate needs a multiset or array, got %r"
                    % (collection,))


def agg_min(collection: Any) -> Any:
    items = _occurrences(collection)
    return min(items) if items else DNE


def agg_max(collection: Any) -> Any:
    items = _occurrences(collection)
    return max(items) if items else DNE


def agg_count(collection: Any) -> int:
    return len(_occurrences(collection))


def agg_sum(collection: Any) -> Any:
    items = _occurrences(collection)
    return sum(items) if items else 0


def agg_avg(collection: Any) -> Any:
    items = _occurrences(collection)
    if not items:
        return DNE
    return sum(items) / len(items)


def plus(left: Any, right: Any) -> Any:
    """Polymorphic +: numeric addition, ⊎ on multisets, ARR_CAT on
    arrays, concatenation on strings."""
    if isinstance(left, MultiSet) and isinstance(right, MultiSet):
        return left.add_union(right)
    if isinstance(left, Arr) and isinstance(right, Arr):
        return left.concat(right)
    return left + right


def minus(left: Any, right: Any) -> Any:
    """Polymorphic −: numeric subtraction, multiset difference."""
    if isinstance(left, MultiSet) and isinstance(right, MultiSet):
        return left.difference(right)
    return left - right


def times(left: Any, right: Any) -> Any:
    return left * right


def divide(left: Any, right: Any) -> Any:
    return left / right


def neg(value: Any) -> Any:
    return -value


def bagof(array: Any) -> MultiSet:
    """Array → multiset coercion (order-forgetting); used when EXCESS
    iterates an array with a from-clause or range variable."""
    if isinstance(array, MultiSet):
        return array
    if isinstance(array, Arr):
        return MultiSet(array)
    raise TypeError("bagof needs an array or multiset, got %r" % (array,))


BUILTINS: Dict[str, Callable] = {
    "min": agg_min,
    "max": agg_max,
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "plus": plus,
    "minus": minus,
    "times": times,
    "divide": divide,
    "neg": neg,
    "bagof": bagof,
}

#: Builtins that can produce ``dne`` from non-null inputs (the empty-
#: collection aggregates); the null-flow analysis treats their results
#: as may-dne.
MAY_RETURN_DNE = frozenset(["min", "max", "avg"])


# -- declared type signatures for the static analysis layer -------------
#
# A signature is a callable (list of argument schemas) → result schema;
# None (or an unknown result) means "nothing known" and inference keeps
# going with the unknown placeholder.

def _element_schema(arg_schemas):
    """The element schema of a collection argument, if visible."""
    if arg_schemas and not is_unknown(arg_schemas[0]) \
            and arg_schemas[0].kind in ("set", "arr"):
        return arg_schemas[0].children[0].clone()
    return unknown_schema()


def _sig_aggregate_element(arg_schemas):
    return _element_schema(arg_schemas)


def _sig_count(arg_schemas):
    return SchemaNode.val(int)


def _sig_numeric(arg_schemas):
    return SchemaNode.val()


def _sig_polymorphic_binary(arg_schemas):
    """plus/minus keep their operand sort (⊎ on multisets, ARR_CAT on
    arrays, arithmetic on scalars)."""
    for schema in arg_schemas:
        if not is_unknown(schema):
            return schema.clone()
    return unknown_schema()


def _sig_bagof(arg_schemas):
    return SchemaNode.set_of(_element_schema(arg_schemas))


BUILTIN_SIGNATURES: Dict[str, Callable] = {
    "min": _sig_aggregate_element,
    "max": _sig_aggregate_element,
    "count": _sig_count,
    "sum": _sig_aggregate_element,
    "avg": _sig_numeric,
    "plus": _sig_polymorphic_binary,
    "minus": _sig_polymorphic_binary,
    "times": _sig_numeric,
    "divide": _sig_numeric,
    "neg": _sig_numeric,
    "bagof": _sig_bagof,
}


def register_builtins(database) -> None:
    """Register every builtin not already present on *database*."""
    signatures = getattr(database, "function_signatures", None)
    for name, fn in BUILTINS.items():
        if name not in database.functions:
            database.register_function(name, fn)
        if signatures is not None and name not in signatures:
            signatures[name] = BUILTIN_SIGNATURES.get(name)
