"""Core of the reproduction: values, schemas, OIDs, operators, rules.

The public surface re-exports the pieces most callers need; subpackages
hold the detail (``repro.core.operators``, ``repro.core.transform``).
"""

from .expr import (AlgebraError, Const, EvalContext, Expr, Func, Input,
                   Named, evaluate, substitute_input)
from .hierarchy import HierarchyError, TypeHierarchy
from .oid import OIDError, OIDGenerator
from .predicates import (And, Atom, Comp, Not, Or, Predicate, TruePred,
                         kleene_and, kleene_not, kleene_or)
from .schema import SchemaCatalog, SchemaError, SchemaNode, infer_schema
from .values import (DNE, UNK, Arr, MultiSet, Null, Ref, Tup, is_null,
                     is_scalar, is_value, sort_of)

__all__ = [
    "AlgebraError", "Const", "EvalContext", "Expr", "Func", "Input",
    "Named", "evaluate", "substitute_input",
    "HierarchyError", "TypeHierarchy", "OIDError", "OIDGenerator",
    "And", "Atom", "Comp", "Not", "Or", "Predicate", "TruePred",
    "kleene_and", "kleene_not", "kleene_or",
    "SchemaCatalog", "SchemaError", "SchemaNode", "infer_schema",
    "DNE", "UNK", "Arr", "MultiSet", "Null", "Ref", "Tup",
    "is_null", "is_scalar", "is_value", "sort_of",
]
