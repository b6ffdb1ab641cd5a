"""The rewrite-soundness gate: every rewrite must preserve the schema.

Each of the paper's transformation rules is a claimed *equivalence*,
so in particular it must be schema-preserving: the inferred schema of
the rewritten tree must be compatible with the original's.  This
module provides the check as a callable suitable for the ``verifier``
hook on :class:`~repro.core.transform.engine.RewriteEngine` and
:class:`~repro.core.optimizer.Optimizer` (the "debug mode"), plus the
compatibility relation itself.

Compatibility is *not* :meth:`SchemaNode.structurally_equal`: that
comparison is field-order-sensitive for tuple nodes, but run-time
tuples are named records whose equality ignores field order (that is
what makes TUP_CAT commutative, Appendix rule 23).  Rules 3, 23 and 24
legitimately reorder tuple fields, so the gate matches tuple fields by
name.  Unknown pieces (``None`` or the inference placeholder) unify
with anything — a rewrite may lose or gain static knowledge, it just
may not produce a *contradicting* schema.
"""

from __future__ import annotations

from typing import Any, Optional

from ..schema import SchemaNode, is_unknown
from .inference import AlgebraTypeError, TypeInference


def schemas_compatible(a: Optional[SchemaNode],
                       b: Optional[SchemaNode]) -> bool:
    """True when two inferred schemas can describe the same values.

    Unknowns unify with everything; tuple fields match by name
    (order-insensitive); ref targets must agree when both are named.
    """
    if is_unknown(a) or is_unknown(b):
        return True
    if a.kind != b.kind:
        return False
    if a.kind == "val":
        return (a.scalar_type is None or b.scalar_type is None
                or a.scalar_type == b.scalar_type)
    if a.kind == "ref":
        if a.target is not None and b.target is not None:
            return a.target == b.target
        if a.target is None and b.target is None:
            return schemas_compatible(a.children[0], b.children[0])
        return True  # named vs. inline: can't compare without a catalog
    if a.kind == "tup":
        if set(a.field_names) != set(b.field_names):
            return False
        return all(schemas_compatible(a.field(name), b.field(name))
                   for name in a.field_names)
    # set / arr: one component each.
    return schemas_compatible(a.children[0], b.children[0])


class RewriteSoundnessError(AssertionError):
    """A rewrite step changed the inferred schema (or broke typing)."""

    def __init__(self, rule: Any, before: Any, after: Any,
                 before_schema: Optional[SchemaNode],
                 after_schema: Optional[SchemaNode],
                 message: str):
        self.rule = rule
        self.before = before
        self.after = after
        self.before_schema = before_schema
        self.after_schema = after_schema
        rule_name = getattr(rule, "name", str(rule))
        super().__init__("rule %r unsound: %s\n  before: %s\n  after:  %s"
                         % (rule_name, message, before.describe(),
                            after.describe()))


class SoundnessChecker:
    """Callable ``(rule, before, after)`` verifier for rewrite hooks.

    Skips steps whose *input* tree does not typecheck (nothing to
    preserve); raises :class:`RewriteSoundnessError` when a well-typed
    tree is rewritten into an ill-typed one or into a different schema.
    """

    def __init__(self, checker: Optional[TypeInference] = None,
                 input_schema: Optional[SchemaNode] = None):
        self.checker = checker or TypeInference()
        self.input_schema = input_schema
        self.checked = 0
        self.skipped = 0

    def __call__(self, rule: Any, before: Any, after: Any) -> None:
        try:
            before_schema = self.checker.check(before, self.input_schema)
        except AlgebraTypeError:
            self.skipped += 1  # ill-typed input: rule owes it nothing
            return
        try:
            after_schema = self.checker.check(after, self.input_schema)
        except AlgebraTypeError as error:
            raise RewriteSoundnessError(
                rule, before, after, before_schema, None,
                "rewrite produced an ill-typed tree: %s" % error)
        self.checked += 1
        if not schemas_compatible(before_schema, after_schema):
            raise RewriteSoundnessError(
                rule, before, after, before_schema, after_schema,
                "schema changed from %s to %s"
                % (before_schema.describe() if before_schema else "?",
                   after_schema.describe() if after_schema else "?"))
