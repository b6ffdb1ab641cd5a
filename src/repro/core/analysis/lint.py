"""The plan linter: coded diagnostics over algebra trees.

Checks implemented (see ``diagnostics.LINT_CODES`` for the table):

* **L100** — the plan does not typecheck (inference raised).
* **L101** — dead projected attributes: a π keeps fields no downstream
  consumer reads; the hint names the smaller projection to push down.
* **L102** — redundant DE: the input is provably duplicate-free.
* **L103** — DEREF over a named collection that actually contains a
  dangling reference (checked against the store catalog).
* **L104** — dne-discard hazard: a COMP predicate reads a value that
  may be ``dne``, so the occurrence is silently dropped (§3 semantics —
  legal, but worth knowing when it can happen).
* **L105** — incomplete switch-table dispatch: some type at or below
  the receiver's static type has no implementation of the method.
* **L106** — opaque function: no declared signature, so inference sees
  an unknown result schema.

The L200 series is driven by the abstract interpreter
(:mod:`repro.core.analysis.absint`), which proves cardinality,
array-length, and value-range intervals over the whole plan:

* **L200** (error) — an ARR_EXTRACT subscript is statically out of
  bounds for the proven length interval; the result is always ``dne``.
* **L201** — a σ predicate is provably unsatisfiable; the subplan is
  statically empty.
* **L202** — a σ predicate is provably tautological; the filter is the
  identity.
* **L203 / L204** — a join (×) or GRP input is statically empty.
* **L205** — typed SET_APPLY branches over a shared source jointly
  miss types in the source's C3 closure, silently dropping those
  occurrences (only fired when ≥2 branches dispatch over the source —
  a single typed σ is a deliberate selection, not a dispatch).
* **L206** — externally supplied catalog statistics contradict a
  proven cardinality interval (stale stats).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from ..expr import Expr, Func, Input, Named
from ..methods import MethodCall
from ..operators.arrays import ArrApply, ArrDE
from ..operators.multiset import DE, SetApply
from ..operators.refs import Deref
from ..operators.tuples import Pi, TupExtract
from ..values import MultiSet, Ref
from .diagnostics import (LINT_CODES, Diagnostic, SourceMap,
                          sort_diagnostics)
from .facts import PlanFacts, facts_for_database
from .inference import (AlgebraTypeError, TypeInference,
                        inference_for_database)
from .nullflow import NullFlow, nullflow_for_database


def _diag(code: str, message: str, expr: Optional[Expr] = None,
          span=None, hint: Optional[str] = None) -> Diagnostic:
    severity, _ = LINT_CODES[code]
    return Diagnostic(code, severity, message, expr=expr, span=span,
                      hint=hint)


def _used_fields(expr: Expr) -> Optional[Set[str]]:
    """INPUT fields *expr* reads, or None when it may use the whole
    input (so no projection can be proven dead)."""
    if isinstance(expr, Input):
        return None
    if isinstance(expr, TupExtract) and isinstance(expr.source, Input):
        return {expr.field}
    if isinstance(expr, Pi) and isinstance(expr.source, Input):
        return set(expr.names)
    used: Set[str] = set()
    for field in expr._fields:
        if field in expr._binding_fields:
            continue  # the body rebinds INPUT; only sources contribute
        value = getattr(expr, field)
        children = []
        if isinstance(value, Expr):
            children = [value]
        elif isinstance(value, (list, tuple)):
            children = [v for v in value if isinstance(v, Expr)]
        elif hasattr(value, "deep_exprs"):
            return None  # predicate operands: be conservative
        for child in children:
            child_used = _used_fields(child)
            if child_used is None:
                return None
            used |= child_used
    return used


class Linter:
    """Runs every lint pass over a plan; returns sorted diagnostics."""

    def __init__(self, database: Any = None,
                 inference: Optional[TypeInference] = None,
                 facts: Optional[PlanFacts] = None,
                 nullflow: Optional[NullFlow] = None,
                 source_map: Optional[SourceMap] = None,
                 statistics: Any = None):
        self.db = database
        if inference is None:
            inference = (inference_for_database(database)
                         if database is not None else TypeInference())
        self.inference = inference
        self.facts = facts
        self.nullflow = nullflow
        self.source_map = source_map or SourceMap()
        self.statistics = statistics

    def _span(self, expr: Expr):
        return self.source_map.span_of(expr)

    def lint(self, expr: Expr) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        self._check_types(expr, out)          # L100
        self._check_dead_projection(expr, out)  # L101
        self._check_redundant_de(expr, out)   # L102
        self._check_dangling_deref(expr, out)  # L103
        self._check_dne_discard(expr, out)    # L104
        self._check_dispatch(expr, out)       # L105
        self._check_opaque_funcs(expr, out)   # L106
        self._check_absint(expr, out)         # L200-L204, L206
        self._check_exhaustive_dispatch(expr, out)  # L205
        return sort_diagnostics(out)

    # -- L100: static typing ----------------------------------------------

    def _check_types(self, expr: Expr, out: List[Diagnostic]) -> None:
        try:
            self.inference.check(expr)
        except AlgebraTypeError as error:
            detail = str(error)
            if error.operator:
                detail += " [operator=%s expected=%s got=%s]" % (
                    error.operator, error.expected, error.got)
            out.append(_diag("L100", detail, expr=error.expr or expr,
                             span=self._span(error.expr or expr)))

    # -- L101: dead projected attributes ----------------------------------

    def _check_dead_projection(self, expr: Expr,
                               out: List[Diagnostic]) -> None:
        for node in expr.walk():
            if isinstance(node, (SetApply, ArrApply)) \
                    and isinstance(node.source, (SetApply, ArrApply)):
                inner = node.source
                if isinstance(inner.body, Pi) \
                        and isinstance(inner.body.source, Input):
                    kept = set(inner.body.names)
                    used = _used_fields(node.body)
                    if used is not None and used < kept:
                        dead = sorted(kept - used)
                        out.append(_diag(
                            "L101",
                            "π keeps %s but only %s %s used downstream"
                            % (", ".join(sorted(kept)),
                               ", ".join(sorted(used)) or "none",
                               "is" if len(used) == 1 else "are"),
                            expr=inner.body, span=self._span(inner.body),
                            hint="project only [%s] (dead: %s)"
                            % (", ".join(sorted(used)),
                               ", ".join(dead))))
            if isinstance(node, TupExtract) \
                    and isinstance(node.source, Pi) \
                    and len(node.source.names) > 1 \
                    and node.field in node.source.names:
                dead = sorted(set(node.source.names) - {node.field})
                out.append(_diag(
                    "L101",
                    "π keeps %s but only %r is extracted"
                    % (", ".join(node.source.names), node.field),
                    expr=node.source, span=self._span(node.source),
                    hint="project only [%s] (dead: %s)"
                    % (node.field, ", ".join(dead))))

    # -- L102: redundant DE -------------------------------------------------

    def _check_redundant_de(self, expr: Expr,
                            out: List[Diagnostic]) -> None:
        facts = self.facts
        if facts is None:
            facts = (facts_for_database(self.db, expr)
                     if self.db is not None else PlanFacts())
        for node in expr.walk():
            if isinstance(node, (DE, ArrDE)) \
                    and facts.is_duplicate_free(node.source):
                out.append(_diag(
                    "L102",
                    "DE over %s, which is provably duplicate-free"
                    % node.source.describe(),
                    expr=node, span=self._span(node),
                    hint="drop the DE (or let the compiled engine elide "
                         "it via plan facts)"))

    # -- L103: dangling DEREF -----------------------------------------------

    def _dangling_named(self) -> Set[str]:
        """Names of stored collections containing a dangling ref."""
        if self.db is None:
            return set()
        store = self.db.store
        dangling: Set[str] = set()
        for name in self.db.names():
            value = self.db.get(name)
            if isinstance(value, MultiSet):
                for element, _count in value.items():
                    if isinstance(element, Ref) \
                            and element.oid not in store:
                        dangling.add(name)
                        break
        return dangling

    def _check_dangling_deref(self, expr: Expr,
                              out: List[Diagnostic]) -> None:
        dangling = self._dangling_named()
        if not dangling:
            return
        for node in expr.walk():
            if not isinstance(node, (SetApply, ArrApply)):
                continue
            has_deref = any(isinstance(sub, Deref) and sub.source.uses_input()
                            for sub in node.body.walk())
            if not has_deref:
                continue
            sources = {sub.name for sub in node.source.walk()
                       if isinstance(sub, Named)}
            hit = sorted(sources & dangling)
            if hit:
                out.append(_diag(
                    "L103",
                    "DEREF over %s, which contains dangling reference(s); "
                    "such occurrences dereference to dne and are dropped"
                    % ", ".join(hit),
                    expr=node, span=self._span(node)))

    # -- L104: dne-discard hazards in predicates ----------------------------

    def _check_dne_discard(self, expr: Expr,
                           out: List[Diagnostic]) -> None:
        hazards: List[Any] = []

        def observer(comp, operand, info):
            if info.may_dne():
                hazards.append((comp, operand))

        if self.nullflow is not None:
            flow = self.nullflow
            flow.observer = observer
        elif self.db is not None:
            flow = nullflow_for_database(self.db, observer)
        else:
            flow = NullFlow(observer=observer)
        flow.check(expr)
        seen = set()
        for comp, operand in hazards:
            key = (id(comp), operand.describe())
            if key in seen:
                continue
            seen.add(key)
            out.append(_diag(
                "L104",
                "COMP predicate reads %s, which may be dne; the "
                "occurrence is then silently discarded"
                % operand.describe(),
                expr=comp, span=self._span(comp)))

    # -- L105: incomplete switch-table dispatch -----------------------------

    def _check_dispatch(self, expr: Expr, out: List[Diagnostic]) -> None:
        if self.db is None:
            return
        hierarchy = self.db.hierarchy
        methods = self.db.methods
        for node in expr.walk():
            if not isinstance(node, (SetApply, ArrApply)):
                continue
            calls = [sub for sub in node.body.walk()
                     if isinstance(sub, MethodCall)
                     and isinstance(sub.receiver, Input)]
            if not calls:
                continue
            try:
                source_schema = self.inference.check(node.source)
            except AlgebraTypeError:
                continue
            element = None
            if source_schema is not None and source_schema.children:
                element = source_schema.children[0]
            root = self.inference._receiver_type(element)
            if root is None:
                continue
            candidates = hierarchy.descendants_or_self(root)
            type_filter = getattr(node, "type_filter", None)
            if type_filter:
                filtered = set()
                for t in type_filter:
                    if t in hierarchy:
                        filtered |= hierarchy.descendants_or_self(t)
                candidates &= filtered
            for call in calls:
                missing = []
                for t in sorted(candidates):
                    try:
                        methods.resolve(t, call.name)
                    except Exception:
                        missing.append(t)
                if missing:
                    out.append(_diag(
                        "L105",
                        "method %r is not implemented for receiver "
                        "type(s) %s (dispatch root %s)"
                        % (call.name, ", ".join(missing), root),
                        expr=call, span=self._span(call)))

    # -- L200-L204, L206: abstract-interpretation findings ------------------

    _ABSINT_CODES = {
        "oob_subscript": "L200",
        "unsat_sigma": "L201",
        "taut_sigma": "L202",
        "empty_join_input": "L203",
        "empty_grp_input": "L204",
        "stats_contradiction": "L206",
    }

    def _check_absint(self, expr: Expr, out: List[Diagnostic]) -> None:
        from .absint import analyze
        analysis = analyze(expr, database=self.db,
                           statistics=self.statistics)
        for finding in analysis.findings:
            code = self._ABSINT_CODES.get(finding.kind)
            if code is None:
                continue
            out.append(_diag(code, finding.message, expr=finding.expr,
                             span=self._span(finding.expr)))

    # -- L205: non-exhaustive type dispatch over a C3 closure ----------------

    def _check_exhaustive_dispatch(self, expr: Expr,
                                   out: List[Diagnostic]) -> None:
        if self.db is None:
            return
        hierarchy = self.db.hierarchy
        # Group typed applies by structurally-equal source: a dispatch
        # is several typed branches over one source (Figure 5 shape);
        # one typed σ alone is a deliberate selection, not a dispatch.
        groups: List[List[Any]] = []
        for node in expr.walk():
            if not isinstance(node, (SetApply, ArrApply)) \
                    or not node.type_filter:
                continue
            for group in groups:
                if group[0].source == node.source:
                    group.append(node)
                    break
            else:
                groups.append([node])
        for group in groups:
            if len(group) < 2:
                continue
            covered: Set[str] = set()
            for node in group:
                for t in node.type_filter:
                    if t in hierarchy:
                        covered |= hierarchy.descendants_or_self(t)
                    else:
                        covered.add(t)
            try:
                source_schema = self.inference.check(group[0].source)
            except AlgebraTypeError:
                continue
            element = None
            if source_schema is not None and source_schema.children:
                element = source_schema.children[0]
            root = self.inference._receiver_type(element)
            if root is not None and root in hierarchy:
                closure = hierarchy.descendants_or_self(root)
                origin = "the C3 closure of %s" % root
            else:
                # Schema carries no type name (anonymous tuple schema):
                # fall back to the exact types actually stored in a
                # Named extent — occurrences of any uncovered type are
                # silently dropped by every branch.
                closure = self._stored_exact_types(group[0].source)
                origin = "%s actually contains" % group[0].source.describe()
                if closure is None:
                    continue
            missing = sorted(closure - covered)
            if missing:
                out.append(_diag(
                    "L205",
                    "typed dispatch over %s covers %s but %s %s too; "
                    "those occurrences are silently dropped"
                    % (group[0].source.describe(),
                       ", ".join(sorted(covered)) or "nothing", origin,
                       ", ".join(missing)),
                    expr=group[0], span=self._span(group[0]),
                    hint="add branches (or an explicit catch-all type "
                         "filter) for: %s" % ", ".join(missing)))

    def _stored_exact_types(self, source: Expr) -> Optional[Set[str]]:
        """The exact type names present in a Named stored multiset (via
        tuple tags and the store's ref catalog), or None when the source
        isn't a stored extent we can enumerate."""
        if not isinstance(source, Named) or self.db is None:
            return None
        try:
            stored = self.db.get(source.name)
        except KeyError:
            return None
        if not isinstance(stored, MultiSet):
            return None
        out: Set[str] = set()
        store = getattr(self.db, "store", None)
        for element in stored.elements():
            name = getattr(element, "type_name", None)
            if name is None and isinstance(element, Ref) \
                    and store is not None:
                try:
                    name = store.exact_type(element.oid)
                except Exception:
                    name = None
            if name is None:
                return None  # untyped element: nothing to dispatch on
            out.add(name)
        return out

    # -- L106: opaque functions ---------------------------------------------

    def _check_opaque_funcs(self, expr: Expr,
                            out: List[Diagnostic]) -> None:
        reported: Set[str] = set()
        for node in expr.walk():
            if isinstance(node, Func) and node.name not in reported \
                    and self.inference.signatures.get(node.name) is None:
                reported.add(node.name)
                out.append(_diag(
                    "L106",
                    "function %r has no declared signature; its result "
                    "schema is opaque to inference" % node.name,
                    expr=node, span=self._span(node),
                    hint="register it with db.register_function(name, "
                         "fn, signature=...)"))


def lint(expr: Expr, database: Any = None,
         source_map: Optional[SourceMap] = None,
         statistics: Any = None) -> List[Diagnostic]:
    """One-shot convenience: lint *expr* against *database*."""
    return Linter(database, source_map=source_map,
                  statistics=statistics).lint(expr)


__all__ = ["Linter", "lint"]
