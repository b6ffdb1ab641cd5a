"""Algebraic expression trees and their evaluation machinery.

Every operator of the EXCESS algebra is an expression node.  A query is a
tree of such nodes whose leaves are named top-level database objects,
constants, or the distinguished ``INPUT`` symbol.

``INPUT`` plays two roles in the paper (Section 3.2):

* inside the subscript of SET_APPLY / ARR_APPLY / GRP it denotes, in
  turn, each occurrence of the operator's input collection;
* inside the subscript of COMP it denotes the entire structure being
  tested.

Both roles are the same mechanism here: certain operator fields are
*binding* fields — evaluating them rebinds ``INPUT`` — and those fields
are declared in ``_binding_fields`` so that transformation rules know not
to substitute through them.

Evaluation is side-effect-free except for REF (which allocates an object
in the context's store) and for the statistics counters used by the cost
model and the benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .values import DNE, UNK, Null, is_null


class AlgebraError(Exception):
    """An ill-typed or otherwise illegal algebraic evaluation."""


class EvalContext:
    """Everything an expression needs besides its INPUT binding.

    Parameters
    ----------
    database:
        Mapping of top-level object names to values (the ``create``\\ d
        persistent objects of EXTRA).
    store:
        An object store providing ``get(oid)`` and
        ``insert(value, type_name=None) -> Ref``; needed by DEREF / REF.
    functions:
        Registered scalar functions (the stand-in for E-language ADT
        functions), name → Python callable.
    methods:
        A method registry (see :mod:`repro.core.methods`) consulted by
        method-invocation expressions.
    """

    def __init__(self, database: Dict[str, Any] = None, store=None,
                 functions: Dict[str, Callable] = None, methods=None,
                 indexes=None):
        self.database = database if database is not None else {}
        self.store = store
        # Kept by reference (not copied) so functions registered on the
        # database after this context was created remain callable — a
        # session holds one context across many statements.
        self.functions = functions if functions is not None else {}
        self.methods = methods
        self.indexes = indexes
        self.stats: Dict[str, int] = {}
        #: Per-query OID → value cache used by the compiled engine's
        #: DEREF operator; created lazily, cleared by begin_query().
        self.deref_cache = None
        #: Optional :class:`repro.obs.Tracer`.  When set and enabled,
        #: ``evaluate`` records a span tree for the statement (one span
        #: per physical operator in the compiled engine).  None or a
        #: disabled tracer costs nothing — the check happens once per
        #: statement, never per element.
        self.tracer = None

    def tick(self, counter: str, amount: int = 1) -> None:
        """Bump a work counter (elements scanned, derefs, …)."""
        self.stats[counter] = self.stats.get(counter, 0) + amount

    def reset_stats(self) -> None:
        self.stats = {}

    def begin_query(self) -> None:
        """Start a fresh top-level query on this context.

        Resets the work counters (so ``.stats`` always describes one
        query, not a whole session) and empties the deref cache (whose
        contract is per-query: updates between statements must not serve
        stale objects).
        """
        self.stats = {}
        if self.deref_cache is not None:
            self.deref_cache.clear()
            if self.store is not None:
                self.deref_cache.version = getattr(self.store, "version",
                                                   None)

    def lookup(self, name: str) -> Any:
        try:
            return self.database[name]
        except KeyError:
            raise AlgebraError("no top-level object named %r" % name)

    def function(self, name: str) -> Callable:
        try:
            return self.functions[name]
        except KeyError:
            raise AlgebraError("no registered function %r" % name)


class Expr:
    """Base class for all algebra expression nodes.

    Subclasses declare ``_fields`` (constructor-argument names, in order)
    and optionally ``_binding_fields`` (the subset whose sub-expressions
    rebind INPUT).  Structural equality, hashing, child traversal, and
    rewriting all derive from these declarations.
    """

    _fields: Tuple[str, ...] = ()
    _binding_fields: Tuple[str, ...] = ()

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        raise NotImplementedError

    # -- generic plumbing -------------------------------------------------

    def _values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._values() == other._values()

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._values()))

    def __repr__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        inner = ", ".join(
            v.describe() if isinstance(v, Expr) else repr(v)
            for v in self._values())
        return "%s(%s)" % (type(self).__name__, inner)

    def children(self) -> List["Expr"]:
        """Direct sub-expressions, binding or not.

        Predicate-valued fields (COMP subscripts) contribute their
        operand expressions, so tree-wide analyses (walk, determinism,
        parameter binding) see inside predicates too.
        """
        out = []
        for value in self._values():
            if isinstance(value, Expr):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                out.extend(v for v in value if isinstance(v, Expr))
            elif hasattr(value, "deep_exprs"):
                out.extend(value.deep_exprs())
        return out

    def replace(self, **updates: Any) -> "Expr":
        """A copy with the named fields replaced."""
        kwargs = {f: getattr(self, f) for f in self._fields}
        for name, value in updates.items():
            if name not in kwargs:
                raise KeyError("%s has no field %r" % (type(self).__name__, name))
            kwargs[name] = value
        return type(self)(**kwargs)

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """A copy with *fn* applied to every direct sub-expression."""
        updates = {}
        for field in self._fields:
            value = getattr(self, field)
            if isinstance(value, Expr):
                new = fn(value)
                if new is not value:
                    updates[field] = new
            elif isinstance(value, (list, tuple)):
                new_seq = [fn(v) if isinstance(v, Expr) else v for v in value]
                if any(a is not b for a, b in zip(new_seq, value)):
                    updates[field] = type(value)(new_seq) if isinstance(
                        value, tuple) else new_seq
        return self.replace(**updates) if updates else self

    def walk(self) -> Iterator["Expr"]:
        """Pre-order walk over the whole tree (including binding bodies)."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node

    def size(self) -> int:
        """Number of operator nodes (used by search bounds)."""
        return sum(1 for _ in self.walk())

    def uses_input(self) -> bool:
        """Does this expression reference the *enclosing* INPUT binding?

        References inside binding fields do not count — they are rebound
        by their own operator.
        """
        if isinstance(self, Input):
            return True
        for field in self._fields:
            if field in self._binding_fields:
                continue
            value = getattr(self, field)
            if isinstance(value, Expr) and value.uses_input():
                return True
            if isinstance(value, (list, tuple)):
                if any(isinstance(v, Expr) and v.uses_input() for v in value):
                    return True
        return False


class Input(Expr):
    """The distinguished INPUT symbol (see module docstring)."""

    _fields = ()

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        if input_value is _UNBOUND:
            raise AlgebraError("INPUT used outside any binding operator")
        return input_value

    def describe(self) -> str:
        return "INPUT"


#: Sentinel used to catch INPUT references at top level.
_UNBOUND = object()


class Named(Expr):
    """A named, top-level database object (a ``create``\\ d entity)."""

    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        return ctx.lookup(self.name)

    def describe(self) -> str:
        return self.name


class Const(Expr):
    """A literal algebra value embedded in a query."""

    _fields = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        return self.value

    def describe(self) -> str:
        return repr(self.value)


class Func(Expr):
    """Application of a registered scalar function to argument expressions.

    This models EXCESS's E-written ADT functions and arithmetic.  Null
    arguments propagate: any ``dne`` argument yields ``dne``, else any
    ``unk`` yields ``unk``.
    """

    _fields = ("name", "args")

    def __init__(self, name: str, args: List[Expr]):
        self.name = name
        self.args = tuple(args)

    def evaluate(self, input_value: Any, ctx: EvalContext) -> Any:
        values = [arg.evaluate(input_value, ctx) for arg in self.args]
        if any(v is DNE for v in values):
            return DNE
        if any(v is UNK for v in values):
            return UNK
        ctx.tick("func_calls")
        return ctx.function(self.name)(*values)

    def describe(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(a.describe() for a in self.args))


def evaluate(expr: Expr, ctx: EvalContext, input_value: Any = _UNBOUND,
             mode: str = "interpreted", facts: Any = None,
             cost_model: Any = None, access_paths: str = "auto",
             analysis: Any = None, sanitize: bool = False) -> Any:
    """Evaluate a top-level expression.

    A bare INPUT at top level is an error unless *input_value* is given
    (method bodies are evaluated against a bound receiver, for example).

    ``mode`` selects the execution engine: ``"interpreted"`` (the
    recursive ``Expr.evaluate`` walk, one materialized value per node),
    ``"compiled"`` (the streaming engine of
    :mod:`repro.core.engine`, which lowers the tree once and pipelines
    occurrence pairs through fused physical operators), or
    ``"batched"`` (the same physical algebra exchanging columnar
    :class:`~repro.core.engine.batch.Batch` objects,
    :data:`~repro.core.engine.batch.DEFAULT_BATCH_SIZE` occurrence slots
    at a time).

    ``facts`` (compiled engines only) carries verified plan facts —
    e.g. duplicate-freedom from the static analysis layer — that the
    compiler may use as optimization licenses.

    ``cost_model`` and ``access_paths`` (compiled engines only) steer
    index-probe lowering — see :func:`repro.core.engine.compile_plan`.

    ``analysis`` is a :class:`~repro.core.analysis.absint.PlanAnalysis`
    over *expr* (node-identity keyed — analyze this exact tree).  With
    ``sanitize`` False its proven facts are folded into *facts* as
    engine licenses; with ``sanitize`` True the compiled engine instead
    *asserts* every fact at runtime, raising ``SanitizerError`` on any
    violation (an ``analysis`` is built from *ctx* on the fly if none
    is given).  The interpreter has no instrumentation points, so
    ``sanitize`` is a no-op under ``mode="interpreted"``.

    When ``ctx.tracer`` is set and enabled, a span tree for the run is
    attached under the tracer's cursor: per physical operator for the
    compiled engine, one root span for the interpreter.
    """
    if sanitize and analysis is None and mode != "interpreted":
        from .analysis.absint import analyze
        analysis = analyze(expr, database=getattr(ctx, "database", None))
    tracer = getattr(ctx, "tracer", None)
    plan = lower(expr, mode, trace=tracer is not None and tracer.enabled,
                 facts=facts, cost_model=cost_model,
                 access_paths=access_paths, analysis=analysis,
                 sanitize=sanitize)
    return run_plan(expr, plan, ctx, input_value)


def lower(expr: Expr, mode: str, trace: bool = False, facts: Any = None,
          cost_model: Any = None, access_paths: str = "auto",
          analysis: Any = None, sanitize: bool = False) -> Any:
    """The physical plan the *mode* engine runs for *expr* — ``None``
    for the interpreter, which walks the tree itself.

    The compile half of :func:`evaluate` (same keywords, same
    meaning); :func:`run_plan` is the other half.  A plan lowered with
    ``trace`` carries per-run span state: run it once, under the
    tracer it was lowered for.  ``sanitize`` needs an ``analysis``.
    """
    if mode == "interpreted":
        return None
    if mode not in ("compiled", "batched"):
        raise ValueError("unknown engine mode %r (use 'interpreted', "
                         "'compiled', or 'batched')" % (mode,))
    if analysis is not None and not sanitize:
        facts = analysis.extend_facts(facts)
    if mode == "compiled":
        from .engine import compile_plan
        return compile_plan(expr, facts=facts, trace=trace,
                            cost_model=cost_model,
                            access_paths=access_paths,
                            sanitize=analysis if sanitize else None)
    from .engine.batch import compile_batch_plan
    return compile_batch_plan(expr, facts=facts, trace=trace,
                              cost_model=cost_model,
                              access_paths=access_paths,
                              sanitize=analysis if sanitize else None)


def run_plan(expr: Expr, plan: Any, ctx: EvalContext,
             input_value: Any = _UNBOUND) -> Any:
    """Execute *expr* through *plan* (what :func:`lower` returned for
    it; ``None`` walks the tree), recording the run's span tree under
    ``ctx.tracer`` when that is set and enabled."""
    tracer = getattr(ctx, "tracer", None)
    if tracer is None or not tracer.enabled:
        if plan is None:
            return expr.evaluate(input_value, ctx)
        return plan.execute(ctx, input_value)
    import time as _time
    if plan is not None:
        root = plan.trace_root
        tracer.attach(root)
        cache = ctx.deref_cache
        hits0, misses0 = (cache.hits, cache.misses) if cache is not None \
            else (0, 0)
        started = _time.perf_counter()
        try:
            return plan.execute(ctx, input_value)
        finally:
            root.calls += 1
            root.wall += _time.perf_counter() - started
            cache = ctx.deref_cache
            if cache is not None:
                hits = cache.hits - hits0
                misses = cache.misses - misses0
                if hits or misses:
                    root.meta["deref_cache_hit_ratio"] = (
                        hits / (hits + misses))
    from repro.obs import Span
    root = Span("interpreted-plan", kind="plan", expr=expr)
    tracer.attach(root)
    started = _time.perf_counter()
    try:
        value = expr.evaluate(input_value, ctx)
    finally:
        root.calls += 1
        root.wall += _time.perf_counter() - started
    root.rows_out += 1
    from .values import MultiSet
    root.card_out += len(value) if isinstance(value, MultiSet) else 1
    return value


def substitute_input(expr: Expr, replacement: Expr) -> Expr:
    """Replace free occurrences of INPUT in *expr* with *replacement*.

    This implements the composition written E1(E2) in the paper's rules
    (e.g. rule 15, combining successive SET_APPLYs).  Occurrences inside
    binding fields are bound by their own operator and left alone, but
    the non-binding fields of those operators are still rewritten.
    """
    if isinstance(expr, Input):
        return replacement
    updates = {}
    for field in expr._fields:
        if field in expr._binding_fields:
            continue
        value = getattr(expr, field)
        if isinstance(value, Expr):
            new = substitute_input(value, replacement)
            if new is not value:
                updates[field] = new
        elif isinstance(value, (list, tuple)):
            new_seq = [substitute_input(v, replacement)
                       if isinstance(v, Expr) else v for v in value]
            if any(a is not b for a, b in zip(new_seq, value)):
                updates[field] = tuple(new_seq) if isinstance(
                    value, tuple) else new_seq
    return expr.replace(**updates) if updates else expr


def propagate_null(value: Any) -> Optional[Null]:
    """Return the null to propagate if *value* is a null, else None."""
    if is_null(value):
        return value
    return None
