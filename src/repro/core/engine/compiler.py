"""The plan compiler: algebra trees → streaming physical pipelines.

The interpreter (``Expr.evaluate``) materializes an immutable
:class:`~repro.core.values.MultiSet` at every operator, so a chain of
SET_APPLYs re-tallies counts once per node and a repeated DEREF probes
the store every time — exactly the overheads the paper's Example 2
rewrites are fighting at the logical level.  This module fights them at
the *physical* level, leaving the algebra untouched:

* **Occurrence streams.**  Collection-valued operators compile to
  functions returning an iterator of ``(element, count)`` chunks instead
  of a built ``MultiSet``.  A chunk stream is a multiset in transit: the
  same element may appear in several chunks (their counts add), and the
  only materialization happens where a multiset *value* is genuinely
  required (the query result, GRP's group members, operands of value
  operators).
* **Operator fusion.**  A chain of adjacent SET_APPLYs — including the
  derived σ, whose body is ``COMP_P(INPUT)`` — collapses into a single
  loop driving a list of per-occurrence stages, so N logical operators
  cost one pass and zero intermediate tallies.
* **Hash physical operators.**  DE, GRP, − and × run hash-based; the
  appendix's ``rel_join`` shape (SET_APPLY ∘ SET_APPLY[COMP] ∘ ×) with
  an equality :class:`~repro.core.predicates.Atom` is detected by
  :func:`match_hash_join` and lowered to a build/probe hash join that
  never forms the quadratic pair set.
* **Deref caching.**  Compiled DEREF (and method dispatch over Ref
  receivers) consults the per-query LRU :class:`~.cache.DerefCache` on
  the context, ticking ``deref_cache_hit`` / ``deref_cache_miss``.

Semantics are identical to the interpreter: the ``dne``/``unk`` null
discipline, duplicate cardinalities, typed-SET_APPLY filtering, and
Kleene predicate logic all behave occurrence-for-occurrence the same
(the differential suite in ``tests/engine`` asserts this over generated
plans).  Work counters keep their names and aggregate totals, but are
flushed once per operator rather than once per element.

A compiled :class:`Pipeline` is reusable across evaluation contexts of
the same database; method dispatch memoizes compiled bodies per exact
type, so redefining methods between executions requires recompiling.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import chain
from time import perf_counter
from types import CodeType
from typing import Any, Callable, Dict, Iterator, List, Optional

from ...obs import Span

from ..expr import (AlgebraError, Const, EvalContext, Expr, Func, Input,
                    Named, _UNBOUND, substitute_input)
from ..methods import (IndexedTypeScan, MethodCall, MethodError, Param,
                       bind_params)
from ..operators.arrays import (ArrApply, ArrCat, ArrCollapse, ArrCreate,
                                ArrCross, ArrDE, ArrDiff, ArrExtract, SubArr)
from ..operators.multiset import (DE, AddUnion, Cross, Diff, Grp, SetApply,
                                  SetCollapse, SetCreate, exact_type_of)
from ..operators.refs import Deref, RefOp
from ..operators.tuples import Pi, TupCat, TupCreate, TupExtract
from ..predicates import (And, Atom, Comp, Not, Predicate, TruePred,
                          _compare_scalars, F, T, U, kleene_not)
from ..values import DNE, UNK, Arr, MultiSet, Null, Ref, Tup
from .cache import DerefCache

_MISSING = object()

#: A compiled value form: (input_value, ctx) -> algebra value.
ValueFn = Callable[[Any, EvalContext], Any]
#: A compiled stream form: (input_value, ctx) -> Null | iter((elem, count)).
StreamFn = Callable[[Any, EvalContext], Any]


def _input_fn(v, ctx):
    """The compiled INPUT leaf (a shared singleton; see _v_Input)."""
    if v is _UNBOUND:
        raise AlgebraError("INPUT used outside any binding operator")
    return v


def _fresh_cache(ctx: EvalContext) -> DerefCache:
    """A new deref cache bound to *ctx*, stamped with the store's
    current mutation version so later runs can detect staleness."""
    cache = ctx.deref_cache = DerefCache()
    if ctx.store is not None:
        cache.version = getattr(ctx.store, "version", None)
    return cache


def cached_deref(ctx: EvalContext, oid: Any) -> Any:
    """Fetch *oid* through the context's per-query LRU deref cache.

    Bumps the cache's ``hits``/``misses`` counters; the per-run deltas
    reach ``ctx.stats`` when the enclosing :class:`Pipeline` finishes
    (one cache access ≡ one interpreter ``deref_count`` tick).
    """
    cache = ctx.deref_cache
    if cache is None:
        cache = _fresh_cache(ctx)
    found = cache.get(oid, _MISSING)
    if found is not _MISSING:
        cache.hits += 1
        return found
    cache.misses += 1
    found = ctx.store.get(oid, default=DNE)
    cache.put(oid, found)
    return found


# ---------------------------------------------------------------------------
# Hash-join pattern detection
# ---------------------------------------------------------------------------

#: The TUP_CAT(field1, field2) flattener rel_join wraps around its COMP.
_PAIR_FLATTEN = TupCat(TupExtract("field1", Input()),
                       TupExtract("field2", Input()))

_PROBE_PARAM = "__hash_join_side__"


class HashJoinMatch:
    """A recognized rel_join shape, split into hash-join ingredients.

    ``left_key`` / ``right_key`` are expressions over the *element* of
    the respective side (INPUT = the element), derived from the equality
    atom's operands by stripping the ``fieldN`` pair access.
    """

    __slots__ = ("left", "right", "left_key", "right_key", "pred")

    def __init__(self, left: Expr, right: Expr, left_key: Expr,
                 right_key: Expr, pred: Atom):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.pred = pred


def _replace_free(expr: Expr, pattern: Expr, replacement: Expr) -> Expr:
    """Replace free (INPUT-binding-respecting) occurrences of a subtree."""
    if expr == pattern:
        return replacement
    updates = {}
    for field in expr._fields:
        if field in expr._binding_fields:
            continue
        value = getattr(expr, field)
        if isinstance(value, Expr):
            new = _replace_free(value, pattern, replacement)
            if new is not value:
                updates[field] = new
        elif isinstance(value, (list, tuple)):
            new_seq = [_replace_free(item, pattern, replacement)
                       if isinstance(item, Expr) else item for item in value]
            if any(a is not b for a, b in zip(new_seq, value)):
                updates[field] = tuple(new_seq) if isinstance(
                    value, tuple) else new_seq
    return expr.replace(**updates) if updates else expr


def _side_key(operand: Expr, side: int) -> Optional[Expr]:
    """*operand* rewritten as a key over one join side's element.

    Returns None when the operand also touches the other side (or the
    raw pair), in which case a hash key cannot be extracted.
    """
    marker = TupExtract("field%d" % side, Input())
    replaced = _replace_free(operand, marker, Param(_PROBE_PARAM))
    if replaced.uses_input():
        return None
    return bind_params(replaced, {_PROBE_PARAM: Input()})


def match_hash_join(expr: Expr) -> Optional[HashJoinMatch]:
    """Recognize the appendix's rel_join composition with an equality
    predicate:  SET_APPLY_{TUP_CAT} ∘ SET_APPLY_{COMP_{k1 = k2}} ∘ ×.

    Used both by the compiler (to emit the hash-join physical operator)
    and by the cost model (to rank plans the way the compiled engine
    will actually run them).
    """
    if not isinstance(expr, SetApply) or expr.type_filter is not None:
        return None
    if expr.body != _PAIR_FLATTEN:
        return None
    inner = expr.source
    if not isinstance(inner, SetApply) or inner.type_filter is not None:
        return None
    body = inner.body
    if not isinstance(body, Comp) or not isinstance(body.source, Input):
        return None
    pred = body.pred
    if not isinstance(pred, Atom) or pred.op != "=":
        return None
    cross = inner.source
    if not isinstance(cross, Cross):
        return None
    for left_side in (1, 2):
        left_key = _side_key(pred.left if left_side == 1 else pred.right, 1)
        right_key = _side_key(pred.right if left_side == 1 else pred.left, 2)
        if left_key is not None and right_key is not None:
            return HashJoinMatch(cross.left, cross.right,
                                 left_key, right_key, pred)
    return None


def _flatten_pair(a: Any, b: Any) -> Any:
    """TUP_CAT(field1, field2) applied to the (a, b) join pair."""
    if a is DNE or a is UNK:
        return a
    if b is DNE or b is UNK:
        return b
    if not isinstance(a, Tup) or not isinstance(b, Tup):
        raise AlgebraError("TUP_CAT needs two tuples")
    return a.concat(b)


# ---------------------------------------------------------------------------
# Index-probe pattern detection
# ---------------------------------------------------------------------------

_RANGE_OPS = ("<", "<=", ">", ">=")
_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _atom_probe(pred: Predicate) -> Optional[tuple]:
    """An atom in ``key <op> literal`` form: ``(key_expr, op, const)``
    normalized with the constant on the right (the comparator flipped
    when the literal was on the left), or None when the shape doesn't
    admit an index probe.  Null literals are excluded — their verdicts
    (F for dne, U for unk) never consult a comparator, so the generic
    filter keeps them."""
    if not isinstance(pred, Atom):
        return None
    op = pred.op
    if op != "=" and op not in _RANGE_OPS:
        return None
    left, right = pred.left, pred.right
    if isinstance(right, Const) and not isinstance(left, Const):
        key, const = left, right.value
    elif isinstance(left, Const) and not isinstance(right, Const):
        key, const = right, left.value
        op = _FLIP_OP.get(op, op)
    else:
        return None
    if isinstance(const, Null):
        return None
    if not key.uses_input():
        return None
    return key, op, const


class _ProbePlan:
    """A recognized index-probe shape for the innermost fused stage.

    ``kind`` is ``"eq"`` (KeyIndex), ``"range"`` (OrderedIndex — one
    bound or a between), or ``"typed"`` (TypedPartitionIndex).  For a
    typed probe only the filter is absorbed, so ``residual`` carries the
    stage's body as a filterless SET_APPLY for the rest of the chain.
    """

    __slots__ = ("kind", "key", "eq_const", "bounds", "types", "residual",
                 "pred")

    def __init__(self, kind: str, key: Optional[Expr] = None,
                 eq_const: Any = None, bounds: Optional[dict] = None,
                 types: Optional[frozenset] = None,
                 residual: Optional[Expr] = None,
                 pred: Optional[Predicate] = None):
        self.kind = kind
        self.key = key
        self.eq_const = eq_const
        self.bounds = bounds
        self.types = types
        self.residual = residual
        self.pred = pred

    def describe(self, name: str) -> str:
        if self.kind == "eq":
            return "index probe[%s: key %s = %r]" % (
                name, self.key.describe(), self.eq_const)
        if self.kind == "range":
            b = self.bounds
            low = ("%r %s " % (b["low"], "<=" if b["incl_low"] else "<")
                   if "low" in b else "")
            high = (" %s %r" % ("<=" if b["incl_high"] else "<", b["high"])
                    if "high" in b else "")
            return "index range probe[%s: %s%s%s]" % (
                name, low, self.key.describe(), high)
        return "index partition probe[%s: %s]" % (
            name, "|".join(sorted(self.types)))


def _match_probe(stage: SetApply) -> Optional[_ProbePlan]:
    """The innermost fused stage as an index probe, if recognized:
    a typed filter → partition probe; a σ with a single equality atom
    against a literal → key probe; a σ with a single range atom (or an
    AND of a lower and an upper bound on the same key whose literals
    are mutually comparable) → ordered probe."""
    if stage.type_filter is not None:
        return _ProbePlan("typed", types=frozenset(stage.type_filter),
                          residual=SetApply(stage.body, stage.source))
    body = stage.body
    if not isinstance(body, Comp) or not isinstance(body.source, Input):
        return None
    pred = body.pred
    one = _atom_probe(pred)
    if one is not None:
        key, op, const = one
        if op == "=":
            return _ProbePlan("eq", key=key, eq_const=const, pred=pred)
        if op in ("<", "<="):
            bounds = {"high": const, "incl_high": op == "<="}
        else:
            bounds = {"low": const, "incl_low": op == ">="}
        return _ProbePlan("range", key=key, bounds=bounds, pred=pred)
    if isinstance(pred, And):
        a = _atom_probe(pred.left)
        b = _atom_probe(pred.right)
        if a is None or b is None or a[0] != b[0]:
            return None
        lower = a if a[1] in (">", ">=") else b if b[1] in (">", ">=") else None
        upper = a if a[1] in ("<", "<=") else b if b[1] in ("<", "<=") else None
        if lower is None or upper is None or lower is upper:
            return None
        # The two literals must order against each other — otherwise an
        # in-class key gets one definite and one U verdict, which a
        # single aggregated probe cannot reproduce.
        if _compare_scalars("<", lower[2], upper[2]) == U:
            return None
        bounds = {"low": lower[2], "incl_low": lower[1] == ">=",
                  "high": upper[2], "incl_high": upper[1] == "<="}
        return _ProbePlan("range", key=a[0], bounds=bounds, pred=pred)
    return None


# ---------------------------------------------------------------------------
# Fused SET_APPLY stage execution
# ---------------------------------------------------------------------------

#: Stage kinds in a fused SET_APPLY chain.
class _FusedCodegen:
    """Generate the driver for a fused SET_APPLY chain as straight-line
    code — whole-chain code generation, à la compiling query engines.

    Stages run innermost-first; an occurrence either survives all of
    them (possibly transformed, possibly turned into ``unk`` by a U
    predicate) or is dropped via ``continue``.  Per-stage work counters
    are plain local integers, flushed once in ``finally`` (which also
    covers early close of a partially-consumed stream), so the totals
    match the interpreter's per-element ticks without per-element dict
    costs — and without any per-element stage dispatch.

    Recognized body shapes — DEREF/TUP_EXTRACT/π/TUP_CREATE chains over
    INPUT, and σ atoms comparing a field of INPUT with a literal by
    ``=``/``!=`` or an order comparator (``<``/``<=``/``>``/``>=``,
    through ``_compare_scalars``) — are additionally *inlined* into the
    generated loop (including the deref cache probe, whose cache/store
    locals are hoisted out of the loop), so the common
    functional-join pipeline and the ``retrieve (t.x) … where t.k <
    c`` result builder run with no per-element closure calls at all.
    Anything else falls back to one compiled-closure call per stage,
    which is still fused.

    Null discipline inside the generated loop: ``dne`` never travels
    (multisets drop it at the source and every step ``continue``\\ s on
    it), and ``unk`` is absorbing — each inlined step is guarded by
    ``if value is not UNK`` so a null simply skips ahead, exactly the
    interpreter's propagation.
    """

    def __init__(self, compiler: "PlanCompiler"):
        self.compiler = compiler
        self.namespace = {
            "DNE": DNE, "UNK": UNK, "F": F, "U": U,
            "exact_type_of": exact_type_of, "AlgebraError": AlgebraError,
            "Tup": Tup, "Ref": Ref, "DerefCache": DerefCache,
            "_fresh_cache": _fresh_cache, "_MISSING": _MISSING,
            "tup_from_map": Tup._from_map,
            "_compare_scalars": _compare_scalars,
        }
        self.uses_deref = False
        self.inlined = 0

    # -- inline emitters ----------------------------------------------

    def path_steps(self, expr: Expr, sid: str) -> Optional[List[List[str]]]:
        """Code blocks transforming the loop's ``value`` variable along
        an INPUT-rooted access path, or None when not inlinable.

        Each block is guarded on ``value is not UNK`` and ``continue``s
        on a ``dne`` result, mirroring null propagation + map-drop.
        """
        if isinstance(expr, Input):
            return []
        if isinstance(expr, TupExtract):
            inner = self.path_steps(expr.source, sid)
            if inner is None:
                return None
            key = "%s_f%d" % (sid, len(inner))
            msg = "%s_m%d" % (sid, len(inner))
            self.namespace[key] = expr.field
            self.namespace[msg] = ("TUP_EXTRACT(%s) needs a tuple input, "
                                   "got %%r" % expr.field)
            return inner + [[
                "if value is not UNK:",
                "    if not isinstance(value, Tup):",
                "        raise AlgebraError(%s %% (value,))" % msg,
                "    try:",
                "        value = value._map[%s]" % key,
                "    except KeyError:",
                "        value = value[%s]" % key,
                "    if value is DNE: continue",
            ]]
        if isinstance(expr, Pi):
            inner = self.path_steps(expr.source, sid)
            if inner is None:
                return None
            key = "%s_n%d" % (sid, len(inner))
            self.namespace[key] = expr.names
            return inner + [[
                "if value is not UNK:",
                "    if not isinstance(value, Tup):",
                "        raise AlgebraError('π needs a tuple input, "
                "got %r' % (value,))",
                "    value = value.project(%s)" % key,
            ]]
        if isinstance(expr, TupCreate):
            inner = self.path_steps(expr.source, sid)
            if inner is None:
                return None
            key = "%s_t%d" % (sid, len(inner))
            self.namespace[key] = expr.field
            return inner + [[
                "if value is not UNK:",
                "    value = tup_from_map({%s: value})" % key,
            ]]
        if isinstance(expr, Deref):
            inner = self.path_steps(expr.source, sid)
            if inner is None:
                return None
            self.uses_deref = True
            return inner + [[
                "if value is not UNK:",
                "    if not isinstance(value, Ref):",
                "        raise AlgebraError('DEREF needs a reference, "
                "got %r' % (value,))",
                "    if store is None:",
                "        raise AlgebraError('DEREF needs an object store "
                "in the context')",
                "    oid = value.oid",
                "    value = entries.get(oid, _MISSING)",
                "    if value is _MISSING:",
                "        cache.misses += 1",
                "        value = store.get(oid, default=DNE)",
                "        entries[oid] = value",
                "        if len(entries) > capacity:",
                "            entries.popitem(last=False)",
                "    else:",
                "        cache.hits += 1",
                "        entries.move_to_end(oid)",
                "    if value is DNE: continue",
            ]]
        return None

    def filter_lines(self, pred: Predicate, i: int) -> Optional[List[str]]:
        """Inline a comparison σ atom against a literal:
        ``Atom(TupExtract(field, INPUT), = | != | < | <= | > | >=,
        Const)``.  Returns the code block (which manages ce/ae counters
        and keep/drop), or None to fall back to a compiled predicate
        closure.  Order comparators go through ``_compare_scalars``, so
        incomparable types give U (the occurrence becomes ``unk``).
        """
        if (not isinstance(pred, Atom)
                or pred.op not in ("=", "!=") + _RANGE_OPS):
            return None
        left, right = pred.left, pred.right
        if not (isinstance(left, TupExtract) and isinstance(left.source, Input)
                and isinstance(right, Const)):
            return None
        if isinstance(right.value, Null):
            return None  # null literal: verdicts never reach =; keep generic
        key, cst, msg = "p%d_f" % i, "p%d_c" % i, "p%d_m" % i
        self.namespace[key] = left.field
        self.namespace[cst] = right.value
        self.namespace[msg] = ("TUP_EXTRACT(%s) needs a tuple input, got %%r"
                               % left.field)
        if pred.op == "=":
            verdicts = ["    elif lhs != %s: continue" % cst]
        elif pred.op == "!=":
            verdicts = ["    elif lhs == %s: continue" % cst]
        else:
            verdicts = [
                "    else:",
                "        verdict = _compare_scalars(%r, lhs, %s)"
                % (pred.op, cst),
                "        if verdict == F: continue",
                "        if verdict == U: value = UNK",
            ]
        return [
            "if value is not UNK:",
            "    ce%d += 1" % i,
            "    if not isinstance(value, Tup):",
            "        raise AlgebraError(%s %% (value,))" % msg,
            "    try:",
            "        lhs = value._map[%s]" % key,
            "    except KeyError:",
            "        lhs = value[%s]" % key,
            "    ae%d += 1" % i,
            "    if lhs is DNE: continue",
            "    if lhs is UNK: value = UNK",
        ] + verdicts

    # -- assembly ------------------------------------------------------

    def build(self, nodes: List[SetApply]) -> Callable:
        """*nodes* is the SET_APPLY chain, innermost first."""
        compiler = self.compiler
        namespace = self.namespace
        head = ["def _fused(chunks, ctx):"]
        body: List[str] = []
        accs: List[str] = []
        flush: List[str] = []
        ind = "            "
        def bump(counter: str, acc: str) -> str:
            return ("stats[%r] = sget(%r, 0) + %s"
                    % (counter, counter, acc))
        for i, node in enumerate(nodes):
            if node.type_filter is not None:
                namespace["tf%d" % i] = node.type_filter
                accs += ["sc%d" % i, "ap%d" % i]
                flush.append("if sc%d: %s"
                             % (i, bump("elements_scanned", "sc%d" % i)))
                flush.append("if ap%d: %s"
                             % (i, bump("set_apply_elements", "ap%d" % i)))
                body.append(ind + "sc%d += count" % i)
                body.append(ind + "if exact_type_of(value, ctx) "
                                  "not in tf%d: continue" % i)
                body.append(ind + "ap%d += count" % i)
            else:
                # No filter: every scanned occurrence is also applied,
                # so one counter feeds both totals.
                accs.append("sc%d" % i)
                flush.append("if sc%d:" % i)
                flush.append("    " + bump("elements_scanned", "sc%d" % i))
                flush.append("    " + bump("set_apply_elements", "sc%d" % i))
                body.append(ind + "sc%d += count" % i)
            expr = node.body
            if isinstance(expr, Comp) and isinstance(expr.source, Input):
                # The derived σ; unk passes through untested (COMP
                # propagates nulls), dne cannot occur mid-stream.
                accs.append("ce%d" % i)
                flush.append("if ce%d: %s"
                             % (i, bump("comp_evals", "ce%d" % i)))
                inline = self.filter_lines(expr.pred, i)
                if inline is not None:
                    self.inlined += 1
                    accs.append("ae%d" % i)
                    flush.append("if ae%d: %s"
                                 % (i, bump("atom_evals", "ae%d" % i)))
                    body += [ind + line for line in inline]
                else:
                    namespace["f%d" % i] = compiler.pred(expr.pred)
                    body += [ind + line for line in [
                        "if value is not UNK:",
                        "    ce%d += 1" % i,
                        "    verdict = f%d(value, ctx)" % i,
                        "    if verdict == F: continue",
                        "    if verdict == U: value = UNK",
                    ]]
            else:
                steps = self.path_steps(expr, "s%d" % i)
                if steps is not None:
                    self.inlined += 1
                    for step in steps:
                        body += [ind + line for line in step]
                else:
                    namespace["f%d" % i] = compiler.value(expr)
                    body.append(ind + "value = f%d(value, ctx)" % i)
                    body.append(ind + "if value is DNE: continue")
        body.append(ind + "yield value, count")
        # The stats dict is captured when the generator STARTS, and the
        # finally-flush writes into that capture — never into whatever
        # ctx.stats points at by flush time.  A generator left suspended
        # by a downstream exception is only closed when the traceback is
        # released (possibly after the next statement's begin_query()
        # swapped the dict), and its counters belong to the statement
        # that ran it.
        prologue = ["    %s = 0" % " = ".join(accs),
                    "    stats = ctx.stats",
                    "    sget = stats.get"]
        if self.uses_deref:
            prologue += [
                "    store = ctx.store",
                "    cache = ctx.deref_cache",
                "    if cache is None:",
                "        cache = _fresh_cache(ctx)",
                "    entries = cache._entries",
                "    capacity = cache.capacity",
            ]
        source = "\n".join(
            head + prologue + ["    try:", "        for value, count in chunks:"]
            + body + ["    finally:"]
            + ["        " + line for line in flush])
        exec(_compile_driver(source), namespace)
        return namespace["_fused"]


@lru_cache(maxsize=256)
def _compile_driver(source: str) -> CodeType:
    """Byte-compile a generated driver.  Constants, field names and
    stage closures live in the namespace, never in the text, so plans
    of one shape share a source — a plan-cache miss that differs from
    an earlier plan only in a literal skips the Python compiler."""
    return compile(source, "<string>", "exec")


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class PlanCompiler:
    """Lower an :class:`Expr` tree into compiled closures.

    ``value(expr)`` yields the full-value form; ``stream(expr, …)`` the
    chunked form for multiset producers.  Unknown node classes fall back
    to their own ``evaluate`` (keeping the engine total over ad-hoc
    extension operators).
    """

    def __init__(self, facts: Any = None, trace: bool = False,
                 cost_model: Any = None, access_paths: str = "auto",
                 sanitize: Any = None) -> None:
        self.notes: List[str] = []
        #: A ``PlanAnalysis`` (from ``repro.core.analysis.absint``) in
        #: *sanitizer* mode: every compiled closure is wrapped so each
        #: execution asserts the analyzer's proven facts (cardinality
        #: inside the interval, no impossible null, no duplicate where
        #: duplicate-freedom was claimed).  Mutually exclusive with
        #: *consuming* analyzer licenses: while sanitizing, the
        #: statically-empty short-circuit and bounds-check elision are
        #: disabled so the facts are tested, not trusted.
        self.sanitize = sanitize
        #: Optional ``CostModel`` consulted when ``access_paths`` is
        #: ``"auto"``: a recognized probe shape is only lowered when the
        #: model prices the probe below the scan (calibrated
        #: selectivities can veto an index on an unselective predicate).
        self.cost_model = cost_model
        #: ``"auto"`` (probe when an index is available, cost model may
        #: veto), ``"force"`` (probe whenever the shape matches), or
        #: ``"off"`` (never lower probes — pure scans, the pre-index
        #: engine).  Every probe keeps a scan fallback: the catalog is
        #: consulted per execution, so a pipeline stays correct when
        #: indexes appear, disappear, or go stale between runs.
        self.access_paths = access_paths or "auto"
        #: Verified plan facts (``PlanFacts`` from the analysis layer, or
        #: any object with ``is_duplicate_free(expr)``) used as
        #: optimization licenses; None disables fact-based lowering.
        self.facts = facts
        #: With *trace* on, dispatch builds a span tree mirroring the
        #: physical plan (one span per physical operator; fused chains
        #: are one operator) and wraps compiled closures so runs record
        #: wall time and (element, count) output cardinalities.  Off —
        #: the default — dispatch takes the un-instrumented path and
        #: compiled code is byte-identical to the untraced build.
        self.trace = trace
        self.trace_root: Optional[Span] = None
        self._span_stack: List[Span] = []
        #: Depth of subscript-body compilation: bodies, predicates, and
        #: keys run per element and are part of their operator's span,
        #: so dispatch below a body never opens spans of its own.
        self._suppress = 0
        if trace:
            self.trace_root = Span("compiled-plan", kind="plan")
            self._span_stack = [self.trace_root]

    def note(self, text: str) -> None:
        self.notes.append(text)

    @contextmanager
    def _no_trace(self) -> Iterator[None]:
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    def _open_span(self, expr: Expr) -> Span:
        from ..explain import _label
        span = Span(_label(expr), kind="operator", expr=expr)
        self._span_stack[-1].add(span)
        self._span_stack.append(span)
        return span

    # -- dispatch ------------------------------------------------------

    def value(self, expr: Expr) -> ValueFn:
        if (self.trace and not self._suppress
                and not isinstance(expr, (Input, Const, Param))):
            span = self._open_span(expr)
            try:
                fn = self._value_fn(expr)
            finally:
                self._span_stack.pop()
            fn = _traced_value(fn, span)
        else:
            fn = self._value_fn(expr)
        if (self.sanitize is not None
                and not isinstance(expr, (Input, Const, Param))):
            checks = self.sanitize.runtime_checks(
                expr, dup_free=self._claimed_dupfree(expr))
            if checks is not None:
                fn = _sanitized_value(fn, checks)
        return fn

    def _claimed_dupfree(self, expr: Expr) -> bool:
        return (self.facts is not None
                and self.facts.is_duplicate_free(expr))

    def _statically_empty_sort(self, expr: Expr) -> Optional[str]:
        """The proven-empty sort of *expr* when licensed to skip it
        (never while sanitizing: then the proof is tested instead)."""
        if self.sanitize is not None or self.facts is None:
            return None
        probe = getattr(self.facts, "statically_empty_sort", None)
        return probe(expr) if probe is not None else None

    def _value_fn(self, expr: Expr) -> ValueFn:
        empty_sort = self._statically_empty_sort(expr)
        if empty_sort is not None:
            self.note("EMPTY[static] %s" % type(expr).__name__)
            empty = MultiSet() if empty_sort == "set" else Arr([])
            return lambda v, ctx: empty
        method = getattr(self, "_v_%s" % type(expr).__name__, None)
        if method is not None:
            return method(expr)
        evaluate = expr.evaluate
        self.note("INTERP %s" % type(expr).__name__)
        return lambda v, ctx: evaluate(v, ctx)

    def stream(self, expr: Expr, message: str,
               with_value: bool = False) -> StreamFn:
        if self._statically_empty_sort(expr) == "set":
            self.note("EMPTY[static] %s" % type(expr).__name__)
            return lambda v, ctx: iter(())
        method = getattr(self, "_s_%s" % type(expr).__name__, None)
        if method is None:
            # The fallback adapts the value form, which opens the span
            # (and the sanitizer wrapper) itself — no second layer here.
            return self._adapt(self.value(expr), message, with_value)
        if self.trace and not self._suppress:
            span = self._open_span(expr)
            try:
                fn = method(expr)
            finally:
                self._span_stack.pop()
            fn = _traced_stream(fn, span)
        else:
            fn = method(expr)
        if self.sanitize is not None:
            checks = self.sanitize.runtime_checks(
                expr, dup_free=self._claimed_dupfree(expr))
            if checks is not None:
                fn = _sanitized_stream(fn, checks)
        return fn

    def _adapt(self, value_fn: ValueFn, message: str,
               with_value: bool) -> StreamFn:
        """Stream form of a value producer: iterate its tally zero-copy."""
        def fn(v, ctx):
            value = value_fn(v, ctx)
            if isinstance(value, Null):
                return value
            if not isinstance(value, MultiSet):
                raise AlgebraError(message % (value,) if with_value
                                   else message)
            return iter(value.items())
        return fn

    def _materialize(self, stream_fn: StreamFn) -> ValueFn:
        """Value form of a stream producer: tally chunks into a MultiSet."""
        def fn(v, ctx):
            chunks = stream_fn(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            tally: Dict[Any, int] = {}
            get = tally.get
            for element, count in chunks:
                tally[element] = get(element, 0) + count
            return MultiSet._from_tally(tally)
        return fn

    # -- leaves --------------------------------------------------------

    def _v_Input(self, expr: Input) -> ValueFn:
        # The shared singleton lets operator compilers recognize an
        # INPUT source (`src is _input_fn`) and inline the pass-through,
        # removing one closure call per element on the hottest paths.
        return _input_fn

    def _v_Named(self, expr: Named) -> ValueFn:
        name = expr.name
        return lambda v, ctx: ctx.lookup(name)

    def _v_Const(self, expr: Const) -> ValueFn:
        value = expr.value
        return lambda v, ctx: value

    def _v_Param(self, expr: Param) -> ValueFn:
        name = expr.name
        def fn(v, ctx):
            raise MethodError(
                "unbound method parameter %r (instantiate the method body "
                "before evaluating it)" % name)
        return fn

    def _v_Func(self, expr: Func) -> ValueFn:
        name = expr.name
        arg_fns = [self.value(a) for a in expr.args]
        def fn(v, ctx):
            values = [f(v, ctx) for f in arg_fns]
            for value in values:
                if value is DNE:
                    return DNE
            for value in values:
                if value is UNK:
                    return UNK
            ctx.tick("func_calls")
            return ctx.function(name)(*values)
        return fn

    # -- tuple operators ----------------------------------------------

    def _v_TupExtract(self, expr: TupExtract) -> ValueFn:
        field = expr.field
        src = self.value(expr.source)
        if src is _input_fn:
            def fn(v, ctx):
                if v is DNE or v is UNK:
                    return v
                if not isinstance(v, Tup):
                    if v is _UNBOUND:
                        return _input_fn(v, ctx)
                    raise AlgebraError(
                        "TUP_EXTRACT(%s) needs a tuple input, got %r"
                        % (field, v))
                return v[field]
            return fn
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Tup):
                raise AlgebraError(
                    "TUP_EXTRACT(%s) needs a tuple input, got %r"
                    % (field, value))
            return value[field]
        return fn

    def _v_Pi(self, expr: Pi) -> ValueFn:
        names = expr.names
        src = self.value(expr.source)
        if src is _input_fn:
            def fn(v, ctx):
                if v is DNE or v is UNK:
                    return v
                if not isinstance(v, Tup):
                    if v is _UNBOUND:
                        return _input_fn(v, ctx)
                    raise AlgebraError("π needs a tuple input, got %r" % (v,))
                return v.project(names)
            return fn
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Tup):
                raise AlgebraError("π needs a tuple input, got %r" % (value,))
            return value.project(names)
        return fn

    def _v_TupCat(self, expr: TupCat) -> ValueFn:
        lf = self.value(expr.left)
        rf = self.value(expr.right)
        def fn(v, ctx):
            lhs = lf(v, ctx)
            rhs = rf(v, ctx)
            if lhs is DNE or lhs is UNK:
                return lhs
            if rhs is DNE or rhs is UNK:
                return rhs
            if not isinstance(lhs, Tup) or not isinstance(rhs, Tup):
                raise AlgebraError("TUP_CAT needs two tuples")
            return lhs.concat(rhs)
        return fn

    def _v_TupCreate(self, expr: TupCreate) -> ValueFn:
        field = expr.field
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            return Tup._from_map({field: value})
        return fn

    # -- references & methods ------------------------------------------

    def _v_Deref(self, expr: Deref) -> ValueFn:
        src = self.value(expr.source)
        input_src = src is _input_fn
        def fn(v, ctx):
            if input_src:
                value = v if v is not _UNBOUND else _input_fn(v, ctx)
            else:
                value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Ref):
                raise AlgebraError("DEREF needs a reference, got %r" % (value,))
            if ctx.store is None:
                raise AlgebraError("DEREF needs an object store in the context")
            # cached_deref, inlined down to the OrderedDict: one deref
            # per element is the hot path of every functional join.
            cache = ctx.deref_cache
            if cache is None:
                cache = _fresh_cache(ctx)
            entries = cache._entries
            oid = value.oid
            found = entries.get(oid, _MISSING)
            if found is not _MISSING:
                cache.hits += 1
                entries.move_to_end(oid)
                return found
            cache.misses += 1
            found = ctx.store.get(oid, default=DNE)
            entries[oid] = found
            if len(entries) > cache.capacity:
                entries.popitem(last=False)
            return found
        return fn

    def _v_RefOp(self, expr: RefOp) -> ValueFn:
        src = self.value(expr.source)
        type_name = expr.type_name
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if ctx.store is None:
                raise AlgebraError("REF needs an object store in the context")
            existing = ctx.store.find_ref(value)
            if existing is not None:
                return existing
            return ctx.store.insert(value, type_name=type_name)
        return fn

    def _v_MethodCall(self, expr: MethodCall) -> ValueFn:
        name = expr.name
        args = list(expr.args)
        receiver_fn = self.value(expr.receiver)
        input_receiver = receiver_fn is _input_fn
        compiler = self
        compiled_bodies: Dict[str, ValueFn] = {}
        def fn(v, ctx):
            if ctx.methods is None:
                raise MethodError("no method registry in the context")
            if input_receiver:
                receiver = v if v is not _UNBOUND else _input_fn(v, ctx)
            else:
                receiver = receiver_fn(v, ctx)
            if receiver is DNE or receiver is UNK:
                return receiver
            exact = exact_type_of(receiver, ctx)
            if exact is None:
                raise MethodError(
                    "cannot dispatch %r: receiver %r has no exact type"
                    % (name, receiver))
            ctx.tick("method_dispatches")
            body_fn = compiled_bodies.get(exact)
            if body_fn is None:
                # bind_params + compile once per exact type; the
                # interpreter re-instantiates the body per receiver.
                # Bodies compile at dispatch time (possibly after the
                # plan's span tree is closed), so never under tracing.
                method = ctx.methods.resolve(exact, name)
                with compiler._no_trace():
                    body_fn = compiler.value(method.instantiate(args))
                compiled_bodies[exact] = body_fn
            if isinstance(receiver, Ref):
                # deref_count is accounted by the Pipeline's cache-stat
                # flush (one cache access per deref), like compiled DEREF.
                receiver = cached_deref(ctx, receiver.oid)
                if receiver is DNE:
                    return DNE
            return body_fn(receiver, ctx)
        return fn

    # -- predicates ----------------------------------------------------

    def pred(self, p: Predicate) -> Callable[[Any, EvalContext], str]:
        with self._no_trace():
            return self._pred_fn(p)

    def _pred_fn(self, p: Predicate) -> Callable[[Any, EvalContext], str]:
        if isinstance(p, Atom):
            return self._pred_atom(p)
        if isinstance(p, And):
            lf = self.pred(p.left)
            rf = self.pred(p.right)
            def fn(v, ctx):
                a = lf(v, ctx)
                b = rf(v, ctx)
                if a == F or b == F:
                    return F
                if a == U or b == U:
                    return U
                return T
            return fn
        if isinstance(p, Not):
            inner = self.pred(p.inner)
            return lambda v, ctx: kleene_not(inner(v, ctx))
        if isinstance(p, TruePred):
            return lambda v, ctx: T
        test = p.test
        self.note("INTERP predicate %s" % type(p).__name__)
        return lambda v, ctx: test(v, ctx)

    def _pred_atom(self, atom: Atom) -> Callable[[Any, EvalContext], str]:
        lf = self.value(atom.left)
        rf = self.value(atom.right)
        # Constant operands are bound at compile time; σ predicates are
        # overwhelmingly `path op literal`, so this halves the closure
        # calls per tested occurrence.
        lconst = isinstance(atom.left, Const)
        lval = atom.left.value if lconst else None
        rconst = isinstance(atom.right, Const)
        rval = atom.right.value if rconst else None
        op = atom.op
        def fn(v, ctx):
            lhs = lval if lconst else lf(v, ctx)
            rhs = rval if rconst else rf(v, ctx)
            stats = ctx.stats
            stats["atom_evals"] = stats.get("atom_evals", 0) + 1
            if lhs is DNE or rhs is DNE:
                return F
            if lhs is UNK or rhs is UNK:
                return U
            if op == "=":
                return T if lhs == rhs else F
            if op == "!=":
                return F if lhs == rhs else T
            if op == "in":
                if isinstance(rhs, MultiSet):
                    return T if lhs in rhs else F
                if isinstance(rhs, Arr):
                    return T if any(lhs == item for item in rhs) else F
                raise AlgebraError(
                    "'in' needs a multiset or array right operand, "
                    "got %r" % (rhs,))
            return _compare_scalars(op, lhs, rhs)
        return fn

    def _v_Comp(self, expr: Comp) -> ValueFn:
        src = self.value(expr.source)
        pred_fn = self.pred(expr.pred)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            ctx.tick("comp_evals")
            verdict = pred_fn(value, ctx)
            if verdict == T:
                return value
            if verdict == U:
                return UNK
            return DNE
        return fn

    # -- multiset operators (streaming) ---------------------------------

    def _s_SetApply(self, expr: SetApply) -> StreamFn:
        match = match_hash_join(expr)
        if match is not None:
            return self._hash_join(match)
        # Collapse the chain of adjacent SET_APPLYs into one stage list,
        # innermost stage first, then generate one driver for the whole
        # chain.  σ bodies (COMP over INPUT) become filter stages.
        nodes = []
        node: Expr = expr
        while (isinstance(node, SetApply)
               and (node is expr or match_hash_join(node) is None)):
            nodes.append(node)
            node = node.source
        nodes.reverse()
        if self.access_paths != "off" and isinstance(node, Named) and nodes:
            probe = _match_probe(nodes[0])
            absorbed = 0
            if (probe is None and len(nodes) >= 2
                    and nodes[0].type_filter is None
                    and not isinstance(nodes[0].body, Comp)):
                # Map absorption: the translator lowers ``s.f = c`` over
                # a ref range as map(DEREF) then σ; the probe key is the
                # σ key composed with the map body (paper rule 15), so a
                # key index on ``DEREF(INPUT).f`` serves the lookup.
                # The map stage itself still runs over the probe output.
                inner = _match_probe(nodes[1])
                if inner is not None and inner.kind != "typed":
                    probe = _ProbePlan(
                        inner.kind,
                        key=substitute_input(inner.key, nodes[0].body),
                        eq_const=inner.eq_const, bounds=inner.bounds,
                        pred=inner.pred)
                    absorbed = 1
            if probe is not None and self._approve_probe(node.name, probe):
                return self._indexed_apply(node, probe, nodes, absorbed)
        src = self.stream(node, "SET_APPLY needs a multiset input, got %r",
                          with_value=True)
        codegen = _FusedCodegen(self)
        with self._no_trace():
            # Stage bodies run per occurrence inside this operator's
            # span; they never open spans of their own.
            gen = codegen.build(nodes)
        self.note("FUSED_APPLY[%d stage(s), %d inlined] over %s"
                  % (len(nodes), codegen.inlined, type(node).__name__))
        def fn(v, ctx):
            chunks = src(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            return gen(chunks, ctx)
        return fn

    def _approve_probe(self, name: str, probe: _ProbePlan) -> bool:
        """Should a recognized probe shape actually be lowered?  Forced
        modes decide outright; in ``auto`` the cost model (when one is
        attached) prices probe vs. scan from catalog statistics and
        calibrated selectivities."""
        if self.access_paths == "force":
            return True
        model = self.cost_model
        if model is None or not hasattr(model, "choose_access_path"):
            return True
        choice = model.choose_access_path(name, kind=probe.kind,
                                          pred=probe.pred,
                                          types=probe.types)
        if choice == "scan":
            self.note("ACCESS_PATH[%s: cost model keeps the scan]" % name)
            return False
        return True

    def _indexed_apply(self, node: Named, probe: _ProbePlan,
                       nodes: List[SetApply],
                       absorbed: int = 0) -> StreamFn:
        """Lower a fused chain whose innermost stage is a recognized
        probe shape.  Compiles BOTH forms — the index probe feeding the
        rest of the chain, and the full fused scan — and picks per
        execution: the probe runs iff the context's catalog serves a
        live (or lazily rebuilt) index, so correctness never depends on
        catalog state at compile time."""
        name = node.name
        src = self.stream(node, "SET_APPLY needs a multiset input, got %r",
                          with_value=True)
        codegen = _FusedCodegen(self)
        with self._no_trace():
            scan_gen = codegen.build(nodes)
        if absorbed:
            # Keep the absorbed-through map stage; the σ above it (fully
            # answered by the probe) is dropped from the rest chain.
            rest = [nodes[0]] + list(nodes[2:])
        else:
            rest = list(nodes[1:])
            if probe.residual is not None:
                rest.insert(0, probe.residual)
        rest_gen = None
        if rest:
            rest_codegen = _FusedCodegen(self)
            with self._no_trace():
                rest_gen = rest_codegen.build(rest)
        self.note("FUSED_APPLY[%d stage(s), %d inlined] over %s"
                  % (len(nodes), codegen.inlined, type(node).__name__))
        if rest:
            self.note("FUSED_APPLY[%d stage(s), %d inlined] over index probe"
                      % (len(rest), rest_codegen.inlined))
        path_desc = probe.describe(name)
        self.note("INDEX_PROBE candidate[%s] with scan fallback"
                  % path_desc)
        span = (self._span_stack[-1]
                if self.trace and not self._suppress else None)
        key = probe.key
        if probe.kind == "eq":
            const = probe.eq_const

            def open_probe(catalog, ctx):
                index = catalog.probe_keyed(name, key)
                if index is None:
                    return None
                return index.probe(const)
        elif probe.kind == "range":
            bounds = probe.bounds

            def open_probe(catalog, ctx):
                index = catalog.probe_ordered(name, key)
                if index is None:
                    return None
                return index.probe_range(**bounds)
        else:
            types = probe.types

            def open_probe(catalog, ctx):
                index = catalog.probe_typed(name)
                if index is None:
                    return None
                return iter(index.lookup(types).items())

        def fn(v, ctx):
            catalog = getattr(ctx, "indexes", None)
            if catalog is not None:
                chunks = open_probe(catalog, ctx)
                if chunks is not None:
                    ctx.tick("index_lookups")
                    if span is not None:
                        span.meta["access_path"] = path_desc
                    if rest_gen is not None:
                        return rest_gen(chunks, ctx)
                    return chunks
            if span is not None:
                span.meta["access_path"] = "scan[%s]" % name
            chunks = src(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            return scan_gen(chunks, ctx)
        return fn

    def _hash_join(self, match: HashJoinMatch) -> StreamFn:
        lsrc = self.stream(match.left, "× needs two multisets")
        rsrc = self.stream(match.right, "× needs two multisets")
        with self._no_trace():
            lkey = self.value(match.left_key)
            rkey = self.value(match.right_key)
        self.note("HASH_JOIN[%s = %s]" % (match.pred.left.describe(),
                                          match.pred.right.describe()))
        left_name = (match.left.name
                     if isinstance(match.left, Named) else None)
        right_name = (match.right.name
                      if isinstance(match.right, Named) else None)
        inl_ok = (self.access_paths != "off"
                  and (left_name is not None or right_name is not None))
        if inl_ok:
            self.note("INL_JOIN candidate[%s] when a key index is live"
                      % " / ".join(n for n in (left_name, right_name)
                                   if n is not None))
        span = (self._span_stack[-1]
                if self.trace and not self._suppress else None)

        def gen(ls, rs, ctx):
            # Build on the right: key → [(element, count)].  dne keys
            # drop their element (the atom is F against everything);
            # unk keys make every pair with that element U.
            build: Dict[Any, list] = {}
            right_unk = 0
            right_live = 0  # occurrences whose key is not dne
            built = 0
            for b, nb in rs:
                built += nb
                k = rkey(b, ctx)
                if k is DNE:
                    continue
                right_live += nb
                if k is UNK:
                    right_unk += nb
                    continue
                bucket = build.get(k)
                if bucket is None:
                    bucket = build[k] = []
                bucket.append((b, nb))
            unk_total = 0
            probed = 0
            for a, na in ls:
                probed += na
                k = lkey(a, ctx)
                if k is DNE:
                    continue
                if k is UNK:
                    unk_total += na * right_live
                    continue
                if right_unk:
                    unk_total += na * right_unk
                bucket = build.get(k)
                if bucket is None:
                    continue
                for b, nb in bucket:
                    out = _flatten_pair(a, b)
                    if out is DNE:
                        continue
                    yield out, na * nb
            if unk_total:
                # U-verdict pairs: COMP yields unk, the flattener
                # propagates it, and the result multiset keeps it.
                yield UNK, unk_total
            ctx.tick("hash_join_build", built)
            ctx.tick("hash_join_probes", probed)

        def inl_gen(chunks, index, probe_key, indexed_right, ctx):
            # Index-nested-loop: the key index over one side replaces
            # the hash build; stream the other side and probe.  The unk
            # accounting reproduces the hash join's exactly — a pair is
            # U iff both keys are non-dne and at least one is unk — via
            # the index's live/unk occurrence totals.
            build_live = index.occurrences
            build_unk = index.unk_count
            unk_total = 0
            probed = 0
            for a, na in chunks:
                probed += na
                k = probe_key(a, ctx)
                if k is DNE:
                    continue
                if k is UNK:
                    unk_total += na * build_live
                    continue
                if build_unk:
                    unk_total += na * build_unk
                bucket = index.bucket(k)
                if not bucket:
                    continue
                for b, nb in bucket.items():
                    out = (_flatten_pair(a, b) if indexed_right
                           else _flatten_pair(b, a))
                    if out is DNE:
                        continue
                    yield out, na * nb
            if unk_total:
                yield UNK, unk_total
            ctx.tick("index_join_probes", probed)

        def fn(v, ctx):
            catalog = getattr(ctx, "indexes", None) if inl_ok else None
            if catalog is not None:
                left_idx = (catalog.probe_keyed(left_name, match.left_key,
                                                count=False)
                            if left_name is not None else None)
                right_idx = (catalog.probe_keyed(right_name, match.right_key,
                                                 count=False)
                             if right_name is not None else None)
                index = None
                if right_idx is not None and (
                        left_idx is None
                        or right_idx.occurrences >= left_idx.occurrences):
                    # Index the bigger side; stream (probe with) the
                    # other, like the hash join builds on the right.
                    index, probe_src, probe_key = right_idx, lsrc, lkey
                    indexed_right, indexed_name = True, right_name
                    catalog.record_probe("keyed", right_name,
                                         match.right_key)
                elif left_idx is not None:
                    index, probe_src, probe_key = left_idx, rsrc, rkey
                    indexed_right, indexed_name = False, left_name
                    catalog.record_probe("keyed", left_name, match.left_key)
                if index is not None:
                    chunks = probe_src(v, ctx)
                    if isinstance(chunks, Null):
                        return chunks
                    ctx.tick("index_lookups")
                    if span is not None:
                        span.meta["access_path"] = (
                            "index-nested-loop join[probe %s key index]"
                            % indexed_name)
                    return inl_gen(chunks, index, probe_key,
                                   indexed_right, ctx)
            ls = lsrc(v, ctx)
            rs = rsrc(v, ctx)
            if isinstance(ls, Null):
                return ls
            if isinstance(rs, Null):
                return rs
            if span is not None:
                span.meta["access_path"] = "hash join[build right]"
            return gen(ls, rs, ctx)
        return fn

    def _s_Grp(self, expr: Grp) -> StreamFn:
        with self._no_trace():
            key_fn = self.value(expr.by)
        src = self.stream(expr.source, "GRP needs a multiset input")

        def gen(chunks, ctx):
            groups: Dict[Any, Dict[Any, int]] = {}
            scanned = 0
            for element, count in chunks:
                scanned += count
                key = key_fn(element, ctx)
                if key is DNE:
                    continue
                bucket = groups.get(key)
                if bucket is None:
                    bucket = groups[key] = {}
                bucket[element] = bucket.get(element, 0) + count
            if scanned:
                ctx.tick("elements_scanned", scanned)
                ctx.tick("grp_elements", scanned)
            for bucket in groups.values():
                yield MultiSet._from_tally(bucket), 1

        def fn(v, ctx):
            chunks = src(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            return gen(chunks, ctx)
        return fn

    def _s_DE(self, expr: DE) -> StreamFn:
        src = self.stream(expr.source, "DE needs a multiset input")

        if self.facts is not None and self.facts.is_duplicate_free(expr.source):
            # License: the input provably carries each occurrence once,
            # so DE is the identity — drop the hash table but keep the
            # exact counter ticks the hashing operator would produce.
            self.note("DE[pass-through: input proven duplicate-free]")

            def gen_passthrough(chunks, ctx):
                # Captured at start: a late close (see _FusedCodegen)
                # must flush into THIS statement's stats.
                stats = ctx.stats
                total = 0
                try:
                    for element, count in chunks:
                        total += count
                        yield element, 1
                finally:
                    stats["elements_scanned"] = (
                        stats.get("elements_scanned", 0) + total)
                    stats["de_elements"] = (
                        stats.get("de_elements", 0) + total)

            def fn_passthrough(v, ctx):
                chunks = src(v, ctx)
                if isinstance(chunks, Null):
                    return chunks
                return gen_passthrough(chunks, ctx)
            return fn_passthrough

        def gen(chunks, ctx):
            stats = ctx.stats
            seen = set()
            add = seen.add
            total = 0
            try:
                for element, count in chunks:
                    total += count
                    if element not in seen:
                        add(element)
                        yield element, 1
            finally:
                # The interpreter's DE ticks before looping, so it always
                # creates the counters; mirror that even for empty inputs.
                # Flush into the stats dict captured at generator start
                # (never a later statement's dict — see _FusedCodegen).
                stats["elements_scanned"] = (
                    stats.get("elements_scanned", 0) + total)
                stats["de_elements"] = (
                    stats.get("de_elements", 0) + total)

        def fn(v, ctx):
            chunks = src(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            return gen(chunks, ctx)
        return fn

    def _s_AddUnion(self, expr: AddUnion) -> StreamFn:
        lf = self.stream(expr.left, "⊎ needs two multisets")
        rf = self.stream(expr.right, "⊎ needs two multisets")
        def fn(v, ctx):
            ls = lf(v, ctx)
            rs = rf(v, ctx)
            if isinstance(ls, Null):
                return ls
            if isinstance(rs, Null):
                return rs
            # Chunk streams are additive by construction: concatenation
            # IS ⊎, with zero hashing.
            return chain(ls, rs)
        return fn

    def _s_Diff(self, expr: Diff) -> StreamFn:
        lf = self.stream(expr.left, "− needs two multisets")
        rf = self.stream(expr.right, "− needs two multisets")

        def gen(ls, rs, ctx):
            right: Dict[Any, int] = {}
            for element, count in rs:
                right[element] = right.get(element, 0) + count
            # The left side streams through; `used` tracks how much of
            # the right-hand cardinality each element has absorbed so
            # repeated left chunks subtract correctly.
            used: Dict[Any, int] = {}
            for element, count in ls:
                held = right.get(element, 0)
                if held:
                    consumed = used.get(element, 0)
                    available = held - consumed
                    if available > 0:
                        take = available if available < count else count
                        used[element] = consumed + take
                        count -= take
                if count > 0:
                    yield element, count

        def fn(v, ctx):
            ls = lf(v, ctx)
            rs = rf(v, ctx)
            if isinstance(ls, Null):
                return ls
            if isinstance(rs, Null):
                return rs
            return gen(ls, rs, ctx)
        return fn

    def _s_Cross(self, expr: Cross) -> StreamFn:
        lf = self.stream(expr.left, "× needs two multisets")
        rf = self.stream(expr.right, "× needs two multisets")

        def gen(ls, rs, ctx):
            right: Dict[Any, int] = {}
            for element, count in rs:
                right[element] = right.get(element, 0) + count
            rtotal = sum(right.values())
            pairs = 0
            right_items = list(right.items())
            for a, na in ls:
                pairs += na * rtotal
                for b, nb in right_items:
                    yield Tup(field1=a, field2=b), na * nb
            ctx.tick("cross_pairs", pairs)

        def fn(v, ctx):
            ls = lf(v, ctx)
            rs = rf(v, ctx)
            if isinstance(ls, Null):
                return ls
            if isinstance(rs, Null):
                return rs
            return gen(ls, rs, ctx)
        return fn

    def _s_SetCollapse(self, expr: SetCollapse) -> StreamFn:
        src = self.stream(expr.source, "SET_COLLAPSE needs a multiset input")

        def gen(chunks, ctx):
            for element, count in chunks:
                if not isinstance(element, MultiSet):
                    raise TypeError(
                        "SET_COLLAPSE requires a multiset of multisets; "
                        "found %r" % (element,))
                for inner, m in element.items():
                    yield inner, count * m

        def fn(v, ctx):
            chunks = src(v, ctx)
            if isinstance(chunks, Null):
                return chunks
            return gen(chunks, ctx)
        return fn

    def _s_SetCreate(self, expr: SetCreate) -> StreamFn:
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            return iter(((value, 1),))
        return fn

    def _s_IndexedTypeScan(self, expr: IndexedTypeScan) -> StreamFn:
        name = expr.object_name
        types = expr.types
        use_index = self.access_paths != "off"
        span = (self._span_stack[-1]
                if self.trace and not self._suppress else None)

        def gen(collection, ctx):
            scanned = 0
            for element, count in collection.items():
                scanned += count
                if exact_type_of(element, ctx) in types:
                    yield element, count
            if scanned:
                ctx.tick("elements_scanned", scanned)

        def fn(v, ctx):
            catalog = getattr(ctx, "indexes", None) if use_index else None
            if catalog is not None:
                # probe_typed lazily rebuilds a stale partition snapshot
                # from its definition; falls through to the scan when no
                # typed index is defined for the name.
                index = catalog.probe_typed(name)
                if index is not None:
                    ctx.tick("index_lookups")
                    if span is not None:
                        span.meta["access_path"] = (
                            "index partition probe[%s: %s]"
                            % (name, "|".join(sorted(types))))
                    return iter(index.lookup(types).items())
            if span is not None:
                span.meta["access_path"] = "scan[%s]" % name
            collection = ctx.lookup(name)
            if not isinstance(collection, MultiSet):
                raise MethodError("IndexedTypeScan needs a multiset object")
            return gen(collection, ctx)
        return fn

    # Value forms of the streaming operators: materialize the chunks.

    def _v_SetApply(self, expr: SetApply) -> ValueFn:
        return self._materialize(self._s_SetApply(expr))

    def _v_Grp(self, expr: Grp) -> ValueFn:
        return self._materialize(self._s_Grp(expr))

    def _v_DE(self, expr: DE) -> ValueFn:
        return self._materialize(self._s_DE(expr))

    def _v_AddUnion(self, expr: AddUnion) -> ValueFn:
        return self._materialize(self._s_AddUnion(expr))

    def _v_Diff(self, expr: Diff) -> ValueFn:
        return self._materialize(self._s_Diff(expr))

    def _v_Cross(self, expr: Cross) -> ValueFn:
        return self._materialize(self._s_Cross(expr))

    def _v_SetCollapse(self, expr: SetCollapse) -> ValueFn:
        return self._materialize(self._s_SetCollapse(expr))

    def _v_IndexedTypeScan(self, expr: IndexedTypeScan) -> ValueFn:
        return self._materialize(self._s_IndexedTypeScan(expr))

    def _v_SetCreate(self, expr: SetCreate) -> ValueFn:
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            return MultiSet._from_tally({value: 1})
        return fn

    # -- array operators -----------------------------------------------

    def _v_ArrCreate(self, expr: ArrCreate) -> ValueFn:
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            return Arr([value])
        return fn

    def _v_ArrExtract(self, expr: ArrExtract) -> ValueFn:
        position = expr.position
        src = self.value(expr.source)
        if (self.sanitize is None and self.facts is not None
                and getattr(self.facts, "is_bounds_safe", None) is not None
                and self.facts.is_bounds_safe(expr)):
            # The analyzer proved the subscript in bounds for every
            # array the source can produce — skip the guard and index
            # the backing tuple directly.
            self.note("ARR_EXTRACT[%s] bounds check elided [static]"
                      % (position,))
            def elided(v, ctx):
                value = src(v, ctx)
                if value is DNE or value is UNK:
                    return value
                if not isinstance(value, Arr):
                    raise AlgebraError(
                        "ARR_EXTRACT needs an array, got %r" % (value,))
                where = len(value._items) if position == "last" \
                    else position
                return value._items[where - 1]
            return elided
        subscript_checks = None
        if self.sanitize is not None \
                and self.sanitize.is_bounds_safe(expr):
            subscript_checks = self.sanitize.runtime_checks(expr)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Arr):
                raise AlgebraError(
                    "ARR_EXTRACT needs an array, got %r" % (value,))
            where = len(value) if position == "last" else position
            if subscript_checks is not None:
                subscript_checks.check_subscript(where, len(value))
            if not 1 <= where <= len(value):
                return DNE
            return value.extract(where)
        return fn

    def _v_ArrApply(self, expr: ArrApply) -> ValueFn:
        with self._no_trace():
            body_fn = self.value(expr.body)
        src = self.value(expr.source)
        type_filter = expr.type_filter
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Arr):
                raise AlgebraError(
                    "ARR_APPLY needs an array, got %r" % (value,))
            out = []
            scanned = 0
            processed = 0
            for element in value:
                scanned += 1
                if type_filter is not None:
                    if exact_type_of(element, ctx) not in type_filter:
                        continue
                processed += 1
                result = body_fn(element, ctx)
                if result is DNE:
                    continue
                out.append(result)
            if scanned:
                ctx.tick("elements_scanned", scanned)
            if processed:
                ctx.tick("arr_apply_elements", processed)
            return Arr(out)
        return fn

    def _v_SubArr(self, expr: SubArr) -> ValueFn:
        lower, upper = expr.lower, expr.upper
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Arr):
                raise AlgebraError("SUBARR needs an array, got %r" % (value,))
            return value.subarr(lower, upper)
        return fn

    def _v_ArrCat(self, expr: ArrCat) -> ValueFn:
        lf = self.value(expr.left)
        rf = self.value(expr.right)
        def fn(v, ctx):
            lhs = lf(v, ctx)
            rhs = rf(v, ctx)
            if lhs is DNE or lhs is UNK:
                return lhs
            if rhs is DNE or rhs is UNK:
                return rhs
            if not isinstance(lhs, Arr) or not isinstance(rhs, Arr):
                raise AlgebraError("ARR_CAT needs two arrays")
            return lhs.concat(rhs)
        return fn

    def _v_ArrCollapse(self, expr: ArrCollapse) -> ValueFn:
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Arr):
                raise AlgebraError("ARR_COLLAPSE needs an array")
            out = []
            for element in value:
                if not isinstance(element, Arr):
                    raise AlgebraError(
                        "ARR_COLLAPSE needs an array of arrays; found %r"
                        % (element,))
                out.extend(element)
            return Arr(out)
        return fn

    def _v_ArrDiff(self, expr: ArrDiff) -> ValueFn:
        lf = self.value(expr.left)
        rf = self.value(expr.right)
        def fn(v, ctx):
            lhs = lf(v, ctx)
            rhs = rf(v, ctx)
            if lhs is DNE or lhs is UNK:
                return lhs
            if rhs is DNE or rhs is UNK:
                return rhs
            if not isinstance(lhs, Arr) or not isinstance(rhs, Arr):
                raise AlgebraError("ARR_DIFF needs two arrays")
            to_remove: Dict[Any, int] = {}
            for element in rhs:
                to_remove[element] = to_remove.get(element, 0) + 1
            out = []
            for element in lhs:
                if to_remove.get(element, 0) > 0:
                    to_remove[element] -= 1
                else:
                    out.append(element)
            return Arr(out)
        return fn

    def _v_ArrDE(self, expr: ArrDE) -> ValueFn:
        src = self.value(expr.source)
        def fn(v, ctx):
            value = src(v, ctx)
            if value is DNE or value is UNK:
                return value
            if not isinstance(value, Arr):
                raise AlgebraError("ARR_DE needs an array")
            ctx.tick("de_elements", len(value))
            seen = set()
            out = []
            for element in value:
                if element not in seen:
                    seen.add(element)
                    out.append(element)
            return Arr(out)
        return fn

    def _v_ArrCross(self, expr: ArrCross) -> ValueFn:
        lf = self.value(expr.left)
        rf = self.value(expr.right)
        def fn(v, ctx):
            lhs = lf(v, ctx)
            rhs = rf(v, ctx)
            if lhs is DNE or lhs is UNK:
                return lhs
            if rhs is DNE or rhs is UNK:
                return rhs
            if not isinstance(lhs, Arr) or not isinstance(rhs, Arr):
                raise AlgebraError("ARR_CROSS needs two arrays")
            ctx.tick("cross_pairs", len(lhs) * len(rhs))
            return Arr(Tup(field1=a, field2=b) for a in lhs for b in rhs)
        return fn


# ---------------------------------------------------------------------------
# Runtime span instrumentation (traced builds only)
# ---------------------------------------------------------------------------

def _traced_value(fn: ValueFn, span: Span) -> ValueFn:
    """Wrap a compiled value form: time each call, count results.

    A multiset result contributes its full cardinality to ``card_out``;
    a ``dne`` result counts as a discard (``dne_out``), matching the
    null-discipline bookkeeping the issue calls null-discard counts.
    """
    def traced(v: Any, ctx: EvalContext) -> Any:
        started = perf_counter()
        try:
            out = fn(v, ctx)
        finally:
            span.calls += 1
            span.wall += perf_counter() - started
        if out is DNE:
            span.dne_out += 1
        else:
            span.rows_out += 1
            span.card_out += len(out) if isinstance(out, MultiSet) else 1
        return out
    return traced


def _traced_chunks(chunks: Any, span: Span) -> Any:
    """Count and time a chunk stream as it is pulled.

    Only the producer's own ``next()`` time lands on the span (pulls
    nest, so a parent's wall is naturally inclusive of its children),
    and abandonment mid-stream simply stops counting — no ``finally``,
    so nothing fires at late garbage collection.
    """
    chunks = iter(chunks)
    while True:
        started = perf_counter()
        try:
            item = next(chunks)
        except StopIteration:
            span.wall += perf_counter() - started
            return
        span.wall += perf_counter() - started
        span.rows_out += 1
        span.card_out += item[1]
        yield item


def _traced_stream(fn: StreamFn, span: Span) -> StreamFn:
    def traced(v: Any, ctx: EvalContext) -> Any:
        started = perf_counter()
        try:
            chunks = fn(v, ctx)
        finally:
            span.calls += 1
            span.wall += perf_counter() - started
        if isinstance(chunks, Null):
            if chunks is DNE:
                span.dne_out += 1
            return chunks
        return _traced_chunks(chunks, span)
    return traced


# ---------------------------------------------------------------------------
# Sanitizer instrumentation (sanitize builds only)
# ---------------------------------------------------------------------------

def _sanitized_value(fn: ValueFn, checks: Any) -> ValueFn:
    """Wrap a compiled value form: assert the analyzer's facts about
    this node against every value it actually produces."""
    def sanitized(v: Any, ctx: EvalContext) -> Any:
        out = fn(v, ctx)
        checks.check_value(out)
        return out
    return sanitized


def _sanitized_stream(fn: StreamFn, checks: Any) -> StreamFn:
    """Wrap a compiled stream form: count the chunk stream and assert
    the proven cardinality interval (and duplicate-freedom claim) once
    the stream is exhausted."""
    def sanitized(v: Any, ctx: EvalContext) -> Any:
        chunks = fn(v, ctx)
        if isinstance(chunks, Null):
            checks.check_null_stream(chunks)
            return chunks
        return checks.watch_chunks(chunks)
    return sanitized


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

class Pipeline:
    """A compiled, reusable execution plan for one expression tree.

    ``execute(ctx)`` runs the plan against an evaluation context; the
    pipeline itself is stateless apart from per-exact-type method-body
    memoization, so it can be executed many times (the benchmarks
    compile once and execute per iteration, like a prepared statement).
    """

    def __init__(self, expr: Expr, run: ValueFn, notes: List[str],
                 trace_root: Optional[Span] = None):
        self.expr = expr
        self._run = run
        self.notes = tuple(notes)
        #: Root of the compile-time span tree (kind ``plan``) for traced
        #: builds, None otherwise.  Spans are bumped in place by runs,
        #: so a traced pipeline is per-statement, not a reusable
        #: prepared plan.
        self.trace_root = trace_root

    def execute(self, ctx: EvalContext, input_value: Any = _UNBOUND) -> Any:
        # Captured up front so the flush in ``finally`` reports into the
        # stats dict this run started under.
        stats = ctx.stats
        cache = ctx.deref_cache
        if cache is not None and ctx.store is not None:
            # The cache is keyed by the store's mutation version: if an
            # update/delete landed since the entries were read (and no
            # begin_query() intervened), they are stale — drop them.
            cache.validate(getattr(ctx.store, "version", None))
        hits0, misses0 = (cache.hits, cache.misses) if cache is not None \
            else (0, 0)
        try:
            return self._run(input_value, ctx)
        finally:
            # Compiled derefs bump plain integers on the cache; flush
            # the per-run deltas into the stats dict here (once), under
            # the counter names the interpreter and the benchmarks use.
            cache = ctx.deref_cache
            if cache is not None:
                hits = cache.hits - hits0
                misses = cache.misses - misses0
                if hits or misses:
                    stats["deref_count"] = (
                        stats.get("deref_count", 0) + hits + misses)
                if hits:
                    stats["deref_cache_hit"] = (
                        stats.get("deref_cache_hit", 0) + hits)
                if misses:
                    stats["deref_cache_miss"] = (
                        stats.get("deref_cache_miss", 0) + misses)

    def explain(self) -> str:
        """The physical choices the compiler made (fusion, hash joins)."""
        header = "compiled plan for %s" % self.expr.describe()
        return "\n".join([header] + ["  %s" % note for note in self.notes])

    def __repr__(self) -> str:
        return "<Pipeline %s (%d note(s))>" % (type(self.expr).__name__,
                                               len(self.notes))


def compile_plan(expr: Expr, ctx: "EvalContext | None" = None,
                 facts: Any = None, trace: bool = False,
                 cost_model: Any = None, access_paths: str = "auto",
                 sanitize: Any = None) -> Pipeline:
    """Lower *expr* into a streaming :class:`Pipeline`.

    *ctx* is accepted for signature symmetry with ``evaluate``;
    compilation itself is structural plus whatever *facts* license —
    e.g. verified duplicate-freedom turns DE into a pass-through.

    ``access_paths`` controls index-probe lowering: ``"auto"`` lowers
    recognized σ/typed/join shapes over named extents to catalog probes
    (with a per-execution scan fallback), letting *cost_model* veto
    unselective probes when one is attached; ``"force"`` always lowers;
    ``"off"`` compiles pure scans — the differential suites run force
    vs. off and demand bit-identical results.

    With *trace* on, the pipeline carries a span tree mirroring the
    physical plan in ``trace_root``, every run records per-operator
    wall time and output cardinalities into it, and each probe-capable
    operator stamps the access path it actually took into its span's
    ``meta`` (rendered by EXPLAIN ANALYZE).

    *sanitize* takes a ``PlanAnalysis`` (``repro.core.analysis.absint``)
    and flips the engine into sanitizer mode: instead of consuming the
    analyzer's licenses, every compiled closure asserts them at runtime
    — emitted cardinalities inside the proven interval, no subscript
    outside a proven bound, no duplicate where duplicate-freedom was
    claimed.  A violation raises ``SanitizerError`` and bumps the
    ``repro_sanitizer_violations_total`` counter.
    """
    compiler = PlanCompiler(facts=facts, trace=trace, cost_model=cost_model,
                            access_paths=access_paths, sanitize=sanitize)
    run = compiler.value(expr)
    return Pipeline(expr, run, compiler.notes,
                    trace_root=compiler.trace_root)
