"""The statement pipeline: the one path from EXCESS source to results.

::

    source ─statements()─▶ statement ─prepare()─▶ Step ─execute()─▶ Result
                │                        │
      DDL runs as it is met     translate → optimize → analyze
      (DDLInterpreter)          → verify → lower

:func:`run_script` drives it for every caller — ``Session.run`` (and so
``Connection.execute`` and the server's writer), the server's snapshot
readers, and its ``explain: "analyze"`` reader — and :func:`observed`
is the single feed of the query metrics and the slow-query log.

**Updates.**  ``append``/``delete``/``replace`` are Steps like any
retrieve: the translator builds the statement's *delta plan* over the
target collection, which is optimized, checked and lowered the same
way.  ``execute`` makes one storage call,
:meth:`~repro.storage.Database.apply_delta`, which evaluates the whole
delta against the pre-statement state and then applies it, both inside
the statement's implicit transaction.

**Catalog.**  ``prepare`` reads names, data and indexes from a
*catalog*: the live :class:`~repro.storage.Database`, or an MVCC
:class:`~repro.storage.txn.SnapshotView` of it (whose type registry,
functions and methods are the live database's — those are unversioned).

**What is cacheable.**  Statement *n*'s translation depends on
statement *n−1*'s effect (a type just defined, a collection just
created), so a script is prepared and run one statement at a time.
Only when every statement :func:`reads_only` can the prepared
:class:`Step` list be replayed — that list is what :class:`PlanCache`
stores, stamped with the catalog's ``version``.  Traced plans carry
per-run span state and never enter it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from copy import copy
from time import perf_counter
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)

from ..core.expr import EvalContext, Expr, lower, run_plan
from ..core.optimizer import Optimizer, Statistics, prune_statically_empty
from ..core.values import Arr, MultiSet
from ..lang import Lexer
from ..obs import QueryStats, SlowQueryLog, Span, Tracer
from ..obs.metrics import (DEREF_CACHE_HITS_TOTAL, DEREF_CACHE_MISSES_TOTAL,
                           QUERIES_TOTAL, QUERY_ERRORS_TOTAL, QUERY_SECONDS,
                           REWRITE_FIRES_TOTAL, REWRITE_SECONDS_TOTAL,
                           SERVER_PLAN_CACHE_HITS, SERVER_PLAN_CACHE_MISSES,
                           SLOW_QUERIES_TOTAL, Counter)
from ..options import CHECKS, ExecutionOptions
from . import ast
from .parser import Parser
from .translate import TranslationError, Translator

__all__ = ["DDL", "PlanCache", "Result", "SnapshotStatistics", "Step",
           "execute", "observed", "prepare", "reads_only", "run_script",
           "statements"]

#: What :func:`statements` yields in place of a DDL statement.
DDL = "ddl"


class Result:
    """The outcome of one executed statement — the same self-describing
    shape for retrieve, append, delete, and replace, on either engine.

    * ``value`` — the raw algebra value (a MultiSet for retrieves, the
      appended multiset / changed count for updates, None for DDL);
    * ``rows()`` — the value flattened to a plain list, occurrence
      counts expanded;
    * ``stats`` — a typed :class:`~repro.obs.QueryStats` snapshot of
      this statement's work counters alone (``begin_query()`` runs per
      statement, so counters never leak across statements); it compares
      equal to the raw counter dict;
    * ``trace`` — the statement's root :class:`~repro.obs.Span` when it
      ran under an enabled tracer, else None;
    * ``explain()`` — the plan (annotated with actuals when a trace was
      recorded).
    """

    def __init__(self, statement: Any, expression: Optional[Expr],
                 value: Any = None, into: Optional[str] = None,
                 stats: Optional[Dict[str, int]] = None,
                 trace: Optional[Span] = None, engine: str = "",
                 seconds: float = 0.0, analysis: Any = None):
        self.statement = statement
        self.expression = expression
        self.value = value
        self.into = into
        self.stats = (stats if isinstance(stats, QueryStats)
                      else QueryStats.from_counters(stats or {}))
        self.trace = trace
        self.engine = engine
        self.seconds = seconds
        #: The :class:`~repro.core.analysis.absint.PlanAnalysis` of the
        #: executed tree when it ran with ``analyze``/``sanitize`` on;
        #: ``explain()`` uses it to print proven ``static [lo..hi]``
        #: cardinality bounds next to the estimates.
        self.analysis = analysis

    @property
    def kind(self) -> str:
        """``retrieve`` / ``append`` / ``delete`` / ``replace`` /
        ``ddl`` / ``range``."""
        if isinstance(self.statement, str):
            return self.statement
        if isinstance(self.statement, ast.RangeDecl):
            return "range"
        return type(self.statement).__name__.lower()

    def rows(self) -> List[Any]:
        """The value as a flat list (multiset counts expanded)."""
        if self.value is None:
            return []
        if isinstance(self.value, (MultiSet, Arr)):
            return list(self.value)     # a MultiSet iterates occurrences
        return [self.value]

    def explain(self, cost_model: Any = None) -> str:
        """The statement's plan, one operator per line.

        With a recorded trace, this is EXPLAIN ANALYZE: actual per-
        operator cardinalities and wall time, plus estimated-vs-actual
        deviation when *cost_model* is given.  Without one it falls
        back to the static plan rendering.
        """
        # Imported on use, like the analysis layer below: ``import repro``
        # stays light for processes that never explain or check a plan.
        from ..core.explain import explain, explain_analyze
        if self.trace is not None:
            return explain_analyze(self.trace, cost_model=cost_model,
                                   analysis=self.analysis)
        if self.expression is not None:
            return explain(self.expression, cost_model)
        return "(no plan: %s statement)" % self.kind

    def __repr__(self) -> str:
        if self.into:
            return "<Result into %s: %r>" % (self.into, self.value)
        return "<Result %r>" % (self.value,)



def statements(source: str, ddl: Any = None) -> Iterator[Any]:
    """The statements of a mixed DDL/DML script, parsed one at a time
    over one :class:`~repro.lang.Lexer`.

    DML statements are yielded as AST nodes.  A DDL statement
    (``define`` / ``create``) is parsed *and executed* by *ddl* — an
    :class:`~repro.extra.ddl.DDLInterpreter`, whose parser does both in
    one step — and yielded as :data:`DDL`; with no interpreter, the
    iteration ends at that marker (nothing else can skip the statement).
    """
    lexer = Lexer(source)
    parser = Parser(lexer)
    while not lexer.at_end():
        if lexer.peek().is_word("define", "create"):
            if ddl is not None:
                ddl.run_statement(lexer)
            yield DDL
            if ddl is None:
                return
        else:
            yield parser.parse_statement()


def reads_only(statement: Any) -> bool:
    """True for the side-effect-free statements: range declarations and
    retrieves without ``into``.  A script of nothing else is a *read*
    (it may run on a snapshot, and its prepared steps may be cached)."""
    return (isinstance(statement, ast.RangeDecl)
            or (isinstance(statement, ast.Retrieve) and not statement.into))



class Step(NamedTuple):
    """One prepared statement — the element of a plan-cache value.

    A range declaration carries only its ``statement``; a retrieve or
    an update adds the optimized ``expr`` (an update's delta plan), the
    physical ``plan`` lowered from it (None on the interpreter, which
    walks ``expr``), the ``analysis`` whose proofs the plan was licensed
    by, the translator's ``result_type`` for a retrieve's ``into``, and
    ``into``: the name the value is stored under, a retrieve's ``into``
    or an update's target collection.
    """

    statement: Any
    expr: Optional[Expr] = None
    plan: Any = None
    analysis: Any = None
    result_type: Any = None
    into: Optional[str] = None


def _optimize(expr: Expr, optimizer: Optimizer,
              tracer: Optional[Tracer]) -> Expr:
    """Run the optimizer, recording an ``optimize`` span with one child
    span per transformation rule (matcher calls, fires, and time) when
    tracing is on."""
    if tracer is None:
        return optimizer.optimize(expr).best
    span = tracer.start_span("optimize", kind="rule")
    assert span is not None     # the tracer is enabled
    previous = optimizer.collect_rule_stats
    optimizer.collect_rule_stats = True
    started = perf_counter()
    try:
        outcome = optimizer.optimize(expr)
    finally:
        optimizer.collect_rule_stats = previous
        span.calls = 1
        span.wall = perf_counter() - started
        tracer.finish(span)
    span.meta["explored"] = outcome.explored
    span.meta["steps"] = list(outcome.steps)
    for name, row in sorted((outcome.rule_stats or {}).items()):
        child = span.child(name, kind="rule")
        child.calls = row["calls"]
        child.wall = row["seconds"]
        child.meta["fires"] = row["fires"]
        if row["fires"]:
            REWRITE_FIRES_TOTAL.inc(row["fires"], rule=name)
        REWRITE_SECONDS_TOTAL.inc(row["seconds"], rule=name)
    return outcome.best


def _analyze(expr: Expr, catalog: Any, statistics: Optional[Statistics],
             sanitize: bool) -> Tuple[Expr, Any]:
    """Abstract-interpret *expr* and fold the proofs back into the
    plan: statically-empty subtrees are replaced by literal empty
    collections (never under the sanitizer, whose whole point is to
    execute and check the original operators), and the returned
    analysis is re-run whenever pruning produced a new tree so its
    id-keyed facts match the nodes actually executed."""
    from ..core.analysis.absint import analyze
    analysis = analyze(expr, database=catalog, statistics=statistics)
    if not sanitize:
        pruned = prune_statically_empty(expr, analysis)
        if pruned is not expr:
            expr = pruned
            analysis = analyze(expr, database=catalog,
                               statistics=statistics)
    return expr, analysis


def prepare(statement: Any, catalog: Any,
            ranges: Dict[str, str], options: ExecutionOptions,
            optimizer: Optional[Optimizer], optimize: bool = True,
            tracer: Optional[Tracer] = None) -> Step:
    """Translate → optimize → analyze → verify → lower, against
    *catalog*.

    A range declaration is checked and bound into *ranges* here, since
    the next statement's translation needs it.  An update goes the
    retrieve's way with its delta plan as the tree.  *optimizer*
    carries the cost model (which prices probes against the catalog's
    indexes) and the search budget; with none, or with *optimize* off,
    the translated tree runs as written.  A *tracer* makes the plan a
    traced one: good for one run, under that tracer.  The analyze and
    verify steps run when ``options.checks`` reaches their level in
    :data:`~repro.options.CHECKS`.
    """
    if isinstance(statement, ast.RangeDecl):
        for var, collection in statement.bindings:
            if collection not in catalog:
                raise TranslationError(
                    "range over unknown object %r" % collection)
            ranges[var] = collection
        return Step(statement)
    translator = Translator(catalog, ranges)
    result_type = None
    if isinstance(statement, ast.Retrieve):
        expr, result_type = translator.translate_retrieve(statement)
        into = statement.into
    else:
        expr, into = translator.translate_update(statement)
    if optimize and optimizer is not None:
        expr = _optimize(expr, optimizer, tracer)
    model = optimizer.cost_model if optimizer is not None else None
    level = CHECKS.index(options.checks)
    sanitize = options.checks == "sanitize"
    analysis = None
    if level >= CHECKS.index("analyze"):
        expr, analysis = _analyze(expr, catalog,
                                  model.stats if model is not None else None,
                                  sanitize)
    facts = None
    if level >= CHECKS.index("verify"):
        from ..core.analysis import (facts_for_database,
                                     inference_for_database)
        inference_for_database(catalog).check(expr)
        if options.engine == "compiled":
            facts = facts_for_database(catalog)
    if analysis is not None and model is not None:
        # Proven cardinality bounds clamp the estimates that choose this
        # plan's access paths — on a copy: the model is the caller's.
        model = copy(model)
        model.bounds = analysis.bounds_map()
    plan = lower(expr, options.engine, trace=tracer is not None,
                 facts=facts, cost_model=model,
                 access_paths=options.access_paths, analysis=analysis,
                 sanitize=sanitize)
    return Step(statement, expr, plan, analysis, result_type, into)



def execute(step: Step, catalog: Any, ctx: EvalContext,
            ranges: Dict[str, str]) -> Result:
    """Run one prepared step in *ctx*: a range declaration is bound
    into *ranges* (again, when the step is replayed from a cache); a
    retrieve runs its plan with fresh work counters and, with ``into``,
    stores its value in *catalog*; an update is one storage call, which
    evaluates the whole delta, then applies it."""
    statement = step.statement
    if step.expr is None:
        ranges.update(statement.bindings)
        return Result(statement, None)
    ctx.begin_query()
    if not isinstance(statement, ast.Retrieve):
        value = catalog.apply_delta(
            type(statement).__name__.lower(), step.into,
            lambda: run_plan(step.expr, step.plan, ctx))
    else:
        value = run_plan(step.expr, step.plan, ctx)
        if step.into:
            # The declared type first: ``create`` then advances the
            # catalog's version past both changes.
            if step.result_type is not None:
                catalog.created_types[step.into] = step.result_type
            catalog.create(step.into, value)
    return Result(statement, step.expr, value, step.into,
                  stats=ctx.stats, analysis=step.analysis)


def _timed(kind: str, tracer: Optional[Tracer], engine: str,
           run: Callable[..., Result], *args: Any) -> Result:
    """Run one DML statement under a wall clock and, with a *tracer*,
    a statement root span.

    The root is opened before *run* so the optimizer's rule spans and
    the engines' plan/operator spans nest under it; the finished tree
    lands on ``Result.trace``.
    """
    if tracer is not None:
        tracer.begin(kind, kind="statement")
    started = perf_counter()
    try:
        result = run(*args)
    finally:
        elapsed = perf_counter() - started
        root = tracer.end() if tracer is not None else None
    result.seconds = elapsed
    result.engine = engine
    if root is not None:
        root.calls = 1
        root.wall = elapsed
        root.rows_out = 1 if result.value is not None else 0
        if isinstance(result.value, MultiSet):
            root.card_out = len(result.value)
        result.trace = root
    return result



class PlanCache:
    """An LRU of prepared read scripts at one catalog epoch.

    Keys carry everything that shapes the plans besides the catalog:
    (script source, execution options less ``trace``, range bindings).
    The catalog dimension is the **epoch** the script was prepared at —
    ``catalog.version``: a snapshot's commit version on a server
    reader, :attr:`repro.storage.Database.version` on a local session.
    The cache holds plans for exactly one epoch and clears itself the
    first time it is consulted at another, so every change to data,
    schema, methods, functions or index definitions invalidates
    wholesale.  Plans consult ``ctx.indexes`` at run time, so a cached
    plan re-executes correctly against any state of the same epoch.
    *hits* and *misses* are the counters :meth:`get` feeds (the server
    reader's by default).
    """

    __slots__ = ("capacity", "entries", "epoch", "lock", "hits", "misses")

    def __init__(self, capacity: int = 64, *,
                 hits: Counter = SERVER_PLAN_CACHE_HITS,
                 misses: Counter = SERVER_PLAN_CACHE_MISSES):
        self.capacity = capacity
        self.entries: "OrderedDict[Tuple[Any, ...], List[Step]]" = \
            OrderedDict()
        self.epoch: Optional[int] = None
        self.lock = threading.Lock()
        self.hits = hits
        self.misses = misses

    def _roll(self, epoch: int) -> None:
        if epoch != self.epoch:
            self.entries.clear()
            self.epoch = epoch

    def clear(self) -> None:
        """Drop every entry (the plans' optimizer was replaced)."""
        with self.lock:
            self.entries.clear()

    def get(self, key: Tuple[Any, ...],
            epoch: int) -> Optional[List[Step]]:
        with self.lock:
            self._roll(epoch)
            steps = self.entries.get(key)
            if steps is not None:
                self.entries.move_to_end(key)
        (self.misses if steps is None else self.hits).inc()
        return steps

    def put(self, key: Tuple[Any, ...], epoch: int,
            steps: List[Step]) -> None:
        with self.lock:
            self._roll(epoch)
            self.entries[key] = steps
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)


class SnapshotStatistics:
    """Collection statistics of a snapshot, memoized per index epoch:
    equal epochs imply identical visible data, so every reader
    preparing at the same epoch shares one pass.  The pass walks the
    snapshot, never the live tables, so it is safe off the writer
    thread; racing readers may both compute, and the (epoch, stats)
    tuple swap is GIL-atomic."""

    _memo: Optional[Tuple[int, Statistics]] = None

    def of(self, view: Any) -> Statistics:
        memo = self._memo
        if memo is None or memo[0] != view.version:
            memo = self._memo = (view.version,
                                 Statistics.from_database(view))
        return memo[1]


def run_script(source: str, catalog: Any, ctx: EvalContext,
               ranges: Dict[str, str], options: ExecutionOptions,
               optimizer: Callable[[], Optional[Optimizer]], *,
               optimize: bool = True, ddl: Any = None,
               cache: Optional[PlanCache] = None) -> List[Result]:
    """Execute a script; one :class:`Result` per statement.

    *catalog* is read for names, data and indexes; *ctx* evaluates over
    the same state; *ranges* are the connection's sticky ``range of``
    bindings.  *optimizer* is called at most once, and only if
    something has to be prepared.  *ddl* — the
    :class:`~repro.extra.ddl.DDLInterpreter` of the live database — runs
    DDL; without one (a snapshot reader) DDL and updates are refused.
    With a *cache*, *catalog* must carry its epoch as ``version`` (see
    :class:`PlanCache`): a read script prepared at this epoch is
    replayed with no prepare work at all, and one prepared now is
    stored.  Traced and unoptimized runs neither consult nor fill the
    cache.
    """
    engine = options.engine
    # One check per script: None unless tracing is on.
    tracer: Optional[Tracer] = ctx.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None
    key = None
    if cache is not None and tracer is None and optimize:
        key = (source,
               options.replace(trace=False) if options.trace else options,
               tuple(sorted(ranges.items())))
        # The epoch the steps are prepared at: a read may still move a
        # live catalog's version (REF minting inserts), and a plan
        # stored under the later value would claim to have seen that.
        epoch = catalog.version
        cached = cache.get(key, epoch)
        if cached is not None:
            return [_run(step, catalog, ctx, ranges, engine, None)
                    for step in cached]
    planner = optimizer()
    steps: List[Step] = []

    def run(statement: Any) -> Result:
        step = prepare(statement, catalog, ranges, options, planner,
                       optimize, tracer)
        steps.append(step)
        return execute(step, catalog, ctx, ranges)

    results: List[Result] = []
    for statement in statements(source, ddl):
        if not reads_only(statement):
            key = None
            if ddl is None:
                raise TranslationError(
                    "a snapshot reader runs only range declarations and "
                    "retrieves without 'into'")
        if statement is DDL:
            results.append(Result(DDL, None, engine=engine))
        elif isinstance(statement, ast.RangeDecl):
            steps.append(prepare(statement, catalog, ranges, options, None))
            results.append(_run(steps[-1], catalog, ctx, ranges, engine,
                                tracer))
        else:
            results.append(_timed(type(statement).__name__.lower(), tracer,
                                  engine, run, statement))
    if key is not None:
        cache.put(key, epoch, steps)
    return results


def _run(step: Step, catalog: Any, ctx: EvalContext, ranges: Dict[str, str],
         engine: str, tracer: Optional[Tracer]) -> Result:
    """Execute a step that is already prepared: a retrieve under the
    statement clock, a range declaration (instantaneous) without."""
    if step.expr is None:
        result = execute(step, catalog, ctx, ranges)
        result.engine = engine
        return result
    return _timed("retrieve", tracer, engine, execute, step, catalog, ctx,
                  ranges)


def observed(run: Callable[[], List[Result]],
             slow_log: SlowQueryLog, client: str = "") -> List[Result]:
    """Call *run* (one script's execution) and feed its outcome to the
    process-wide instruments: statement and error counts, the latency
    histogram (failures included), deref-cache traffic, and — per
    statement over its threshold — *slow_log*, attributed to
    *client*."""
    started = perf_counter()
    try:
        results = run()
    except Exception:
        QUERY_ERRORS_TOTAL.inc()
        QUERY_SECONDS.observe(perf_counter() - started)
        raise
    QUERIES_TOTAL.inc(max(len(results), 1))
    QUERY_SECONDS.observe(perf_counter() - started)
    for result in results:
        if result.stats.deref_cache_hit:
            DEREF_CACHE_HITS_TOTAL.inc(result.stats.deref_cache_hit)
        if result.stats.deref_cache_miss:
            DEREF_CACHE_MISSES_TOTAL.inc(result.stats.deref_cache_miss)
        if result.seconds and slow_log.slow(result.seconds):
            statement = result.statement
            slow_log.observe(
                "(%s)" % statement if isinstance(statement, str)
                else repr(statement), result.seconds,
                stats=result.stats.as_dict(), engine=result.engine,
                client=client)
            SLOW_QUERIES_TOTAL.inc()
    return results
