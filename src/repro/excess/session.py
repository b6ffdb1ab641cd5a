"""EXCESS sessions: one entry point for DDL + DML, optionally optimized.

A :class:`Session` holds the sticky pieces of an interactive EXCESS
connection — the live database, the ``range of`` declarations, the
evaluation context, one :class:`~repro.options.ExecutionOptions` value —
and runs scripts through the statement pipeline
(:mod:`repro.excess.pipeline`), which calls back here for what only the
owner of the live database can do: DDL and the update statements.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.expr import Expr, evaluate
from ..core.optimizer import Optimizer
from ..obs.metrics import (CONNECTION_PLAN_CACHE_HITS,
                           CONNECTION_PLAN_CACHE_MISSES)
from ..options import ExecutionOptions
from ..extra.ddl import DDLInterpreter, ensure_type_system
from . import ast, pipeline
from .builtins import register_builtins
from .parser import Parser
from .pipeline import Result
from .translate import TranslationError, Translator

__all__ = ["Result", "Session"]


class Session:
    """An EXCESS session over a live database.

    *options* is how statements execute unless :meth:`run` is handed an
    override; *optimizer* (cost model + search budget) is consulted
    when a script runs with ``optimize`` on.  Optimized read scripts
    are prepared once per :attr:`~repro.storage.Database.version` into
    the session's :class:`~repro.excess.pipeline.PlanCache`; assigning
    a new optimizer drops it.  :func:`repro.connect` builds a session
    with tracing, metrics and a slow-query log around it.
    """

    def __init__(self, database,
                 options: Optional[ExecutionOptions] = None,
                 optimizer: Optional[Optimizer] = None):
        self.db = database
        ensure_type_system(database)
        register_builtins(database)
        self.ranges: Dict[str, str] = {}
        self.options = options if options is not None else ExecutionOptions()
        self.plan_cache = pipeline.PlanCache(
            hits=CONNECTION_PLAN_CACHE_HITS,
            misses=CONNECTION_PLAN_CACHE_MISSES)
        self.optimizer = optimizer
        # One evaluation context for the whole session: the deref cache
        # and stats live here, reset per statement via begin_query().
        self.context = database.context()
        self.ddl = DDLInterpreter(database,
                                  function_translator=self._translate_function)

    @property
    def optimizer(self) -> Optional[Optimizer]:
        return self._optimizer

    @optimizer.setter
    def optimizer(self, optimizer: Optional[Optimizer]) -> None:
        # Cached plans were chosen by the previous optimizer.
        self._optimizer = optimizer
        self.plan_cache.clear()

    # -- translation --------------------------------------------------------

    def translator(self) -> Translator:
        return Translator(self.db, self.ranges)

    def _translate_function(self, definition) -> None:
        self.translator().translate_function(definition)

    def translate(self, statement: ast.Retrieve) -> Expr:
        """EXCESS retrieve AST → algebra tree (no execution)."""
        expr, _ = self.translator().translate_retrieve(statement)
        return expr

    def compile(self, source: str) -> Expr:
        """Source of a single retrieve statement → algebra tree."""
        statements = Parser(source).parse_statements()
        retrieves = [s for s in statements if isinstance(s, ast.Retrieve)]
        if len(retrieves) != 1:
            raise TranslationError(
                "compile() expects exactly one retrieve statement")
        for statement in statements:
            if isinstance(statement, ast.RangeDecl):
                for var, collection in statement.bindings:
                    self.ranges[var] = collection
        return self.translate(retrieves[0])

    # -- execution --------------------------------------------------------

    def run(self, source: str, optimize: bool = False,
            options: Optional[ExecutionOptions] = None) -> List[Result]:
        """Execute a mixed DDL/DML script; returns one Result per
        statement.  *options* overrides the session's for this call."""
        return pipeline.run_script(
            source, self.db, self.context, self.ranges,
            options if options is not None else self.options,
            lambda: self.optimizer, optimize=optimize, session=self,
            cache=self.plan_cache)

    # -- transactions -------------------------------------------------------

    def begin(self) -> int:
        """Begin an explicit transaction (statements batch until commit
        or abort; a manager is attached to the database on first use)."""
        return self.db.begin()

    def commit(self) -> None:
        self.db.commit()

    def abort(self) -> None:
        self.db.abort()

    def savepoint(self, name: Optional[str] = None) -> str:
        return self.db.transactions().savepoint(name)

    def rollback_to(self, name: str) -> None:
        self.db.transactions().rollback_to(name)

    def snapshot(self):
        """A stable read view of the committed database (see
        :meth:`repro.storage.txn.TransactionManager.snapshot`)."""
        return self.db.transactions().snapshot()

    def run_update(self, statement,
                   options: ExecutionOptions) -> Result:
        """Run one append / delete / replace, wrapped in an implicit
        transaction when a manager is attached and no explicit one is
        open — so a multi-object statement (replace over a whole
        extent, say) commits as one WAL group instead of per-element
        autocommits, and a mid-statement error rolls the statement
        back whole."""
        manager = self.db.txn
        implicit = manager is not None and manager.active is None
        if implicit:
            manager.begin()
        try:
            if isinstance(statement, ast.Append):
                result = self._run_append(statement, options)
            elif isinstance(statement, ast.Delete):
                result = self._run_delete(statement)
            else:
                result = self._run_replace(statement)
        except BaseException:
            if implicit:
                manager.abort()
            raise
        if implicit:
            manager.commit()
        return result

    # -- update statements -------------------------------------------------

    def _run_append(self, statement: ast.Append,
                    options: ExecutionOptions) -> Result:
        """append to C (…): evaluate like a retrieve, ⊎ into C.

        When C is declared ``{ ref T }`` and the computed elements are
        plain structures, they are inserted into the store first and
        their fresh references appended — the EXCESS way to create
        objects with identity.
        """
        from ..core.values import MultiSet, Ref, Tup
        from ..extra.types import RefType, SetType
        collection = statement.collection
        existing = self.db.get(collection)
        if not isinstance(existing, MultiSet):
            raise TranslationError(
                "append target %r is not a multiset" % collection)
        retrieve = ast.Retrieve(statement.targets, statement.from_clauses,
                                statement.where,
                                value_mode=statement.value_mode)
        expr, _ = self.translator().translate_retrieve(retrieve)
        self.context.begin_query()
        value = evaluate(expr, self.context, mode=options.engine,
                         cost_model=(self.optimizer.cost_model
                                     if self.optimizer is not None else None),
                         access_paths=options.access_paths)
        addition = value if isinstance(value, MultiSet) else MultiSet([value])

        declared = getattr(self.db, "created_types", {}).get(collection)
        if (isinstance(declared, SetType)
                and isinstance(declared.element, RefType)):
            target_type = declared.element.target
            converted = []
            for element in addition:
                if isinstance(element, Ref):
                    converted.append(element)
                else:
                    exact = (element.type_name if isinstance(element, Tup)
                             and element.type_name else target_type)
                    converted.append(self.db.store.insert(element, exact))
            addition = MultiSet(converted)
        self.db.create(collection, existing.add_union(addition))
        return Result(statement, expr, addition, collection,
                      stats=self.context.stats)

    def _element_filter(self, var: str, collection: str,
                        where: Optional[ast.Pred]):
        """A per-element qualification test compiled through the
        translator (so paths, implicit set-variables, and methods all
        work inside update predicates)."""
        from ..core.values import DNE, MultiSet, Ref
        from ..extra.types import NamedType, RefType
        from .translate import Scope, _QueryState

        translator = self.translator()
        elem_type = translator.collection_elem_type(collection)
        if isinstance(elem_type, RefType):
            elem_type = NamedType(elem_type.target)
        scope = Scope(bare=var, types={var: elem_type})
        stmt = ast.Retrieve([ast.Target(ast.Name(var))], (), where,
                            value_mode=True)
        expr, _ = _QueryState(translator, stmt, scope).build()
        # Evaluate predicates in the session context so their work
        # lands in this statement's counters (begin_query() has reset
        # them by the time the closures run).
        ctx = self.context

        def view(element):
            if isinstance(element, Ref):
                return self.db.store.get(element.oid, default=DNE)
            return element

        def qualifies(element) -> bool:
            if where is None:
                return True
            result = expr.evaluate(view(element), ctx)
            if result is DNE:
                return False
            if isinstance(result, MultiSet):
                return len(result) > 0
            return True

        return view, qualifies

    def _collection_for_var(self, var: str) -> str:
        if var in self.ranges:
            return self.ranges[var]
        if var in self.db:
            return var
        raise TranslationError(
            "%r is neither a range variable nor a named object" % var)

    def _run_delete(self, statement: ast.Delete) -> Result:
        from ..core.values import MultiSet
        collection = self._collection_for_var(statement.var)
        existing = self.db.get(collection)
        if not isinstance(existing, MultiSet):
            raise TranslationError(
                "delete target %r is not a multiset" % collection)
        _, qualifies = self._element_filter(statement.var, collection,
                                            statement.where)
        self.context.begin_query()
        kept = {element: count
                for element, count in existing.items()
                if not qualifies(element)}
        removed = len(existing) - sum(kept.values())
        self.db.create(collection, MultiSet(counts=kept))
        return Result(statement, None, removed, collection,
                      stats=self.context.stats)

    def _run_replace(self, statement: ast.Replace) -> Result:
        """replace V (f = e, …) [where P].

        Reference collections update the referenced objects in place —
        identity preserved, so every other reference observes the new
        value; value collections get their occurrences replaced.
        """
        from ..core.values import MultiSet, Ref, Tup
        collection = self._collection_for_var(statement.var)
        existing = self.db.get(collection)
        if not isinstance(existing, MultiSet):
            raise TranslationError(
                "replace target %r is not a multiset" % collection)
        view, qualifies = self._element_filter(statement.var, collection,
                                               statement.where)
        translator = self.translator()
        from ..extra.types import NamedType, RefType
        from .translate import Scope, _QueryState
        elem_type = translator.collection_elem_type(collection)
        if isinstance(elem_type, RefType):
            elem_type = NamedType(elem_type.target)
        scope = Scope(bare=statement.var, types={statement.var: elem_type})
        compiled = []
        for field, value_ast in statement.assignments:
            stmt = ast.Retrieve([ast.Target(value_ast)], (), None,
                                value_mode=True)
            expr, _ = _QueryState(translator, stmt, scope).build()
            compiled.append((field, expr))
        ctx = self.context
        self.context.begin_query()
        changed = 0
        out = {}
        for element, count in existing.items():
            if not qualifies(element):
                out[element] = out.get(element, 0) + count
                continue
            old = view(element)
            if not isinstance(old, Tup):
                raise TranslationError(
                    "replace needs tuple-valued elements, got %r" % (old,))
            updates = {field: expr.evaluate(old, ctx)
                       for field, expr in compiled}
            new_value = old.replace(**updates)
            changed += count
            if isinstance(element, Ref):
                self.db.store.update(element.oid, new_value)
                out[element] = out.get(element, 0) + count
            else:
                out[new_value] = out.get(new_value, 0) + count
        self.db.create(collection, MultiSet(counts=out))
        return Result(statement, None, changed, collection,
                      stats=self.context.stats)
