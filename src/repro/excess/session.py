"""EXCESS sessions: one entry point for DDL + DML, optionally optimized.

A :class:`Session` holds the sticky pieces of an interactive EXCESS
connection — the live database, the ``range of`` declarations, the
evaluation context, one :class:`~repro.options.ExecutionOptions` value,
the plan cache, the DDL interpreter — and runs scripts through the
statement pipeline (:mod:`repro.excess.pipeline`), updates included.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.expr import Expr
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
            lambda: self.optimizer, optimize=optimize, ddl=self.ddl,
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
