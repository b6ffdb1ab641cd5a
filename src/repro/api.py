"""The public entry point: ``repro.connect(...) -> Connection``.

One constructor that covers every way a database can exist — in
memory, as a crash-safe JSON image, or as a durable directory with a
write-ahead log — and one ``execute()`` that covers every statement
kind on either engine, returning a uniform self-describing
:class:`~repro.excess.session.Result`.

Observability is wired here: each Connection owns a
:class:`~repro.obs.Tracer` (spans flow to ``Result.trace`` and
``Result.explain()``) and a :class:`~repro.obs.SlowQueryLog`, and every
``execute()`` feeds the process-wide metrics registry (through
:func:`repro.excess.pipeline.observed`).
"""

from __future__ import annotations

import os
from typing import Any, Optional, Union

from .core.optimizer import CostModel, Optimizer, Statistics
from .excess import pipeline
from .excess.session import Result, Session
from .obs import SlowQueryLog, Tracer
from .options import ExecutionOptions
from .storage import Database, load_database, open_database

__all__ = ["Connection", "ExecutionOptions", "connect"]


class Connection:
    """A live handle on a database: session, tracer, slow-query log.

    Use :func:`connect` to obtain one.  The underlying
    :class:`~repro.excess.session.Session` stays reachable as
    ``connection.session`` for range declarations, explicit
    transactions, and other session-level state.
    """

    def __init__(self, database: Database,
                 options: Optional[ExecutionOptions] = None, *,
                 optimizer: Optional[Optimizer] = None,
                 slow_query_threshold: Optional[float] = 0.1):
        self.db = database
        self.session = Session(database, options, optimizer)
        if optimizer is None:
            self.session.optimizer = Optimizer(
                cost_model=CostModel(Statistics.from_database(database),
                                     engine=self.engine,
                                     indexes=database.indexes))
        self.tracer = Tracer(enabled=self.tracing)
        # Every layer reads the tracer from its evaluation context; the
        # database carries it too so storage-side spans (WAL commits)
        # land in the same tree.
        self.session.context.tracer = self.tracer
        database.tracer = self.tracer
        self.slow_log = SlowQueryLog(threshold=slow_query_threshold)
        self._source: Optional[str] = None
        self._closed = False
        self._client_id = ""

    # -- lifecycle ----------------------------------------------------------

    @property
    def engine(self) -> str:
        return self.session.options.engine

    @property
    def options(self) -> ExecutionOptions:
        """The connection's execution switches (the session's one
        :class:`ExecutionOptions` value); assign to change them."""
        return self.session.options

    @options.setter
    def options(self, options: ExecutionOptions) -> None:
        self.session.options = options
        self.tracer.enabled = options.trace

    @property
    def tracing(self) -> bool:
        return self.options.trace

    @tracing.setter
    def tracing(self, on: bool) -> None:
        self.options = self.options.replace(trace=bool(on))

    @property
    def client_id(self) -> str:
        """Connection identifier stamped into slow-query-log entries
        and trace spans (set by the network server, e.g. ``"c3"``, so
        load attributes to clients); empty for local connections."""
        return self._client_id

    @client_id.setter
    def client_id(self, value: str) -> None:
        self._client_id = str(value)
        self.tracer.client_id = self._client_id

    def close(self) -> None:
        """Release the WAL handle of a durable database (idempotent)."""
        if self._closed:
            return
        self._closed = True
        wal = getattr(getattr(self.db, "journal", None), "wal", None)
        if wal is not None:
            wal.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self._source or "in-memory"
        return "<Connection %s engine=%s%s>" % (
            where, self.engine, " tracing" if self.tracing else "")

    # -- execution ----------------------------------------------------------

    def execute(self, source: str, *,
                options: Optional[ExecutionOptions] = None,
                optimize: bool = True) -> Result:
        """Run a mixed DDL/DML script; returns the last statement's
        :class:`Result` (all of them on ``result.all``).

        ``options=`` overrides the connection's execution switches for
        this call alone — e.g. ``conn.execute(q,
        options=conn.options.replace(engine="batched"))`` runs one
        statement on the batched engine.  The override travels
        down the pipeline as an argument; the connection's own options
        are never touched.  (The optimizer keeps the connection's cost
        model; only execution switches swap.)

        Each statement is timed into the process-wide latency histogram
        and, when over the connection's threshold, the slow-query log.
        """
        if self._closed:
            raise RuntimeError("connection is closed")
        # Every layer asks the tracer itself whether to record, so an
        # override's ``trace`` flips that one switch for the call.
        if options is not None:
            self.tracer.enabled = options.trace
        try:
            results = pipeline.observed(
                lambda: self.session.run(source, optimize=optimize,
                                         options=options),
                self.slow_log, self._client_id)
        finally:
            self.tracer.enabled = self.tracing
        last = (results[-1] if results
                else Result("empty", None, engine=self.engine))
        last.all = results
        return last

    # -- transactions (delegated) ------------------------------------------

    def begin(self) -> int:
        return self.session.begin()

    def commit(self) -> None:
        self.session.commit()

    def abort(self) -> None:
        self.session.abort()


def connect(database: Union[Database, str, os.PathLike, None] = None,
            options: Optional[ExecutionOptions] = None, *,
            optimizer: Optional[Optimizer] = None,
            slow_query_threshold: Optional[float] = 0.1) -> Connection:
    """Open a :class:`Connection`.

    *database* selects the storage flavor:

    * ``None`` — a fresh in-memory :class:`~repro.storage.Database`;
    * a :class:`~repro.storage.Database` — wrapped as-is;
    * a path ending in ``.json`` — a crash-safe image via
      :func:`~repro.storage.load_database`;
    * any other path — a durable directory (created on first use) with
      a write-ahead log via :func:`~repro.storage.open_database`.

    *options* is one :class:`~repro.options.ExecutionOptions` value
    carrying every execution switch (engine, checks, tracing, batch and
    access-path shaping — each documented on that class); the default
    is the compiled engine with every check off.
    Override per statement with ``conn.execute(source, options=...)``.
    """
    path: Optional[str] = None
    if database is None:
        db = Database()
    elif isinstance(database, Database):
        db = database
    else:
        path = os.fspath(database)
        db = (load_database(path) if path.endswith(".json")
              else open_database(path))
    conn = Connection(db, options, optimizer=optimizer,
                      slow_query_threshold=slow_query_threshold)
    conn._source = path
    return conn
