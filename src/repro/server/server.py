"""The concurrent network server: many clients, one database.

Concurrency model (see DESIGN.md §11):

* The asyncio event loop owns accept, framing, dispatch, and all
  server bookkeeping — none of it is touched from worker threads
  except through ``call_soon_threadsafe``.
* **Reads** (scripts of side-effect-free retrieves) each take an MVCC
  snapshot (:meth:`~repro.storage.txn.TransactionManager.snapshot`)
  and evaluate on a bounded reader thread pool, so any number of
  clients read concurrently while writers keep committing.  Reader
  plans get the full treatment: statistics collected from the snapshot
  itself, the cost-based optimizer, and index probes against the
  snapshot's frozen :class:`~repro.storage.indexes.IndexCatalogView`
  (epoch-stamped, so a probe can never surface rows newer than the
  snapshot).  The statement pipeline (:mod:`repro.excess.pipeline`)
  caches prepared scripts per connection by (text, index epoch, options,
  ranges) — every commit, index DDL included, invalidates the cache.
* **Writes** are serialized through one writer thread.  The writer
  drains its queue up to ``max_batch`` jobs and executes the whole
  batch inside ``wal.group()`` — per-statement commits append to the
  log without fsyncing, and one ``sync_now()`` at batch end makes them
  all durable.  Client futures resolve only after that fsync
  (ack-after-fsync), so a crash can only lose writes nobody was told
  succeeded.  This is cross-connection group commit: N clients'
  autocommits cost one fsync.
* **Explicit transactions** (``txn: begin``) take the write mutex for
  the duration — the storage layer supports one active transaction —
  and every statement from that client (reads included, which must see
  its uncommitted writes) runs on the writer thread against the live
  database until commit/abort.  Disconnect aborts.
* **Admission control**: at most ``max_clients`` connections, at most
  ``queue_depth`` admitted-but-unfinished queries; excess requests get
  an immediate ``admission`` error rather than unbounded queueing.
* **Timeouts**: snapshot reads are cancelled cooperatively — the
  guarded snapshot raises at the next store access — and the client
  gets a ``timeout`` error as soon as the deadline passes.  A write
  still waiting in the queue at its deadline is skipped; one already
  executing runs to completion (a mutation cannot be abandoned
  mid-flight), so its response may arrive late rather than never.
* **Graceful shutdown** stops accepting, drains in-flight work (up to
  ``drain_timeout``), stops the writer, fsyncs the WAL, checkpoints a
  durable database, and closes every connection.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api import Connection, connect
from ..core.expr import EvalContext
from ..core.optimizer import CostModel, Optimizer
from ..options import ExecutionOptions
from ..excess import pipeline
from ..excess.pipeline import Result
from ..excess.translate import TranslationError
from ..lang import ParseError
from ..obs import Tracer
from ..obs.metrics import (SERVER_ADMISSION_REJECTS_TOTAL,
                           SERVER_CONNECTIONS_ACTIVE,
                           SERVER_CONNECTIONS_TOTAL, SERVER_ERRORS_TOTAL,
                           SERVER_GROUP_COMMIT_BATCH,
                           SERVER_INFLIGHT_QUERIES,
                           SERVER_QUERIES_QUEUED, SERVER_REQUESTS_TOTAL,
                           SERVER_TIMEOUTS_TOTAL)
from ..storage import Database
from ..storage.txn import TxnError
from .protocol import (ProtocolError, Request, bind_params, classify_source,
                       decode_request, encode_response, error_response,
                       result_response)

__all__ = ["Server", "ServerThread", "QueryTimeout"]

_MISSING = object()


class QueryTimeout(RuntimeError):
    """A query exceeded its deadline (or the server is shutting down)."""


class _Guard:
    """Cooperative cancellation token for one snapshot read."""

    __slots__ = ("deadline", "cancelled")

    def __init__(self, deadline: Optional[float]):
        self.deadline = deadline
        self.cancelled = threading.Event()

    def check(self) -> None:
        if self.cancelled.is_set():
            raise QueryTimeout("query cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout("query deadline exceeded")


class _GuardedStore:
    """A snapshot store that checks the guard on every access, so a
    cancelled reader dies at its next object fetch or extent scan."""

    def __init__(self, store, guard: _Guard):
        self._store = store
        self._guard = guard

    def get(self, oid, default=_MISSING):
        self._guard.check()
        if default is _MISSING:
            return self._store.get(oid)
        return self._store.get(oid, default)

    def exact_type(self, oid):
        self._guard.check()
        return self._store.exact_type(oid)

    def extent(self, type_name):
        self._guard.check()
        return self._store.extent(type_name)

    def extent_closure(self, type_name):
        self._guard.check()
        return self._store.extent_closure(type_name)

    def find_ref(self, value):
        self._guard.check()
        return self._store.find_ref(value)

    def insert(self, value, type_name=None):
        self._guard.check()
        return self._store.insert(value, type_name)

    def __contains__(self, oid):
        self._guard.check()
        return oid in self._store

    def __len__(self):
        return len(self._store)

    def __getattr__(self, name):
        # hierarchy / oids / version / snapshot_version pass through.
        return getattr(self._store, name)


class _GuardedNamed:
    """Named-object view with the same per-access guard check."""

    def __init__(self, named, guard: _Guard):
        self._named = named
        self._guard = guard

    def __getitem__(self, name):
        self._guard.check()
        return self._named[name]

    def get(self, name, default=None):
        self._guard.check()
        return self._named.get(name, default)

    def __contains__(self, name):
        return name in self._named

    def keys(self):
        return self._named.keys()

    def __iter__(self):
        return iter(self._named)


class _GuardedContext(EvalContext):
    """An evaluation context over a snapshot that dies with its guard:
    checked at every statement start (so a script of statements that
    never touch the store is cancellable too), object fetch, and
    extent scan."""

    def __init__(self, view, guard: _Guard):
        db = view.manager.db
        super().__init__(database=_GuardedNamed(view.named, guard),
                         store=_GuardedStore(view.store, guard),
                         functions=db.functions, methods=db.methods,
                         indexes=view.indexes)
        self._guard = guard

    def begin_query(self) -> None:
        self._guard.check()
        super().begin_query()


class _WriteJob:
    """One write script queued for the writer thread."""

    __slots__ = ("conn", "source", "future", "started", "cancelled")

    def __init__(self, conn: Connection, source: str,
                 future: "asyncio.Future"):
        self.conn = conn
        self.source = source
        self.future = future
        self.started = False
        self.cancelled = False


class _ClientState:
    """Per-connection bookkeeping on the event loop."""

    __slots__ = ("name", "conn", "in_txn", "plan_cache")

    def __init__(self, name: str, conn: Connection):
        self.name = name
        self.conn = conn
        self.in_txn = False
        self.plan_cache = pipeline.PlanCache()


class Server:
    """A multi-client server over one database.

    *database* accepts the same flavors as :func:`repro.connect`:
    ``None`` (fresh in-memory), a :class:`~repro.storage.Database`, a
    ``.json`` image path, or a durable directory (WAL + snapshot —
    the flavor that makes group commit observable).
    """

    def __init__(self, database: Union[Database, str, os.PathLike,
                                       None] = None,
                 options: Optional[ExecutionOptions] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_clients: int = 64, queue_depth: int = 64,
                 query_timeout: float = 30.0, drain_timeout: float = 5.0,
                 max_batch: int = 64, metrics_port: Optional[int] = None,
                 slow_query_threshold: Optional[float] = 0.1):
        self.host = host
        self.port = port
        # The admin connection opens the database, registers builtins
        # and the type system once, and supplies the shared optimizer +
        # slow-query log; per-client connections reuse both (only the
        # serialized writer thread ever optimizes, so sharing is safe).
        admin = connect(database, options,
                        slow_query_threshold=slow_query_threshold)
        self.db = admin.db
        self._optimizer = admin.session.optimizer
        self.slow_log = admin.slow_log
        # One ExecutionOptions for every connection the server opens.
        self.options = admin.options
        self.engine = self.options.engine
        self.max_clients = max_clients
        self.readers = self.options.readers or 8
        self.queue_depth = queue_depth
        self.query_timeout = query_timeout
        self.drain_timeout = drain_timeout
        self.max_batch = max_batch
        self.metrics_port = metrics_port
        self.slow_query_threshold = slow_query_threshold
        # MVCC needs a manager attached even for in-memory databases.
        self.manager = self.db.transactions()
        self._statistics = pipeline.SnapshotStatistics()
        self._clients: Dict[int, _ClientState] = {}
        self._client_ids = itertools.count(1)
        self._backlog = 0      # admitted but unfinished queries
        self._inflight = 0     # actually executing right now
        self._closing = False
        self._started = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._write_queue: Optional[asyncio.Queue] = None
        self._write_mutex: Optional[asyncio.Lock] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._write_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer")
        self._read_executor = ThreadPoolExecutor(
            max_workers=self.readers, thread_name_prefix="repro-reader")
        self.metrics_address: Optional[tuple] = None

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time operational snapshot (the /stats endpoint)."""
        return {
            "connections": len(self._clients),
            "backlog": self._backlog,
            "inflight": self._inflight,
            "queue_depth": self.queue_depth,
            "max_clients": self.max_clients,
            "closing": self._closing,
            "engine": self.engine,
            "readers": self.readers,
            "mvcc_version": self.manager.version,
            "index_epoch": self.manager.index_epoch,
        }

    def _set_gauges(self) -> None:
        SERVER_CONNECTIONS_ACTIVE.set(len(self._clients))
        SERVER_INFLIGHT_QUERIES.set(self._inflight)
        SERVER_QUERIES_QUEUED.set(max(0, self._backlog - self._inflight))

    # -- lifecycle -----------------------------------------------------

    async def serve(self, on_ready=None) -> None:
        """Listen, serve until shutdown is requested, then drain and
        stop.  *on_ready* (if given) is called with the server once the
        sockets are bound — ``self.port`` holds the real port by then."""
        self._loop = asyncio.get_running_loop()
        self._write_queue = asyncio.Queue()
        self._write_mutex = asyncio.Lock()
        self._shutdown_requested = asyncio.Event()
        tcp = await asyncio.start_server(self._handle_client,
                                         self.host, self.port)
        self.port = tcp.sockets[0].getsockname()[1]
        http = None
        if self.metrics_port is not None:
            from .http import MetricsHTTP
            http = MetricsHTTP(self, self.host, self.metrics_port)
            await http.start()
            self.metrics_address = http.address
        writer_task = asyncio.create_task(self._writer_loop())
        self._started = True
        try:
            if on_ready is not None:
                on_ready(self)
            await self._shutdown_requested.wait()
            self._closing = True
            tcp.close()
            await tcp.wait_closed()
            await self._drain()
            await self._stop_writer(writer_task)
            await self._flush_and_checkpoint()
        finally:
            self._closing = True
            tcp.close()
            if http is not None:
                await http.stop()
            self._write_executor.shutdown(wait=False)
            self._read_executor.shutdown(wait=False)

    def request_shutdown(self) -> None:
        """Begin graceful shutdown; safe from any thread or a signal
        handler (idempotent)."""
        loop = self._loop
        if loop is None or self._shutdown_requested is None:
            return
        loop.call_soon_threadsafe(self._shutdown_requested.set)

    async def _drain(self) -> None:
        deadline = time.monotonic() + self.drain_timeout
        while self._backlog > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        # A transaction stranded past the drain window is aborted so
        # the checkpoint below can run (its writes were never acked as
        # committed, so dropping them is correct).
        for state in list(self._clients.values()):
            if state.in_txn:
                await self._loop.run_in_executor(
                    self._write_executor, self._safe_abort, state.conn)
                state.in_txn = False
                self._release_write_mutex()

    async def _stop_writer(self, writer_task: "asyncio.Task") -> None:
        await self._write_queue.put(None)
        await writer_task

    async def _flush_and_checkpoint(self) -> None:
        def _finalize():
            if self.manager.wal is not None:
                self.manager.wal.sync_now()
            if (self.manager.snapshot_path is not None
                    and self.manager.active is None):
                self.manager.checkpoint()
        await self._loop.run_in_executor(self._write_executor, _finalize)

    @staticmethod
    def _safe_abort(conn: Connection) -> None:
        try:
            conn.abort()
        except TxnError:
            pass

    def _release_write_mutex(self) -> None:
        if self._write_mutex is not None and self._write_mutex.locked():
            self._write_mutex.release()

    def run(self, on_ready=None) -> None:
        """Blocking entry point with SIGINT/SIGTERM wired to graceful
        shutdown (the CLI's ``serve`` and ``python -m repro.server``).
        *on_ready* runs once listening, after the default announcement."""
        def _announce(server):
            print("repro.server listening on %s:%d%s"
                  % (server.host, server.port,
                     (" (metrics on :%d)" % server.metrics_address[1])
                     if server.metrics_address else ""), flush=True)
            if on_ready is not None:
                on_ready(server)

        async def main():
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass
            await self.serve(on_ready=_announce)

        asyncio.run(main())

    # -- connection handling -------------------------------------------

    async def _handle_client(self, reader: "asyncio.StreamReader",
                             writer: "asyncio.StreamWriter") -> None:
        if self._closing:
            writer.write(encode_response(error_response(
                "shutdown", "server is shutting down")))
            await _close_writer(writer)
            return
        if len(self._clients) >= self.max_clients:
            SERVER_ADMISSION_REJECTS_TOTAL.inc()
            SERVER_ERRORS_TOTAL.inc(code="admission")
            writer.write(encode_response(error_response(
                "admission", "too many clients (max %d)" % self.max_clients)))
            await _close_writer(writer)
            return
        cid = next(self._client_ids)
        name = "c%d" % cid
        conn = Connection(self.db, self.options,
                          optimizer=self._optimizer,
                          slow_query_threshold=self.slow_query_threshold)
        conn.slow_log = self.slow_log
        conn.client_id = name
        state = _ClientState(name, conn)
        self._clients[cid] = state
        SERVER_CONNECTIONS_TOTAL.inc()
        self._set_gauges()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_request(state, line)
                writer.write(encode_response(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if state.in_txn:
                await self._loop.run_in_executor(
                    self._write_executor, self._safe_abort, conn)
                state.in_txn = False
                self._release_write_mutex()
            self._clients.pop(cid, None)
            self._set_gauges()
            await _close_writer(writer)

    # -- request dispatch ----------------------------------------------

    async def _handle_request(self, state: _ClientState,
                              line: bytes) -> Dict[str, Any]:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            SERVER_ERRORS_TOTAL.inc(code=exc.code)
            return error_response(exc.code, str(exc))
        if self._closing:
            SERVER_ERRORS_TOTAL.inc(code="shutdown")
            return error_response("shutdown", "server is shutting down",
                                  request.id)
        try:
            source = (bind_params(request.q, request.params)
                      if request.q is not None else None)
        except ProtocolError as exc:
            SERVER_ERRORS_TOTAL.inc(code=exc.code)
            return error_response(exc.code, str(exc), request.id)
        timeout = min(request.timeout or self.query_timeout,
                      self.query_timeout)
        try:
            if request.txn is not None:
                return await self._handle_txn(state, request, source, timeout)
            return await self._handle_query(state, request, source, timeout)
        except Exception as exc:  # pragma: no cover - defensive belt
            SERVER_ERRORS_TOTAL.inc(code="execute")
            return error_response("execute", "%s: %s"
                                  % (type(exc).__name__, exc), request.id)

    async def _handle_txn(self, state: _ClientState, request: Request,
                          source: Optional[str],
                          timeout: float) -> Dict[str, Any]:
        SERVER_REQUESTS_TOTAL.inc(kind="txn")
        verb = request.txn
        conn = state.conn
        run = self._run_on_writer
        if verb == "begin":
            if state.in_txn:
                SERVER_ERRORS_TOTAL.inc(code="txn")
                return error_response("txn", "transaction already open",
                                      request.id)
            try:
                await asyncio.wait_for(self._write_mutex.acquire(), timeout)
            except asyncio.TimeoutError:
                SERVER_TIMEOUTS_TOTAL.inc()
                SERVER_ERRORS_TOTAL.inc(code="timeout")
                return error_response(
                    "timeout", "could not acquire the write lock",
                    request.id)
            try:
                await run(conn.begin)
                state.in_txn = True
                if source is not None:
                    results = await run(self._execute_script, conn, source)
                    return result_response(results, request.id)
                return result_response([], request.id)
            except Exception as exc:
                if not state.in_txn:
                    self._release_write_mutex()
                return self._map_error(exc, request.id)
        if verb == "atomic":
            if state.in_txn:
                # Already transactional: just run the script inside it.
                return await self._handle_query(state, request, source,
                                               timeout)
            try:
                await asyncio.wait_for(self._write_mutex.acquire(), timeout)
            except asyncio.TimeoutError:
                SERVER_TIMEOUTS_TOTAL.inc()
                SERVER_ERRORS_TOTAL.inc(code="timeout")
                return error_response(
                    "timeout", "could not acquire the write lock",
                    request.id)
            try:
                results = await run(self._run_atomic, conn, source)
                return result_response(results, request.id)
            except Exception as exc:
                return self._map_error(exc, request.id)
            finally:
                self._release_write_mutex()
        # commit / abort
        if not state.in_txn:
            SERVER_ERRORS_TOTAL.inc(code="txn")
            return error_response("txn", "no open transaction", request.id)
        try:
            results: List[Result] = []
            if source is not None:
                results = await run(self._execute_script, conn, source)
            if verb == "commit":
                await run(conn.commit)
            else:
                await run(self._safe_abort, conn)
            return result_response(results, request.id)
        except Exception as exc:
            await run(self._safe_abort, conn)
            return self._map_error(exc, request.id)
        finally:
            state.in_txn = False
            self._release_write_mutex()

    async def _handle_query(self, state: _ClientState, request: Request,
                            source: Optional[str],
                            timeout: float) -> Dict[str, Any]:
        if source is None:
            SERVER_ERRORS_TOTAL.inc(code="protocol")
            return error_response("protocol", 'request needs "q"',
                                  request.id)
        kind = "write" if state.in_txn else classify_source(source)
        SERVER_REQUESTS_TOTAL.inc(kind=kind)
        if request.explain and kind != "read":
            # Traced execution needs the snapshot read path; scripts
            # with side effects (or inside a transaction) run on the
            # writer against live state, where a per-request tracer
            # would race the connection's shared session.
            SERVER_ERRORS_TOTAL.inc(code="protocol")
            return error_response(
                "protocol", '"explain" is only supported for read-only '
                'scripts outside a transaction', request.id)
        if state.in_txn:
            # Statements inside an explicit transaction run on the
            # writer thread against the live database (they must see
            # the transaction's own uncommitted writes).
            try:
                results = await self._run_on_writer(
                    self._execute_script, state.conn, source)
                return result_response(results, request.id)
            except Exception as exc:
                return self._map_error(exc, request.id)
        if self._backlog >= self.queue_depth:
            SERVER_ADMISSION_REJECTS_TOTAL.inc()
            SERVER_ERRORS_TOTAL.inc(code="admission")
            return error_response(
                "admission", "server is saturated (queue depth %d)"
                % self.queue_depth, request.id)
        self._backlog += 1
        self._set_gauges()
        if kind == "read":
            return await self._dispatch_read(state, request, source, timeout)
        return await self._dispatch_write(state, request, source, timeout)

    def _map_error(self, exc: Exception, request_id: Any) -> Dict[str, Any]:
        if isinstance(exc, QueryTimeout):
            code = "timeout"
            SERVER_TIMEOUTS_TOTAL.inc()
        elif isinstance(exc, (ParseError, TranslationError)):
            code = "parse"
        elif isinstance(exc, TxnError):
            code = "txn"
        else:
            code = "execute"
        SERVER_ERRORS_TOTAL.inc(code=code)
        return error_response(code, "%s: %s" % (type(exc).__name__, exc),
                              request_id)

    # -- read path ------------------------------------------------------

    async def _dispatch_read(self, state: _ClientState, request: Request,
                             source: str, timeout: float) -> Dict[str, Any]:
        guard = _Guard(time.monotonic() + timeout)
        self._inflight += 1
        self._set_gauges()
        future = self._loop.run_in_executor(
            self._read_executor, self._execute_read, state, source,
            guard, request.explain)
        future.add_done_callback(
            lambda f: self._loop.call_soon_threadsafe(self._read_done, f))
        try:
            results, explain_text = await asyncio.wait_for(
                asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            guard.cancelled.set()
            SERVER_TIMEOUTS_TOTAL.inc()
            SERVER_ERRORS_TOTAL.inc(code="timeout")
            return error_response(
                "timeout", "query exceeded %.3fs" % timeout, request.id)
        except Exception as exc:
            return self._map_error(exc, request.id)
        return result_response(results, request.id, explain=explain_text)

    def _read_done(self, future) -> None:
        self._backlog -= 1
        self._inflight -= 1
        self._set_gauges()
        if not future.cancelled():
            future.exception()  # swallow: the handler already responded

    def _execute_read(self, state: _ClientState, source: str,
                      guard: _Guard, explain: bool = False
                      ) -> Tuple[List[Result], Optional[str]]:
        """Reader-thread body: run a read-only script through the
        statement pipeline against a guarded MVCC snapshot.

        The snapshot is the catalog — names, data, statistics and the
        frozen index view — so plan choice, checks, compilation, and
        execution see one epoch; a plan-cache hit at that epoch skips
        parse, optimize and compile entirely.  With *explain*, the
        script runs under a per-request tracer (which keeps it out of
        the cache) and the last retrieve's plan is rendered with the
        snapshot cost model — the one the local ``.analyze`` builds —
        so ``via index probe[...]`` / ``via scan[...]`` annotations
        survive the wire.
        """
        conn = state.conn
        view = self.manager.snapshot()
        ctx = _GuardedContext(view, guard)
        if explain:
            ctx.tracer = Tracer(enabled=True)
            ctx.tracer.client_id = conn.client_id
        results = pipeline.observed(
            lambda: pipeline.run_script(
                source, view, ctx, conn.session.ranges,
                self.options,
                lambda: self._reader_optimizer(view),
                cache=state.plan_cache),
            self.slow_log, conn.client_id)
        if explain:
            model = self._reader_optimizer(view).cost_model
            for result in reversed(results):
                if result.trace is not None:
                    return results, result.explain(cost_model=model)
        return results, None

    def _reader_optimizer(self, view) -> Optimizer:
        """The reader's optimizer for *view*: per-epoch snapshot
        statistics under a cost model that prices probes against the
        snapshot's frozen catalog, and a search budget small enough for
        the request path."""
        model = CostModel(self._statistics.of(view), engine=self.engine,
                          indexes=view.indexes)
        return Optimizer(cost_model=model, max_depth=3, max_trees=500)

    # -- write path -----------------------------------------------------

    async def _dispatch_write(self, state: _ClientState, request: Request,
                              source: str, timeout: float) -> Dict[str, Any]:
        job = _WriteJob(state.conn, source, self._loop.create_future())
        await self._write_queue.put(job)
        try:
            results = await asyncio.wait_for(asyncio.shield(job.future),
                                             timeout)
        except asyncio.TimeoutError:
            if job.started:
                # The mutation is already executing; it cannot be
                # abandoned, so ride it out and answer late.
                try:
                    results = await job.future
                except Exception as exc:
                    return self._map_error(exc, request.id)
                return result_response(results, request.id)
            job.cancelled = True
            SERVER_TIMEOUTS_TOTAL.inc()
            SERVER_ERRORS_TOTAL.inc(code="timeout")
            return error_response(
                "timeout", "write timed out after %.3fs in queue" % timeout,
                request.id)
        except Exception as exc:
            return self._map_error(exc, request.id)
        return result_response(results, request.id)

    async def _writer_loop(self) -> None:
        """Drain the write queue into group-committed batches."""
        while True:
            job = await self._write_queue.get()
            if job is None:
                return
            batch = [job]
            while len(batch) < self.max_batch:
                try:
                    extra = self._write_queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    self._write_queue.put_nowait(None)
                    break
                batch.append(extra)
            live = len([j for j in batch if not j.cancelled])
            self._inflight += live
            self._set_gauges()
            async with self._write_mutex:
                await self._loop.run_in_executor(
                    self._write_executor, self._run_batch, batch)

    def _run_batch(self, batch: List[_WriteJob]) -> None:
        """Writer-thread body: execute every job's script (autocommit
        per statement) with per-commit fsyncs suspended, fsync once,
        then resolve the futures — ack strictly after durability."""
        outcomes = []
        executed = 0
        wal = self.manager.wal
        group = wal.group() if wal is not None else nullcontext()
        with group:
            for job in batch:
                if job.cancelled:
                    outcomes.append((job, None, None))
                    continue
                job.started = True
                executed += 1
                try:
                    result = job.conn.execute(job.source)
                    outcomes.append((job, result.all, None))
                except Exception as exc:
                    outcomes.append((job, None, exc))
        if executed:
            SERVER_GROUP_COMMIT_BATCH.observe(executed)
        self._loop.call_soon_threadsafe(self._batch_done, outcomes)

    def _batch_done(self, outcomes) -> None:
        for job, results, exc in outcomes:
            self._backlog -= 1
            if job.started:
                self._inflight -= 1
            if job.future.done():
                continue
            if exc is not None:
                job.future.set_exception(exc)
                # The handler may have timed out already; mark retrieved.
                job.future.exception()
            elif results is not None:
                job.future.set_result(results)
            else:
                job.future.cancel()
        self._set_gauges()

    # -- writer-thread helpers ------------------------------------------

    async def _run_on_writer(self, fn, *args):
        return await self._loop.run_in_executor(self._write_executor,
                                                fn, *args)

    @staticmethod
    def _execute_script(conn: Connection, source: str) -> List[Result]:
        result = conn.execute(source)
        return result.all

    def _run_atomic(self, conn: Connection, source: str) -> List[Result]:
        conn.begin()
        try:
            results = self._execute_script(conn, source)
        except BaseException:
            self._safe_abort(conn)
            raise
        conn.commit()
        return results


async def _close_writer(writer: "asyncio.StreamWriter") -> None:
    try:
        await writer.drain()
    except ConnectionError:
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


class ServerThread:
    """Run a :class:`Server` on a daemon thread — the harness tests,
    the smoke script, and the benchmark all use this to host a server
    inside the driving process."""

    def __init__(self, server: Server):
        self.server = server
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-server", daemon=True)

    def _main(self) -> None:
        try:
            asyncio.run(self.server.serve(
                on_ready=lambda _s: self._ready.set()))
        except BaseException as exc:  # pragma: no cover - surfaced below
            self._error = exc
        finally:
            self._ready.set()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start within %.1fs" % timeout)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not stop within %.1fs" % timeout)
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
