"""Blocking client for the network server, plus a small thread-safe
connection pool.

:class:`ServerClient` speaks the newline-delimited JSON protocol over
one socket; ``execute()`` is the round trip, and the split
``send()``/``recv()`` pair lets callers pipeline requests (the smoke
script and the benchmark use that to demonstrate admission control and
group commit).  :class:`ClientPool` hands out pooled clients to many
threads.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional

from ..core.serialize import value_from_json

__all__ = ["ServerClient", "ServerError", "ServerResult", "ClientPool"]


class ServerError(RuntimeError):
    """An error response from the server (``code`` is the protocol
    error code: parse/execute/txn/timeout/admission/shutdown/protocol)."""

    def __init__(self, code: str, message: str, request_id: Any = None):
        super().__init__("[%s] %s" % (code, message))
        self.code = code
        self.message = message
        self.id = request_id


class ServerResult:
    """One decoded success response."""

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload

    @property
    def kind(self) -> str:
        return self.payload.get("kind", "empty")

    @property
    def statements(self) -> int:
        return self.payload.get("statements", 0)

    @property
    def seconds(self) -> float:
        return self.payload.get("seconds", 0.0)

    @property
    def stats(self) -> Dict[str, Any]:
        return self.payload.get("stats", {})

    @property
    def raw_rows(self) -> List[Any]:
        """The last statement's rows, still in tagged-JSON form —
        byte-stable, which the differential tests compare directly."""
        return self.payload.get("rows", [])

    def rows(self) -> List[Any]:
        """The last statement's rows as algebra values (Tup/Ref/…)."""
        return [value_from_json(row) for row in self.raw_rows]

    @property
    def explain(self) -> Optional[str]:
        """The EXPLAIN ANALYZE text, when the request asked for it."""
        return self.payload.get("explain")

    @property
    def id(self) -> Any:
        return self.payload.get("id")

    def __repr__(self) -> str:
        return "<ServerResult %s rows=%d>" % (self.kind, len(self.raw_rows))


class ServerClient:
    """A blocking connection to the server.

    Not thread-safe — one client per thread (or use
    :class:`ClientPool`).  Usable as a context manager.
    """

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: Optional[float] = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._closed = False

    # -- low-level pipelined API ---------------------------------------

    def send(self, q: Optional[str] = None, *,
             params: Optional[Dict[str, Any]] = None,
             txn: Optional[str] = None, timeout: Optional[float] = None,
             request_id: Any = None, explain: bool = False) -> None:
        """Write one request without waiting for the response."""
        payload: Dict[str, Any] = {}
        if q is not None:
            payload["q"] = q
        if params:
            payload["params"] = params
        if txn is not None:
            payload["txn"] = txn
        if timeout is not None:
            payload["timeout"] = timeout
        if request_id is not None:
            payload["id"] = request_id
        if explain:
            payload["explain"] = "analyze"
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def recv(self) -> ServerResult:
        """Read one response; raises :class:`ServerError` on failure."""
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # The server went away mid-line: a dropped connection, so a
            # pool lease discards this client instead of reusing it.
            raise ConnectionError("server closed the connection "
                                  "mid-response")
        payload = json.loads(line.decode("utf-8"))
        if not payload.get("ok"):
            error = payload.get("error") or {}
            raise ServerError(error.get("code", "execute"),
                              error.get("message", "unknown error"),
                              payload.get("id"))
        return ServerResult(payload)

    # -- round trips ----------------------------------------------------

    def execute(self, q: str, *, params: Optional[Dict[str, Any]] = None,
                txn: Optional[str] = None, timeout: Optional[float] = None,
                explain: bool = False) -> ServerResult:
        self.send(q, params=params, txn=txn, timeout=timeout,
                  explain=explain)
        return self.recv()

    def analyze(self, q: str, *,
                params: Optional[Dict[str, Any]] = None) -> str:
        """EXPLAIN ANALYZE a read-only script: run it under tracing on
        the server and return the last statement's annotated plan text
        (same rendering as the local CLI's ``.analyze``)."""
        result = self.execute(q, params=params, explain=True)
        return result.explain or ""

    def begin(self, q: Optional[str] = None) -> ServerResult:
        self.send(q, txn="begin")
        return self.recv()

    def commit(self, q: Optional[str] = None) -> ServerResult:
        self.send(q, txn="commit")
        return self.recv()

    def abort(self) -> ServerResult:
        self.send(txn="abort")
        return self.recv()

    def atomic(self, q: str, *,
               params: Optional[Dict[str, Any]] = None) -> ServerResult:
        """Run *q* as one transaction (all-or-nothing)."""
        self.send(q, params=params, txn="atomic")
        return self.recv()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClientPool:
    """A bounded pool of :class:`ServerClient` connections.

    ``acquire()``/``release()`` or the ``connection()`` context
    manager; ``execute()`` is the borrow-run-return convenience.
    Blocks when all *size* connections are out.
    """

    def __init__(self, port: int, host: str = "127.0.0.1", size: int = 4,
                 timeout: Optional[float] = 60.0):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.port = port
        self.host = host
        self.size = size
        self.timeout = timeout
        self._idle: List[ServerClient] = []
        self._created = 0
        self._lock = threading.Lock()
        self._available = threading.Semaphore(size)
        self._closed = False

    def acquire(self) -> ServerClient:
        self._available.acquire()
        with self._lock:
            if self._closed:
                self._available.release()
                raise RuntimeError("pool is closed")
            if self._idle:
                return self._idle.pop()
            self._created += 1
        try:
            return ServerClient(self.port, host=self.host,
                                timeout=self.timeout)
        except BaseException:
            with self._lock:
                self._created -= 1
            self._available.release()
            raise

    def release(self, client: ServerClient, *, broken: bool = False) -> None:
        with self._lock:
            if broken or self._closed:
                self._created -= 1
                try:
                    client.close()
                except OSError:
                    pass
            else:
                self._idle.append(client)
        self._available.release()

    class _Lease:
        def __init__(self, pool: "ClientPool"):
            self._pool = pool
            self.client: Optional[ServerClient] = None

        def __enter__(self) -> ServerClient:
            self.client = self._pool.acquire()
            return self.client

        def __exit__(self, exc_type, exc, tb) -> None:
            broken = isinstance(exc, (ConnectionError, OSError))
            self._pool.release(self.client, broken=broken)

    def connection(self) -> "_Lease":
        return self._Lease(self)

    def execute(self, q: str, *, params: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None) -> ServerResult:
        with self.connection() as client:
            return client.execute(q, params=params, timeout=timeout)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            try:
                client.close()
            except OSError:
                pass

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
