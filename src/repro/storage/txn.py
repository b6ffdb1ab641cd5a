"""Transactions, snapshot reads, and crash recovery over the store.

The paper's EXCESS/EXTRA system sat on the EXODUS storage manager,
which supplied transactions and recovery "for free"; the algebra takes
them for granted.  This module reproduces that missing layer for the
dictionary-backed :class:`~repro.storage.store.ObjectStore`:

* **Write-ahead logging** — every mutation of the store (insert,
  update, delete, migrate), of the named top-level objects (create,
  drop), and of the schema (type/method definitions) is captured as a
  redo record.  A transaction's records are buffered in memory and
  written to the :class:`~repro.storage.wal.WriteAheadLog` as one
  contiguous ``begin … ops … commit`` group whose final fsync is the
  commit point, so the log never interleaves transactions and a torn
  tail can only ever clip *whole* uncommitted transactions.

* **Redo-on-open recovery** — :func:`replay_log` applies exactly the
  committed transactions found in a log, in order, restoring objects,
  exact types, named objects, schema, *and the OID generator counters*
  (each commit record carries the generator snapshot, so identity
  allocation never collides after a crash).  Replay is idempotent, so
  a crash between checkpoint's snapshot write and its log truncation
  is harmless.

* **Snapshot-isolated reads** — the manager versions every OID-table
  and name-table entry it touches: when a committed value is about to
  be superseded, the old state is appended to a per-key version chain
  tagged with the version at which it became visible.
  :meth:`TransactionManager.snapshot` captures the current committed
  version; the resulting :class:`SnapshotView` resolves every read
  against that version, so a running query (interpreted or compiled)
  sees a stable store while writers keep committing — and never sees
  an uncommitted value, because uncommitted entries are marked
  ``PENDING`` and resolve through the chain.

* **Explicit transactions with savepoints** — ``begin into
  commit/abort``, with an undo log per transaction so abort restores
  the exact pre-transaction state (identity included).  Callers that
  never call ``begin`` get autocommit: each mutation is its own
  durable transaction.  Schema (DDL) changes are logged for durability
  but are not undone by abort — the paper's DDL has no transactional
  semantics either.

* **Checkpointing** — :meth:`TransactionManager.checkpoint` folds the
  log into the existing JSON snapshot format (atomically, via
  ``os.replace``) and truncates the log.

:func:`open_database` packages all of it: a directory holding
``snapshot.json`` + ``wal.log`` opens into a recovered database with a
durable manager attached.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.expr import EvalContext
from ..obs.metrics import (INDEX_EPOCH, SNAPSHOT_OLDEST_AGE_SECONDS,
                           SNAPSHOT_VIEWS_LIVE, SNAPSHOTS_TOTAL,
                           TXN_ABORTS_TOTAL, TXN_COMMITS_TOTAL,
                           WAL_BATCH_RECORDS)
from ..core.serialize import (expr_from_json, expr_to_json, value_from_json,
                              value_to_json)
from .store import DEFAULT_TYPE, Database, StoreError
from .wal import WriteAheadLog, read_records

#: Version tag of an entry whose transaction has not committed yet.
PENDING = object()

#: Chain state for "this key did not exist at that version".
GONE = object()

_MISSING = object()


class TxnError(RuntimeError):
    """Illegal transaction operation (begin inside begin, commit with
    no transaction, checkpoint mid-transaction, …)."""


class _Txn:
    """One open transaction: its redo buffer and undo log."""

    __slots__ = ("txid", "implicit", "records", "undo", "touched",
                 "savepoints")

    def __init__(self, txid: int, implicit: bool = False):
        self.txid = txid
        self.implicit = implicit
        #: Buffered WAL payloads, written as one group at commit.
        self.records: List[Dict[str, Any]] = []
        #: Undo entries, applied in reverse on abort:
        #: (key, undo_op, chain_appended, prior_from).
        self.undo: List[Tuple[Any, Tuple, bool, Any]] = []
        self.touched: Set[Tuple[str, Any]] = set()
        self.savepoints: Dict[str, Tuple[int, int]] = {}


class TransactionManager:
    """Transactions + MVCC bookkeeping for one database.

    Attaching a manager sets ``db.txn``, ``db.journal``, and
    ``db.store.journal``; from then on every mutation flows through the
    journal callbacks below.  A database without a manager pays zero
    overhead (the journal hooks are ``None`` checks).
    """

    def __init__(self, db: Database, wal: Optional[WriteAheadLog] = None,
                 snapshot_path: Optional[str] = None):
        self.db = db
        self.wal = wal
        self.snapshot_path = snapshot_path
        #: The committed-transaction version; snapshots capture it.
        self.version = 0
        self.active: Optional[_Txn] = None
        self._next_tx = 1
        self._next_sp = 1
        self._replaying = False
        self._undoing = False
        # MVCC: key -> version the current value became visible at
        # (PENDING while its transaction is open; absent = unchanged
        # since attach, i.e. visible in every snapshot), and key ->
        # ascending chain of (from_version, superseded state).
        self._from: Dict[Tuple[str, Any], Any] = {}
        self._chain: Dict[Tuple[str, Any], List[Tuple[int, Any]]] = {}
        # Snapshot pinning: version -> live SnapshotView count.  prune()
        # clamps to the oldest pinned version so a long-running reader's
        # chain history (and its epoch's index cache) is never freed
        # under it.  RLock: unpins fire from weakref finalizers, which
        # the GC may run on a thread already holding the lock.
        self._pins: Dict[int, int] = {}
        self._pin_lock = threading.RLock()
        # Per-epoch snapshot index caches (epoch == self.version at
        # snapshot time), shared by every reader pinned to that epoch;
        # one lock serializes the lazy builds (see IndexCatalogView).
        self._epoch_indexes: Dict[int, Dict] = {}
        self._index_build_lock = threading.Lock()
        db.txn = self
        db.journal = self
        db.store.journal = self
        self._wrap_ddl()
        _LIVE_MANAGERS.add(self)

    # -- transaction control ----------------------------------------------

    def begin(self) -> int:
        """Open an explicit transaction; returns its id."""
        if self.active is not None:
            raise TxnError("a transaction is already active "
                           "(use savepoints for nesting)")
        return self._begin(implicit=False)

    def _begin(self, implicit: bool) -> int:
        txid = self._next_tx
        self._next_tx += 1
        self.active = _Txn(txid, implicit=implicit)
        return txid

    def commit(self) -> None:
        """Make the active transaction durable and visible to future
        snapshots.  The WAL group write + fsync happens first; if it
        fails, the transaction is rolled back and the error re-raised,
        so in-memory state never runs ahead of the log."""
        txn = self.active
        if txn is None:
            raise TxnError("no active transaction to commit")
        if self.wal is not None and txn.records:
            group = [{"op": "begin", "tx": txn.txid}]
            group.extend(txn.records)
            group.append({"op": "commit", "tx": txn.txid,
                          "oids": self.db.store.oids.snapshot()})
            tracer = getattr(self.db, "tracer", None)
            span = None
            if tracer is not None and tracer.enabled:
                span = tracer.start_span("wal.commit", kind="wal",
                                         meta={"records": len(group)})
            started = time.perf_counter()
            try:
                self.wal.append_batch(group)
            except Exception:
                if span is not None:
                    span.calls += 1
                    span.wall += time.perf_counter() - started
                    tracer.finish(span)
                self.abort()
                raise
            if span is not None:
                span.calls += 1
                span.wall += time.perf_counter() - started
                span.rows_out = len(group)
                tracer.finish(span)
            WAL_BATCH_RECORDS.observe(len(group))
        TXN_COMMITS_TOTAL.inc()
        self.version += 1
        version = self.version
        for key in txn.touched:
            if self._from.get(key) is PENDING:
                self._from[key] = version
        self.active = None

    def abort(self) -> None:
        """Roll the active transaction back: every mutation is undone
        (in reverse), version chains are unwound, nothing reaches the
        log.  OIDs allocated by the transaction stay burned, as in any
        real allocator."""
        txn = self.active
        if txn is None:
            raise TxnError("no active transaction to abort")
        self._undo_to(txn, 0)
        self.active = None
        TXN_ABORTS_TOTAL.inc()

    def savepoint(self, name: Optional[str] = None) -> str:
        """Mark a rollback point inside the active transaction."""
        txn = self.active
        if txn is None:
            raise TxnError("savepoints need an active transaction")
        if name is None:
            name = "sp%d" % self._next_sp
            self._next_sp += 1
        txn.savepoints[name] = (len(txn.undo), len(txn.records))
        return name

    def rollback_to(self, name: str) -> None:
        """Undo everything after savepoint *name*, which stays valid."""
        txn = self.active
        if txn is None:
            raise TxnError("no active transaction")
        if name not in txn.savepoints:
            raise TxnError("no savepoint named %r" % name)
        undo_len, rec_len = txn.savepoints[name]
        self._undo_to(txn, undo_len)
        del txn.records[rec_len:]
        for later in [n for n, (u, _) in txn.savepoints.items()
                      if u > undo_len]:
            del txn.savepoints[later]

    def _undo_to(self, txn: _Txn, undo_len: int) -> None:
        self._undoing = True
        try:
            while len(txn.undo) > undo_len:
                key, undo_op, appended, prior_from = txn.undo.pop()
                self._apply_undo(key, undo_op)
                if appended and key is not None:
                    chain = self._chain.get(key)
                    if chain:
                        chain.pop()
                        if not chain:
                            del self._chain[key]
                    if prior_from == 0:
                        self._from.pop(key, None)
                    else:
                        self._from[key] = prior_from
                    txn.touched.discard(key)
        finally:
            self._undoing = False

    def _apply_undo(self, key, undo_op: Tuple) -> None:
        store = self.db.store
        kind = undo_op[0]
        if kind == "del":
            store._apply_delete(key[1])
        elif kind == "set":
            store._apply_update(key[1], undo_op[1])
        elif kind == "ins":
            store._apply_insert(key[1], undo_op[1], undo_op[2])
        elif kind == "type":
            store._apply_migrate(key[1], undo_op[1])
        elif kind == "nset":
            self.db._named[key[1]] = undo_op[1]
            self.db._name_changed(key[1])
        elif kind == "ndel":
            self.db._named.pop(key[1], None)
            self.db._name_changed(key[1])
        elif kind == "none":
            pass
        else:  # pragma: no cover - defensive
            raise TxnError("unknown undo op %r" % (kind,))

    # -- the journal (called by ObjectStore / Database after applying) ----

    def _mutation(self, key, old_state, wal_payload, undo_op) -> None:
        if self._replaying or self._undoing:
            return
        implicit = self.active is None
        if implicit:
            self._begin(implicit=True)
        txn = self.active
        appended = False
        prior_from = 0
        if key is not None:
            prior_from = self._from.get(key, 0)
            if prior_from is not PENDING:
                self._chain.setdefault(key, []).append(
                    (prior_from, old_state))
                self._from[key] = PENDING
                appended = True
            txn.touched.add(key)
        txn.undo.append((key, undo_op, appended, prior_from))
        if wal_payload is not None:
            wal_payload["tx"] = txn.txid
            txn.records.append(wal_payload)
        if implicit:
            self.commit()

    def on_store_insert(self, oid, type_name, value) -> None:
        self._mutation(("obj", oid), GONE,
                       {"op": "insert", "oid": oid, "type": type_name,
                        "value": value_to_json(value)},
                       ("del",))

    def on_store_update(self, oid, old_value, value) -> None:
        old_type = self.db.store.exact_type(oid)
        self._mutation(("obj", oid), (old_value, old_type),
                       {"op": "update", "oid": oid,
                        "value": value_to_json(value)},
                       ("set", old_value))

    def on_store_delete(self, oid, old_value, old_type) -> None:
        self._mutation(("obj", oid), (old_value, old_type),
                       {"op": "delete", "oid": oid},
                       ("ins", old_type or DEFAULT_TYPE, old_value))

    def on_store_migrate(self, oid, old_type, new_type) -> None:
        value = self.db.store.get(oid)
        self._mutation(("obj", oid), (value, old_type),
                       {"op": "migrate", "oid": oid, "type": new_type},
                       ("type", old_type or DEFAULT_TYPE))

    def on_name_create(self, name, existed, old_value, value) -> None:
        self._mutation(("name", name),
                       old_value if existed else GONE,
                       {"op": "name", "name": name,
                        "value": value_to_json(value)},
                       ("nset", old_value) if existed else ("ndel",))

    def on_name_drop(self, name, old_value) -> None:
        self._mutation(("name", name), old_value,
                       {"op": "drop", "name": name},
                       ("nset", old_value))

    def log_ddl(self, payload: Dict[str, Any]) -> None:
        """Journal a schema change (type/method/created-type) for
        redo.  DDL is durable but not undoable — abort leaves it."""
        self._mutation(None, None, {"op": "ddl", "ddl": payload}, ("none",))

    # -- DDL capture -------------------------------------------------------

    def _wrap_ddl(self) -> None:
        """Instrument ``types.define`` and ``methods.define`` so schema
        changes reach the journal no matter which layer issues them.
        The wrappers consult ``db.journal`` at call time, so re-attaching
        a manager (or detaching one) needs no re-wrapping."""
        db = self.db
        from ..extra.ddl import ensure_type_system
        types = ensure_type_system(db)
        if not getattr(types, "_journal_wrapped", False):
            original_define = types.define

            def define(name, fields, parents=()):
                tuple_type = original_define(name, fields, parents)
                journal = getattr(db, "journal", None)
                if journal is not None:
                    journal.log_ddl({
                        "kind": "type", "name": name,
                        "parents": list(tuple_type.parents),
                        "fields": [[fname, ftype.describe()]
                                   for fname, ftype in tuple_type.own_fields],
                    })
                return tuple_type

            types.define = define
            types._journal_wrapped = True
        methods = db.methods
        if not getattr(methods, "_journal_wrapped", False):
            original_method = methods.define

            def define_method(type_name, name, params, body):
                method = original_method(type_name, name, params, body)
                journal = getattr(db, "journal", None)
                if journal is not None:
                    journal.log_ddl({
                        "kind": "method", "type": type_name, "name": name,
                        "params": list(params), "body": expr_to_json(body),
                    })
                return method

            methods.define = define_method
            methods._journal_wrapped = True

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "SnapshotView":
        """A stable read view of everything committed so far.  Open
        transactions (this manager's or later ones) are invisible."""
        SNAPSHOTS_TOTAL.inc()
        return SnapshotView(self, self.version)

    @property
    def index_epoch(self) -> int:
        """The index epoch: every commit (data or index DDL — both flow
        through :meth:`commit`) advances it, so equal epochs imply
        identical visible data *and* index definitions.  Snapshot index
        caches and the server's plan caches key on it."""
        return self.version

    def _pin(self, version: int) -> None:
        with self._pin_lock:
            self._pins[version] = self._pins.get(version, 0) + 1

    def _unpin(self, version: int) -> None:
        with self._pin_lock:
            n = self._pins.get(version, 0) - 1
            if n > 0:
                self._pins[version] = n
            else:
                self._pins.pop(version, None)
                # Last reader left this epoch: its index cache is
                # unreachable (a new snapshot would pin the *current*
                # version) unless the epoch is still current.
                if version != self.version:
                    self._epoch_indexes.pop(version, None)

    def oldest_pinned(self) -> Optional[int]:
        """The smallest version a live snapshot view is pinned to, or
        None when no views are live."""
        with self._pin_lock:
            return min(self._pins) if self._pins else None

    def _index_view(self, view: "SnapshotView"):
        """The frozen index-catalog view for *view* (see
        :class:`~repro.storage.indexes.IndexCatalogView`).  The caller
        has already pinned ``view.version``, so the epoch cache fetched
        here cannot be evicted while the view lives."""
        epoch = view.version
        with self._pin_lock:
            cache = self._epoch_indexes.setdefault(epoch, {})
        return self.db.indexes.snapshot_view(view, epoch, cache,
                                             self._index_build_lock)

    def _resolve(self, key, snap_version: int, current) -> Any:
        """The state of *key* as of *snap_version*: ``current`` (a
        thunk's value) when the live entry is committed and old enough,
        else the newest chain state visible at the snapshot, else
        :data:`GONE`."""
        cur_from = self._from.get(key, 0)
        if cur_from is not PENDING and cur_from <= snap_version:
            return current
        best = GONE
        for from_version, state in self._chain.get(key, ()):
            if from_version <= snap_version:
                best = state
            else:
                break
        return best

    def prune(self, version: Optional[int] = None) -> None:
        """Drop chain history no snapshot at or after *version*
        (default: the current committed version) can reach.

        The effective version is clamped to the oldest *pinned*
        version, so a long-running reader's history — and its epoch's
        snapshot index cache — is never freed under it; pruning tightens
        automatically as views are collected.  Only snapshot views older
        than the clamped version (i.e. ones already dead) lose state.
        """
        if version is None:
            version = self.version
        floor = self.oldest_pinned()
        if floor is not None and floor < version:
            version = floor
        with self._pin_lock:
            # Sweep index caches of epochs nobody is pinned to (their
            # normal eviction point is the last unpin, but an epoch
            # that never had a reader would otherwise linger).
            for epoch in list(self._epoch_indexes):
                if epoch != self.version and epoch not in self._pins:
                    del self._epoch_indexes[epoch]
        for key in list(self._chain):
            chain = self._chain[key]
            keep = 0
            for i, (from_version, _) in enumerate(chain):
                if from_version <= version:
                    keep = i
                else:
                    break
            if keep:
                del chain[:keep]

    # -- checkpoint & recovery --------------------------------------------

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Fold the log into a JSON snapshot: atomically write the
        snapshot (temp file + ``os.replace``), then truncate the log.
        A crash between the two steps merely replays transactions the
        snapshot already contains — replay is idempotent."""
        if self.active is not None:
            raise TxnError("cannot checkpoint with an active transaction")
        path = path or self.snapshot_path
        if path is None:
            raise TxnError("checkpoint needs a snapshot path")
        from .persist import save_database
        save_database(self.db, path)
        if self.wal is not None:
            self.wal.truncate()
        return path

    def recover(self, records: List[Dict[str, Any]]) -> int:
        """Redo committed transactions from *records* against this
        manager's database (journal suppressed).  Returns the number of
        transactions applied."""
        self._replaying = True
        try:
            return replay_log(self.db, records)
        finally:
            self._replaying = False


# ---------------------------------------------------------------------------
# Snapshot views
# ---------------------------------------------------------------------------

class SnapshotStore:
    """A read view of the object store frozen at a commit version.

    Reads resolve through the manager's version chains; the interface
    mirrors the parts of :class:`ObjectStore` the evaluators touch
    (``get``/``exact_type``/extents/``find_ref``).  ``insert`` (REF
    minting a *new* object mid-query) passes through to the live store:
    fresh OIDs cannot collide with anything the snapshot can see.
    """

    def __init__(self, manager: TransactionManager, version: int):
        self._manager = manager
        self._store = manager.db.store
        self.snapshot_version = version
        #: Constant cache key: a snapshot never changes, so a deref
        #: cache bound to this view stays valid across queries.
        self.version = ("snapshot", version)

    @property
    def hierarchy(self):
        return self._store.hierarchy

    @property
    def oids(self):
        return self._store.oids

    def _state(self, oid) -> Any:
        """(value, exact_type) at the snapshot, or GONE.

        Single ``get`` rather than ``in`` + ``[]``: the network server
        reads snapshots from reader threads while its writer thread
        mutates the live tables, and each dict access is GIL-atomic but
        a contains/getitem pair is not."""
        store = self._store
        key = ("obj", oid)
        value = store._objects.get(oid, _MISSING)
        if value is not _MISSING:
            current = (value, store._exact_types.get(oid))
        else:
            current = GONE
        return self._manager._resolve(key, self.snapshot_version, current)

    def get(self, oid: Any, default: Any = _MISSING) -> Any:
        state = self._state(oid)
        if state is not GONE:
            return state[0]
        if default is not _MISSING:
            return default
        raise StoreError("no object with OID %r" % (oid,))

    def __contains__(self, oid: Any) -> bool:
        return self._state(oid) is not GONE

    def exact_type(self, oid: Any) -> Optional[str]:
        state = self._state(oid)
        return None if state is GONE else state[1]

    def _members(self) -> Dict[Any, str]:
        # dict()/list() copies are single C-level ops under the GIL, so
        # the Python-level comprehensions below never iterate a table
        # the server's writer thread is resizing mid-walk.
        store = self._store
        touched = {key[1] for key in list(self._manager._from)
                   if key[0] == "obj"}
        members: Dict[Any, str] = {
            oid: t for oid, t in dict(store._exact_types).items()
            if oid not in touched}
        for oid in touched:
            state = self._state(oid)
            if state is not GONE:
                members[oid] = state[1]
        return members

    def extent(self, type_name: str):
        from ..core.values import Ref
        return [Ref(oid, type_name)
                for oid, t in self._members().items() if t == type_name]

    def extent_closure(self, type_name: str):
        from ..core.values import Ref
        wanted = self.hierarchy.descendants_or_self(type_name)
        return [Ref(oid, t)
                for oid, t in self._members().items() if t in wanted]

    def find_ref(self, value: Any):
        found = self._store.find_ref(value)
        if found is None:
            return None
        state = self._state(found.oid)
        if state is not GONE and state[0] == value:
            return found
        return None

    def insert(self, value: Any, type_name: str = None):
        return self._store.insert(value, type_name)

    def __len__(self) -> int:
        return len(self._members())


class _SnapshotNamed:
    """Mapping view of the named top-level objects at a version."""

    def __init__(self, manager: TransactionManager, version: int):
        self._manager = manager
        self._version = version

    def _state(self, name: str) -> Any:
        current = self._manager.db._named.get(name, GONE)
        return self._manager._resolve(("name", name), self._version, current)

    def __getitem__(self, name: str) -> Any:
        state = self._state(name)
        if state is GONE:
            raise KeyError(name)
        return state

    def get(self, name: str, default: Any = None) -> Any:
        state = self._state(name)
        return default if state is GONE else state

    def __contains__(self, name: str) -> bool:
        return self._state(name) is not GONE

    def keys(self) -> List[str]:
        candidates = set(list(self._manager.db._named))
        candidates.update(key[1] for key in list(self._manager._chain)
                          if key[0] == "name")
        return sorted(n for n in candidates if n in self)

    def __iter__(self):
        return iter(self.keys())


#: Live snapshot views, process-wide and weakly held — drops views as
#: they are garbage collected, so the gauges below track reality
#: without any explicit close() discipline on readers.
_LIVE_VIEWS: "weakref.WeakSet[SnapshotView]" = weakref.WeakSet()

SNAPSHOT_VIEWS_LIVE.set_provider(lambda: float(len(_LIVE_VIEWS)))
SNAPSHOT_OLDEST_AGE_SECONDS.set_provider(
    lambda: max((time.time() - view.created_at for view in _LIVE_VIEWS),
                default=0.0))

#: Live transaction managers, weakly held, backing the index-epoch
#: gauge (the most advanced manager's committed version).
_LIVE_MANAGERS: "weakref.WeakSet[TransactionManager]" = weakref.WeakSet()

INDEX_EPOCH.set_provider(
    lambda: max((float(m.version) for m in _LIVE_MANAGERS), default=0.0))


class SnapshotView:
    """A consistent read view: store + named objects at one version.

    ``context()`` builds an :class:`EvalContext` over the view, so any
    algebra tree — interpreted or compiled — evaluates against the
    frozen state while the live database keeps moving.  The context
    carries the view's :class:`~repro.storage.indexes.IndexCatalogView`,
    so cost-based index probes work against the snapshot (answers are
    built from the frozen collections, never the live catalog).

    A view *pins* its version for its lifetime: :meth:`prune` will not
    free chain history (or the epoch's shared index cache) the view can
    still reach; the pin is dropped by a weakref finalizer when the
    view is garbage collected.

    A view is also a *catalog* a statement can be prepared against
    (:mod:`repro.excess.pipeline`): names, data and indexes are the
    snapshot's; the schema-level registries in :data:`SCHEMA_ATTRS`
    are unversioned and read through to the live database.
    """

    #: Attributes served by the live database: DDL is not versioned.
    SCHEMA_ATTRS = frozenset((
        "types", "created_types", "hierarchy", "functions", "methods",
        "function_signatures", "method_signatures"))

    def __init__(self, manager: TransactionManager, version: int):
        self.manager = manager
        self.version = version
        self.store = SnapshotStore(manager, version)
        self.named = _SnapshotNamed(manager, version)
        self.created_at = time.time()
        manager._pin(version)
        self._finalizer = weakref.finalize(self, manager._unpin, version)
        self.indexes = manager._index_view(self)
        _LIVE_VIEWS.add(self)

    def get(self, name: str) -> Any:
        try:
            return self.named[name]
        except KeyError:
            raise StoreError("no top-level object named %r" % name)

    def names(self) -> List[str]:
        return self.named.keys()

    def __contains__(self, name: str) -> bool:
        return name in self.named

    def __getattr__(self, name: str) -> Any:
        if name in self.SCHEMA_ATTRS:
            return getattr(self.manager.db, name)
        raise AttributeError(name)

    def context(self) -> EvalContext:
        db = self.manager.db
        return EvalContext(database=self.named, store=self.store,
                           functions=db.functions, methods=db.methods,
                           indexes=self.indexes)

    def __repr__(self) -> str:
        return "<SnapshotView @v%d>" % self.version


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def _redo(db: Database, record: Dict[str, Any]) -> None:
    op = record.get("op")
    store = db.store
    if op == "insert":
        store._apply_insert(record["oid"], record.get("type") or DEFAULT_TYPE,
                            value_from_json(record["value"]))
    elif op == "update":
        store._apply_update(record["oid"], value_from_json(record["value"]))
    elif op == "delete":
        store._apply_delete(record["oid"])
    elif op == "migrate":
        store._apply_migrate(record["oid"], record["type"])
    elif op == "name":
        db._named[record["name"]] = value_from_json(record["value"])
        db._name_changed(record["name"])
    elif op == "drop":
        db._named.pop(record["name"], None)
        db._name_changed(record["name"])
    elif op == "ddl":
        _redo_ddl(db, record["ddl"])
    # Unknown ops are skipped: logs written by a newer build replay
    # what this build understands.


def _redo_ddl(db: Database, payload: Dict[str, Any]) -> None:
    from ..extra.ddl import ensure_type_system, parse_type_expr
    from ..lang import Lexer
    kind = payload.get("kind")
    types = ensure_type_system(db)
    if kind == "type":
        if payload["name"] in types:
            return  # already present (checkpoint overlap)
        types.define(payload["name"],
                     [(fname, parse_type_expr(Lexer(ftext), types))
                      for fname, ftext in payload["fields"]],
                     payload["parents"])
    elif kind == "method":
        db.methods.define(payload["type"], payload["name"],
                          payload["params"], expr_from_json(payload["body"]))
    elif kind == "created_type":
        created = getattr(db, "created_types", None)
        if created is None:
            created = db.created_types = {}
        created[payload["name"]] = parse_type_expr(Lexer(payload["type"]),
                                                   types)
    elif kind == "index_create":
        db.indexes.restore([payload["index"]])
    elif kind == "index_drop":
        db.indexes.remove_definition(payload["index"])


def replay_log(db: Database, records: List[Dict[str, Any]]) -> int:
    """Apply the committed transactions in *records* to *db*.

    Records of a transaction whose commit record never made it to disk
    are discarded — recovery restores exactly the committed prefix.
    Returns the number of transactions applied.
    """
    applied = 0
    pending: Optional[List[Dict[str, Any]]] = None
    for record in records:
        op = record.get("op")
        if op == "begin":
            pending = []
        elif op == "commit":
            if pending is None:
                continue  # stray commit without begin: ignore
            for buffered in pending:
                _redo(db, buffered)
            oids = record.get("oids")
            if oids:
                db.store.oids.restore(oids)
            pending = None
            applied += 1
        elif op == "checkpoint":
            continue
        elif pending is not None:
            pending.append(record)
    return applied


def open_database(directory: str,
                  functions: Optional[Dict[str, Any]] = None,
                  sync: bool = True) -> Database:
    """Open (or create) a durable database rooted at *directory*.

    Layout: ``directory/snapshot.json`` (the checkpointed world, when
    one exists) and ``directory/wal.log``.  The snapshot is loaded,
    the log's committed transactions are replayed on top, any torn log
    tail is truncated, and a :class:`TransactionManager` with the open
    WAL is attached (reachable as ``db.txn``).
    """
    os.makedirs(directory, exist_ok=True)
    snapshot_path = os.path.join(directory, "snapshot.json")
    wal_path = os.path.join(directory, "wal.log")
    if os.path.exists(snapshot_path):
        from .persist import load_database
        db = load_database(snapshot_path, functions)
    else:
        db = Database()
        from ..excess.builtins import register_builtins
        register_builtins(db)
        for name, fn in (functions or {}).items():
            db.register_function(name, fn)
    replay_log(db, read_records(wal_path))
    wal = WriteAheadLog(wal_path, sync=sync)
    TransactionManager(db, wal=wal, snapshot_path=snapshot_path)
    return db
