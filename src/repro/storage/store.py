"""The object store: OID table, extents, and named top-level objects.

EXTRA objects with identity live "in the database independently of
objects that reference them".  This module provides that substrate for
the algebra: a table from OID to value, exact-type bookkeeping (for
typed SET_APPLY dispatch and for type migration), per-type extents, and
the named persistent objects created by EXTRA's ``create`` statement.

The paper ran on the EXODUS storage manager; a dictionary-backed store
preserves every behaviour the algebra observes (identity, dereferencing,
extents, dangling references) without the disk machinery.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from ..core.expr import EvalContext
from ..core.hierarchy import TypeHierarchy
from ..core.oid import OIDError, OIDGenerator
from ..core.values import DNE, Arr, MultiSet, Ref, Tup

#: Exact type recorded for objects inserted without one.
DEFAULT_TYPE = "Object"

_MISSING = object()


class StoreError(KeyError):
    """Raised for unknown OIDs or illegal store operations."""


class ObjectStore:
    """A value store keyed by OID, with exact-type tracking.

    Parameters
    ----------
    hierarchy:
        The type hierarchy OIDs are allocated against.  A fresh one (with
        just the default root type) is created when omitted; unknown type
        names are auto-registered as roots so ad-hoc use stays ergonomic.
    oid_generator:
        Generator implementing the paper's prefix construction; created
        from *hierarchy* when omitted.
    """

    def __init__(self, hierarchy: TypeHierarchy = None,
                 oid_generator: OIDGenerator = None):
        self.hierarchy = hierarchy or TypeHierarchy()
        if DEFAULT_TYPE not in self.hierarchy:
            self.hierarchy.add_type(DEFAULT_TYPE)
        self.oids = oid_generator or OIDGenerator(self.hierarchy)
        self._objects: Dict[Any, Any] = {}
        self._exact_types: Dict[Any, str] = {}
        self._by_value: Dict[Any, Any] = {}  # value -> one representative oid
        #: Invalidation counter for deref caches: bumped whenever an
        #: *existing* object changes (update/delete/migrate, and the
        #: raw replay/undo mutations).  Fresh inserts don't bump it —
        #: a new OID cannot collide with anything a cache has seen.
        self.version = 0
        #: Fresh inserts, which ``version`` leaves out; the two together
        #: count every change to the store (see ``Database.version``).
        self.inserts = 0
        # ``version += 1`` is a read-modify-write, not GIL-atomic; the
        # server's writer thread and replay/undo paths may race reader
        # threads validating deref caches (and REF minting inserts from
        # reader threads), so bumps go through a lock (reads stay bare —
        # a plain int load is atomic).
        self._version_lock = threading.Lock()
        #: Transaction journal (see :mod:`repro.storage.txn`); when set,
        #: every mutation is reported with enough old state to undo it.
        self.journal = None

    def _bump_version(self) -> None:
        with self._version_lock:
            self.version += 1

    # -- basic object lifecycle ----------------------------------------

    def _ensure_type(self, type_name: str) -> str:
        if type_name is None:
            return DEFAULT_TYPE
        if type_name not in self.hierarchy:
            self.hierarchy.add_type(type_name)
        return type_name

    def insert(self, value: Any, type_name: str = None) -> Ref:
        """Create a new object holding *value*; returns its reference."""
        type_name = self._ensure_type(type_name)
        ref = self.oids.new_ref(type_name)
        self._objects[ref.oid] = value
        self._exact_types[ref.oid] = type_name
        self._by_value.setdefault(value, ref.oid)
        with self._version_lock:
            self.inserts += 1
        if self.journal is not None:
            self.journal.on_store_insert(ref.oid, type_name, value)
        return ref

    def get(self, oid: Any, default: Any = _MISSING) -> Any:
        """The value of object *oid*; *default* (if given) when dangling."""
        found = self._objects.get(oid, _MISSING)
        if found is not _MISSING:
            return found
        if default is not _MISSING:
            return default
        raise StoreError("no object with OID %r" % (oid,))

    def reader(self):
        """A ``(oid, default) -> value`` bulk-lookup fast path.

        The batch engine derefs whole columns of OIDs in a tight loop;
        handing it the backing dict's ``get`` skips a Python frame per
        probe.  Stores without this method (snapshot views, guarded
        wrappers) fall back to their ordinary ``get``.
        """
        return self._objects.get

    def exact_reader(self):
        """An ``oid -> exact type (or None)`` fast path; the dispatch
        twin of :meth:`reader` (grouped method dispatch resolves the
        exact type of whole receiver columns)."""
        return self._exact_types.get

    def __contains__(self, oid: Any) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def update(self, oid: Any, value: Any) -> None:
        """Replace the value of an existing object, keeping its identity."""
        if oid not in self._objects:
            raise StoreError("no object with OID %r" % (oid,))
        old = self._objects[oid]
        if self._by_value.get(old) == oid:
            del self._by_value[old]
        self._objects[oid] = value
        self._by_value.setdefault(value, oid)
        self._bump_version()
        if self.journal is not None:
            self.journal.on_store_update(oid, old, value)

    def delete(self, oid: Any) -> None:
        """Remove an object.  References to it become dangling (DEREF
        of a dangling reference yields ``dne``)."""
        if oid not in self._objects:
            raise StoreError("no object with OID %r" % (oid,))
        old = self._objects.pop(oid)
        old_type = self._exact_types.pop(oid, None)
        if self._by_value.get(old) == oid:
            del self._by_value[old]
        self._bump_version()
        if self.journal is not None:
            self.journal.on_store_delete(oid, old, old_type)

    # -- raw mutations (replay / rollback) -------------------------------
    #
    # These mirror insert/update/delete/migrate but take the OID as
    # given, never consult the journal, and tolerate re-application —
    # exactly what WAL redo (which may overlap a checkpoint snapshot)
    # and transaction undo need.  All of them bump ``version`` because
    # they can resurrect or rewrite OIDs a deref cache may have seen.

    def _apply_insert(self, oid: Any, type_name: str, value: Any) -> None:
        type_name = self._ensure_type(type_name)
        old = self._objects.get(oid, _MISSING)
        if old is not _MISSING and self._by_value.get(old) == oid:
            del self._by_value[old]
        self._objects[oid] = value
        self._exact_types[oid] = type_name
        self._by_value.setdefault(value, oid)
        self._bump_version()

    def _apply_update(self, oid: Any, value: Any) -> None:
        self._apply_insert(oid, self._exact_types.get(oid, DEFAULT_TYPE),
                           value)

    def _apply_delete(self, oid: Any) -> None:
        old = self._objects.pop(oid, _MISSING)
        self._exact_types.pop(oid, None)
        if old is not _MISSING and self._by_value.get(old) == oid:
            del self._by_value[old]
        self._bump_version()

    def _apply_migrate(self, oid: Any, type_name: str) -> None:
        if oid in self._objects:
            self._exact_types[oid] = self._ensure_type(type_name)
        self._bump_version()

    # -- identity & typing ----------------------------------------------

    def find_ref(self, value: Any) -> Optional[Ref]:
        """A reference to some extant object with this exact value.

        Supports REF's inverse role (rule 28); returns None when no such
        object exists.
        """
        oid = self._by_value.get(value)
        if oid is None:
            return None
        return Ref(oid, self._exact_types.get(oid))

    def exact_type(self, oid: Any) -> Optional[str]:
        """The exact (allocation or migrated-to) type of *oid*."""
        return self._exact_types.get(oid)

    def migrate(self, oid: Any, new_type: str) -> None:
        """Type migration (end of Section 3.1).

        Legal exactly when the OID is already a member of
        Odom(new_type) — i.e. within the descendant cone of the pool the
        OID was drawn from — so identity is preserved and no reference
        anywhere becomes ill-typed.
        """
        if oid not in self._objects:
            raise StoreError("no object with OID %r" % (oid,))
        new_type = self._ensure_type(new_type)
        if not self.oids.migrate_ok(oid, new_type):
            raise OIDError(
                "OID %r is not in Odom(%s); migration would forge identity"
                % (oid, new_type))
        old_type = self._exact_types.get(oid)
        self._exact_types[oid] = new_type
        self._bump_version()
        if self.journal is not None:
            self.journal.on_store_migrate(oid, old_type, new_type)

    # -- extents -----------------------------------------------------------

    def extent(self, type_name: str) -> List[Ref]:
        """References to all objects whose *exact* type is *type_name*."""
        return [Ref(oid, type_name)
                for oid, t in self._exact_types.items() if t == type_name]

    def extent_closure(self, type_name: str) -> List[Ref]:
        """References to all objects of *type_name* or any subtype."""
        members = self.hierarchy.descendants_or_self(type_name)
        return [Ref(oid, t)
                for oid, t in self._exact_types.items() if t in members]

    # -- integrity ---------------------------------------------------------

    def _refs_in(self, value: Any) -> Iterator[Ref]:
        if isinstance(value, Ref):
            yield value
        elif isinstance(value, Tup):
            for _, v in value.fields:
                for r in self._refs_in(v):
                    yield r
        elif isinstance(value, (MultiSet, Arr)):
            for v in value:
                for r in self._refs_in(v):
                    yield r

    def dangling_refs(self) -> List[Ref]:
        """Every reference reachable from stored values whose target is
        gone.  Useful for failure-injection tests."""
        out = []
        for value in self._objects.values():
            for ref in self._refs_in(value):
                if ref.oid not in self._objects:
                    out.append(ref)
        return out


class Database:
    """Named, persistent top-level objects over an :class:`ObjectStore`.

    This models EXTRA's ``create`` statement: a database is a collection
    of named structures (Employees, Departments, TopTen, …), any of which
    may contain references into the shared store.
    """

    def __init__(self, store: ObjectStore = None):
        self.store = store or ObjectStore()
        self._named: Dict[str, Any] = {}
        # Changes to what this object holds itself (named objects,
        # functions); the own term of :attr:`version`.
        self._changes = 0
        #: Transaction journal shared with ``store.journal``; set by
        #: :class:`repro.storage.txn.TransactionManager` on attach.
        self.journal = None
        #: The attached transaction manager, if any (see :meth:`begin`).
        self.txn = None
        self.functions: Dict[str, Any] = {}
        #: Declared type signatures for registered functions, consumed by
        #: the static analysis layer: name → SchemaNode | callable
        #: (arg_schemas → SchemaNode) | None (opaque).
        self.function_signatures: Dict[str, Any] = {}
        from ..core.methods import MethodRegistry
        self.methods = MethodRegistry(self.store.hierarchy)
        from .indexes import IndexCatalog
        self.indexes = IndexCatalog(self)
        #: Optional :class:`repro.obs.Tracer` set by the connection
        #: layer; storage-side spans (WAL commits) and every context
        #: built via :meth:`context` pick it up from here.
        self.tracer = None

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self.store.hierarchy

    @property
    def version(self) -> int:
        """The catalog epoch: a monotone count of every change to what
        :func:`repro.excess.pipeline.prepare` reads — store objects
        (inserts, updates, deletes, migrations), named objects, the type
        hierarchy and type system, methods, functions, and index
        definitions.  It is the sum of the change counters those
        registries keep, so nothing restores an older value: abort and
        ``rollback_to`` undo by further changes, which advance it."""
        store = self.store
        types = getattr(self, "types", None)
        return (self._changes + store.version + store.inserts
                + store.hierarchy.version + self.methods.version
                + self.indexes.version
                + (types.version if types is not None else 0))

    def _name_changed(self, name: str) -> None:
        """Bookkeeping after *name* was bound, rebound or unbound —
        here, or by transaction undo and WAL redo, which write
        ``_named`` directly: drop its built indexes, advance
        :attr:`version`."""
        self.indexes.invalidate(name)
        self._changes += 1

    def create(self, name: str, value: Any) -> None:
        """Create (or replace) a named top-level object."""
        old = self._named.get(name, _MISSING)
        self._named[name] = value
        self._name_changed(name)
        if self.journal is not None:
            self.journal.on_name_create(name, old is not _MISSING,
                                        None if old is _MISSING else old,
                                        value)

    def apply_delta(self, kind: str, name: str,
                    evaluate: Callable[[], Any]) -> Any:
        """Run one update statement on the named multiset *name*:
        *evaluate* computes its whole delta (see
        :meth:`repro.excess.translate.Translator.translate_update`), which
        is then stored with one ``create``.  Both happen inside an
        implicit transaction when a manager is attached and none is
        open — so a multi-object statement commits as one WAL group, and
        an error rolls the statement back whole, objects the delta's
        evaluation inserted (``mkref``) included.

        * ``append`` — *name* ⊎ delta.  When *name* is declared
          ``{ ref T }``, each occurrence that is not a reference is first
          inserted as a new object of its own tuple type, else T.
          Returns the multiset added.
        * ``delete`` — *name* − delta.  Returns the occurrences removed.
        * ``replace`` — the delta holds ``(element, values)`` pairs, each
          value boxed in a one-element multiset (empty for ``dne``).  A
          reference's object is updated in place (identity kept, so every
          other reference sees the change); a value occurrence is swapped
          for its updated copy.  Null pairs change nothing.  Returns the
          occurrences changed.
        """
        manager = self.txn
        implicit = manager is not None and manager.active is None
        if implicit:
            manager.begin()
        try:
            delta = evaluate()
            existing = self.get(name)
            if kind == "append":
                if not isinstance(delta, MultiSet):
                    delta = MultiSet([delta])
                from ..extra.types import RefType, SetType
                declared = getattr(self, "created_types", {}).get(name)
                if (isinstance(declared, SetType)
                        and isinstance(declared.element, RefType)):
                    delta = MultiSet([
                        element if isinstance(element, Ref)
                        else self.store.insert(
                            element, getattr(element, "type_name", None)
                            or declared.element.target)
                        for element in delta])
                value, outcome = existing.add_union(delta), delta
            elif kind == "delete":
                value = existing.difference(delta)
                outcome = len(existing) - len(value)
            else:
                value, outcome = self._replace(existing, delta)
            self.create(name, value)
        except BaseException:
            if implicit:
                manager.abort()
            raise
        if implicit:
            manager.commit()
        return outcome

    def _replace(self, existing: MultiSet, pairs: MultiSet):
        counts = existing.counts
        changed = 0
        for pair, count in pairs.items():
            if not isinstance(pair, Tup):
                continue
            element = pair["element"]
            ref = element if isinstance(element, Ref) else None
            old = self.store.get(ref.oid) if ref is not None else element
            if not isinstance(old, Tup):
                raise TypeError(
                    "replace needs tuple-valued elements, got %r" % (old,))
            new = old.replace(**{field: next(iter(box), DNE)
                                 for field, box in pair["values"].fields})
            changed += count
            if ref is not None:
                self.store.update(ref.oid, new)
            else:
                counts[element] -= count
                counts[new] = counts.get(new, 0) + count
        return MultiSet(counts=counts), changed

    def drop(self, name: str) -> None:
        if name not in self._named:
            raise StoreError("no top-level object named %r" % name)
        old = self._named.pop(name)
        self._name_changed(name)
        if self.journal is not None:
            self.journal.on_name_drop(name, old)

    # -- transactions ------------------------------------------------------

    def transactions(self, wal=None):
        """The attached transaction manager, creating an in-memory one
        (no WAL) on first use.  Pass *wal* to make the first attach
        durable; see :func:`repro.storage.txn.open_database` for the
        snapshot + log + recovery packaging."""
        if self.txn is None:
            from .txn import TransactionManager
            TransactionManager(self, wal=wal)  # attaches itself as self.txn
        return self.txn

    def begin(self):
        """Begin an explicit transaction (attaching a manager if needed)."""
        return self.transactions().begin()

    def commit(self) -> None:
        self.transactions().commit()

    def abort(self) -> None:
        self.transactions().abort()

    def get(self, name: str) -> Any:
        try:
            return self._named[name]
        except KeyError:
            raise StoreError("no top-level object named %r" % name)

    def names(self) -> List[str]:
        return sorted(self._named)

    def __contains__(self, name: str) -> bool:
        return name in self._named

    def register_function(self, name: str, fn, signature: Any = None) -> None:
        """Register a scalar function (the E-language ADT stand-in).

        *signature*, when given, declares the result schema for the
        static analysis layer: either a fixed
        :class:`~repro.core.schema.SchemaNode` or a callable taking the
        list of argument schemas.  Functions registered without one are
        opaque to inference (the linter reports them as L106).
        """
        self.functions[name] = fn
        if signature is not None:
            self.function_signatures[name] = signature
        self._changes += 1

    def context(self) -> EvalContext:
        """An evaluation context bound to this database."""
        ctx = EvalContext(database=self._named, store=self.store,
                          functions=self.functions, methods=self.methods,
                          indexes=self.indexes)
        ctx.tracer = self.tracer
        return ctx
