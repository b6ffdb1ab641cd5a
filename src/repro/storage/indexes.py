"""Access methods over named multisets.

Section 4 observes that "the ⊎-based approach is also advantageous in
the presence of certain types of indices.  For example, if we have an
index on all the Students in P, an index on the Employees of P, and an
index on the Persons of P, the need to scan P three times … disappears."
Section 1 likewise motivates indices and cached attributes
[Maie86b, Shek89] for optimized method bodies.

Three access methods are provided:

* :class:`TypedPartitionIndex` — partitions a multiset's occurrences by
  exact type, so a typed SET_APPLY can read its matching occurrences
  directly instead of scanning and filtering;
* :class:`KeyIndex` — a hash index from the value of a key expression to
  the occurrences producing it (equality lookups for selections/joins);
* :class:`OrderedIndex` — a sorted-array index over the key expression,
  serving range predicates (``<``, ``≤``, between) by binary search.

Indexes are built eagerly over an immutable multiset snapshot.  The
catalog keeps two layers of state:

* *definitions* — durable DDL ("there is a keyed index on P by age").
  Definitions survive re-creates of the named object, transaction
  aborts, and — via the WAL (``kind: index_create`` / ``index_drop``
  DDL records) and the snapshot — restarts.
* *built snapshots* — derived data.  A snapshot goes stale when the
  named object is re-created (identity check against the stored value)
  or, for indexes whose contents depend on the object store (a typed
  index over refs, a key expression that dereferences), when the store
  version moves.  ``probe_*`` lazily rebuilds a stale snapshot from its
  definition; the legacy ``typed()``/``keyed()`` accessors only report.

Null discipline mirrors the predicates the engines evaluate: a ``dne``
key unindexes its occurrence (the atom would be F), while ``unk`` keys
are tallied separately — an equality or range probe reports them as the
``unk`` occurrences a σ's U verdict would produce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.expr import Const, EvalContext, Expr, Input
from ..core.operators.multiset import exact_type_of
from ..core.operators.tuples import Pi, TupCat, TupCreate, TupExtract
from ..core.values import DNE, UNK, MultiSet, Ref
from ..obs.metrics import (INDEX_BUILDS_TOTAL, INDEX_DROPS_TOTAL,
                           INDEX_PROBES_TOTAL)

#: Unbounded end of a range probe.
UNBOUNDED = object()

#: Expression nodes whose value is a pure function of the element —
#: keys built from these never consult the object store, so the index
#: only goes stale when the named object itself is re-created.
_PURE_KEY_NODES = (Input, Const, TupExtract, Pi, TupCat, TupCreate)


def _key_reads_store(key: Expr) -> bool:
    """Conservative: anything beyond pure tuple navigation (a deref, a
    method call, a registered function) may read mutable store state."""
    return any(not isinstance(node, _PURE_KEY_NODES) for node in key.walk())


def comparability_class(value: Any) -> Any:
    """The group of values *value* orders against without a TypeError.

    Numbers (bools included) form one class, strings another, and
    everything else groups by its exact Python type — mirroring
    ``_compare_scalars``, whose TypeError is the U verdict a range
    probe must reproduce for cross-class comparisons.
    """
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return type(value)


def _stamp(index: Any, ctx: EvalContext) -> None:
    store = getattr(ctx, "store", None)
    index.store_version = getattr(store, "version", None)


class TypedPartitionIndex:
    """Partition of a multiset's occurrences by exact type.

    ``lookup(types)`` returns the sub-multiset of occurrences whose exact
    type is in *types* — the set a typed ``SET_APPLY[T]`` would process —
    in O(distinct elements of the answer) instead of a full scan.
    """

    kind = "typed"

    def __init__(self, collection: MultiSet, ctx: EvalContext):
        if not isinstance(collection, MultiSet):
            raise TypeError("TypedPartitionIndex needs a MultiSet")
        self._partitions: Dict[Optional[str], Dict[Any, int]] = {}
        self.occurrences = 0
        # A ref's exact type lives in the store; migrating the object
        # repartitions it, so the snapshot must track store versions.
        self.reads_store = False
        for element, count in collection.items():
            exact = exact_type_of(element, ctx)
            bucket = self._partitions.setdefault(exact, {})
            bucket[element] = count
            self.occurrences += count
            if isinstance(element, Ref):
                self.reads_store = True
        self.source = collection
        _stamp(self, ctx)

    def types(self) -> List[Optional[str]]:
        return list(self._partitions)

    def lookup(self, types) -> MultiSet:
        if isinstance(types, str):
            types = [types]
        tally: Dict[Any, int] = {}
        for t in types:
            for element, count in self._partitions.get(t, {}).items():
                tally[element] = tally.get(element, 0) + count
        return MultiSet(counts=tally)


class KeyIndex:
    """Hash index: key-expression value → sub-multiset of occurrences.

    The key expression is evaluated with each occurrence bound to INPUT
    (exactly a SET_APPLY subscript); occurrences whose key is ``dne`` are
    unindexed, mirroring GRP's treatment, and ``unk``-keyed occurrences
    are tallied aside so equality probes can emit the U-verdict ``unk``
    occurrences a scanning σ would produce.
    """

    kind = "keyed"

    def __init__(self, key: Expr, collection: MultiSet, ctx: EvalContext):
        if not isinstance(collection, MultiSet):
            raise TypeError("KeyIndex needs a MultiSet")
        self.key = key
        self._buckets: Dict[Any, Dict[Any, int]] = {}
        self.unk_count = 0      # occurrences whose key is unk (or that
        self.indexed_count = 0  # ARE unk) vs. occurrences bucketed
        for element, count in collection.items():
            k = key.evaluate(element, ctx)
            if k is DNE:
                continue
            if k is UNK:
                self.unk_count += count
                continue
            bucket = self._buckets.setdefault(k, {})
            bucket[element] = bucket.get(element, 0) + count
            self.indexed_count += count
        self.occurrences = self.indexed_count + self.unk_count
        self.reads_store = _key_reads_store(key)
        self.source = collection
        _stamp(self, ctx)

    def lookup(self, key_value: Any) -> MultiSet:
        return MultiSet(counts=self._buckets.get(key_value, {}))

    def bucket(self, key_value: Any) -> Optional[Dict[Any, int]]:
        """The raw (element → count) tally for *key_value*, or None —
        zero-copy, for join probes."""
        return self._buckets.get(key_value)

    def probe(self, key_value: Any) -> Iterator[Tuple[Any, int]]:
        """Occurrence chunks a σ ``key = key_value`` would keep: the
        matching bucket plus one aggregated ``unk`` occurrence for every
        U verdict (unk keys and unk elements alike)."""
        bucket = self._buckets.get(key_value)
        if bucket:
            for item in bucket.items():
                yield item
        if self.unk_count:
            yield UNK, self.unk_count

    def keys(self) -> List[Any]:
        return list(self._buckets)


class OrderedIndex:
    """Sorted-array index (the B-tree of this storage layer's scale).

    Keys bucket exactly as :class:`KeyIndex`; buckets are then grouped
    by :func:`comparability_class` and each class's keys kept sorted, so
    a range probe bisects the bound's class in O(log n + answer).
    Occurrences in *other* classes are precisely those whose comparison
    with the bound raises TypeError — ``_compare_scalars``'s U verdict —
    so the probe reports them (plus unk-keyed occurrences) as one
    aggregated ``unk`` occurrence count, bit-identical to the scan.
    """

    kind = "ordered"

    def __init__(self, key: Expr, collection: MultiSet, ctx: EvalContext):
        if not isinstance(collection, MultiSet):
            raise TypeError("OrderedIndex needs a MultiSet")
        self.key = key
        self.unk_count = 0
        self.indexed_count = 0
        buckets: Dict[Any, Dict[Any, int]] = {}
        for element, count in collection.items():
            k = key.evaluate(element, ctx)
            if k is DNE:
                continue
            if k is UNK:
                self.unk_count += count
                continue
            bucket = buckets.setdefault(k, {})
            bucket[element] = bucket.get(element, 0) + count
            self.indexed_count += count
        self._groups: Dict[Any, dict] = {}
        for k, bucket in buckets.items():
            cls = comparability_class(k)
            group = self._groups.setdefault(
                cls, {"pairs": [], "count": 0, "sortable": True})
            group["pairs"].append((k, bucket))
            group["count"] += sum(bucket.values())
        for group in self._groups.values():
            try:
                group["pairs"].sort(key=lambda pair: pair[0])
            except TypeError:
                # Members of this class don't order even among
                # themselves; every comparison is a U verdict.
                group["sortable"] = False
            else:
                group["keys"] = [k for k, _ in group["pairs"]]
        self.occurrences = self.indexed_count + self.unk_count
        self.reads_store = _key_reads_store(key)
        self.source = collection
        _stamp(self, ctx)

    def keys(self) -> List[Any]:
        return [k for group in self._groups.values()
                for k, _ in group["pairs"]]

    def probe_range(self, low: Any = UNBOUNDED, high: Any = UNBOUNDED,
                    incl_low: bool = True,
                    incl_high: bool = True) -> Iterator[Tuple[Any, int]]:
        """Occurrence chunks a σ over ``low ⋖ key ⋖ high`` would keep.

        Matches come from the bound's comparability class via bisect;
        every occurrence in another class — where the scan's comparison
        would raise TypeError → U — and every unk-keyed occurrence is
        folded into one trailing ``unk`` chunk.
        """
        bound = low if low is not UNBOUNDED else high
        cls = comparability_class(bound)
        unk = self.unk_count
        for group_cls, group in self._groups.items():
            if group_cls != cls or not group["sortable"]:
                unk += group["count"]
                continue
            keys = group["keys"]
            if low is UNBOUNDED:
                lo = 0
            elif incl_low:
                lo = bisect_left(keys, low)
            else:
                lo = bisect_right(keys, low)
            if high is UNBOUNDED:
                hi = len(keys)
            elif incl_high:
                hi = bisect_right(keys, high)
            else:
                hi = bisect_left(keys, high)
            for _, bucket in group["pairs"][lo:hi]:
                for item in bucket.items():
                    yield item
        if unk:
            yield UNK, unk


#: Index classes by definition kind.
_INDEX_KINDS = {"typed": TypedPartitionIndex, "keyed": KeyIndex,
                "ordered": OrderedIndex}


class IndexCatalog:
    """Registry of indexes over named top-level objects.

    The compiled engine's probe lowering consults this at run time
    (``probe_typed``/``probe_keyed``/``probe_ordered`` — live snapshot
    or lazy rebuild from the definition), the optimizer to rank access
    paths, the persistence layer to round-trip definitions, and the
    shell's ``.indexes`` to report sizes and hit counters.
    """

    def __init__(self, database):
        self._database = database
        self._typed: Dict[str, TypedPartitionIndex] = {}
        self._keyed: Dict[str, Dict[Expr, KeyIndex]] = {}
        self._ordered: Dict[str, Dict[Expr, OrderedIndex]] = {}
        #: Durable definitions: (kind, name, key-expr-or-None) → True.
        self._defs: Dict[Tuple[str, str, Optional[Expr]], bool] = {}
        #: Probe counters per definition (survive rebuilds).
        self.hits: Dict[Tuple[str, str, Optional[Expr]], int] = {}
        #: Definition-change counter, one of the terms of
        #: ``Database.version``: the optimizer prices probes only
        #: against defined indexes.
        self.version = 0

    # -- definitions (durable DDL) ------------------------------------

    def _register(self, kind: str, name: str, key: Optional[Expr]) -> None:
        def_key = (kind, name, key)
        if def_key in self._defs:
            return
        self._defs[def_key] = True
        self.version += 1
        self.hits.setdefault(def_key, 0)
        journal = getattr(self._database, "journal", None)
        if journal is not None:
            journal.log_ddl({"kind": "index_create",
                             "index": self._def_json(def_key)})

    @staticmethod
    def _def_json(def_key: Tuple[str, str, Optional[Expr]]) -> dict:
        from ..core.serialize import expr_to_json
        kind, name, key = def_key
        entry = {"name": name, "kind": kind}
        if key is not None:
            entry["key"] = expr_to_json(key)
        return entry

    def create_index(self, kind: str, name: str,
                     key: Optional[Expr] = None):
        """Define (journaled DDL) and build an index; returns it."""
        if kind == "typed":
            return self.build_typed(name)
        if key is None:
            raise ValueError("%s index needs a key expression" % kind)
        if kind == "keyed":
            return self.build_keyed(name, key)
        if kind == "ordered":
            return self.build_ordered(name, key)
        raise ValueError("unknown index kind %r "
                         "(typed, keyed, ordered)" % (kind,))

    def drop_index(self, kind: str, name: str,
                   key: Optional[Expr] = None) -> bool:
        """Remove a definition (journaled DDL) and its built snapshot.

        Keyed/ordered definitions always carry a key expression, so
        ``key=None`` there means "whichever index of this kind is on
        this name" — the CLI drops by (kind, name) without asking the
        user to respell the key."""
        if key is None and kind != "typed":
            matches = [dk for dk in self._defs
                       if dk[0] == kind and dk[1] == name]
            if not matches:
                return False
            return all(self.drop_index(*dk) for dk in matches)
        def_key = (kind, name, key)
        if def_key not in self._defs:
            return False
        payload = self._def_json(def_key)
        del self._defs[def_key]
        self.version += 1
        self.hits.pop(def_key, None)
        if kind == "typed":
            self._typed.pop(name, None)
        elif kind == "keyed":
            self._keyed.get(name, {}).pop(key, None)
        else:
            self._ordered.get(name, {}).pop(key, None)
        journal = getattr(self._database, "journal", None)
        if journal is not None:
            journal.log_ddl({"kind": "index_drop", "index": payload})
        INDEX_DROPS_TOTAL.inc(kind=kind)
        return True

    def restore(self, entries: List[dict]) -> None:
        """Re-register definitions from a snapshot or a replayed WAL
        record — no journaling (the caller IS the journal).  Builds
        eagerly when the named object exists; otherwise the definition
        waits for ``probe_*`` to rebuild on demand."""
        from ..core.serialize import expr_from_json
        for entry in entries:
            kind = entry["kind"]
            key = expr_from_json(entry["key"]) if "key" in entry else None
            def_key = (kind, entry["name"], key)
            self._defs[def_key] = True
            self.version += 1
            self.hits.setdefault(def_key, 0)
            try:
                self._build(def_key)
            except KeyError:
                pass  # named object absent; definition stays pending

    def remove_definition(self, entry: dict) -> None:
        """Apply a replayed ``index_drop`` — no journaling."""
        from ..core.serialize import expr_from_json
        kind = entry["kind"]
        key = expr_from_json(entry["key"]) if "key" in entry else None
        def_key = (kind, entry["name"], key)
        self._defs.pop(def_key, None)
        self.version += 1
        self.hits.pop(def_key, None)
        if kind == "typed":
            self._typed.pop(entry["name"], None)
        elif kind == "keyed":
            self._keyed.get(entry["name"], {}).pop(key, None)
        else:
            self._ordered.get(entry["name"], {}).pop(key, None)

    def has_definition(self, name: str,
                       kind: Optional[str] = None) -> bool:
        """Whether a definition exists for *name* (optionally of *kind*).
        The cost model consults this before pricing a probe path."""
        return any(dk[1] == name and (kind is None or dk[0] == kind)
                   for dk in self._defs)

    @staticmethod
    def _def_sort(def_key: Tuple[str, str, Optional[Expr]]):
        kind, name, key = def_key
        return (0 if kind == "typed" else 1, name, kind,
                key.describe() if key is not None else "")

    def definitions(self) -> List[dict]:
        """Serializable definitions of every index whose named object
        still exists (a dropped name kills its definitions).  The
        persistence layer stores these and rebuilds on load — index
        contents are derived data, only definitions need to survive."""
        defs: List[dict] = []
        for def_key in sorted(self._defs, key=self._def_sort):
            try:
                self._database.get(def_key[1])
            except KeyError:
                continue
            defs.append(self._def_json(def_key))
        return defs

    # -- builds -------------------------------------------------------

    def _build(self, def_key: Tuple[str, str, Optional[Expr]]):
        kind, name, key = def_key
        ctx = self._database.context()
        collection = self._database.get(name)
        if kind == "typed":
            index = TypedPartitionIndex(collection, ctx)
            self._typed[name] = index
        elif kind == "keyed":
            index = KeyIndex(key, collection, ctx)
            self._keyed.setdefault(name, {})[key] = index
        else:
            index = OrderedIndex(key, collection, ctx)
            self._ordered.setdefault(name, {})[key] = index
        INDEX_BUILDS_TOTAL.inc(kind=kind)
        return index

    def build_typed(self, name: str) -> TypedPartitionIndex:
        """(Re)build the typed-partition index over named object *name*."""
        index = self._build(("typed", name, None))
        self._register("typed", name, None)
        return index

    def build_keyed(self, name: str, key: Expr) -> KeyIndex:
        index = self._build(("keyed", name, key))
        self._register("keyed", name, key)
        return index

    def build_ordered(self, name: str, key: Expr) -> OrderedIndex:
        index = self._build(("ordered", name, key))
        self._register("ordered", name, key)
        return index

    # -- legacy accessors: report the built snapshot, never rebuild ----

    def typed(self, name: str) -> Optional[TypedPartitionIndex]:
        index = self._typed.get(name)
        if index is not None and index.source is not self._database.get(name):
            # The named object was re-created; the snapshot is stale.
            del self._typed[name]
            return None
        return index

    def keyed(self, name: str, key: Expr) -> Optional[KeyIndex]:
        index = self._keyed.get(name, {}).get(key)
        if index is not None and index.source is not self._database.get(name):
            del self._keyed[name][key]
            return None
        return index

    def ordered(self, name: str, key: Expr) -> Optional[OrderedIndex]:
        index = self._ordered.get(name, {}).get(key)
        if index is not None and index.source is not self._database.get(name):
            del self._ordered[name][key]
            return None
        return index

    # -- probes: live snapshot or lazy rebuild from the definition ----

    def _is_live(self, index) -> bool:
        if index.reads_store:
            store = getattr(self._database, "store", None)
            if getattr(store, "version", None) != index.store_version:
                return False
        return True

    def _probe(self, def_key: Tuple[str, str, Optional[Expr]], built,
               count: bool):
        if def_key not in self._defs:
            return None
        if built is not None:
            try:
                current = self._database.get(def_key[1])
            except KeyError:
                return None
            if built.source is not current or not self._is_live(built):
                built = None
        if built is None:
            try:
                built = self._build(def_key)
            except (KeyError, TypeError):
                # Named object gone, or re-created as a non-multiset:
                # the definition stays pending and callers fall back to
                # their scan path (which reports the real error).
                return None
        if count:
            self.record_probe(*def_key)
        return built

    def probe_typed(self, name: str,
                    count: bool = True) -> Optional[TypedPartitionIndex]:
        return self._probe(("typed", name, None),
                           self._typed.get(name), count)

    def probe_keyed(self, name: str, key: Expr,
                    count: bool = True) -> Optional[KeyIndex]:
        return self._probe(("keyed", name, key),
                           self._keyed.get(name, {}).get(key), count)

    def probe_ordered(self, name: str, key: Expr,
                      count: bool = True) -> Optional[OrderedIndex]:
        return self._probe(("ordered", name, key),
                           self._ordered.get(name, {}).get(key), count)

    def record_probe(self, kind: str, name: str,
                     key: Optional[Expr] = None, n: int = 1) -> None:
        """Bump the per-definition hit counter and the registry metric
        (callers that peeked with ``count=False`` settle up here)."""
        def_key = (kind, name, key)
        if def_key in self._defs:
            self.hits[def_key] = self.hits.get(def_key, 0) + n
            INDEX_PROBES_TOTAL.inc(n, kind=kind)

    # -- invalidation and inheritance ---------------------------------

    def invalidate(self, name: str) -> None:
        """Drop built snapshots over *name* (definitions survive — they
        are DDL; the next probe rebuilds over the current value)."""
        self._typed.pop(name, None)
        self._keyed.pop(name, None)
        self._ordered.pop(name, None)

    def closed_types(self, type_name: str) -> frozenset:
        """The exact types a typed probe for *type_name* must union:
        C3 descendants-or-self, so a probe for Person reads the Person,
        Student, and Employee partitions."""
        hierarchy = self._database.hierarchy
        if type_name in hierarchy:
            return frozenset(hierarchy.descendants_or_self(type_name))
        return frozenset([type_name])

    # -- reporting ----------------------------------------------------

    def snapshot_view(self, view, epoch: int, cache: Dict,
                      lock) -> "IndexCatalogView":
        """A frozen view of this catalog over snapshot *view* — see
        :class:`IndexCatalogView`.  *cache* is the per-epoch built-index
        dict shared by every reader pinned to *epoch*; *lock* serializes
        lazy builds into it."""
        return IndexCatalogView(self, view, epoch, cache, lock)

    def describe_rows(self) -> List[dict]:
        """One row per definition for ``.indexes``: kind, name, key,
        size (occurrences; None while stale/unbuilt), probe hits."""
        rows: List[dict] = []
        for def_key in sorted(self._defs, key=self._def_sort):
            kind, name, key = def_key
            if kind == "typed":
                built = self._typed.get(name)
            elif kind == "keyed":
                built = self._keyed.get(name, {}).get(key)
            else:
                built = self._ordered.get(name, {}).get(key)
            live = False
            if built is not None:
                try:
                    live = (built.source is self._database.get(name)
                            and self._is_live(built))
                except KeyError:
                    live = False
            rows.append({
                "kind": kind, "name": name,
                "key": key.describe() if key is not None else "",
                "size": built.occurrences if live else None,
                "hits": self.hits.get(def_key, 0),
                "live": live,
            })
        return rows


#: Cache slot for "no build attempted yet at this epoch".
_UNBUILT = object()


class IndexCatalogView:
    """A frozen, epoch-stamped view of an :class:`IndexCatalog`.

    Secondary indexes track the *live* store, so a snapshot reader that
    probed the live catalog could surface rows committed after its
    version.  This view closes that gap: it captures the catalog's
    definitions at snapshot creation and lazily builds each probed
    index **over the snapshot's own frozen collections**, so every
    probe answer is exactly what a scan of the snapshot would produce.

    It implements the full duck-type surface the optimizer and the
    compiled engines consult on a catalog — ``has_definition`` /
    ``closed_types`` at plan time, ``probe_typed`` / ``probe_keyed`` /
    ``probe_ordered`` / ``record_probe`` at run time — so
    ``CostModel.choose_access_path`` and ``compile_plan`` consume it
    exactly like the live catalog.

    Builds are memoized in a per-epoch dict owned by the transaction
    manager and shared by every reader pinned to the same epoch (equal
    epochs imply identical data *and* definitions — index DDL commits
    and therefore advances the version).  A build happens at most once
    per (epoch, definition): concurrent probers of the same definition
    wait on the manager's build lock rather than duplicating work, and
    a snapshot never goes stale, so a built index is never rebuilt.
    Hit counters still land on the live catalog — observability tracks
    total probe traffic, not per-epoch traffic.
    """

    def __init__(self, catalog: IndexCatalog, view, epoch: int,
                 cache: Dict, lock):
        self._catalog = catalog
        self._view = view
        self.epoch = epoch
        self._cache = cache
        self._lock = lock
        # GIL-atomic copy: the writer thread may be mid-DDL, but a def
        # it is adding only ever describes data this snapshot already
        # contains (index DDL never changes collection contents), so
        # either copy is correct for this epoch.
        self._defs = dict(catalog._defs)
        self._ctx: Optional[EvalContext] = None

    # -- plan-time surface -------------------------------------------

    def has_definition(self, name: str,
                       kind: Optional[str] = None) -> bool:
        return any(dk[1] == name and (kind is None or dk[0] == kind)
                   for dk in self._defs)

    def closed_types(self, type_name: str) -> frozenset:
        # The type hierarchy only grows and DDL is not undone by abort;
        # descendant types defined after the snapshot have no members
        # visible at this version, so delegating is exact.
        return self._catalog.closed_types(type_name)

    def definitions(self) -> List[dict]:
        return [IndexCatalog._def_json(dk)
                for dk in sorted(self._defs, key=IndexCatalog._def_sort)]

    # -- run-time surface --------------------------------------------

    def record_probe(self, kind: str, name: str,
                     key: Optional[Expr] = None, n: int = 1) -> None:
        self._catalog.record_probe(kind, name, key, n)

    def probe_typed(self, name: str,
                    count: bool = True) -> Optional[TypedPartitionIndex]:
        return self._probe(("typed", name, None), count)

    def probe_keyed(self, name: str, key: Expr,
                    count: bool = True) -> Optional[KeyIndex]:
        return self._probe(("keyed", name, key), count)

    def probe_ordered(self, name: str, key: Expr,
                      count: bool = True) -> Optional[OrderedIndex]:
        return self._probe(("ordered", name, key), count)

    def _probe(self, def_key: Tuple[str, str, Optional[Expr]],
               count: bool):
        if def_key not in self._defs:
            return None
        built = self._cache.get(def_key, _UNBUILT)
        if built is _UNBUILT:
            with self._lock:
                built = self._cache.get(def_key, _UNBUILT)
                if built is _UNBUILT:
                    built = self._build(def_key)
                    self._cache[def_key] = built
        if built is None:
            return None
        if count:
            self.record_probe(*def_key)
        return built

    def _build(self, def_key: Tuple[str, str, Optional[Expr]]):
        """Build one index over the snapshot (caller holds the lock).

        The build context is deliberately *unguarded*: a cancelled
        reader finishes the (bounded) build rather than poisoning the
        shared cache with a half-built index.  ``None`` is cached when
        the named object is absent or not a multiset at this version —
        callers fall back to their scan path, which reports the real
        error.
        """
        kind, name, key = def_key
        if self._ctx is None:
            db = self._catalog._database
            self._ctx = EvalContext(
                database=self._view.named, store=self._view.store,
                functions=db.functions, methods=db.methods, indexes=None)
        try:
            collection = self._view.named[name]
        except KeyError:
            return None
        try:
            if kind == "typed":
                index = TypedPartitionIndex(collection, self._ctx)
            elif kind == "keyed":
                index = KeyIndex(key, collection, self._ctx)
            else:
                index = OrderedIndex(key, collection, self._ctx)
        except TypeError:
            return None
        INDEX_BUILDS_TOTAL.inc(kind=kind)
        return index

    def __repr__(self) -> str:
        return "<IndexCatalogView @epoch%d defs=%d built=%d>" % (
            self.epoch, len(self._defs), len(self._cache))
