"""Runtime values for the EXCESS algebra.

The algebra of Vandenberg & DeWitt (SIGMOD 1991) is *many-sorted*: its
structures are scalars, tuples, multisets, arrays, and references (OIDs),
composed arbitrarily.  This module defines the immutable runtime
representation of each sort.

Design notes
------------
* Every value is immutable and hashable, so multisets of multisets, arrays
  of tuples of arrays, etc. all work uniformly.  Plain Python ``int``,
  ``float``, ``str``, and ``bool`` serve as the "val" sort.
* Two distinguished nulls exist, following Section 3.2.4 of the paper:
  ``DNE`` ("does not exist") and ``UNK`` ("unknown").  ``dne`` values are
  discarded whenever a multiset is formed — this is precisely how the COMP
  operator simulates relational selection.  ``unk`` values propagate.
* Multiset equality is cardinality-wise: two multisets are equal iff every
  element has the same cardinality in both (Section 3.2.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple


class Null:
    """A null constant.  Exactly two instances exist: ``DNE`` and ``UNK``.

    ``DNE`` means "does not exist" and is silently dropped by multiset
    constructors; ``UNK`` means "unknown" and propagates through
    comparisons (three-valued logic).
    """

    __slots__ = ("kind",)

    _instances: Dict[str, "Null"] = {}

    def __new__(cls, kind: str) -> "Null":
        if kind not in ("dne", "unk"):
            raise ValueError("null kind must be 'dne' or 'unk', got %r" % kind)
        if kind not in cls._instances:
            inst = super().__new__(cls)
            inst.kind = kind
            cls._instances[kind] = inst
        return cls._instances[kind]

    def __repr__(self) -> str:
        return self.kind

    def __hash__(self) -> int:
        return hash(("Null", self.kind))

    def __eq__(self, other: Any) -> bool:
        return self is other

    def __reduce__(self):
        return (Null, (self.kind,))


#: The "does not exist" null — discarded by multiset construction.
DNE = Null("dne")
#: The "unknown" null — propagates through predicates.
UNK = Null("unk")


def is_null(value: Any) -> bool:
    """Return True if *value* is one of the two null constants."""
    return isinstance(value, Null)


class Ref:
    """A reference: an object identifier (OID) treated as an algebraic value.

    The paper's "ref" type constructor gives identity to any structure;
    a ``Ref`` is an opaque handle whose equality is OID equality.  The
    target object lives in an object store and is reached via DEREF.

    Parameters
    ----------
    oid:
        The object identifier.  The paper constructs OIDs as integers whose
        decimal representation encodes the type (see :mod:`repro.core.oid`);
        any hashable token works here.
    type_name:
        Optional name of the (most specific known) type of the referent;
        carried for diagnostics and typed dispatch, not for equality.
    """

    __slots__ = ("oid", "type_name")

    def __init__(self, oid: Any, type_name: str = None):
        object.__setattr__(self, "oid", oid)
        object.__setattr__(self, "type_name", type_name)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Ref is immutable")

    def __repr__(self) -> str:
        if self.type_name:
            return "Ref(%r, %s)" % (self.oid, self.type_name)
        return "Ref(%r)" % (self.oid,)

    def __hash__(self) -> int:
        return hash(("Ref", self.oid))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Ref) and self.oid == other.oid

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)


class Tup:
    """An immutable, ordered, named tuple of algebra values.

    Field order is preserved (it matters for π and TUP_CAT results) and
    fields are accessed by name.  The empty tuple ``Tup()`` is a legal
    value (Section 3.1, condition ii).

    A tuple may carry a declared ``type_name`` — the EXTRA tuple type it
    is an instance of.  Substitutability (Section 3.1) means a multiset
    of Person may hold Student tuples; the declared name is what the
    typed SET_APPLY of Section 4 dispatches on.  The name participates
    in equality: a Student is never value-equal to an untyped tuple.
    """

    __slots__ = ("_fields", "_map", "_hash", "type_name")

    def __init__(self, fields: Mapping[str, Any] = None,
                 type_name: str = None, **kwargs: Any):
        items: Dict[str, Any] = {}
        if fields:
            items.update(fields)
        items.update(kwargs)
        object.__setattr__(self, "_fields", tuple(items.items()))
        # The same pairs as a dict, for O(1) field access (dict insertion
        # order keeps it consistent with _fields).
        object.__setattr__(self, "_map", items)
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tup is immutable")

    @classmethod
    def _from_map(cls, items: Dict[str, Any],
                  type_name: str = None) -> "Tup":
        """Internal fast constructor: adopt *items* (not copied) as the
        field map.  Callers must hand over a fresh dict."""
        self = cls.__new__(cls)
        object.__setattr__(self, "_fields", tuple(items.items()))
        object.__setattr__(self, "_map", items)
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "_hash", None)
        return self

    @property
    def fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The (name, value) pairs, in declaration order."""
        return self._fields

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __getitem__(self, name: str) -> Any:
        try:
            return self._map[name]
        except KeyError:
            raise KeyError("tuple has no field %r (fields: %s)"
                           % (name, ", ".join(self.field_names) or "<none>"))

    def get(self, name: str, default: Any = None) -> Any:
        return self._map.get(name, default)

    def project(self, names: Iterable[str]) -> "Tup":
        """Return a new tuple keeping only *names*, in the order given.

        The declared type name is dropped: a projection of a Student is
        no longer a Student.
        """
        m = self._map
        try:
            return Tup._from_map({name: m[name] for name in names})
        except KeyError:
            return Tup({name: self[name] for name in names})

    def concat(self, other: "Tup") -> "Tup":
        """TUP_CAT: concatenate two tuples.

        Raises ``ValueError`` on duplicate field names, since the result
        would be ambiguous under field extraction.
        """
        mine = self._map
        clash = [n for n in other._map if n in mine]
        if clash:
            raise ValueError("TUP_CAT field name clash: %s" % ", ".join(clash))
        merged = dict(self._fields)
        merged.update(other._fields)
        return Tup(merged)

    def replace(self, **changes: Any) -> "Tup":
        """Return a copy (same declared type) with fields replaced."""
        out = dict(self._fields)
        for name, value in changes.items():
            if name not in out:
                raise KeyError("tuple has no field %r" % name)
            out[name] = value
        return Tup(out, type_name=self.type_name)

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        return iter(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join("%s=%r" % (n, v) for n, v in self._fields)
        if self.type_name:
            return "%s(%s)" % (self.type_name, inner)
        return "(%s)" % inner

    def __hash__(self) -> int:
        # Field order is presentational only: tuples are named records, so
        # equality (and hence hashing) is order-insensitive.  This is what
        # validates TUP_CAT commutativity (Appendix rule 23).
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash(("Tup", self.type_name, frozenset(self._fields))))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Tup)
                and self.type_name == other.type_name
                and self._map == other._map)

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)


class Arr:
    """An immutable one-dimensional array of algebra values.

    Algebra arrays are variable-length (Section 3.2.3); fixed-length
    semantics are enforced at the EXTRA type level, not here.  The empty
    array ``Arr()`` is legal.  Indexing follows the paper: positions are
    1-based in operator subscripts (ARR_EXTRACT, SUBARR), while this class
    itself exposes ordinary 0-based Python indexing.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Any] = ()):
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Arr is immutable")

    @property
    def items(self) -> Tuple[Any, ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Arr(self._items[index])
        return self._items[index]

    def extract(self, position: int) -> Any:
        """ARR_EXTRACT: return the element at 1-based *position*.

        The result is the element itself, not a singleton array.
        """
        if not 1 <= position <= len(self._items):
            raise IndexError(
                "ARR_EXTRACT position %d out of bounds for array of length %d"
                % (position, len(self._items)))
        return self._items[position - 1]

    def subarr(self, lower, upper) -> "Arr":
        """SUBARR: elements from 1-based *lower* to *upper*, inclusive.

        Either bound may be the token ``"last"``.  Bounds beyond the end
        are clamped; an empty range yields the empty array.
        """
        n = len(self._items)
        lo = n if lower == "last" else int(lower)
        hi = n if upper == "last" else int(upper)
        if lo < 1:
            raise IndexError("SUBARR lower bound must be >= 1, got %r" % (lower,))
        if hi < lo:
            return Arr()
        return Arr(self._items[lo - 1:min(hi, n)])

    def concat(self, other: "Arr") -> "Arr":
        """ARR_CAT: all of self's elements followed by all of other's."""
        return Arr(self._items + other._items)

    def __repr__(self) -> str:
        return "[%s]" % ", ".join(repr(v) for v in self._items)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("Arr", self._items)))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Arr) and self._items == other._items

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)


class MultiSet:
    """An immutable multiset (bag) of algebra values.

    A multiset maps each distinct element to a positive cardinality.  Two
    multisets are equal iff every element has the same cardinality in both
    (Section 3.2.1).  ``DNE`` occurrences are silently dropped at
    construction time, per the paper's null semantics; ``UNK`` occurrences
    are kept (they are ordinary, if inscrutable, values).
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, items: Iterable[Any] = (), counts: Mapping[Any, int] = None):
        tally: Dict[Any, int] = {}
        if counts is not None:
            for element, n in counts.items():
                if element is DNE:
                    continue
                if n < 0:
                    raise ValueError("negative cardinality %d for %r" % (n, element))
                if n > 0:
                    tally[element] = tally.get(element, 0) + n
        for element in items:
            if element is DNE:
                continue
            tally[element] = tally.get(element, 0) + 1
        object.__setattr__(self, "_counts", tally)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MultiSet is immutable")

    # -- construction fast path ---------------------------------------

    @classmethod
    def _from_tally(cls, tally: Dict[Any, int]) -> "MultiSet":
        """Adopt *tally* as the counts dict without copying or checking.

        Internal fast path for operators and the streaming engine, which
        build tallies element-by-element and can guarantee the invariants
        (no DNE keys, strictly positive counts).  The caller must not
        mutate *tally* afterwards.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_counts", tally)
        object.__setattr__(self, "_hash", None)
        return self

    # -- inspection ---------------------------------------------------

    @property
    def counts(self) -> Mapping[Any, int]:
        """Copy of element → cardinality (safe to mutate).

        Hot paths should prefer :meth:`items` / :meth:`occurrences`,
        which iterate the underlying tally without copying it.
        """
        return dict(self._counts)

    def items(self):
        """Zero-copy iteration over (element, cardinality) pairs."""
        return self._counts.items()

    def occurrences(self):
        """Alias of :meth:`items`: the multiset as (element, count)
        occurrence pairs — the chunk format the streaming engine uses."""
        return self._counts.items()

    def cardinality(self, element: Any) -> int:
        """Number of occurrences of *element* (0 if absent)."""
        return self._counts.get(element, 0)

    def __len__(self) -> int:
        """Total number of occurrences, |A| in the paper's notation."""
        return sum(self._counts.values())

    def distinct_count(self) -> int:
        """Number of distinct elements."""
        return len(self._counts)

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def __iter__(self) -> Iterator[Any]:
        """Iterate over every *occurrence* (elements repeat per cardinality)."""
        for element, n in self._counts.items():
            for _ in range(n):
                yield element

    def elements(self) -> Iterator[Any]:
        """Iterate over distinct elements only."""
        return iter(self._counts)

    def is_set(self) -> bool:
        """True when no element occurs more than once."""
        return all(n == 1 for n in self._counts.values())

    # -- primitive multiset algebra -----------------------------------

    def add_union(self, other: "MultiSet") -> "MultiSet":
        """⊎ — additive union: result cardinalities are summed."""
        tally = dict(self._counts)
        for element, n in other._counts.items():
            tally[element] = tally.get(element, 0) + n
        return MultiSet._from_tally(tally)

    def difference(self, other: "MultiSet") -> "MultiSet":
        """− : result cardinality is max(0, card(A) − card(B))."""
        tally = {}
        for element, n in self._counts.items():
            remaining = n - other._counts.get(element, 0)
            if remaining > 0:
                tally[element] = remaining
        return MultiSet._from_tally(tally)

    def union(self, other: "MultiSet") -> "MultiSet":
        """∪ — derived: cardinalities are the max of the inputs.

        Appendix §1: A ∪ B = (A − B) ⊎ B.
        """
        tally = dict(other._counts)
        for element, n in self._counts.items():
            tally[element] = max(tally.get(element, 0), n)
        return MultiSet._from_tally(tally)

    def intersection(self, other: "MultiSet") -> "MultiSet":
        """∩ — derived: cardinalities are the min of the inputs.

        Appendix §1: A ∩ B = A − (A − B).
        """
        tally = {}
        for element, n in self._counts.items():
            m = min(n, other._counts.get(element, 0))
            if m > 0:
                tally[element] = m
        return MultiSet._from_tally(tally)

    def dedup(self) -> "MultiSet":
        """DE — duplicate elimination: every cardinality becomes 1."""
        return MultiSet._from_tally({element: 1 for element in self._counts})

    def cross(self, other: "MultiSet") -> "MultiSet":
        """× — cartesian product producing pairs as 2-field tuples.

        The result elements are tuples with fields ``field1`` and
        ``field2`` (the appendix's rel_join definition extracts them by
        those names); cardinalities multiply, so duplicates are preserved.
        """
        tally: Dict[Any, int] = {}
        for a, na in self._counts.items():
            for b, nb in other._counts.items():
                pair = Tup(field1=a, field2=b)
                tally[pair] = tally.get(pair, 0) + na * nb
        return MultiSet._from_tally(tally)

    def collapse(self) -> "MultiSet":
        """SET_COLLAPSE — ⊎ of all member multisets.

        Every occurrence of the input must itself be a multiset.
        """
        tally: Dict[Any, int] = {}
        for element, n in self._counts.items():
            if not isinstance(element, MultiSet):
                raise TypeError(
                    "SET_COLLAPSE requires a multiset of multisets; found %r"
                    % (element,))
            for inner, m in element._counts.items():
                tally[inner] = tally.get(inner, 0) + n * m
        return MultiSet._from_tally(tally)

    # -- dunder plumbing ----------------------------------------------

    def __repr__(self) -> str:
        parts = []
        for element, n in self._counts.items():
            if n == 1:
                parts.append(repr(element))
            else:
                parts.append("%r*%d" % (element, n))
        return "{%s}" % ", ".join(parts)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash(("MultiSet", frozenset(self._counts.items()))))
        return self._hash

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, MultiSet) and self._counts == other._counts

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)


#: The sorts of the algebra, used by schema inference and dispatch.
SCALAR_TYPES = (int, float, str, bool)


def is_scalar(value: Any) -> bool:
    """True for "val"-sort values (plain Python scalars)."""
    return isinstance(value, SCALAR_TYPES)


def is_value(value: Any) -> bool:
    """True for any legal algebra value of any sort."""
    return (is_scalar(value)
            or isinstance(value, (Tup, Arr, MultiSet, Ref, Null)))


def sort_of(value: Any) -> str:
    """Return the sort name of *value*: val, tup, arr, set, ref, or null."""
    if is_scalar(value):
        return "val"
    if isinstance(value, Tup):
        return "tup"
    if isinstance(value, Arr):
        return "arr"
    if isinstance(value, MultiSet):
        return "set"
    if isinstance(value, Ref):
        return "ref"
    if isinstance(value, Null):
        return "null"
    raise TypeError("not an algebra value: %r" % (value,))
