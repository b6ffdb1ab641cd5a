"""OID generation and domain semantics under multiple inheritance.

Section 3.1 gives object-identifier domains a set-theoretic semantics.
The base construction: let f : T → P be a 1-1 map from type names to
positive integers; then R(n), the raw OID pool of type n, is the set of
integers whose decimal representation begins with f(n) ones followed by a
zero.  The pools R(n) are pairwise disjoint and each is infinite.

On top of the raw pools, the *domain* of OIDs for a type, written
Odom(A), must obey five rules (quoted informally):

  1. every Odom is infinite;
  2. Odom(A) minus the Odoms of all of A's subtypes is still infinite;
  3. A → B (B inherits from A) implies Odom(B) ⊆ Odom(A);
  4. types sharing no descendants have disjoint Odoms;
  5. if every type in a set B inherits from every type in a set A, then
     the OIDs of the B's are OIDs of every A (⋃ᵢ Odom(Bᵢ) ⊆ ⋂ⱼ Odom(Aⱼ)).

We realise these rules structurally:

    Odom(A) = ⋃ { R(t) : t is A or a descendant of A }.

Rule 1 holds because R(A) ⊆ Odom(A) is infinite.  Rule 2 holds because
R(A) itself is disjoint from every other pool.  Rule 3 holds because
descendants(B) ⊆ descendants(A).  Rule 4 holds because the union ranges
over disjoint descendant sets.  Rule 5 holds because every Bᵢ is a
descendant of every Aⱼ, so R-pools of B-descendants occur in every
Odom(Aⱼ).

An OID therefore *encodes* the exact type it was allocated for, and
membership in Odom(A) is decidable by decoding the prefix and asking the
hierarchy whether that exact type is A or below it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set

from .hierarchy import TypeHierarchy
from .values import Ref


class OIDError(ValueError):
    """Raised for malformed OIDs or illegal domain operations."""


class OIDGenerator:
    """Allocates OIDs using the paper's integer-prefix construction.

    Parameters
    ----------
    hierarchy:
        The type hierarchy used to answer Odom membership questions.
        Types are assigned their f-codes on first allocation (or via
        :meth:`code_for`), in registration order, which keeps the mapping
        1-1 as required.
    """

    def __init__(self, hierarchy: TypeHierarchy):
        self._hierarchy = hierarchy
        self._codes: Dict[str, int] = {}
        self._next_code = 1
        self._counters: Dict[str, int] = {}
        # Identity allocation is shared process state: the network
        # server's writer thread and any number of reader threads
        # (REF minting objects mid-query passes through to the live
        # store) may allocate concurrently.  The read-modify-write on
        # the per-type counter and the f-code assignment are not
        # GIL-atomic, so both take this lock; reentrant because
        # new_oid → code_for.
        self._lock = threading.RLock()

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self._hierarchy

    # -- the f : T → P map ------------------------------------------------

    def code_for(self, type_name: str) -> int:
        """The positive integer f(type_name); assigned on first use."""
        if type_name not in self._hierarchy:
            raise OIDError("unknown type %r" % type_name)
        with self._lock:
            if type_name not in self._codes:
                self._codes[type_name] = self._next_code
                self._next_code += 1
            return self._codes[type_name]

    def _type_for_code(self, code: int) -> str:
        for name, c in self._codes.items():
            if c == code:
                return name
        raise OIDError("no type has f-code %d" % code)

    # -- allocation ---------------------------------------------------------

    def new_oid(self, exact_type: str) -> int:
        """Allocate a fresh OID drawn from R(exact_type).

        The integer's decimal form is f(exact_type) ones, a zero, then a
        per-type counter — the paper's construction verbatim.
        """
        with self._lock:
            code = self.code_for(exact_type)
            counter = self._counters.get(exact_type, 0) + 1
            self._counters[exact_type] = counter
        return int("1" * code + "0" + str(counter))

    def new_ref(self, exact_type: str) -> Ref:
        """Allocate a fresh OID and wrap it in a :class:`Ref`."""
        return Ref(self.new_oid(exact_type), exact_type)

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """The generator's durable state: the f-codes and counters."""
        with self._lock:
            return {"codes": dict(self._codes),
                    "counters": dict(self._counters)}

    def restore(self, state: dict) -> None:
        """Restore a snapshot (keeps OID allocation gap-free and the
        f-map stable across save/load cycles)."""
        with self._lock:
            self._codes = dict(state.get("codes", {}))
            self._counters = dict(state.get("counters", {}))
            self._next_code = max(self._codes.values(), default=0) + 1

    # -- decoding -----------------------------------------------------------

    def exact_type_of(self, oid: int) -> str:
        """Decode the R-pool (exact allocation type) an OID belongs to."""
        digits = str(oid)
        ones = 0
        while ones < len(digits) and digits[ones] == "1":
            ones += 1
        if ones == 0 or ones >= len(digits) or digits[ones] != "0":
            raise OIDError("malformed OID %r (no 1…10 prefix)" % oid)
        return self._type_for_code(ones)

    def in_raw_pool(self, oid: int, type_name: str) -> bool:
        """oid ∈ R(type_name)?"""
        try:
            return self.exact_type_of(oid) == type_name
        except OIDError:
            return False

    def in_odom(self, oid: int, type_name: str) -> bool:
        """oid ∈ Odom(type_name)?  True when the OID's exact type is
        *type_name* or one of its descendants (rules 3 and 5)."""
        try:
            exact = self.exact_type_of(oid)
        except OIDError:
            return False
        if type_name not in self._hierarchy:
            raise OIDError("unknown type %r" % type_name)
        return self._hierarchy.is_subtype(exact, type_name)

    def odom_types(self, type_name: str) -> Set[str]:
        """The set of raw pools whose union forms Odom(type_name)."""
        return self._hierarchy.descendants_or_self(type_name)

    # -- rule checking (used by tests and sanity tooling) --------------------

    def odom_sample(self, type_name: str, per_type: int = 3) -> List[int]:
        """A finite sample of Odom(type_name): the first few counters of
        every contributing raw pool.  Purely for inspection/testing —
        domains themselves are infinite."""
        sample = []
        for t in sorted(self.odom_types(type_name)):
            code = self.code_for(t)
            for counter in range(1, per_type + 1):
                sample.append(int("1" * code + "0" + str(counter)))
        return sample

    def check_rules(self) -> None:
        """Verify rules 2–5 hold for the registered hierarchy.

        Rules about infinitude (1 and the ∞ part of 2) hold by
        construction — every raw pool has unboundedly many counters — so
        this checks the finite, structural content: pool disjointness and
        the containment relations between Odoms expressed as sets of
        contributing pools.
        """
        types = self._hierarchy.types()
        pools = {t: self.odom_types(t) for t in types}
        for a in types:
            # Rule 2 (structural part): A's own raw pool is never given
            # away to a subtype, so the residue contains R(A).
            residue = pools[a] - set().union(
                *[pools[c] for c in self._hierarchy.children(a)] or [set()])
            if a not in residue:
                raise OIDError("rule 2 violated at %r" % a)
            for b in types:
                related = self._hierarchy.is_subtype(
                    a, b) or self._hierarchy.is_subtype(b, a)
                shared = (self._hierarchy.descendants_or_self(a)
                          & self._hierarchy.descendants_or_self(b))
                if not shared and pools[a] & pools[b]:
                    raise OIDError("rule 4 violated between %r and %r" % (a, b))
                if self._hierarchy.is_subtype(b, a):
                    if not pools[b] <= pools[a]:
                        raise OIDError("rule 3 violated: Odom(%r) ⊄ Odom(%r)"
                                       % (b, a))

    def migrate_ok(self, oid: int, new_type: str) -> bool:
        """Can an object with *oid* present itself as *new_type* without
        changing identity?

        Type migration (end of §3.1) is legal exactly when the OID is
        already in Odom(new_type) — i.e. migrating upward, or sideways
        within the descendant cone the OID was drawn from.
        """
        return self.in_odom(oid, new_type)
