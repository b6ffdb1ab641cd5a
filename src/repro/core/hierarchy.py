"""A multiple-inheritance type hierarchy (a DAG of type names).

Both the OID domain machinery (Section 3.1) and the EXTRA type system
(Section 2.1) need the same substrate: a directed acyclic graph over type
names where an edge A → B means "B inherits from A".  This module holds
that substrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set


class HierarchyError(ValueError):
    """Raised for cycles, unknown types, or duplicate registrations."""


class TypeHierarchy:
    """A DAG of type names under the "inherits from" relation.

    Terminology follows the paper: A → B means B inherits from A, so A is
    a *supertype* (parent) and B a *subtype* (child).  "Descendants" and
    "ancestors" are transitive and do not include the type itself unless
    the ``_or_self`` variant is used.
    """

    def __init__(self):
        self._parents: Dict[str, List[str]] = {}
        self._children: Dict[str, List[str]] = {}
        #: Change counter, one of the terms of ``Database.version``.
        self.version = 0

    # -- construction ----------------------------------------------------

    def add_type(self, name: str, parents: Iterable[str] = ()) -> None:
        """Register *name* with the given direct supertypes.

        Parents must already be registered; cycles are rejected.
        """
        if name in self._parents:
            raise HierarchyError("type %r already registered" % name)
        parents = list(parents)
        for parent in parents:
            if parent not in self._parents:
                raise HierarchyError(
                    "unknown parent type %r for %r" % (parent, name))
        if len(set(parents)) != len(parents):
            raise HierarchyError("duplicate parent in %r" % (parents,))
        self._parents[name] = parents
        self._children[name] = []
        for parent in parents:
            self._children[parent].append(name)
        self.version += 1

    def __contains__(self, name: str) -> bool:
        return name in self._parents

    def types(self) -> List[str]:
        return list(self._parents)

    def _require(self, name: str) -> None:
        if name not in self._parents:
            raise HierarchyError("unknown type %r" % name)

    # -- navigation --------------------------------------------------------

    def parents(self, name: str) -> List[str]:
        self._require(name)
        return list(self._parents[name])

    def children(self, name: str) -> List[str]:
        self._require(name)
        return list(self._children[name])

    def ancestors(self, name: str) -> Set[str]:
        """All proper supertypes of *name* (transitive)."""
        self._require(name)
        out: Set[str] = set()
        stack = list(self._parents[name])
        while stack:
            t = stack.pop()
            if t not in out:
                out.add(t)
                stack.extend(self._parents[t])
        return out

    def descendants(self, name: str) -> Set[str]:
        """All proper subtypes of *name* (transitive)."""
        self._require(name)
        out: Set[str] = set()
        stack = list(self._children[name])
        while stack:
            t = stack.pop()
            if t not in out:
                out.add(t)
                stack.extend(self._children[t])
        return out

    def ancestors_or_self(self, name: str) -> Set[str]:
        return self.ancestors(name) | {name}

    def descendants_or_self(self, name: str) -> Set[str]:
        return self.descendants(name) | {name}

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True iff *sub* is *sup* or inherits (transitively) from it."""
        return sub == sup or sup in self.ancestors(sub)

    def linearize(self, name: str) -> List[str]:
        """C3 linearization of *name*'s ancestry (self first).

        Used for method-override resolution under multiple inheritance:
        the first type in the linearization that defines a method wins.
        """
        self._require(name)

        def merge(sequences: List[List[str]]) -> List[str]:
            result: List[str] = []
            sequences = [list(s) for s in sequences if s]
            while sequences:
                for seq in sequences:
                    head = seq[0]
                    if not any(head in other[1:] for other in sequences):
                        break
                else:
                    raise HierarchyError(
                        "inconsistent hierarchy: cannot linearize %r" % name)
                result.append(head)
                sequences = [[t for t in s if t != head] for s in sequences]
                sequences = [s for s in sequences if s]
            return result

        parents = self._parents[name]
        if not parents:
            return [name]
        return [name] + merge(
            [self.linearize(p) for p in parents] + [list(parents)])

    def topological(self) -> Iterator[str]:
        """Types in an order where every parent precedes its children."""
        seen: Set[str] = set()

        def visit(t: str):
            for p in self._parents[t]:
                if p not in seen:
                    for x in visit(p):
                        yield x
            if t not in seen:
                seen.add(t)
                yield t

        for t in self._parents:
            for x in visit(t):
                yield x

    def roots(self) -> List[str]:
        """Types with no supertypes."""
        return [t for t, ps in self._parents.items() if not ps]
