"""Per-database caches for neighbourhood type lookups.

Membership checks in the enumeration engine reduce to "what is the type of
this tuple", evaluated many times against one immutable database.  The cache
exploits two structural facts:

* the type of a single element is a pure function of the element, so it can
  sit in a flat array filled on first touch.  ``element_types_many`` serves
  the engine's bulk rounds and the sampling tester: it types all of a call's
  misses in one batched extraction over the database's CSR arrays
  (``TypeRegistry.element_types``), in ascending element order, so types are
  interned as one ``element_type`` call per miss would intern them;
* when the components of a tuple are pairwise far apart (distance greater
  than 2r+1, so their balls neither meet nor touch through a tuple), the
  tuple's type is determined by the component types alone, via the disjoint
  composition interned in the registry.

``split_table`` serves the split search and the engine's memberships: per
type set, the partitions of the target types into the components of their
neighbourhoods, each with its targets and per-position element-type filters.

Everything here is semantically transparent: ``tuple_type`` agrees with
extracting and canonicalizing the neighbourhood directly, which the test
suite checks property-style.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .db import Database, gaifman_ball, sorted_unique
from .errors import ElementOutOfRange, ParameterError
from .neighborhoods import TypeRegistry, extract_neighbourhood


def group_positions(cache: "TypeCache", btuple: Sequence[int], radius: int) -> list[list[int]]:
    """Partition tuple positions into chains of elements at distance at most 2r+1.

    Distinct groups have disjoint radius-r balls and no tuple spans them, so
    ``TypeCache.tuple_type`` composes the tuple's type from theirs; this
    serves that test only.  A tuple's split is its type's ``partition``, which
    is finer when a tuple of arity 3 or more brings two centres within 2r+1
    without lying inside their balls.  Groups are ordered by smallest
    position; 0-based.
    """
    k = len(btuple)
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            if find(i) != find(j) and cache.within_chain_distance(btuple[i], btuple[j], radius):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


class TypeCache:
    """Lazy per-database caches keyed by (element, radius).

    Element lookups reject elements outside [1, n] with ``ElementOutOfRange``.
    """

    def __init__(self, db: Database, registry: TypeRegistry):
        self.db = db
        self.registry = registry
        self._balls: dict[tuple[int, int], frozenset[int]] = {}
        self._etype: dict[int, np.ndarray] = {}  # radius -> array of type ids (-1 unknown)
        self._tuple_memo: dict[tuple, int] = {}
        self._splits: dict[tuple[frozenset[int], int], dict[tuple, tuple]] = {}
        self.type_counts: dict[tuple[int, int], int] = {}  # exact.count_type's memo

    # -- balls and distances -------------------------------------------------

    def ball(self, element: int, radius: int) -> frozenset[int]:
        key = (element, radius)
        hit = self._balls.get(key)
        if hit is None:
            hit = frozenset(gaifman_ball(self.db, (element,), radius))
            self._balls[key] = hit
        return hit

    def within_chain_distance(self, a: int, b: int, radius: int) -> bool:
        """dist(a, b) <= 2*radius+1, tested with two cached balls."""
        if a == b:
            return True
        return not self.ball(a, radius).isdisjoint(self.ball(b, radius + 1))

    # -- element types ---------------------------------------------------------

    def _etype_array(self, radius: int) -> np.ndarray:
        arr = self._etype.get(radius)
        if arr is None:
            arr = np.full(self.db.n + 1, -1, dtype=np.int64)
            self._etype[radius] = arr
        return arr

    def _check_element(self, element: int) -> None:
        if not 1 <= element <= self.db.n:
            raise ElementOutOfRange(f"element {element} outside [1, {self.db.n}]")

    def element_type(self, element: int, radius: int) -> int:
        self._check_element(element)
        arr = self._etype_array(radius)
        tid = arr[element]
        if tid < 0:
            tid = self.registry.type_of(self.db, (element,), radius).type_id
            arr[element] = tid
        return int(tid)

    def element_types_many(self, elements: np.ndarray, radius: int) -> np.ndarray:
        """Vectorized element-type lookup; a call's misses are typed in one batch."""
        elements = np.asarray(elements, dtype=np.int64)
        if elements.size and (elements.min() < 1 or elements.max() > self.db.n):
            self._check_element(int(elements[(elements < 1) | (elements > self.db.n)][0]))
        arr = self._etype_array(radius)
        out = arr[elements]
        missing = sorted_unique(elements[out < 0])
        if missing.size:
            arr[missing] = self.registry.element_types(self.db, missing, radius)
            out = arr[elements]
        return out

    # -- tuple types -----------------------------------------------------------

    def tuple_type(self, btuple: Sequence[int], radius: int) -> int:
        """Type id of a tuple's radius-r neighbourhood with ordered centres."""
        btuple = tuple(btuple)
        if len(btuple) == 1:
            return self.element_type(btuple[0], radius)
        memo_key = (btuple, radius)
        hit = self._tuple_memo.get(memo_key)
        if hit is not None:
            return hit
        groups = group_positions(self, btuple, radius)
        if len(groups) == 1:
            nb = extract_neighbourhood(self.db, btuple, radius)
            tid = self.registry.canonicalize(nb).type_id
        else:
            pattern = [0] * len(btuple)
            comp_types = []
            for gi, grp in enumerate(groups):
                for pos in grp:
                    pattern[pos] = gi
                sub = tuple(btuple[pos] for pos in grp)
                if len(sub) == 1:
                    comp_types.append(self.element_type(sub[0], radius))
                else:
                    comp_types.append(self.tuple_type(sub, radius))
            tid = self.registry.compose_disjoint(tuple(pattern), tuple(comp_types), radius)
        self._tuple_memo[memo_key] = tid
        return tid

    def split_table(self, type_ids: frozenset[int], k: int) -> dict[tuple, tuple]:
        """Per partition that a k-ary target has: (position filters, targets).

        The filters are, per position, the 1-centre types that the partition's
        targets restrict to there; built once per (type set, k).
        """
        key = (type_ids, k)
        hit = self._splits.get(key)
        if hit is None:
            entries: dict[tuple, tuple[list[set[int]], set[int]]] = {}
            for tid in type_ids:
                t = self.registry.by_id(tid)
                if len(t.representative.centres) != k:
                    continue
                allowed, targets = entries.setdefault(t.partition,
                                                      ([set() for _ in range(k)], set()))
                targets.add(tid)
                for pos in range(k):
                    allowed[pos].add(self.registry.centre_restriction(t, pos))
            hit = self._splits[key] = {
                partition: (tuple(frozenset(s) for s in allowed), frozenset(targets))
                for partition, (allowed, targets) in entries.items()}
        return hit

    def tuple_type_direct(self, btuple: Sequence[int], radius: int) -> int:
        """Bypass the composition path; reference for property tests."""
        nb = extract_neighbourhood(self.db, tuple(btuple), radius)
        return self.registry.canonicalize(nb).type_id


def check_cache(db: Database, cache: TypeCache) -> None:
    """Raise ParameterError unless ``cache`` serves ``db`` itself.

    A cache over another database would answer every type lookup for that
    database, so the entry points check it before the first lookup.
    """
    if cache.db is not db:
        raise ParameterError("cache was built over another database")
