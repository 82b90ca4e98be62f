"""Bounded-degree relational databases with local (oracle-style) access.

A database holds each relation once, as one int64 array of shape (m, arity)
whose rows are the relation's tuples in lexicographic order, plus CSR arrays
built vectorized at construction: per relation, the positions of the tuples
containing each element, and across relations, each element's Gaifman
neighbours.  The scalar readers (``oracle``, ``neighbours``,
``gaifman_ball``, ``induced_subdb``) touch only local parts of these arrays:
the j-th tuple of relation R containing element i, the Gaifman neighbours of
an element, balls of bounded radius.  Batched readers
(``neighborhoods.extract_element_neighbourhoods``) gather the same entries
for many elements in one pass.  The arrays never change after construction;
the one field that does is ``probes``, a plain counter of incidence reads
used by the delay instrumentation.

The domain is always [1, n], with n at most ``MAX_DOMAIN`` so that a pair of
elements packs into one int64 key.  An undirected graph is modelled as a
binary relation flagged ``symmetric``: each edge is stored once as a sorted
pair, the incidence index exposes it from both endpoints, and isomorphism
treats the pair as unordered.  This keeps the degree of a vertex equal to its
number of incident edges.

Database files and query blocks share one tuple-line reader,
``read_tuple_lines``, and its inverse ``write_tuple_lines``; ``Database`` alone
checks range, self-loops and the degree bound, sorts symmetric pairs and drops
duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    DegreeExceeded,
    DomainTooLarge,
    ElementOutOfRange,
    IndexOutOfRange,
    ParseError,
)

Tuple_ = tuple  # readability alias in annotations below

# words that end a neighbourhood block in the query format, so no relation
# may take them as its name
QUERY_KEYWORDS = ("HANF", "CLAUSE", "END")


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    symmetric: bool = False


class Schema:
    """Ordered list of named relations with fixed arities."""

    def __init__(self, relations: Sequence[Relation]):
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise ParseError("relation names must be unique")
        for r in relations:
            if r.name in QUERY_KEYWORDS:
                raise ParseError(f"relation {r.name}: {r.name!r} is a query keyword")
            if r.arity < 1:
                raise ParseError(f"relation {r.name}: arity must be >= 1")
            if r.symmetric and r.arity != 2:
                raise ParseError(f"relation {r.name}: symmetric requires arity 2")
        self.relations: tuple[Relation, ...] = tuple(relations)
        self.by_name = {r.name: i for i, r in enumerate(self.relations)}

    @property
    def size(self) -> int:
        return sum(r.arity for r in self.relations)

    def signature(self) -> tuple:
        return tuple((r.name, r.arity, r.symmetric) for r in self.relations)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    @classmethod
    def parse(cls, text: str) -> "Schema":
        """Parse lines of the form ``relation <name> <arity> [symmetric]``."""
        rels = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] != "relation" or len(parts) not in (3, 4):
                raise ParseError(f"schema line {lineno}: expected 'relation <name> <arity> [symmetric]'")
            name = parts[1]
            try:
                arity = int(parts[2])
            except ValueError:
                raise ParseError(f"schema line {lineno}: bad arity {parts[2]!r}") from None
            symmetric = False
            if len(parts) == 4:
                if parts[3] != "symmetric":
                    raise ParseError(f"schema line {lineno}: unknown flag {parts[3]!r}")
                symmetric = True
            rels.append(Relation(name, arity, symmetric))
        return cls(rels)

    def serialize(self) -> str:
        lines = []
        for r in self.relations:
            flag = " symmetric" if r.symmetric else ""
            lines.append(f"relation {r.name} {r.arity}{flag}")
        return "\n".join(lines) + "\n"


def _normalize(rel: Relation, tup: Tuple_) -> Tuple_:
    if rel.symmetric:
        if tup[0] == tup[1]:
            raise ParseError(f"relation {rel.name}: symmetric relations are irreflexive, got {tup}")
        return (min(tup), max(tup))
    return tup


# every pair of elements packs into one int64 key, (n + 1) * a + b
MAX_DOMAIN = math.isqrt(2 ** 63 - 1) - 1


def _relation_rows(rel: Relation, tups: Iterable[Tuple_], n: int) -> Optional[np.ndarray]:
    """A relation's tuples, sorted and duplicate-free, as an int64 array.

    Symmetric pairs are stored in ascending order.  Raises the error of the
    first offending tuple in input order: a wrong arity, then an element
    outside [1, n], then a symmetric self-loop.  Returns None when every
    tuple is valid but some element does not fit int64, which only a domain
    too large to index admits.
    """
    tups = [tuple(t) for t in tups]
    try:
        arr = np.array(tups, dtype=np.int64) if tups else np.empty((0, rel.arity), np.int64)
    except (OverflowError, TypeError, ValueError):
        arr = None
    if (arr is None or arr.shape[1:] != (rel.arity,) or ((arr < 1) | (arr > n)).any()
            or (rel.symmetric and (arr[:, 0] == arr[:, 1]).any())):
        for t in tups:
            if len(t) != rel.arity:
                raise ArityMismatch(f"relation {rel.name}: tuple {t} has arity {len(t)}")
            for e in t:
                if not (1 <= e <= n):
                    raise ElementOutOfRange(f"relation {rel.name}: element {e} outside [1, {n}]")
            _normalize(rel, t)
        return None
    if rel.symmetric:
        arr = np.sort(arr, axis=1)
    arr = arr[np.lexsort(arr.T[::-1])]
    if len(arr) > 1:
        arr = arr[np.concatenate(([True], (arr[1:] != arr[:-1]).any(axis=1)))]
    return arr


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by one sort; numpy's hash-based unique
    is over ten times slower on many distinct int64 keys."""
    keys = keys.copy()
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def _csr(keys: np.ndarray, n: int) -> np.ndarray:
    """Offsets of a CSR index over [0, n] whose entries are grouped by ``keys``."""
    ptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n + 1), out=ptr[1:])
    return ptr


class Database:
    """Bounded-degree database over a fixed schema, held in read-only arrays.

    ``rows[i]`` holds relation ``i``, the only copy of its tuples: one
    int64 array of shape (m, arity) whose rows are sorted and distinct.
    ``tuples`` rebuilds them as Python tuples on each read, for reference
    code that scans whole relations.  Element ``a``'s entries in a CSR pair
    ``(ptr, values)`` are ``values[ptr[a]:ptr[a + 1]]``:

    * ``incidence[i]`` lists, ascending, the positions in ``rows[i]`` of the
      tuples that contain ``a``;
    * ``adjacency`` lists, ascending, ``a``'s Gaifman neighbours: the other
      elements of the tuples that contain it.

    ``degrees[a]`` counts tuples containing ``a`` across all relations and
    never exceeds ``degree_bound``.  Everything is built vectorized in
    ``__init__``; only ``probes`` changes afterwards.
    """

    __slots__ = ("schema", "n", "degree_bound", "rows", "incidence", "adjacency", "degrees",
                 "probes", "_row_views", "_incidence_views", "_adjacency_views", "_degree_view")

    def __init__(self, schema: Schema, n: int, degree_bound: int,
                 tuples_by_rel: Sequence[Iterable[Tuple_]]):
        if n < 0:
            raise ParseError("domain size must be >= 0")
        if degree_bound < 2:
            raise ParseError("degree bound must be >= 2")
        self.schema = schema
        self.n = n
        self.degree_bound = degree_bound
        self.probes = 0  # incidence probes, for delay instrumentation only

        rows = [_relation_rows(rel, tups, n) for rel, tups in zip(schema.relations, tuples_by_rel)]
        if n > MAX_DOMAIN:
            raise DomainTooLarge(f"domain {n} is too large to index (at most {MAX_DOMAIN})")
        try:
            self._build_index(rows)
        except MemoryError:
            raise DomainTooLarge(f"domain {n} is too large to index in memory") from None
        over = np.flatnonzero(self.degrees > degree_bound)
        if over.size:
            a = int(over[0])
            raise DegreeExceeded(a, int(self.degrees[a]), degree_bound)

    def _build_index(self, rows: list[np.ndarray]) -> None:
        n = self.n
        degrees = np.zeros(n + 1, dtype=np.int64)
        incidence = []
        heads, tails = [], []
        for arr in rows:
            arity = arr.shape[1]
            # an element's first column in its tuple: the incidence lists each
            # (element, tuple) once
            first = np.ones(arr.shape, dtype=bool)
            for j in range(1, arity):
                for i in range(j):
                    first[:, j] &= arr[:, j] != arr[:, i]
            elements = arr[first]
            order = np.argsort(elements, kind="stable")
            incidence.append((_csr(elements, n), np.nonzero(first)[0][order]))
            degrees += np.bincount(elements, minlength=n + 1)
            for i in range(arity):
                for j in range(arity):
                    if i != j:
                        heads.append(arr[:, i])
                        tails.append(arr[:, j])
        head = np.concatenate(heads) if heads else np.empty(0, dtype=np.int64)
        tail = np.concatenate(tails) if tails else np.empty(0, dtype=np.int64)
        keep = head != tail
        head, tail = np.divmod(sorted_unique(head[keep] * (n + 1) + tail[keep]), n + 1)
        self.rows = tuple(rows)
        self.incidence = tuple(incidence)
        self.adjacency = (_csr(head, n), tail)
        self.degrees = degrees
        for arr in (*rows, *(a for pair in incidence for a in pair), *self.adjacency, degrees):
            arr.flags.writeable = False
        # the scalar readers index memoryviews, which return Python ints; a
        # relation's rows are read through one flat view
        self._row_views = tuple(memoryview(arr.reshape(-1)) for arr in rows)
        self._incidence_views = tuple((memoryview(p), memoryview(v)) for p, v in incidence)
        self._adjacency_views = tuple(memoryview(a) for a in self.adjacency)
        self._degree_view = memoryview(degrees)

    @property
    def tuples(self) -> tuple[tuple[Tuple_, ...], ...]:
        """Per relation, its sorted tuples, built from ``rows`` on each read."""
        return tuple(tuple(map(tuple, arr.tolist())) for arr in self.rows)

    # -- oracle access -----------------------------------------------------

    def oracle(self, rel_name: str, i: int, j: int) -> Optional[Tuple_]:
        """Return the j-th tuple (lexicographic order) of a relation containing i.

        Returns None when fewer than j such tuples exist.  1-based i and j;
        i must lie in the domain and j in [1, degree bound].
        """
        if rel_name not in self.schema.by_name:
            raise IndexOutOfRange(f"unknown relation {rel_name!r}")
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"element index {i} outside [1, {self.n}]")
        if not (1 <= j <= self.degree_bound):
            raise IndexOutOfRange(f"tuple rank {j} outside [1, {self.degree_bound}]")
        rel_idx = self.schema.by_name[rel_name]
        self.probes += 1
        ptr, positions = self._incidence_views[rel_idx]
        if ptr[i + 1] - ptr[i] < j:
            return None
        arity = self.schema.relations[rel_idx].arity
        start = positions[ptr[i] + j - 1] * arity
        return tuple(self._row_views[rel_idx][start:start + arity])

    def neighbours(self, a: int) -> set[int]:
        """Gaifman neighbours of ``a`` in [1, n].

        Charged as probing the oracle with j = 1..deg for each relation: the
        tuples found plus one per relation.
        """
        ptr, adjacent = self._adjacency_views
        self.probes += self._degree_view[a] + len(self.schema.relations)
        return set(adjacent[ptr[a]:ptr[a + 1]])

    def degree(self, a: int) -> int:
        if not (1 <= a <= self.n):
            raise IndexOutOfRange(f"element {a} outside [1, {self.n}]")
        return self._degree_view[a]


def gaifman_ball(db: Database, elements: Sequence[int], radius: int) -> set[int]:
    """All elements at distance <= radius from the given tuple, by BFS.

    Work is bounded by the ball size times the degree bound; no global scan.
    """
    if radius < 0:
        raise IndexOutOfRange("radius must be >= 0")
    frontier = set()
    for a in elements:
        if not (1 <= a <= db.n):
            raise ElementOutOfRange(f"element {a} outside [1, {db.n}]")
        frontier.add(a)
    ball = set(frontier)
    for _ in range(radius):
        nxt = set()
        for a in frontier:
            nxt |= db.neighbours(a)
        nxt -= ball
        ball |= nxt
        frontier = nxt
        if not frontier:
            break
    return ball


@dataclass(frozen=True)
class Fragment:
    """Sub-database over contiguous local ids 1..size.

    ``tuples`` holds, per relation of the schema, a sorted tuple of local-id
    tuples.
    """

    schema: Schema
    size: int
    tuples: tuple[tuple[Tuple_, ...], ...]

    def incident(self) -> dict[int, list[tuple[int, Tuple_]]]:
        out: dict[int, list[tuple[int, Tuple_]]] = {e: [] for e in range(1, self.size + 1)}
        for rel_idx, tups in enumerate(self.tuples):
            for t in tups:
                for e in set(t):
                    out[e].append((rel_idx, t))
        return out

    def gaifman_edges(self) -> set[tuple[int, int]]:
        edges = set()
        for tups in self.tuples:
            for t in tups:
                comps = sorted(set(t))
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        edges.add((comps[i], comps[j]))
        return edges

    def component_labels(self) -> list[int]:
        """Gaifman-component label per element: local element e has label
        ``labels[e - 1]``, and two elements share a label exactly when they
        are connected."""
        parent = list(range(self.size + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.gaifman_edges():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return [find(e) for e in range(1, self.size + 1)]

    def as_database(self) -> Database:
        """The fragment as a database; no degree exceeds its tuple count."""
        return Database(self.schema, self.size, max(2, sum(map(len, self.tuples))), self.tuples)


def induced_subdb(db: Database, members: Iterable[int], order: Optional[Sequence[int]] = None) -> Fragment:
    """Fragment induced by a member set, relabelled to contiguous local ids.

    ``order`` fixes the local id assignment; by default members are numbered
    in ascending source id.  Only tuples with every component in the member
    set survive.
    """
    if order is None:
        order = sorted(set(members))
    else:
        order = list(order)
        if set(order) != set(members):
            raise ParseError("order must enumerate exactly the member set")
    if order and not (1 <= min(order) and max(order) <= db.n):
        raise ElementOutOfRange(f"members outside [1, {db.n}]")
    local = {e: i + 1 for i, e in enumerate(order)}
    rel_tuples: list[tuple[Tuple_, ...]] = []
    for rel, (ptr, positions), flat in zip(db.schema.relations, db._incidence_views,
                                           db._row_views):
        # walk the incidence lists of members only; no global scan
        arity = rel.arity
        seen_positions = set()
        keep = []  # distinct tuples map to distinct local tuples
        for e in order:
            for pos in positions[ptr[e]:ptr[e + 1]]:
                if pos in seen_positions:
                    continue
                seen_positions.add(pos)
                start = pos * arity
                mapped = tuple(map(local.get, flat[start:start + arity]))
                if None not in mapped:
                    keep.append(mapped)
        if rel.symmetric:
            keep = [(a, b) if a < b else (b, a) for a, b in keep]
        rel_tuples.append(tuple(sorted(keep)))
    return Fragment(db.schema, len(order), tuple(rel_tuples))


def read_tuple_lines(schema: Schema, lines: Iterable[tuple[int, str]]) -> list[list[Tuple_]]:
    """Numbered ``<relname> <e1> ... <e_ar>`` lines as tuples per relation.

    Skips blank and ``#`` lines; reports an unknown relation, a wrong arity or
    a non-integer element with its line number.  Range, symmetry and the
    degree bound are ``Database``'s to check.
    """
    by_name, relations = schema.by_name, schema.relations
    tuples_by_rel: list[list[Tuple_]] = [[] for _ in relations]
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        rel_idx = by_name.get(parts[0])
        if rel_idx is None:
            raise ParseError(f"line {lineno}: unknown relation {parts[0]!r}")
        arity = relations[rel_idx].arity
        if len(parts) - 1 != arity:
            raise ArityMismatch(f"line {lineno}: relation {parts[0]} expects {arity} elements")
        try:
            tuples_by_rel[rel_idx].append(tuple(map(int, parts[1:])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer element") from None
    return tuples_by_rel


def write_tuple_lines(schema: Schema, tuples_by_rel: Sequence[Iterable[Tuple_]]) -> list[str]:
    """The lines ``read_tuple_lines`` reads back as ``tuples_by_rel``."""
    return [rel.name + " " + " ".join(str(e) for e in t)
            for rel, tups in zip(schema.relations, tuples_by_rel) for t in tups]


def parse_database(schema: Schema, text: str, degree_bound: int) -> Database:
    """Parse the database text format.

    First non-comment line is ``domain <n>``; every further line is
    ``<relname> <e1> ... <e_ar>``, read by ``read_tuple_lines`` from the same
    line iterator.  Lines starting with ``#`` are comments.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] != "domain" or len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'domain <n>' first")
        try:
            n = int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad domain size") from None
        return Database(schema, n, degree_bound, read_tuple_lines(schema, lines))
    raise ParseError("missing 'domain <n>' line")


def load_database(schema_text: str, db_text: str, degree_bound: int) -> tuple[Schema, Database]:
    schema = Schema.parse(schema_text)
    return schema, parse_database(schema, db_text, degree_bound)


def serialize_database(db: Database) -> str:
    return "\n".join([f"domain {db.n}"] + write_tuple_lines(db.schema, db.tuples)) + "\n"
