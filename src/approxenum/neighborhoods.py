"""Neighbourhood extraction and canonical neighbourhood types.

A neighbourhood is the sub-database induced by everything within a fixed
radius of an ordered centre tuple.  Two neighbourhoods have the same type iff
there is an isomorphism between them that maps centres to centres in order.

Canonical forms come from backtracking over centre-first orderings of the
fragment, selecting the ordering whose adjacency encoding is
lexicographically least.  The search is constrained to orderings consistent
with an isomorphism-invariant refinement rank (distance layers from the
centres plus colour refinement); since every centre-respecting isomorphism
preserves the ranks, the least encoding under the constraint is the same for
isomorphic inputs, and the constraint is what keeps the search tractable on
fragments with many interchangeable elements.  Fragments are tiny (bounded
by k * d^(r+1)), so beyond that correctness wins over cleverness.

The encoding of an ordering places elements at positions 1..m (distinct
centres first, in first-occurrence order) and emits, per position p, the
element's rank followed by the sorted relation tuples whose last-placed
component sits at p.  Orderings compare row by row, shorter rows winning
ties.  Any fixed isomorphism-invariant encoding would do; this one makes the
backtracking prunable row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .db import Database, Fragment, gaifman_ball, induced_subdb, sorted_unique

Row = tuple  # one position's sorted tuple of encoded relation tuples


@dataclass(frozen=True)
class Neighbourhood:
    fragment: Fragment
    centres: tuple[int, ...]  # local ids, possibly repeated
    radius: int


@dataclass
class CanonicalType:
    """Interned isomorphism class of a neighbourhood with ordered centres."""

    type_id: int
    radius: int
    representative: Neighbourhood  # fragment elements are positions 1..m
    # 0-based centre slots grouped by the representative's Gaifman components,
    # groups ordered by first slot.  Every element of a neighbourhood is
    # connected to a centre, so there is one group per component.
    partition: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.partition)

    def __hash__(self) -> int:
        return self.type_id

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalType) and self.type_id == other.type_id


def extract_neighbourhood(db: Database, abar: Sequence[int], radius: int) -> Neighbourhood:
    """Radius-``radius`` neighbourhood of a tuple, centres kept in order.

    Local ids: distinct centres first (first-occurrence order), remaining
    ball elements in ascending source id.  Work depends only on the degree
    bound, the radius and the tuple length.
    """
    abar = tuple(abar)
    ball = gaifman_ball(db, abar, radius)
    centres_distinct = []
    for a in abar:
        if a not in centres_distinct:
            centres_distinct.append(a)
    rest = sorted(ball - set(centres_distinct))
    order = centres_distinct + rest
    frag = induced_subdb(db, ball, order=order)
    local = {e: i + 1 for i, e in enumerate(order)}
    return Neighbourhood(frag, tuple(local[a] for a in abar), radius)


def _csr_gather(ptr: np.ndarray, values: np.ndarray,
                keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every CSR entry of every key: (index into ``keys``, entry), key by key."""
    lo = ptr[keys]
    counts = ptr[keys + 1] - lo
    source = np.arange(keys.size).repeat(counts)
    ends = counts.cumsum()
    offsets = np.arange(ends[-1] if ends.size else 0) + (lo - ends + counts).repeat(counts)
    return source, values[offsets]


def _locate(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(found mask, index) of each key in a sorted, non-empty key array."""
    index = sorted_keys.searchsorted(keys)
    np.minimum(index, sorted_keys.size - 1, out=index)
    return sorted_keys[index] == keys, index


def extract_element_neighbourhoods(db: Database, elements: np.ndarray,
                                   radius: int) -> Iterator[tuple[int, tuple]]:
    """Radius-``radius`` neighbourhoods of many single elements in one batched pass.

    ``elements`` holds distinct elements of [1, n].  Yields, element by
    element, the fragment size and per-relation tuples that
    ``extract_neighbourhood(db, (e,), radius)`` builds, under the same local
    ids, and charges ``db.probes`` as its BFS would.  Balls are rows of
    (owner, element) keys packed into int64 and kept sorted, so each ball
    lists its elements ascending.
    """
    n1 = db.n + 1
    centres = np.asarray(elements, dtype=np.int64)
    count = centres.size
    if not count:
        return
    owner = np.arange(count, dtype=np.int64)
    ptr, adjacent = db.adjacency
    relations = len(db.schema.relations)
    ball = owner * n1 + centres
    front_owner, front = owner, centres
    probes = 0
    for _ in range(radius):
        if not front.size:
            break
        probes += int(db.degrees[front].sum()) + relations * front.size
        source, reached = _csr_gather(ptr, adjacent, front)
        keys = sorted_unique(front_owner[source] * n1 + reached)
        keys = keys[~_locate(ball, keys)[0]]
        ball = np.concatenate((ball, keys))
        ball.sort()
        front_owner, front = np.divmod(keys, n1)
    db.probes += probes

    # local ids: the centre is 1, the rest of its ball follows ascending
    ball_owner, members = np.divmod(ball, n1)
    sizes = np.bincount(ball_owner, minlength=count)
    starts = sizes.cumsum() - sizes
    centre_at = ball.searchsorted(owner * n1 + centres)
    index = np.arange(ball.size)
    local = index - starts[ball_owner] + 1 + (index < centre_at[ball_owner])
    local[centre_at] = 1

    per_relation = []
    for rel, rows, (inc_ptr, positions) in zip(db.schema.relations, db.rows, db.incidence):
        source, pos = _csr_gather(inc_ptr, positions, members)
        tups = rows[pos]
        # each tuple once, from its least element; kept if all of it is in the ball
        keep = members[source] == tups.min(axis=1)
        tuple_owner = ball_owner[source]
        mapped = np.empty_like(tups)
        for j in range(rel.arity):
            found, at = _locate(ball, tuple_owner * n1 + tups[:, j])
            keep &= found
            mapped[:, j] = local[at]
        tuple_owner, mapped = tuple_owner[keep], mapped[keep]
        if rel.symmetric:
            mapped.sort(axis=1)
        order = np.lexsort((*mapped.T[::-1], tuple_owner))
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(tuple_owner, minlength=count), out=bounds[1:])
        per_relation.append((list(map(tuple, mapped[order].tolist())), bounds.tolist()))

    for i, size in enumerate(sizes.tolist()):
        yield size, tuple([tuple(tups[bounds[i]:bounds[i + 1]]) for tups, bounds in per_relation])


def _refined_keys(frag: Fragment, pinned: list[int]) -> list[int]:
    """Isomorphism-invariant rank per element: centre layers plus colour refinement.

    Elements are first keyed by (distance from the centre set, centre slot),
    then the keys are refined by the multiset of incident-tuple views until
    stable.  Equal ranks are assigned exactly to elements no refinement round
    can tell apart; the ranks are preserved by every centre-respecting
    isomorphism, so constraining the canonical ordering to follow them keeps
    the canonical form well defined.
    """
    m = frag.size
    adj: list[list[int]] = [[] for _ in range(m + 1)]
    for u, v in frag.gaifman_edges():
        adj[u].append(v)
        adj[v].append(u)

    layer = [m + 1] * (m + 1)
    frontier = []
    for c in pinned:
        if layer[c] > 0:
            layer[c] = 0
            frontier.append(c)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if layer[v] > depth:
                    layer[v] = depth
                    nxt.append(v)
        frontier = nxt

    centre_slot = {}
    for i, c in enumerate(pinned):
        centre_slot[c] = i
    incident = frag.incident()

    keys: list[tuple] = [()] * (m + 1)
    for e in range(1, m + 1):
        counts = [0] * len(frag.schema.relations)
        for rel_idx, _ in incident[e]:
            counts[rel_idx] += 1
        keys[e] = (layer[e], centre_slot.get(e, -1), tuple(counts))
    symmetric = [r.symmetric for r in frag.schema.relations]
    for _ in range(m):
        ranks = {key: i for i, key in enumerate(sorted(set(keys[1:])))}
        colour = [0] + [ranks[keys[e]] for e in range(1, m + 1)]
        new_keys: list[tuple] = [()] * (m + 1)
        for e in range(1, m + 1):
            views = []
            for rel_idx, t in incident[e]:
                cols = tuple(colour[c] for c in t)
                if symmetric[rel_idx]:
                    cols = tuple(sorted(cols))
                    slots = ()
                else:
                    slots = tuple(i for i, c in enumerate(t) if c == e)
                views.append((rel_idx, slots, cols))
            new_keys[e] = (colour[e], tuple(sorted(views)))
        if len(set(new_keys[1:])) == len(set(keys[1:])):
            keys = new_keys
            break
        keys = new_keys
    ranks = {key: i for i, key in enumerate(sorted(set(keys[1:])))}
    return [0] + [ranks[keys[e]] for e in range(1, m + 1)]


def _canonical_order(frag: Fragment, centres: tuple[int, ...]) -> tuple[list[int], list[Row]]:
    """Least centre-first ordering of a fragment and its encoding rows.

    The search walks positions left to right; at each position only elements
    of the minimal refinement rank among the unplaced may be placed (an
    isomorphism-invariant constraint, so the minimum stays canonical), and
    among those the sorted candidate rows are explored with prefix pruning
    against the best complete encoding found so far.
    """
    m = frag.size
    schema = frag.schema
    symmetric = [r.symmetric for r in schema.relations]
    incident = frag.incident()

    # Distinct centres in first-occurrence order are pinned to the first slots.
    pinned = []
    for c in centres:
        if c not in pinned:
            pinned.append(c)
    k = len(pinned)
    rank = _refined_keys(frag, pinned)

    pos_of = [0] * (m + 1)  # local element -> position (0 = unplaced)
    order: list[Optional[int]] = [None] * (m + 1)  # position -> local element

    def row_for(e: int) -> Row:
        # rank of e, then the tuples completed by placing e (backward tuples)
        done = []
        for rel_idx, t in incident[e]:
            if all(pos_of[c] for c in t):
                mapped = tuple(pos_of[c] for c in t)
                if symmetric[rel_idx]:
                    mapped = (min(mapped), max(mapped))
                done.append((rel_idx,) + mapped)
        done.sort()
        prev = None
        out = [rank[e]]
        for item in done:
            if item != prev:
                out.append(item)
                prev = item
        return tuple(out)

    best_rows: Optional[list[Row]] = None
    cur_rows: list[Row] = []
    best_order: Optional[list[int]] = None
    version = 0  # bumps whenever best is replaced

    def dfs(p: int, tight: bool) -> None:
        nonlocal best_rows, best_order, version
        if p > m:
            if best_rows is None or not tight:
                best_rows = list(cur_rows)
                best_order = [order[i] for i in range(1, m + 1)]
                version += 1
            return
        min_rank = None
        pool = []
        for e in range(1, m + 1):
            if pos_of[e] == 0:
                r = rank[e]
                if min_rank is None or r < min_rank:
                    min_rank = r
                    pool = [e]
                elif r == min_rank:
                    pool.append(e)
        cands = []
        for e in pool:
            pos_of[e] = p  # tentatively, so row_for sees self-loops
            cands.append((row_for(e), e))
            pos_of[e] = 0
        cands.sort()
        my_version = version
        child_tight = tight
        for row, e in cands:
            if version != my_version:
                # best was replaced from inside this subtree; its prefix now
                # equals ours, so siblings compare tight again
                my_version = version
                child_tight = True
            if best_rows is not None and child_tight:
                ref = best_rows[p - 1]
                if row > ref:
                    break  # candidates are sorted; the rest only get worse
                deeper_tight = row == ref
            else:
                deeper_tight = False
            pos_of[e] = p
            order[p] = e
            cur_rows.append(row)
            dfs(p + 1, deeper_tight)
            pos_of[e] = 0
            order[p] = None
            cur_rows.pop()

    # pinned centre placements are forced; emit their rows first
    for i, c in enumerate(pinned, start=1):
        pos_of[c] = i
        order[i] = c
        cur_rows.append(row_for(c))
    # rows for pinned positions are identical across the search space

    dfs(k + 1, True)
    assert best_order is not None and best_rows is not None
    return best_order, best_rows


def _rebuild_fragment(frag: Fragment, ordering: list[int]) -> Fragment:
    """Relabel a fragment so local ids follow the given ordering."""
    pos_of = {e: i + 1 for i, e in enumerate(ordering)}
    rel_tuples = []
    for rel, tups in zip(frag.schema.relations, frag.tuples):
        mapped = set()
        for t in tups:
            mt = tuple(pos_of[c] for c in t)
            if rel.symmetric:
                mt = (min(mt), max(mt))
            mapped.add(mt)
        rel_tuples.append(tuple(sorted(mapped)))
    return Fragment(frag.schema, frag.size, tuple(rel_tuples))


class TypeRegistry:
    """Interning table from canonical forms to process-local type ids.

    Ids are stable within a run only; anything persisted stores the full
    representative instead.  Mutation is append-only; wrap calls in a lock if
    multiple writer threads are ever needed.
    """

    def __init__(self) -> None:
        self._by_key: dict[tuple, CanonicalType] = {}
        self._types: list[CanonicalType] = []
        self._raw_cache: dict[tuple, CanonicalType] = {}
        self._restriction_cache: dict[tuple[int, int], int] = {}
        self._compose_cache: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._types)

    def by_id(self, type_id: int) -> CanonicalType:
        return self._types[type_id]

    # -- canonicalization --------------------------------------------------

    def _raw_signature(self, nb: Neighbourhood) -> tuple:
        return (
            nb.radius,
            nb.centres,
            nb.fragment.size,
            nb.fragment.schema.signature(),
            nb.fragment.tuples,
        )

    def canonicalize(self, nb: Neighbourhood) -> CanonicalType:
        """Intern the type of a neighbourhood.

        Equal type ids are returned exactly for centre-respecting isomorphic
        inputs.  A cache keyed on the raw (pre-canonical) fragment encoding
        short-circuits repeated extractions of structurally identical balls.
        """
        raw = self._raw_signature(nb)
        hit = self._raw_cache.get(raw)
        if hit is not None:
            return hit
        ordering, rows = _canonical_order(nb.fragment, nb.centres)
        pos_of = {e: i + 1 for i, e in enumerate(ordering)}
        centre_positions = tuple(pos_of[c] for c in nb.centres)
        key = (
            nb.radius,
            centre_positions,
            nb.fragment.size,
            nb.fragment.schema.signature(),
            tuple(rows),
        )
        t = self._by_key.get(key)
        if t is None:
            rep_frag = _rebuild_fragment(nb.fragment, ordering)
            rep = Neighbourhood(rep_frag, centre_positions, nb.radius)
            labels = rep_frag.component_labels()
            groups: dict[int, list[int]] = {}
            for slot, centre in enumerate(centre_positions):
                groups.setdefault(labels[centre - 1], []).append(slot)
            t = CanonicalType(
                type_id=len(self._types),
                radius=nb.radius,
                representative=rep,
                partition=tuple(tuple(g) for g in groups.values()),
            )
            self._types.append(t)
            self._by_key[key] = t
        self._raw_cache[raw] = t
        return t

    def type_of(self, db: Database, abar: Sequence[int], radius: int) -> CanonicalType:
        return self.canonicalize(extract_neighbourhood(db, abar, radius))

    def element_types(self, db: Database, elements: np.ndarray, radius: int) -> list[int]:
        """Type ids of distinct single elements, from one batched extraction.

        One raw-cache lookup per element, in the given order; only raw misses
        are canonicalized, so types are interned as ``type_of`` called element
        by element would intern them.
        """
        schema = db.schema
        signature = schema.signature()
        out = []
        for size, tuples in extract_element_neighbourhoods(db, elements, radius):
            # the key _raw_signature builds for this neighbourhood
            t = self._raw_cache.get((radius, (1,), size, signature, tuples))
            if t is None:
                t = self.canonicalize(Neighbourhood(Fragment(schema, size, tuples), (1,), radius))
            out.append(t.type_id)
        return out

    # -- derived types -----------------------------------------------------

    def centre_restriction(self, t: CanonicalType, position: int) -> int:
        """Type id of the 1-centre sub-neighbourhood around one centre.

        The ball of a single centre inside the representative, at the type's
        own radius.  Any tuple of type ``t`` has component ``position`` with
        exactly this 1-centre type, which makes it a sound elementwise filter.
        """
        cache_key = (t.type_id, position)
        hit = self._restriction_cache.get(cache_key)
        if hit is not None:
            return hit
        rep_db = t.representative.fragment.as_database(degree_bound=max(2, _max_degree(t.representative.fragment)))
        centre = t.representative.centres[position]
        sub = extract_neighbourhood(rep_db, (centre,), t.radius)
        rid = self.canonicalize(sub).type_id
        self._restriction_cache[cache_key] = rid
        return rid

    def compose_disjoint(self, pattern: tuple[int, ...], component_types: tuple[int, ...],
                         radius: int) -> int:
        """Type of a tuple whose components split into fully separated parts.

        ``pattern[j]`` names the part that tuple position j belongs to (parts
        numbered by first occurrence); ``component_types[i]`` is the type id
        of part i's sub-tuple.  The result is the type of the disjoint union
        of the part representatives with the centre tuple interleaved per the
        pattern.  Valid only when parts are pairwise at distance > 2*radius+1
        in the source database, so no tuple spans two parts.
        """
        key = (pattern, component_types, radius)
        hit = self._compose_cache.get(key)
        if hit is not None:
            return hit
        parts = [self.by_id(tid) for tid in component_types]
        schema = parts[0].representative.fragment.schema
        offset = 0
        rel_tuples: list[set] = [set() for _ in schema.relations]
        part_centres: list[tuple[int, ...]] = []
        for part in parts:
            frag = part.representative.fragment
            for rel_idx, tups in enumerate(frag.tuples):
                for t in tups:
                    rel_tuples[rel_idx].add(tuple(c + offset for c in t))
            part_centres.append(tuple(c + offset for c in part.representative.centres))
            offset += frag.size
        union = Fragment(schema, offset, tuple(tuple(sorted(s)) for s in rel_tuples))
        consumed = [0] * len(parts)
        centres = []
        for part_idx in pattern:
            centres.append(part_centres[part_idx][consumed[part_idx]])
            consumed[part_idx] += 1
        tid = self.canonicalize(Neighbourhood(union, tuple(centres), radius)).type_id
        self._compose_cache[key] = tid
        return tid


def _max_degree(frag: Fragment) -> int:
    counts: dict[int, int] = {}
    for tups in frag.tuples:
        for t in tups:
            for e in set(t):
                counts[e] = counts.get(e, 0) + 1
    return max(counts.values(), default=0)
