"""Built-in graph shapes, synthetic database families and the demo query.

The four 8-vertex shapes below drive most tests and benches.  PAIR_A is a
tree: a root with three branches, one a pendant leaf and two of them cherries
(paths of length two that fork into two leaves).  PAIR_B closes one cherry
into a triangle, PAIR_C closes both.  MARKER is the same tree as PAIR_A but
anchored at the root alone, so a vertex carries the marker type exactly when
its radius-2 view is the whole tree.

The demo query over these shapes returns root/pendant pairs that look like
PAIR_A, and falls back to PAIR_B pairs provided no marker vertex exists
anywhere.  The fallback clause is what makes the query non-local: a PAIR_A
copy elsewhere in the graph (equivalently, a marker vertex) invalidates every
PAIR_B answer.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .db import Database, Relation, Schema
from .neighborhoods import CanonicalType, TypeRegistry
from .query import Clause, HanfSentence, QueryNF, SphereAtom

GRAPH_SCHEMA = Schema([Relation("E", 2, symmetric=True)])

# vertex 1 is the root, vertex 4 the pendant; 2 and 3 head the cherries
PAIR_A_EDGES = ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (3, 8))
PAIR_B_EDGES = PAIR_A_EDGES + ((5, 6),)
PAIR_C_EDGES = PAIR_A_EDGES + ((5, 6), (7, 8))
SHAPE_SIZE = 8
PAIR_CENTRES = (1, 4)
MARKER_CENTRE = (1,)
SHAPE_RADIUS = 2


def graph_db(n: int, edges: Sequence[tuple[int, int]], d: int = 3) -> Database:
    return Database(GRAPH_SCHEMA, n, d, [list(edges)])


def disjoint_copies(blocks: Sequence[tuple[Sequence[tuple[int, int]], int]],
                    d: int = 3, extra_isolated: int = 0) -> Database:
    """Disjoint union of ``count`` copies per edge list, plus isolated vertices.

    Copies are laid out contiguously: copy j of an 8-vertex shape occupies
    vertices 8j+1..8j+8 in placement order.
    """
    edges: list[tuple[int, int]] = []
    offset = 0
    for edge_list, count in blocks:
        size = max((max(e) for e in edge_list), default=0)
        for _ in range(count):
            edges.extend((u + offset, v + offset) for u, v in edge_list)
            offset += size
    return graph_db(offset + extra_isolated, edges, d)


def pair_a_copies(m: int, d: int = 3) -> Database:
    return disjoint_copies([(PAIR_A_EDGES, m)], d)


def fallback_family(m: int, a_copies: int = 1, d: int = 3) -> Database:
    """m PAIR_B copies followed by ``a_copies`` PAIR_A copies."""
    return disjoint_copies([(PAIR_B_EDGES, m), (PAIR_A_EDGES, a_copies)], d)


def isolated_db(n: int, d: int = 3) -> Database:
    return graph_db(n, [], d)


def planted_isolated_db(n: int, isolated: int, rng: random.Random, d: int = 3) -> Database:
    """n vertices of which exactly ``isolated`` have degree zero.

    The remaining vertices are perfectly matched (one edge each); vertex ids
    are shuffled so the isolated set is not an id prefix.
    """
    busy = n - isolated
    if busy % 2:
        raise ValueError("n - isolated must be even")
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    edges = [(ids[2 * i], ids[2 * i + 1]) for i in range(busy // 2)]
    return graph_db(n, edges, d)


def random_bounded_db(n: int, d: int, rng: random.Random,
                      tuple_target: Optional[int] = None,
                      schema: Schema = GRAPH_SCHEMA) -> Database:
    """Random database built by rejection sampling under the degree bound."""
    if tuple_target is None:
        tuple_target = n  # sparse by default
    degrees = [0] * (n + 1)
    chosen: list[set] = [set() for _ in schema.relations]
    attempts = 0
    placed = 0
    while placed < tuple_target and attempts < 20 * tuple_target + 100:
        attempts += 1
        rel_idx = rng.randrange(len(schema.relations))
        rel = schema.relations[rel_idx]
        tup = tuple(rng.randint(1, n) for _ in range(rel.arity))
        if rel.symmetric:
            if tup[0] == tup[1]:
                continue
            tup = (min(tup), max(tup))
        if tup in chosen[rel_idx]:
            continue
        parts = set(tup)
        if any(degrees[e] + 1 > d for e in parts):
            continue
        chosen[rel_idx].add(tup)
        for e in parts:
            degrees[e] += 1
        placed += 1
    return Database(schema, n, d, [sorted(s) for s in chosen])


# -- built-in types and the demo query --------------------------------------


def shape_types(registry: TypeRegistry, d: int = 3) -> dict[str, CanonicalType]:
    """Canonical types of the four shapes, interned in the given registry."""
    out = {}
    for name, edges, centres in (
        ("pair_a", PAIR_A_EDGES, PAIR_CENTRES),
        ("pair_b", PAIR_B_EDGES, PAIR_CENTRES),
        ("pair_c", PAIR_C_EDGES, PAIR_CENTRES),
        ("marker", PAIR_A_EDGES, MARKER_CENTRE),
    ):
        db = graph_db(SHAPE_SIZE, edges, d)
        out[name] = registry.type_of(db, centres, SHAPE_RADIUS)
    return out


def demo_query(registry: TypeRegistry, d: int = 3) -> QueryNF:
    """PAIR_A pairs, or PAIR_B pairs when no marker vertex exists."""
    types = shape_types(registry, d)
    r = SHAPE_RADIUS
    clause_a = Clause(SphereAtom(types["pair_a"], r), ())
    clause_b = Clause(
        SphereAtom(types["pair_b"], r),
        (HanfSentence(negated=True, threshold=1, type=types["marker"], radius=r),),
    )
    return QueryNF(k=2, radius=r, degree_bound=d, clauses=(clause_a, clause_b))


def local_pair_a_query(registry: TypeRegistry, d: int = 3) -> QueryNF:
    types = shape_types(registry, d)
    return QueryNF(k=2, radius=SHAPE_RADIUS, degree_bound=d,
                   clauses=(Clause(SphereAtom(types["pair_a"], SHAPE_RADIUS), ()),))


def isolated_pair_query(registry: TypeRegistry, d: int = 3, radius: int = 1) -> QueryNF:
    """Two distinct isolated vertices; a dense, disconnected 2-centre type."""
    db = isolated_db(2, d)
    t = registry.type_of(db, (1, 2), radius)
    return QueryNF(k=2, radius=radius, degree_bound=d,
                   clauses=(Clause(SphereAtom(t, radius), ()),))


def general_iso_query(registry: TypeRegistry, d: int = 3) -> QueryNF:
    """Radius-2 isolated pairs, provided no marker vertex exists; not local."""
    sphere = isolated_pair_query(registry, d, radius=2).clauses[0].sphere
    marker = shape_types(registry, d)["marker"]
    return QueryNF(k=2, radius=2, degree_bound=d, clauses=(
        Clause(sphere, (HanfSentence(True, 1, marker, 2),)),))


def isolated_vertex_query(registry: TypeRegistry, d: int = 3, radius: int = 1) -> QueryNF:
    db = isolated_db(1, d)
    t = registry.type_of(db, (1,), radius)
    return QueryNF(k=1, radius=radius, degree_bound=d,
                   clauses=(Clause(SphereAtom(t, radius), ()),))
