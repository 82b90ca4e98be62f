import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from approxenum import figures
from approxenum.db import Database, Relation, Schema
from approxenum.errors import ElementOutOfRange
from approxenum.neighborhoods import TypeRegistry, extract_neighbourhood
from approxenum.typecache import TypeCache


# -- independent oracle: brute-force centre-respecting isomorphism ------------


def brute_force_isomorphic(frag_a, cents_a, frag_b, cents_b) -> bool:
    if frag_a.size != frag_b.size or len(cents_a) != len(cents_b):
        return False

    def tuple_sets(frag):
        out = []
        for rel, tups in zip(frag.schema.relations, frag.tuples):
            canon = set()
            for t in tups:
                canon.add(tuple(sorted(t)) if rel.symmetric else t)
            out.append(canon)
        return out

    sets_b = tuple_sets(frag_b)
    for perm in itertools.permutations(range(1, frag_b.size + 1)):
        mapping = {i + 1: perm[i] for i in range(frag_a.size)}
        if any(mapping[ca] != cb for ca, cb in zip(cents_a, cents_b)):
            continue
        ok = True
        for rel_idx, rel in enumerate(frag_a.schema.relations):
            mapped = set()
            for t in frag_a.tuples[rel_idx]:
                mt = tuple(mapping[c] for c in t)
                mapped.add(tuple(sorted(mt)) if rel.symmetric else mt)
            if mapped != sets_b[rel_idx]:
                ok = False
                break
        if ok:
            return True
    return False


def random_graph_db(rng, n, d=3):
    return figures.random_bounded_db(n, d, rng, tuple_target=n + rng.randrange(n))


def relabelled(db: Database, rng: random.Random):
    perm = list(range(1, db.n + 1))
    rng.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(db.n)}
    edges = [(mapping[u], mapping[v]) for u, v in db.tuples[0]]
    return figures.graph_db(db.n, edges, db.degree_bound), mapping


def test_extract_whole_shape(pair_a_db, registry):
    nb = extract_neighbourhood(pair_a_db, (1, 4), 2)
    assert nb.fragment.size == 8
    assert nb.centres == (1, 2)  # distinct centres come first in local ids


def test_extract_radius_zero(pair_a_db):
    nb = extract_neighbourhood(pair_a_db, (5,), 0)
    assert nb.fragment.size == 1
    assert all(not t for t in nb.fragment.tuples)


def test_extract_cross_copy_sizes(registry):
    # derived by BFS: root ball has 8 elements, pendant ball 4
    db = figures.pair_a_copies(2)
    nb = extract_neighbourhood(db, (1, 8 + 4), 2)
    assert nb.fragment.size == 8 + 4
    assert registry.canonicalize(nb).component_count == 2
    nb_roots = extract_neighbourhood(db, (1, 8 + 1), 2)
    assert nb_roots.fragment.size == 16
    assert registry.canonicalize(nb_roots).component_count == 2


def test_relabel_invariance_fixed(pair_a_db, registry, rng):
    t1 = registry.type_of(pair_a_db, (1, 4), 2)
    for _ in range(20):
        db2, mapping = relabelled(pair_a_db, rng)
        t2 = registry.type_of(db2, (mapping[1], mapping[4]), 2)
        assert t2.type_id == t1.type_id


def test_distinct_shapes_distinct_types(registry):
    types = figures.shape_types(registry)
    ids = {t.type_id for t in types.values()}
    assert len(ids) == 4


def test_centre_order_sensitivity(pair_a_db, registry):
    t_fwd = registry.type_of(pair_a_db, (1, 4), 2)
    t_rev = registry.type_of(pair_a_db, (4, 1), 2)
    # oracle: no automorphism swaps root and pendant (degrees differ)
    nb_fwd = extract_neighbourhood(pair_a_db, (1, 4), 2)
    nb_rev = extract_neighbourhood(pair_a_db, (4, 1), 2)
    assert not brute_force_isomorphic(nb_fwd.fragment, nb_fwd.centres,
                                      nb_rev.fragment, nb_rev.centres)
    assert t_fwd.type_id != t_rev.type_id


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 30), st.integers(6, 10), st.integers(0, 2))
def test_relabel_invariance_random(seed, n, r):
    rng = random.Random(seed)
    db = random_graph_db(rng, n)
    reg = TypeRegistry()
    k = rng.choice([1, 2])
    abar = tuple(rng.randint(1, n) for _ in range(k))
    t1 = reg.type_of(db, abar, r)
    db2, mapping = relabelled(db, rng)
    t2 = reg.type_of(db2, tuple(mapping[a] for a in abar), r)
    assert t1.type_id == t2.type_id


def test_relabel_invariance_thousand_pairs(registry):
    # a thousand random neighbourhood/relabelling pairs agree on the type
    rng = random.Random(1009)
    for trial in range(1000):
        n = rng.randint(6, 16)
        db = random_graph_db(rng, n)
        k = rng.choice([1, 2])
        r = rng.choice([0, 1, 2])
        abar = tuple(rng.randint(1, n) for _ in range(k))
        db2, mapping = relabelled(db, rng)
        t1 = registry.type_of(db, abar, r)
        t2 = registry.type_of(db2, tuple(mapping[a] for a in abar), r)
        assert t1.type_id == t2.type_id, (trial, abar, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 1 << 30))
def test_agrees_with_brute_force(seed):
    # small fragments: equal type ids exactly when brute force finds a
    # centre-respecting isomorphism
    rng = random.Random(seed)
    reg = TypeRegistry()
    db_a = random_graph_db(rng, 7)
    db_b = random_graph_db(rng, 7)
    r = 1
    a = rng.randint(1, 7)
    b = rng.randint(1, 7)
    nb_a = extract_neighbourhood(db_a, (a,), r)
    nb_b = extract_neighbourhood(db_b, (b,), r)
    same = reg.canonicalize(nb_a).type_id == reg.canonicalize(nb_b).type_id
    assert same == brute_force_isomorphic(nb_a.fragment, nb_a.centres,
                                          nb_b.fragment, nb_b.centres)


def test_component_count_matches_bfs(registry, rng):
    for _ in range(20):
        db = random_graph_db(rng, 12)
        abar = (rng.randint(1, 12), rng.randint(1, 12))
        t = registry.type_of(db, abar, 1)
        frag = t.representative.fragment
        # oracle: BFS over the representative's Gaifman edges
        adj = {e: set() for e in range(1, frag.size + 1)}
        for u, v in frag.gaifman_edges():
            adj[u].add(v)
            adj[v].add(u)
        seen, comps = set(), 0
        for s in adj:
            if s in seen:
                continue
            comps += 1
            stack = [s]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u] - seen)
        assert t.component_count == comps


def test_tuple_type_compose_agrees(registry, rng):
    # the composition fast path must agree with direct extraction
    for _ in range(60):
        db = random_graph_db(rng, 14)
        cache = TypeCache(db, registry)
        k = rng.choice([2, 3])
        r = rng.choice([0, 1, 2])
        abar = tuple(rng.randint(1, 14) for _ in range(k))
        assert cache.tuple_type(abar, r) == cache.tuple_type_direct(abar, r)


@pytest.mark.parametrize("element", [0, -1, -24, 25])
def test_single_element_tuple_type_checks_range(registry, element):
    # with element types cached, a negative index would wrap around the array;
    # a batch names its first element outside the domain
    cache = TypeCache(figures.pair_a_copies(3), registry)
    for e in (1, 24):
        cache.tuple_type((e,), 1)
    message = rf"^element {element} outside \[1, 24\]$"
    with pytest.raises(ElementOutOfRange, match=message):
        cache.tuple_type((element,), 1)
    with pytest.raises(ElementOutOfRange, match=message):
        cache.element_type(element, 1)
    with pytest.raises(ElementOutOfRange, match=message):
        cache.element_types_many(np.array([3, element, -1]), 1)


MIXED = Schema([Relation("U", 1), Relation("E", 2, symmetric=True), Relation("R", 2),
                Relation("T", 3)])


def mixed_db(rng: random.Random, n: int, d: int = 3) -> Database:
    """Random bounded-degree database over unary, symmetric, plain binary
    (with (a, a) tuples) and ternary relations; tuple lists unsorted, symmetric
    pairs in either order."""
    degrees = [0] * (n + 1)
    chosen = [set() for _ in MIXED.relations]
    for _ in range(3 * n):
        rel_idx = rng.randrange(len(MIXED.relations))
        rel = MIXED.relations[rel_idx]
        tup = tuple(rng.randint(1, n) for _ in range(rel.arity))
        if rel.name == "R" and rng.random() < 0.3:
            tup = (tup[0], tup[0])
        key = tuple(sorted(tup)) if rel.symmetric else tup
        if (rel.symmetric and tup[0] == tup[1]) or key in chosen[rel_idx]:
            continue
        if any(degrees[e] >= d for e in set(tup)):
            continue
        chosen[rel_idx].add(key)
        for e in set(tup):
            degrees[e] += 1
    tuples = []
    for rel, tups in zip(MIXED.relations, chosen):
        tups = [t[::-1] if rel.symmetric and rng.random() < 0.5 else t for t in tups]
        rng.shuffle(tups)
        tuples.append(tups)
    return Database(MIXED, n, d, tuples)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 30), st.integers(1, 30), st.sampled_from([0, 1, 2]))
def test_batched_element_types_match_scalar(seed, n, r):
    # one batched pass per call gives the scalar path's types, interning order,
    # raw-cache keys and probe charges
    rng = random.Random(seed)
    db = mixed_db(rng, n)
    batched = TypeCache(db, TypeRegistry())
    scalar = TypeCache(db, TypeRegistry())
    first = [rng.randint(1, n) for _ in range(rng.randint(1, 2 * n))]
    second = first[: len(first) // 2] + [rng.randint(1, n) for _ in range(n)]
    probes = db.probes
    assert batched.element_types_many(np.empty(0, dtype=np.int64), r).size == 0
    assert db.probes == probes
    for elements in (first, second):
        probes = db.probes
        got = batched.element_types_many(np.array(elements), r)
        batched_probes, probes = db.probes - probes, db.probes
        # the scalar path types a call's misses one by one, ascending
        fresh = sorted(set(elements) - set(np.flatnonzero(scalar._etype_array(r) >= 0).tolist()))
        for e in fresh:
            scalar.element_type(e, r)
        assert db.probes - probes == batched_probes
        assert got.tolist() == [scalar.element_type(e, r) for e in elements]
    assert list(batched.registry._raw_cache) == list(scalar.registry._raw_cache)
    for e in set(second):
        assert batched.element_type(e, r) == batched.tuple_type_direct((e,), r)


def test_canonicalize_idempotent_on_representatives(registry, rng):
    # re-canonicalizing a type's own representative returns the same type
    from approxenum.neighborhoods import Neighbourhood

    for _ in range(25):
        db = random_graph_db(rng, 10)
        abar = tuple(rng.randint(1, 10) for _ in range(rng.choice([1, 2])))
        t = registry.type_of(db, abar, rng.choice([0, 1, 2]))
        again = registry.canonicalize(
            Neighbourhood(t.representative.fragment, t.representative.centres, t.radius))
        assert again.type_id == t.type_id


def test_centre_restriction(registry):
    types = figures.shape_types(registry)
    pair_a = types["pair_a"]
    marker = types["marker"]
    # the root centre of the pair type restricted to its own ball is the marker
    assert registry.centre_restriction(pair_a, 0) == marker.type_id
