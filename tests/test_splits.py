import itertools

import pytest

from approxenum import figures, splits
from approxenum.db import Database, Relation, Schema, gaifman_ball
from approxenum.engine import enumerate_query
from approxenum.exact import answer_set
from approxenum.query import Clause, QueryNF, SphereAtom
from approxenum.services import approx_count
from approxenum.splits import candidate_found_tuples, member_reach
from approxenum.testers import sphere_witness_exists
from approxenum.typecache import TypeCache, group_positions


def test_single_group_within_copy(registry):
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db, registry)
    assert group_positions(cache, (1, 4), 2) == [[0, 1]]


def test_two_singleton_groups_cross_copy(registry):
    db = figures.pair_a_copies(2)
    cache = TypeCache(db, registry)
    assert group_positions(cache, (1, 8 + 4), 2) == [[0], [1]]


def test_k1_always_singleton(registry, rng):
    db = figures.random_bounded_db(15, 3, rng, tuple_target=18)
    cache = TypeCache(db, registry)
    for a in range(1, 16):
        assert group_positions(cache, (a,), 1) == [[0]]


def test_round_trip_random(registry, rng):
    # ten thousand random tuples across random databases: every group member
    # stays within reach of its leader, the groups partition the positions,
    # and on a binary relation they are the groups of the tuple's type
    total = 0
    while total < 10_000:
        n = rng.randint(6, 24)
        db = figures.random_bounded_db(n, 3, rng, tuple_target=n)
        cache = TypeCache(db, registry)
        r = rng.choice([0, 1, 2])
        for _ in range(200):
            k = rng.choice([1, 2, 3])
            btuple = tuple(rng.randint(1, n) for _ in range(k))
            groups = group_positions(cache, btuple, r)
            assert sorted(pos for grp in groups for pos in grp) == list(range(k))
            partition = registry.by_id(cache.tuple_type(btuple, r)).partition
            assert [list(grp) for grp in partition] == groups
            for grp in groups:
                ball = gaifman_ball(db, (btuple[grp[0]],), member_reach(r, k))
                for pos in grp[1:]:
                    assert btuple[pos] in ball
            total += 1


def test_candidate_single_leader(registry):
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db, registry)
    t = registry.type_of(db, (1, 4), 2)
    got = candidate_found_tuples(cache, (1,), frozenset([t.type_id]), 2, 2)
    assert got == [(1, 4)]
    # no other element leads to anything
    for a in range(2, 9):
        assert candidate_found_tuples(cache, (a,), frozenset([t.type_id]), 2, 2) == []


def test_candidate_empty_type_set(registry):
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db, registry)
    assert candidate_found_tuples(cache, (1,), frozenset(), 2, 2) == []


def test_candidate_group_count_mismatch(registry):
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db, registry)
    t = registry.type_of(db, (1, 4), 2)  # connected type: one group
    got = candidate_found_tuples(cache, (1, 4), frozenset([t.type_id]), 2, 2)
    assert got == []


def test_candidate_disconnected_type(registry):
    db = figures.pair_a_copies(2)
    cache = TypeCache(db, registry)
    t_cross = cache.tuple_type((1, 8 + 1), 2)
    got = candidate_found_tuples(cache, (1, 8 + 1), frozenset([t_cross]), 2, 2)
    assert (1, 9) in got
    # every returned tuple led by exactly these leaders
    for b in got:
        partition = registry.by_id(cache.tuple_type(b, 2)).partition
        assert [b[grp[0]] for grp in partition] == [1, 9]


def exhaustive_equivalence(db, registry, type_ids, k, r):
    """Oracle for the grounded split table: scan all tuples and all leaders."""
    cache = TypeCache(db, registry)
    want = {b for b in itertools.product(range(1, db.n + 1), repeat=k)
            if cache.tuple_type(b, r) in type_ids}
    got: dict[tuple, list[tuple]] = {}
    for c in range(1, k + 1):
        for abar in itertools.product(range(1, db.n + 1), repeat=c):
            for b in candidate_found_tuples(cache, abar, type_ids, k, r):
                got.setdefault(b, []).append(abar)
    assert set(got) == want
    for b, sources in got.items():
        assert len(sources) == 1, f"{b} produced from {sources}"
        assert len(sources[0]) == registry.by_id(cache.tuple_type(b, r)).component_count


def test_equivalence_small_family(registry):
    db = figures.fallback_family(m=1, a_copies=1)  # n = 16
    types = figures.shape_types(registry)
    ids = frozenset([types["pair_a"].type_id, types["pair_b"].type_id])
    exhaustive_equivalence(db, registry, ids, 2, 2)


def test_equivalence_random_small(registry, rng):
    for _ in range(3):
        db = figures.random_bounded_db(12, 3, rng, tuple_target=14)
        cache = TypeCache(db, registry)
        # target the types that actually occur, sampled from the instance
        ids = {cache.tuple_type((rng.randint(1, 12), rng.randint(1, 12)), 1)
               for _ in range(4)}
        exhaustive_equivalence(db, registry, frozenset(ids), 2, 1)


def types_by_component_count(cache, k, r):
    out: dict[int, set[int]] = {}
    for b in itertools.product(range(1, cache.db.n + 1), repeat=k):
        tid = cache.tuple_type(b, r)
        out.setdefault(cache.registry.by_id(tid).component_count, set()).add(tid)
    return out


def test_equivalence_random_k3(registry, rng):
    for r in (0, 1, 0, 1):
        db = figures.random_bounded_db(9, 3, rng, tuple_target=6)
        by_count = types_by_component_count(TypeCache(db, registry), 3, r)
        assert {2, 3} <= set(by_count)
        ids = frozenset(tid for tids in by_count.values() for tid in sorted(tids)[:2])
        exhaustive_equivalence(db, registry, ids, 3, r)


def test_strengthened_k3_emits_only_answers(registry, rng):
    db = figures.random_bounded_db(9, 3, rng, tuple_target=6)
    cache = TypeCache(db, registry)
    by_count = types_by_component_count(cache, 3, 1)
    q = QueryNF(k=3, radius=1, degree_bound=3, clauses=tuple(
        Clause(SphereAtom(registry.by_id(min(tids)), 1), ())
        for _, tids in sorted(by_count.items())))
    assert len(q.clauses) == 3
    want = set(answer_set(db, q, registry).tuples)
    for seed in range(3):
        got = []
        enumerate_query(db, q, "local-strengthened", 0.1, seed, got.append, cache)
        assert got and len(got) == len(set(got)) and set(got) <= want


# Centres one ternary tuple apart share a distance-2r+1 chain, yet may lie in
# different components of their neighbourhood; the split follows the components.
TERNARY_CASES = {
    "r0": (0, [(1, 2, 3)], (1, 2)),
    "r1": (1, [(1, 2, 10), (2, 3, 5), (3, 4, 11)], (1, 4)),
}


def ternary_instance(registry, case):
    r, tuples, centres = TERNARY_CASES[case]
    db = Database(Schema([Relation("R", 3)]), 30, 3, [tuples])
    t = registry.type_of(db, centres, r)
    assert t.component_count == 2
    return db, QueryNF(k=2, radius=r, degree_bound=3, clauses=(Clause(SphereAtom(t, r), ()),))


@pytest.mark.parametrize("case", TERNARY_CASES)
def test_equivalence_ternary(registry, case):
    db, q = ternary_instance(registry, case)
    exhaustive_equivalence(db, registry, q.sphere_type_ids(), 2, q.radius)


@pytest.mark.parametrize("case", TERNARY_CASES)
def test_strengthened_ternary_emits_every_answer(registry, case):
    db, q = ternary_instance(registry, case)
    got = []
    enumerate_query(db, q, "local-strengthened", 0.05, 3, got.append, TypeCache(db, registry))
    want = answer_set(db, q, registry).tuples
    assert sorted(got) == list(want) and len(want) == (870 if case == "r0" else 1)


def test_gated_leader_costs_no_ball_search(registry, monkeypatch):
    # a leader whose element type leads no target is turned away before any
    # reach ball is built
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db, registry)
    ids = frozenset([registry.type_of(db, (1, 4), 2).type_id])
    [(allowed, _)] = cache.split_table(ids, 2).values()
    gated = [a for a in range(1, 9) if cache.element_type(a, 2) not in allowed[0]]
    assert gated
    balls = []
    monkeypatch.setattr(splits, "gaifman_ball", lambda *args: balls.append(args))
    probes = db.probes
    for a in gated:
        assert candidate_found_tuples(cache, (a,), ids, 2, 2) == []
    assert balls == [] and db.probes == probes


def test_split_search_callers_unchanged(registry):
    # approx_count's found counts and the exact witness scan, pinned from the
    # search that rebuilt its filters and reach balls on every call
    q = figures.demo_query(registry)
    for (m, a_copies), found, witnesses in (((40, 8), 28, [True, True]),
                                            ((120, 0), 205, [False, True])):
        db = figures.fallback_family(m, a_copies)
        cache = TypeCache(db, registry)
        est = approx_count(db, q, 0.1, 0.1, 5, cache)
        assert est.sample_sizes == {1: 1476}
        assert est.estimate == found / 1476 * db.n
        assert [sphere_witness_exists(cache, c.sphere.type.type_id, q.k, c.sphere.radius)
                for c in q.clauses] == witnesses
    types = figures.shape_types(registry)
    cache = TypeCache(figures.fallback_family(20, 0), registry)
    assert [sphere_witness_exists(cache, types[name].type_id, 2, 2)
            for name in ("pair_a", "pair_b", "pair_c")] == [False, True, False]
