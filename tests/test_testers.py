import math

import pytest

from approxenum import figures
from approxenum.errors import MissingTester, SchemaMismatch
from approxenum.exact import closeness_check
from approxenum.db import Database, Relation, Schema
from approxenum.testers import (
    ExactClauseTester,
    MarkerExclusionTester,
    SamplingClauseTester,
    amplification_count,
    amplify,
    compute_type_set,
    example_tester,
    make_tester_factory,
    plant_cost,
    sphere_witness_exists,
)
from approxenum.typecache import TypeCache


def far_marker_family(copies: int, d: int = 3) -> Database:
    """Disjoint tree copies: one marker vertex per copy, no PAIR_B pair.

    Any database satisfying the demo property has zero marker vertices; each
    copy needs at least one edited edge touching it and one edit touches at
    most two copies, so the edit distance to the property is at least
    copies/2.  The family is epsilon-far whenever copies/2 >= eps*d*n.
    """
    return figures.pair_a_copies(copies, d)


def certified_far_epsilon(copies: int, d: int = 3, margin: float = 0.96) -> float:
    n = copies * figures.SHAPE_SIZE
    return margin * (copies / 2) / (d * n)


def test_member_always_accepted(registry):
    # members have no marker vertex: acceptance is deterministic
    db = figures.fallback_family(m=4, a_copies=0)
    for seed in range(50):
        v = example_tester(db, epsilon=0.25, seed=seed, registry=registry)
        assert v.accept


def test_small_instance_exact_branch(registry):
    # below the full-check threshold the verdict equals exact evaluation
    db_member = figures.fallback_family(m=2, a_copies=0)
    db_nonmember = figures.fallback_family(m=2, a_copies=1)
    eps = 0.5
    assert db_member.n < 24 * 27 / eps
    assert example_tester(db_member, eps, 1, registry).accept
    assert not example_tester(db_nonmember, eps, 1, registry).accept
    assert example_tester(db_nonmember, eps, 1, registry).detail["mode"] == "full-check"


def test_far_instances_rejected(registry):
    # the certified farness bound copies/2 >= eps*d*n pins eps near 1/48, so
    # the sampling branch needs n at least 24*d^3*48; 4100 copies suffice
    copies = 4100
    eps = certified_far_epsilon(copies)
    db = far_marker_family(copies)
    assert copies / 2 >= eps * db.degree_bound * db.n
    assert db.n >= 24 * 27 / eps  # sampling branch active
    rejected = 0
    trials = 60
    for seed in range(trials):
        v = example_tester(db, eps, seed, registry)
        assert v.detail["mode"] == "sampled"
        rejected += not v.accept
    assert rejected / trials >= 2 / 3


def test_member_sampled_branch_accepts(registry):
    copies = 4100
    eps = certified_far_epsilon(copies)
    db = figures.fallback_family(m=copies, a_copies=0)
    for seed in range(30):
        v = example_tester(db, eps, seed, registry)
        assert v.detail["mode"] == "sampled" and v.accept


def test_alpha_formula(registry):
    copies = 4100
    eps = certified_far_epsilon(copies)
    db = far_marker_family(copies)
    v = example_tester(db, eps, 0, registry)
    d = db.degree_bound
    expected = math.ceil(math.log(1 / 3) / math.log(1 - eps * d / 3))
    assert v.detail["alpha"] == expected == v.samples_used


def test_schema_mismatch(registry):
    schema = Schema([Relation("R", 3)])
    db = Database(schema, 5, 3, [[(1, 2, 3)]])
    with pytest.raises(SchemaMismatch):
        example_tester(db, 0.1, 0, registry)


def test_sphere_witness_exists(registry):
    types = figures.shape_types(registry)
    db = figures.fallback_family(m=1, a_copies=1)
    cache = TypeCache(db, registry)
    assert sphere_witness_exists(cache, types["pair_a"].type_id, 2, 2)
    assert sphere_witness_exists(cache, types["pair_b"].type_id, 2, 2)
    assert not sphere_witness_exists(cache, types["pair_c"].type_id, 2, 2)
    # cross-copy disconnected type needs two leader coordinates
    t_cross = cache.tuple_type((1, 8 + 1), 2)
    assert sphere_witness_exists(cache, t_cross, 2, 2)


def test_exact_clause_tester(registry):
    q = figures.demo_query(registry)
    clause_a, clause_b = q.clauses
    db = figures.fallback_family(m=2, a_copies=1)
    cache = TypeCache(db, registry)
    assert ExactClauseTester(clause_a, 2).run(cache, 0.1, 0).accept
    assert not ExactClauseTester(clause_b, 2).run(cache, 0.1, 0).accept  # marker exists
    db2 = figures.fallback_family(m=2, a_copies=0)
    cache2 = TypeCache(db2, registry)
    assert ExactClauseTester(clause_b, 2).run(cache2, 0.1, 0).accept


def test_sampling_tester_full_check_branch(registry):
    q = figures.demo_query(registry)
    clause_b = q.clauses[1]
    db = figures.fallback_family(m=2, a_copies=1)  # small: exact branch
    cache = TypeCache(db, registry)
    v = SamplingClauseTester(clause_b, 2).run(cache, 0.05, 0)
    assert v.detail["mode"] == "full-check"
    assert not v.accept


def test_sampling_tester_statistical(registry):
    q = figures.demo_query(registry)
    clause_b = q.clauses[1]
    # plant plenty of marker vertices: the negated sentence must fail loudly
    db = figures.fallback_family(m=20, a_copies=20)
    cache = TypeCache(db, registry)
    tester = SamplingClauseTester(clause_b, 2, force_sample=True)
    rejections = sum(not tester.run(cache, 0.3, seed).accept for seed in range(40))
    assert rejections / 40 >= 2 / 3
    # no markers at all: acceptance should dominate
    db2 = figures.fallback_family(m=20, a_copies=0)
    cache2 = TypeCache(db2, registry)
    accepts = sum(tester.run(cache2, 0.3, seed).accept for seed in range(40))
    assert accepts / 40 >= 2 / 3


def test_amplified_sampling_tester_full_check(registry):
    q = figures.demo_query(registry)
    db = figures.fallback_family(m=2, a_copies=1)
    tester = amplify(SamplingClauseTester(q.clauses[1], q.k), 0.9)
    v = tester.run(TypeCache(db, registry), 0.05, 3)
    assert not v.accept  # marker vertex present, small instance full-checks


def test_sampling_tester_empty_sentences_accepts(registry):
    q = figures.local_pair_a_query(registry)
    (clause,) = q.clauses
    db = figures.isolated_db(5000)
    cache = TypeCache(db, registry)
    v = SamplingClauseTester(clause, 2).run(cache, 0.5, 1)
    # a witness is plantable within the budget: accept without sampling
    assert v.accept and v.samples_used == 0
    # tiny instance falls back to the exact check and rejects
    small = figures.isolated_db(10)
    v2 = SamplingClauseTester(clause, 2).run(TypeCache(small, registry), 0.5, 1)
    assert not v2.accept and v2.detail["mode"] == "full-check"


def test_plant_cost(registry):
    types = figures.shape_types(registry)
    # 8 vertices times the degree bound plus 8 edges (PAIR_B has a triangle)
    assert plant_cost(types["pair_b"], 3) == 8 * 3 + 8
    assert plant_cost(types["pair_a"], 3) == 8 * 3 + 7


def test_amplification_counts():
    assert amplification_count("exact", 0.99) == 1
    assert amplification_count("one-sided", 2 / 3) == 1
    target = (5 / 6) ** 0.5
    t1 = amplification_count("one-sided", target)
    assert (1 / 3) ** t1 <= 1 - target
    t2 = amplification_count("two-sided", target)
    assert math.exp(-t2 / 18) <= 1 - target
    assert t2 >= t1


def test_amplified_one_sided_keeps_members(registry):
    db = figures.fallback_family(m=3, a_copies=0)
    q = figures.demo_query(registry)
    tester = amplify(MarkerExclusionTester(q.clauses[1], 2), (5 / 6) ** 0.5)
    cache = TypeCache(db, registry)
    for seed in range(20):
        assert tester.run(cache, 0.3, seed).accept


def test_compute_type_set_exact_small(registry):
    db = figures.fallback_family(m=1, a_copies=1)  # n = 16 < 8k/eps
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    tset = compute_type_set(cache, q, epsilon=0.05, seed=1)
    assert tset.exact
    assert tset.members == frozenset([q.clauses[0].sphere.type.type_id])


@pytest.mark.parametrize("m, a_copies", [(2, 1), (80, 0)], ids=["exact-branch", "sampled"])
def test_compute_type_set_rejects_unknown_tester(registry, m, a_copies):
    # the kind is checked on both branches, not only where a tester runs
    db = figures.fallback_family(m=m, a_copies=a_copies)
    with pytest.raises(MissingTester, match="unknown tester kind 'bogus'"):
        compute_type_set(TypeCache(db, registry), figures.demo_query(registry), 0.1, 0,
                         tester="bogus")


def test_compute_type_set_statistical(registry):
    # large no-marker family: fallback clause accepted with high frequency
    db = figures.fallback_family(m=80, a_copies=0)
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    wins = 0
    for seed in range(30):
        tset = compute_type_set(cache, q, epsilon=0.05, seed=seed, tester="sampling")
        if q.clauses[1].sphere.type.type_id in tset.members:
            wins += 1
    assert wins / 30 >= 5 / 6


def test_compute_type_set_zero_clauses(registry):
    from approxenum.query import QueryNF

    db = figures.isolated_db(10)
    cache = TypeCache(db, registry)
    q = QueryNF(k=1, radius=1, degree_bound=3, clauses=())
    assert compute_type_set(cache, q, 0.1, 0).members == frozenset()


def test_example22_factory_rejects_odd_shapes(registry):
    from approxenum.query import Clause, HanfSentence, SphereAtom

    types = figures.shape_types(registry)
    weird = Clause(
        SphereAtom(types["pair_a"], 2),
        (HanfSentence(False, 2, types["marker"], 2),),  # positive sentence
    )
    factory = make_tester_factory("example22", 2)
    with pytest.raises(MissingTester):
        factory(weird)


def test_type_set_contract_statistical(registry):
    # over many seeds, the tested type set separates answers from far tuples:
    # answers' types always land in T, and types of tuples that are not even
    # edit-close stay out, with frequency >= 5/6 (minus slack).  Plugins with
    # the force-sample hook keep the testers genuinely random at this scale.
    q = figures.demo_query(registry)
    types = figures.shape_types(registry)
    # two tree copies, one triangle copy, n = 24: with budget 0 the triangle
    # pair is not close to an answer (a marker vertex exists)
    db = figures.disjoint_copies([(figures.PAIR_A_EDGES, 2), (figures.PAIR_B_EDGES, 1)])
    eps = 0.9 / (db.degree_bound * db.n)  # budget 0
    assert not closeness_check(db, (17, 20), q, eps, registry)
    cache = TypeCache(db, registry)
    good = 0
    trials = 300
    for seed in range(trials):
        plugins = [SamplingClauseTester(c, q.k, force_sample=True, sample_cap=400)
                   for c in q.clauses]
        tset = compute_type_set(cache, q, eps, seed, plugins=plugins)
        assert not tset.exact
        ok = types["pair_a"].type_id in tset.members  # answers exist (tree pairs)
        ok = ok and types["pair_b"].type_id not in tset.members
        good += ok
    assert good / trials >= 5 / 6 - 0.05
