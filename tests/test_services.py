import itertools

import pytest

from approxenum import figures
from approxenum.engine import (
    enumerate_general_strengthened,
    enumerate_local,
    enumerate_local_strengthened,
)
from approxenum.errors import BudgetExceeded, ParameterError
from approxenum.exact import answer_set, eval_query
from approxenum.query import QueryNF
from approxenum.services import (
    approx_count,
    estimate_frequencies,
    membership_answer,
    membership_preprocess,
)
from approxenum.testers import (
    MarkerExclusionTester,
    SamplingClauseTester,
    frequency_sample_size,
)
from approxenum.typecache import TypeCache


def test_membership_on_demo(registry):
    db = figures.fallback_family(m=2, a_copies=1)
    q = figures.demo_query(registry)
    idx = membership_preprocess(db, q, epsilon=0.02, seed=5, cache=TypeCache(db, registry))
    # the tree pair in the last copy is an answer
    off = 16
    assert membership_answer(idx, (off + 1, off + 4))
    # a triangle pair is excluded: a marker vertex exists, exact testers reject
    assert not membership_answer(idx, (1, 4))
    # a both-triangles pair never carries a clause type
    db2 = figures.graph_db(8, figures.PAIR_C_EDGES)
    idx2 = membership_preprocess(db2, q, epsilon=0.02, seed=5, cache=TypeCache(db2, registry))
    assert not membership_answer(idx2, (1, 4))


def test_membership_agrees_with_local(registry, rng):
    q = figures.local_pair_a_query(registry)
    for _ in range(10):
        db = figures.random_bounded_db(24, 3, rng, tuple_target=26)
        idx = membership_preprocess(db, q, epsilon=0.25, seed=3, cache=TypeCache(db, registry))
        cache = TypeCache(db, registry)
        for _ in range(50):
            abar = (rng.randint(1, 24), rng.randint(1, 24))
            assert membership_answer(idx, abar) == eval_query(cache, abar, q)


def test_membership_empty_query(registry):
    db = figures.isolated_db(6)
    q = QueryNF(k=2, radius=1, degree_bound=3, clauses=())
    idx = membership_preprocess(db, q, epsilon=0.1, seed=1, cache=TypeCache(db, registry))
    assert not membership_answer(idx, (1, 2))
    assert idx.type_set.members == frozenset()


def test_frequencies_census_exact(registry):
    db = figures.pair_a_copies(3)
    cache = TypeCache(db, registry)
    dv = estimate_frequencies(cache, radius=2, k=1, samples=1, seed=0, exhaustive=True)
    assert abs(dv.total() - 1.0) < 1e-12
    # each copy has exactly one marker vertex
    types = figures.shape_types(registry)
    assert dv.entries[types["marker"].type_id] == pytest.approx(3 / 24)


def test_frequencies_sample_sums_to_one(registry, rng):
    db = figures.random_bounded_db(40, 3, rng, tuple_target=44)
    cache = TypeCache(db, registry)
    dv = estimate_frequencies(cache, radius=1, k=2, samples=500, seed=9)
    assert dv.total() == pytest.approx(1.0)


def test_frequencies_concentrated_single_type(registry):
    db = figures.isolated_db(30)
    cache = TypeCache(db, registry)
    dv = estimate_frequencies(cache, radius=1, k=1, samples=200, seed=4)
    assert len(dv.entries) == 1 and dv.total() == pytest.approx(1.0)


def test_frequencies_l1_bound_statistics(registry):
    # the stated sample size meets its 9/10 L1 guarantee comfortably
    db = figures.pair_a_copies(12)
    cache = TypeCache(db, registry)
    exact = estimate_frequencies(cache, radius=2, k=1, samples=1, seed=0, exhaustive=True)
    realized = len(exact.entries)
    lam = 0.2
    s = frequency_sample_size(realized, lam)
    hits = 0
    trials = 40
    for seed in range(trials):
        dv = estimate_frequencies(cache, radius=2, k=1, samples=s, seed=seed)
        if dv.l1_distance(exact) <= lam:
            hits += 1
    assert hits / trials >= 0.9


def test_census_budget(registry):
    db = figures.isolated_db(2000)
    cache = TypeCache(db, registry)
    with pytest.raises(BudgetExceeded):
        estimate_frequencies(cache, 1, 2, 1, 0, exhaustive=True)


def test_count_estimator_unbiased_exhaustively(registry):
    # averaging the found-tuple counts over all leader tuples reproduces the
    # number of target-type tuples exactly (uniqueness of the leader tuple)
    from approxenum.splits import candidate_found_tuples

    db = figures.fallback_family(m=2, a_copies=1)
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    types = figures.shape_types(registry)
    ids = frozenset([types["pair_a"].type_id, types["pair_b"].type_id])
    n = db.n
    total = 0
    for abar in itertools.product(range(1, n + 1), repeat=1):
        total += len(candidate_found_tuples(cache, abar, ids, 2, 2))
    want = sum(1 for b in itertools.product(range(1, n + 1), repeat=2)
               if cache.tuple_type(b, 2) in ids)
    assert total == want == 3  # one leading pair per copy


def test_approx_count_local(registry):
    m = 60
    db = figures.pair_a_copies(m)
    q = figures.local_pair_a_query(registry)
    truth = len(answer_set(db, q, registry).tuples)
    assert truth == m
    hits = 0
    trials = 15
    lam = 0.1
    for seed in range(trials):
        est = approx_count(db, q, epsilon=0.1, lam=lam, seed=seed, cache=TypeCache(db, registry))
        assert est.conn == 1
        if truth - est.half_width <= est.estimate <= truth + est.half_width:
            hits += 1
    assert hits / trials >= 2 / 3


def test_approx_count_empty_type_set(registry):
    db = figures.isolated_db(40)
    q = figures.local_pair_a_query(registry)
    est = approx_count(db, q, epsilon=0.1, lam=0.1, seed=2, cache=TypeCache(db, registry))
    assert est.estimate == 0.0


def test_entry_points_reject_out_of_range_parameters(registry):
    db = figures.fallback_family(m=2, a_copies=1)
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    calls = [
        lambda: approx_count(db, q, 0.1, 0, 1, cache=cache),
        lambda: MarkerExclusionTester(q.clauses[1], 2).run(cache, 0, 1),
        lambda: enumerate_local_strengthened(db, figures.local_pair_a_query(registry), 0.1, 1,
                                             emit=lambda t: None, cache=cache,
                                             expansion_cap=0),
        lambda: enumerate_general_strengthened(db, q, 0.1, 0.1, 1, emit=lambda t: None,
                                               cache=cache, expansion_cap=0),
        lambda: membership_preprocess(db, q, -1, 1, cache=cache),
        lambda: enumerate_local_strengthened(db, figures.local_pair_a_query(registry), 0.1, 1,
                                             emit=lambda t: None, cache=cache, max_outputs=-1),
        lambda: estimate_frequencies(cache, radius=2, k=1, samples=0, seed=1),
        lambda: SamplingClauseTester(q.clauses[1], 2).run(cache, 0, 1),
        lambda: SamplingClauseTester(q.clauses[1], 2).run(cache, -1, 1),
        lambda: SamplingClauseTester(q.clauses[1], 2).run(cache, 5, 1),
        # a cache over another database would answer for that database
        lambda: enumerate_local(db, figures.local_pair_a_query(registry), 0.1, 1,
                                emit=lambda t: None,
                                cache=TypeCache(figures.pair_a_copies(3), registry)),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()
