import itertools

import pytest

from approxenum import figures
from approxenum.errors import BudgetExceeded
from approxenum.exact import (
    answer_set,
    closeness_check,
    count_type,
    eval_hanf,
    eval_query,
    live_types,
    sentences_hold,
)
from approxenum.query import HanfSentence, QueryNF
from approxenum.typecache import TypeCache


@pytest.fixture
def setup(registry):
    types = figures.shape_types(registry)
    q = figures.demo_query(registry)
    return registry, types, q


def test_eval_sphere_on_shapes(registry):
    q = figures.local_pair_a_query(registry)
    db_a = figures.graph_db(8, figures.PAIR_A_EDGES)
    db_b = figures.graph_db(8, figures.PAIR_B_EDGES)
    cache_a, cache_b = TypeCache(db_a, registry), TypeCache(db_b, registry)
    assert eval_query(cache_a, (1, 4), q)
    assert not eval_query(cache_b, (1, 4), q)


def test_eval_sphere_cross_copy(registry):
    q = figures.local_pair_a_query(registry)
    db = figures.pair_a_copies(2)
    cache = TypeCache(db, registry)
    # a cross-copy pair has a two-component neighbourhood, never pair_a
    assert not eval_query(cache, (1, 12), q)


def test_count_marker(setup):
    registry, types, _ = setup
    # one marker vertex per tree copy, none in triangle copies
    db = figures.fallback_family(m=3, a_copies=1)
    cache = TypeCache(db, registry)
    assert count_type(cache, types["marker"].type_id, 2) == 1
    db2 = figures.graph_db(8, figures.PAIR_A_EDGES)
    assert count_type(TypeCache(db2, registry), types["marker"].type_id, 2) == 1
    empty = figures.isolated_db(0)
    assert count_type(TypeCache(empty, registry), types["marker"].type_id, 2) == 0


def test_eval_hanf(setup):
    registry, types, _ = setup
    db = figures.fallback_family(m=1, a_copies=1)
    cache = TypeCache(db, registry)
    neg = HanfSentence(True, 1, types["marker"], 2)
    assert not eval_hanf(cache, neg)  # one marker exists
    pos2 = HanfSentence(False, 2, types["marker"], 2)
    assert not eval_hanf(cache, pos2)  # count is 1, needs 2


def test_eval_hanf_zero_threshold_clamped(setup):
    # the parser forbids thresholds below one; the evaluator clamps anyway
    registry, types, _ = setup
    db = figures.isolated_db(4)
    cache = TypeCache(db, registry)
    degenerate = HanfSentence(False, 0, types["marker"], 2)
    clamped = HanfSentence(False, 1, types["marker"], 2)
    assert eval_hanf(cache, degenerate) == eval_hanf(cache, clamped) is False
    db2 = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache2 = TypeCache(db2, registry)
    assert eval_hanf(cache2, degenerate) is True


def test_eval_query_demo(setup):
    registry, types, q = setup
    db_one = figures.graph_db(8, figures.PAIR_A_EDGES)
    cache = TypeCache(db_one, registry)
    assert eval_query(cache, (1, 4), q)

    g1m = figures.fallback_family(m=2, a_copies=1)
    gcache = TypeCache(g1m, registry)
    # triangle-copy pair fails: the marker sentence is violated
    assert not eval_query(gcache, (1, 4), q)
    # the tree-copy pair (last block) is an answer
    off = 16
    assert eval_query(gcache, (off + 1, off + 4), q)


def test_eval_query_empty_clauses(registry):
    q = QueryNF(k=2, radius=1, degree_bound=3, clauses=())
    db = figures.isolated_db(4)
    cache = TypeCache(db, registry)
    assert not eval_query(cache, (1, 2), q)


def test_answer_set_single_copy(setup):
    registry, types, _ = setup
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    q = figures.local_pair_a_query(registry)
    got = answer_set(db, q, registry)
    # independent oracle: brute force all 64 ordered pairs via direct extraction
    cache = TypeCache(db, registry)
    expected = sorted(
        p for p in itertools.product(range(1, 9), repeat=2)
        if cache.tuple_type_direct(p, 2) == types["pair_a"].type_id
    )
    assert list(got.tuples) == expected
    assert expected == [(1, 4)]


def test_answer_set_demo_on_family(setup):
    registry, types, q = setup
    db = figures.fallback_family(m=1, a_copies=1)
    got = answer_set(db, q, registry)
    assert list(got.tuples) == [(8 + 1, 8 + 4)]


def test_answer_set_empty_domain(registry):
    q = figures.local_pair_a_query(registry)
    db = figures.isolated_db(0)
    assert answer_set(db, q, registry).tuples == ()


def test_answer_set_budget(registry):
    q = figures.local_pair_a_query(registry)
    db = figures.isolated_db(50)
    with pytest.raises(BudgetExceeded):
        answer_set(db, q, registry, budget=100)


def test_answer_set_relabel_invariance(registry, rng):
    q = figures.local_pair_a_query(registry)
    db = figures.fallback_family(m=1, a_copies=2)
    perm = list(range(1, db.n + 1))
    rng.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(db.n)}
    edges = [(mapping[u], mapping[v]) for u, v in db.tuples[0]]
    db2 = figures.graph_db(db.n, edges, db.degree_bound)
    got1 = {tuple(mapping[a] for a in t) for t in answer_set(db, q, registry).tuples}
    got2 = set(answer_set(db2, q, registry).tuples)
    assert got1 == got2


def test_eval_query_agrees_with_answer_set(registry, rng):
    q = figures.local_pair_a_query(registry)
    trials = 0
    for _ in range(40):
        db = figures.random_bounded_db(20, 3, rng, tuple_target=24)
        cache = TypeCache(db, registry)
        answers = set(answer_set(db, q, registry).tuples)
        for _ in range(250):
            abar = (rng.randint(1, 20), rng.randint(1, 20))
            assert eval_query(cache, abar, q) == (abar in answers)
            trials += 1
    assert trials == 10_000


def test_warm_eval_query_makes_no_scan(setup):
    # count_type scans once per (type, radius) and cache; a warm check is one
    # memoized tuple_type lookup
    registry, types, q = setup
    db = figures.fallback_family(40, 1)
    cache = TypeCache(db, registry)
    abar = (1, 4)
    first = eval_query(cache, abar, q)
    calls = []
    element_type = cache.element_type
    cache.element_type = lambda e, r: calls.append(e) or element_type(e, r)
    assert eval_query(cache, abar, q) == first
    assert calls == []


def test_live_types(setup):
    registry, types, q = setup
    pair_a, pair_b = types["pair_a"].type_id, types["pair_b"].type_id
    # a marker vertex blocks the fallback clause; without one both clauses live
    marked = TypeCache(figures.fallback_family(2, 1), registry)
    assert live_types(marked, q) == {pair_a}
    unmarked = TypeCache(figures.fallback_family(2, 0), registry)
    assert live_types(unmarked, q) == {pair_a, pair_b}
    # a local query has no sentences, so all of its clauses hold anywhere
    local = figures.local_pair_a_query(registry)
    assert all(sentences_hold(marked, c) for c in local.clauses)


# -- closeness ---------------------------------------------------------------


def test_closeness_answers_always_close(setup):
    registry, _, q = setup
    db = figures.graph_db(8, figures.PAIR_A_EDGES)
    # (1,4) is an answer; budget 0 keeps it close
    assert closeness_check(db, (1, 4), q, epsilon=0.0, registry=registry)


def test_closeness_one_edit(setup):
    registry, types, q = setup
    # one triangle copy plus one tree copy: the triangle pair needs one edit
    db = figures.fallback_family(m=1, a_copies=1)
    n, d = db.n, db.degree_bound
    eps = 1.5 / (d * n)  # budget exactly 1
    assert int(eps * d * n) == 1
    assert closeness_check(db, (1, 4), q, eps, registry)
    # with budget 0 the pair is not an answer, hence not close
    assert not closeness_check(db, (1, 4), q, 0.9 / (d * n), registry)


def test_closeness_wrong_type_never_close(setup):
    registry, types, q = setup
    db = figures.graph_db(8, figures.PAIR_C_EDGES)
    for eps in (0.0, 0.05, 0.1):
        if int(eps * db.degree_bound * db.n) > 3:
            continue
        assert not closeness_check(db, (1, 4), q, eps, registry)


def test_closeness_monotone(setup):
    registry, _, q = setup
    db = figures.fallback_family(m=1, a_copies=1)
    d, n = db.degree_bound, db.n
    verdicts = [closeness_check(db, (1, 4), q, b / (d * n) + 1e-9, registry)
                for b in (0, 1, 2)]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later >= earlier


def test_closeness_budget_cap(setup):
    registry, _, q = setup
    db = figures.fallback_family(m=1, a_copies=1)
    with pytest.raises(BudgetExceeded):
        closeness_check(db, (1, 4), q, 0.5, registry)
