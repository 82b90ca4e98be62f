import hashlib
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from approxenum import engine, figures
from approxenum.engine import (
    IndexSpace,
    analytic_delay_bound,
    enumerate_general,
    enumerate_general_strengthened,
    enumerate_hanf_testable,
    enumerate_local,
    enumerate_local_strengthened,
    enumerate_query,
    lemma_constants,
    partitioned_enumerate,
)
from approxenum.errors import MissingTester, NotLocal, ParameterError
from approxenum.exact import answer_set
from approxenum.neighborhoods import TypeRegistry
from approxenum.query import Clause, QueryNF, SphereAtom
from approxenum.services import membership_answer, membership_preprocess
from approxenum.testers import ExactClauseTester, make_tester_factory
from approxenum.typecache import TypeCache


def collect(run, *args, **kwargs):
    got = []
    summary = run(*args, emit=got.append, **kwargs)
    return got, summary


class PredicateMembership:
    """Plain predicate over decoded tuples, for loop-level tests."""

    expansion_cap = 1

    def __init__(self, pred):
        self.pred = pred

    def check(self, tup):
        return self.pred(tup)

    def check_block(self, arity, cols):
        size = cols[0].size
        return np.fromiter(
            (self.pred(tuple(int(c[i]) for c in cols)) for i in range(size)),
            dtype=bool, count=size)

    def expansions(self, tup):
        return [tup]


def cherry_leaf_query(registry):
    """Root/cherry-leaf pairs of PAIR_A: four answers per root, led by the root."""
    shape = figures.graph_db(figures.SHAPE_SIZE, figures.PAIR_A_EDGES)
    t = registry.type_of(shape, (1, 5), figures.SHAPE_RADIUS)
    return QueryNF(k=2, radius=figures.SHAPE_RADIUS, degree_bound=3,
                   clauses=(Clause(SphereAtom(t, figures.SHAPE_RADIUS), ()),))


def test_lemma_constants_match_formulas():
    mu, delta = 0.05, 2.0 / 3.0
    q, alpha, batch = lemma_constants(mu, delta)
    p = mu * (1 - mu)
    assert q == min((1 - p) ** 2, (1 - delta) ** 2 / 9)
    assert alpha == math.ceil(math.log(q) / math.log(1 - p))
    assert batch == math.ceil(1 / mu**2)
    assert (1 - p) ** alpha <= q + 1e-12


def test_index_space_power_roundtrip():
    space = IndexSpace.power(5, 3)
    assert space.size == 125
    seen = set()
    for idx in range(1, 126):
        t = space.decode(idx)
        assert len(t) == 3 and all(1 <= e <= 5 for e in t)
        seen.add(t)
    assert len(seen) == 125
    # vectorized decode agrees
    idxs = np.arange(1, 126)
    blocks = space.split_blocks(idxs)
    assert len(blocks) == 1
    arity, sel, cols = blocks[0]
    for i in range(125):
        assert space.decode(int(idxs[sel[i]])) == tuple(int(c[i]) for c in cols)


def test_index_space_union_blocks():
    space = IndexSpace.union_up_to(4, 2)
    assert space.size == 4 + 16
    assert space.decode(1) == (1,)
    assert space.decode(4) == (4,)
    assert space.decode(5) == (1, 1)
    assert space.decode(20) == (4, 4)
    idxs = np.array([1, 4, 5, 20])
    blocks = {arity: (sel, cols) for arity, sel, cols in space.split_blocks(idxs)}
    assert set(blocks) == {1, 2}


@pytest.mark.parametrize("space", [IndexSpace.power(5, 3), IndexSpace.union_up_to(4, 2)],
                         ids=["power", "union"])
def test_decode_rejects_indices_outside_the_space(space):
    for idx in (0, -1, -space.size, space.size + 1):
        with pytest.raises(IndexError, match=f"index {idx} outside space of size {space.size}"):
            space.decode(idx)


@pytest.mark.parametrize("space, dtype", [
    (IndexSpace.union_up_to(7, 3), np.int64),
    (IndexSpace.power(50, 3), np.int64),
    (IndexSpace.power(10**5, 4), object),     # at least 2^62: python-int indices
], ids=["union-7-3", "50-pow-3", "100000-pow-4"])
def test_split_blocks_agree_with_decode(space, dtype):
    def digits(idx):  # base-n digits, most significant first, block after block
        j = idx - 1
        for arity in space.arities:
            if j < space.n ** arity:
                return tuple(j // space.n ** p % space.n + 1 for p in range(arity - 1, -1, -1))
            j -= space.n ** arity

    rng = random.Random(17)
    picks = [1, space.size] + [rng.randrange(1, space.size + 1) for _ in range(500)]
    idxs = np.array(picks, dtype=dtype)
    covered = []
    for arity, sel, cols in space.split_blocks(idxs):
        assert len(cols) == arity and all(c.dtype == np.int64 for c in cols)
        covered.extend(sel.tolist())
        for i, pos in enumerate(sel.tolist()):
            assert space.decode(picks[pos]) == tuple(int(c[i]) for c in cols) == digits(picks[pos])
    assert sorted(covered) == list(range(len(picks)))


@pytest.mark.parametrize("size, dtype", [
    (10**6, np.int64),       # keys pack into an int64
    (1 << 60, np.int64),     # too wide to pack: np.unique
    (1 << 62, object),       # python-int indices: np.unique
], ids=["packed", "int64-unique", "object"])
def test_seen_record_matches_reference_model(size, dtype):
    # the mask marks exactly the first-ever occurrences, batch after batch
    rng = random.Random(size)
    record = engine._Dedup(size)
    pool = [rng.randrange(1, size + 1) for _ in range(300)]
    seen: set[int] = set()
    mark = 0
    for _ in range(80):
        new_mark = min(size, mark + rng.randrange(0, 40))
        batch = list(range(mark + 1, new_mark + 1))  # the window the cursor covers
        batch += [rng.choice(pool) for _ in range(rng.randrange(0, 200))]
        batch += [rng.randrange(1, new_mark + 2) for _ in range(rng.randrange(0, 20))]
        rng.shuffle(batch)
        want = []
        for v in batch:
            want.append(v not in seen)
            seen.add(v)
        got = record.test_and_set_many(np.array(batch, dtype=dtype), new_mark)
        assert got.tolist() == want
        assert record.count == len(seen)
        mark = new_mark


def test_all_members_enumerated():
    space = IndexSpace.power(30, 1)
    got, summary = collect(
        partitioned_enumerate, space, PredicateMembership(lambda t: True),
        0.5, 2 / 3, 11)
    assert sorted(got) == [(i,) for i in range(1, 31)]
    assert not summary.truncated


def test_empty_target_stops_immediately():
    space = IndexSpace.power(50, 2)
    got, summary = collect(
        partitioned_enumerate, space, PredicateMembership(lambda t: False),
        0.3, 2 / 3, 11)
    assert got == []
    assert summary.outputs == 0


@pytest.mark.parametrize("space, seeds, max_outputs", [
    (IndexSpace.power(40, 2), 8, None),
    (IndexSpace.power(12_000, 2), 2, 1_000),    # above 2^27 indices
    (IndexSpace.power(1 << 25, 2), 2, 1_000),   # 2^50: small chunks pack, 4096 does not
    (IndexSpace.power(10**5, 4), 2, 1_000),     # at least 2^62: python-int indices
], ids=["40-pow-2", "12000-pow-2", "2pow25-pow-2", "100000-pow-4"])
def test_batched_equals_literal(space, seeds, max_outputs, monkeypatch):
    # the chunked loop must replay the single-round loop exactly
    pred = lambda t: (t[0] * 7 + t[1]) % 3 == 0
    for seed in range(seeds):
        runs = []
        for chunk in (1, 4096, 7):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            got, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                             0.2, 2 / 3, seed, max_outputs=max_outputs)
            runs.append(got)
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n, isolated, digest, seen", [
    (2000, 1200, "9c35a2445a07f4a87202f3477f19bea98e766d27f3402f26aa9eb9682c0c7a91", 189065),
    (12000, 7200, "04670ab852377f089a050f03a24ed687dc1263897a812f04dbdb6c3abae866b5", 200960),
], ids=["below-2-27", "above-2-27"])
def test_local_stream_digest_pinned(registry, n, isolated, digest, seen):
    # streams on either side of 2^27 indices, pinned to the digests of the
    # earlier two-path seen-record (a bool array below 2^27, a set above)
    db = figures.planted_isolated_db(n, isolated, random.Random(n))
    q = figures.isolated_pair_query(registry)
    h = hashlib.sha256()
    summary = enumerate_local(db, q, 0.3, 4, lambda t: h.update(f"{t[0]} {t[1]}\n".encode()),
                              cache=TypeCache(db, registry), max_outputs=5000)
    assert summary.outputs == 5000
    assert (h.hexdigest(), summary.seen_count) == (digest, seen)


def test_instrumented_equals_plain():
    space = IndexSpace.power(25, 2)
    pred = lambda t: t[0] != t[1]
    for seed in (3, 4):
        a, sa = collect(partitioned_enumerate, space, PredicateMembership(pred),
                        0.3, 2 / 3, seed, instrument=True)
        b, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                       0.3, 2 / 3, seed)
        assert a == b
        assert sa.max_delay_ops > 0
        assert sa.max_delay_ops <= sa.delay_bound
        assert sa.max_delay_ops >= sa.delay_bound / 2


def test_no_duplicates_and_fault_injection():
    space = IndexSpace.power(20, 2)
    pred = lambda t: True
    got, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                     0.4, 2 / 3, 5, max_outputs=300)
    assert len(got) == len(set(got))
    bad, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                     0.4, 2 / 3, 5, max_outputs=300, _fault_skip_dedup=True)
    assert len(bad) != len(set(bad))  # negative control: dedup off duplicates
    # without an output cap the faulty run must still end
    bad, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                     0.4, 2 / 3, 5, _fault_skip_dedup=True)
    assert len(bad) != len(set(bad))


def test_completeness_statistics():
    # |V1| = 0.2|V|, mu = 0.1: complete runs in well over 2/3 of the seeds
    n = 10_000
    space = IndexSpace.power(n, 1)
    members = frozenset(range(1, n + 1, 5))
    pred = lambda t: t[0] in members
    hits = 0
    trials = 60
    for seed in range(trials):
        got, _ = collect(partitioned_enumerate, space, PredicateMembership(pred),
                         0.1, 2 / 3, seed)
        assert set(got) <= {(m,) for m in members}
        if len(got) == len(members):
            hits += 1
    assert hits / trials >= 2 / 3


def test_max_outputs_truncates():
    space = IndexSpace.power(100, 1)
    got, summary = collect(partitioned_enumerate, space,
                           PredicateMembership(lambda t: True),
                           0.5, 2 / 3, 9, max_outputs=7)
    assert len(got) == 7 and summary.truncated


# -- query modes ----------------------------------------------------------------


def test_enumerate_local_sound_and_complete(registry):
    db = figures.pair_a_copies(6)
    q = figures.local_pair_a_query(registry)
    exact = set(answer_set(db, q, registry).tuples)
    cache = TypeCache(db, registry)
    got, summary = collect(enumerate_local, db, q, 0.005, 17, cache=cache)
    assert set(got) <= exact
    assert len(got) == len(set(got))
    # answers are one per copy; gamma n^2 threshold is far above that, so
    # completeness is not guaranteed here, only soundness is


def test_enumerate_local_dense_complete(registry):
    rng = random.Random(5)
    db = figures.planted_isolated_db(200, 120, rng)
    q = figures.isolated_pair_query(registry)
    exact = set(answer_set(db, q, registry).tuples)
    assert len(exact) == 120 * 119
    cache = TypeCache(db, registry)
    wins = 0
    for seed in range(10):
        got, _ = collect(enumerate_local, db, q, 0.1, seed, cache=cache)
        assert set(got) <= exact and len(got) == len(set(got))
        if set(got) == exact:
            wins += 1
    assert wins >= 7


def test_enumerate_local_rejects_nonlocal(registry):
    db = figures.pair_a_copies(2)
    q = figures.demo_query(registry)
    with pytest.raises(NotLocal):
        enumerate_local(db, q, 0.1, 1, emit=lambda t: None, cache=TypeCache(db, registry))


def test_enumerate_local_strengthened_linear_threshold(registry):
    # answers grow linearly; the plain mode's gamma*n^2 threshold fails but
    # the strengthened gamma*n threshold holds
    m = 40
    db = figures.pair_a_copies(m)
    q = figures.local_pair_a_query(registry)
    exact = set(answer_set(db, q, registry).tuples)
    assert len(exact) == m
    cache = TypeCache(db, registry)
    gamma = 0.05  # m answers = n/8 >= gamma*n
    assert len(exact) >= gamma * db.n
    wins = 0
    for seed in range(10):
        got, summary = collect(enumerate_local_strengthened, db, q, gamma, seed,
                               cache=cache)
        assert set(got) <= exact and len(got) == len(set(got))
        assert summary.conn == 1
        if set(got) == exact:
            wins += 1
    assert wins >= 7


def test_enumerate_general_exact_tester(registry):
    db = figures.fallback_family(m=2, a_copies=1)
    q = figures.demo_query(registry)
    exact = set(answer_set(db, q, registry).tuples)
    cache = TypeCache(db, registry)
    got, summary = collect(enumerate_general, db, q, 0.004, 0.02, 23,
                           cache=cache, tester="exact")
    # exact testers make the emitted set a subset of the relevant-type tuples:
    # pair_a tuples only, since a marker vertex exists
    assert set(got) <= exact or all(
        cache.tuple_type(t, q.radius) in summary.preprocessing["type_set"] for t in got)
    assert summary.preprocessing["type_set"] == sorted(
        [q.clauses[0].sphere.type.type_id])


def test_enumerate_general_strengthened_no_marker(registry):
    # no marker vertex: the fallback clause fires and pair_b tuples flow
    m = 30
    db = figures.fallback_family(m=m, a_copies=0)
    q = figures.demo_query(registry)
    exact = set(answer_set(db, q, registry).tuples)
    assert len(exact) == m
    cache = TypeCache(db, registry)
    wins = 0
    for seed in range(10):
        got, summary = collect(enumerate_general_strengthened, db, q, 0.05, 0.05,
                               seed, cache=cache, tester="exact")
        assert len(got) == len(set(got))
        assert set(got) <= exact
        if set(got) == exact:
            wins += 1
    assert wins >= 7


def test_enumerate_hanf_plugins(registry):
    db = figures.fallback_family(m=3, a_copies=0)
    q = figures.demo_query(registry)
    factory = make_tester_factory("example22", q.k)
    plugins = [factory(c) for c in q.clauses]
    cache = TypeCache(db, registry)
    got, summary = collect(enumerate_hanf_testable, db, q, 0.05, 0.05, 3,
                           plugins=plugins, cache=cache)
    assert summary.mode == "hanf-testable"
    exact = set(answer_set(db, q, registry).tuples)
    assert set(got) <= exact
    with pytest.raises(MissingTester):
        enumerate_hanf_testable(db, q, 0.05, 0.05, 3, emit=lambda t: None,
                                plugins=plugins[:1], cache=cache)


@pytest.mark.parametrize("mode, alias, kwargs", [
    ("local", enumerate_local, {}),
    ("local-strengthened", enumerate_local_strengthened, {"expansion_cap": 4}),
    ("general", enumerate_general, {"epsilon": 0.05, "tester": "sampling"}),
    ("general-strengthened", enumerate_general_strengthened,
     {"epsilon": 0.05, "tester": "exact", "expansion_cap": 2}),
    ("hanf-testable", enumerate_hanf_testable, {"epsilon": 0.05, "expansion_cap": 2}),
], ids=["local", "local-strengthened", "general", "general-strengthened", "hanf-testable"])
def test_enumerate_query_equals_alias(registry, mode, alias, kwargs):
    if mode.startswith("local"):
        db, q = figures.pair_a_copies(20), cherry_leaf_query(registry)
    else:
        db, q = figures.fallback_family(m=4, a_copies=1), figures.demo_query(registry)
    if mode == "hanf-testable":
        factory = make_tester_factory("example22", q.k)
        kwargs = dict(kwargs, plugins=[factory(c) for c in q.clauses])
    a, b = [], []
    summary_a = alias(db, q, gamma=0.01, seed=5, emit=a.append,
                      cache=TypeCache(db, registry), **kwargs)
    summary_b = enumerate_query(db, q, mode, 0.01, 5, b.append, TypeCache(db, registry),
                                **kwargs)
    assert a and a == b
    assert summary_a == summary_b and summary_b.mode == mode


def test_enumerate_query_rejects_bad_plans(registry):
    db = figures.fallback_family(m=2, a_copies=1)
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    plugins = [ExactClauseTester(c, q.k) for c in q.clauses]

    def run(mode, **kwargs):
        enumerate_query(db, q, mode, 0.05, 1, lambda t: None, cache, **kwargs)

    with pytest.raises(ParameterError, match="unknown mode 'hanf'"):
        run("hanf", epsilon=0.1, plugins=plugins)
    with pytest.raises(ParameterError,
                       match="plugins does not apply to mode 'general-strengthened'"):
        run("general-strengthened", epsilon=0.1, plugins=plugins)
    with pytest.raises(MissingTester, match=r"needs one tester per clause \(2\)"):
        run("hanf-testable", epsilon=0.1)
    with pytest.raises(MissingTester, match="2 clauses but 1 tester plugins"):
        run("hanf-testable", epsilon=0.1, plugins=plugins[:1])
    for mode, kwargs in (("general", {}), ("general-strengthened", {}),
                         ("hanf-testable", {"plugins": plugins})):
        with pytest.raises(ParameterError, match=f"mode '{mode}' needs epsilon"):
            run(mode, **kwargs)
    with pytest.raises(NotLocal):
        run("local-strengthened")
    for mode, kwargs, name in (("local", {"epsilon": 0.1}, "epsilon"),
                               ("local-strengthened", {"tester": "exact"}, "tester"),
                               ("hanf-testable", {"epsilon": 0.1, "plugins": plugins,
                                                  "tester": "exact"}, "tester"),
                               ("general", {"epsilon": 0.1, "expansion_cap": 1},
                                "expansion_cap")):
        with pytest.raises(ParameterError, match=f"{name} does not apply to mode '{mode}'"):
            run(mode, **kwargs)


@pytest.mark.parametrize("max_outputs, digest", [
    (None, "542f98abd1c4170ccb7b4195ca05bf6dae0d7f6545c65c2dee77d42ca800fabf"),
    (37, "68f0624d8a9e0c0302824ad4bcbee2b3004cf9312522b78a3e8674537228c28e"),
], ids=["uncut", "cut-37"])
def test_multi_expansion_stream_pinned(registry, max_outputs, digest, monkeypatch):
    # each root leads four answers, so one popped leader emits four tuples;
    # every loop path gives the stream pinned from the earlier relay-queue loop
    db = figures.pair_a_copies(50)
    q = cherry_leaf_query(registry)
    cache = TypeCache(db, registry)
    for chunk, kwargs in ((4096, {}), (1, {}), (3, {}), (4096, {"instrument": True})):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        h = hashlib.sha256()
        summary = enumerate_local_strengthened(
            db, q, 0.05, 3, lambda t: h.update(f"{t[0]} {t[1]}\n".encode()), cache=cache,
            expansion_cap=4, max_outputs=max_outputs, **kwargs)
        assert h.hexdigest() == digest, (chunk, kwargs)
        if max_outputs is not None:
            assert summary.outputs == max_outputs and summary.truncated
        elif chunk == 4096 and not kwargs:
            # counters of the plain uncut run only: a cut needs fewer rounds,
            # and instrumented runs keep sampling once every index is seen
            assert (summary.outputs, summary.rounds, summary.samples_drawn,
                    summary.seen_count) == (200, 51, 437, 400)


def test_local_mode_paths_agree(registry, monkeypatch):
    # identity fast path (batched), relay path (chunk 1) and the instrumented
    # literal loop must emit identical sequences
    rng = random.Random(2)
    db = figures.planted_isolated_db(60, 30, rng)
    q = figures.isolated_pair_query(registry)
    cache = TypeCache(db, registry)
    for seed in range(5):
        runs = []
        for chunk, kwargs in ((4096, {}), (1, {}), (4096, {"instrument": True})):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            got = []
            enumerate_local(db, q, 0.2, seed, got.append, cache=cache, **kwargs)
            runs.append(got)
        assert runs[0] == runs[1] == runs[2]


def test_strengthened_mode_paths_agree(registry, monkeypatch):
    # expansion-mode batching and the literal loop emit identical sequences
    db = figures.pair_a_copies(15)
    q = figures.local_pair_a_query(registry)
    cache = TypeCache(db, registry)
    for seed in range(4):
        runs = []
        for chunk, kwargs in ((4096, {}), (1, {}), (3, {}), (4096, {"instrument": True})):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            got = []
            enumerate_local_strengthened(db, q, 0.08, seed, got.append,
                                         cache=cache, **kwargs)
            runs.append(got)
        assert runs[0] == runs[1] == runs[2] == runs[3]


def test_exact_plugins_equal_exact_factory(registry):
    # caller-supplied exact testers reproduce the built-in exact behaviour
    db = figures.fallback_family(m=4, a_copies=1)
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)
    from approxenum.testers import ExactClauseTester

    plugins = [ExactClauseTester(c, q.k) for c in q.clauses]
    a, b = [], []
    enumerate_hanf_testable(db, q, 0.05, 0.05, 9, plugins=plugins, emit=a.append,
                            cache=cache)
    enumerate_general_strengthened(db, q, 0.05, 0.05, 9, emit=b.append,
                                   cache=cache, tester="exact")
    assert a == b


def test_split_membership_matches_type_membership(registry):
    # both membership styles must produce the same emitted set when complete
    db = figures.pair_a_copies(12)
    q = figures.local_pair_a_query(registry)
    cache = TypeCache(db, registry)
    exact = set(answer_set(db, q, registry).tuples)
    got, _ = collect(enumerate_local_strengthened, db, q, 0.1, 77, cache=cache)
    if set(got) != exact:  # randomized; retry once with another seed
        got, _ = collect(enumerate_local_strengthened, db, q, 0.1, 78, cache=cache)
    assert set(got) == exact


@pytest.mark.parametrize("kind", ["type", "split"])
def test_prefilter_rejects_types_interned_after_it(registry, monkeypatch, kind):
    # the lookup tables are built before any element of db is typed, so every
    # element type the check interns lies beyond them and must hit the pad
    q = figures.isolated_pair_query(registry)
    db = figures.pair_a_copies(2)  # no isolated element
    cache = TypeCache(db, registry)
    if kind == "type":
        membership = engine.TypeMembership(cache, q.sphere_type_ids(), q.k, q.radius)
    else:
        membership = engine.SplitMembership(cache, q.sphere_type_ids(), q.k, q.radius, 1)
    known = len(registry)
    # admit every survivor of the prefilter, so the mask shows the prefilter alone
    monkeypatch.setattr(membership, "check", lambda tup: True)
    elements = np.arange(1, db.n + 1, dtype=np.int64)
    cols = [elements, elements[::-1].copy()]
    assert not membership.check_block(2, cols).any()
    assert cache.element_types_many(elements, q.radius).min() >= known


def test_delay_bound_formula():
    assert analytic_delay_bound(10, 20, 1) == 10 + 20 + 4 * 30 + 2 + 3


def test_auxiliary_memory_stays_bounded(registry):
    # beyond the dedup record, the one queue holds admitted leaders: it grows
    # by at most alpha+batch per round, and never with the expansions
    rng = random.Random(8)
    db = figures.planted_isolated_db(120, 60, rng)
    q = figures.isolated_pair_query(registry)
    cache = TypeCache(db, registry)
    got = []
    summary = enumerate_local(db, q, 0.2, 3, got.append, cache=cache, instrument=True)
    assert summary.max_inner_queue <= summary.rounds * (summary.alpha + summary.batch)
    # four answers per leader: the queue holds at most the 400 roots while
    # 1600 answers flow
    db2 = figures.pair_a_copies(400)
    got2 = []
    summary2 = enumerate_local_strengthened(db2, cherry_leaf_query(registry), 0.05, 3,
                                            got2.append, cache=TypeCache(db2, registry),
                                            expansion_cap=4)
    assert summary2.outputs == 1600
    assert summary2.max_inner_queue <= 400


def test_queued_hits_stay_undecoded(registry):
    # the queue holds hit indices, not tuples: a truncated pass leaves most
    # of its hits queued, and they must cost about an int64 each
    db = figures.planted_isolated_db(20_000, 12_000, random.Random(5))
    q = figures.isolated_pair_query(registry)
    cache = TypeCache(db, registry)
    enumerate_local(db, q, 0.3, 1, lambda t: None, cache=cache, max_outputs=100)
    count = [0]

    def emit(tup):
        count[0] += 1

    tracemalloc.start()
    try:
        summary = enumerate_local(db, q, 0.3, 2, emit, cache=cache, max_outputs=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count[0] == 20_000 and summary.max_inner_queue > 2 * count[0]  # most never popped
    assert peak <= 100 * summary.max_inner_queue


def test_max_expansions_recorded(registry):
    # each root leads four answers, above the default expansion cap of 1
    db = figures.pair_a_copies(400)
    got = []
    summary = enumerate_local_strengthened(db, cherry_leaf_query(registry), 0.05, 3,
                                           got.append, cache=TypeCache(db, registry))
    assert got and summary.expansion_cap == 1
    assert summary.max_expansions == 4
    # the plain modes' expansion is the tuple itself
    db2 = figures.planted_isolated_db(60, 30, random.Random(2))
    summary2 = enumerate_local(db2, figures.isolated_pair_query(registry), 0.2, 1,
                               lambda t: None, cache=TypeCache(db2, registry))
    assert summary2.outputs and summary2.max_expansions == 1


def test_leader_queued_twice_is_searched_again(registry):
    # with dedup off a leader can be queued twice; its held expansion went at
    # the first pop, so the second pop runs the split search again
    db = figures.pair_a_copies(12)
    q = figures.local_pair_a_query(registry)
    answers = set(answer_set(db, q, registry).tuples)
    got = []
    enumerate_local_strengthened(db, q, 0.1, 4, got.append, cache=TypeCache(db, registry),
                                 _fault_skip_dedup=True)  # returns: the uncapped run ends
    assert len(got) != len(set(got))
    assert set(got) <= answers


@pytest.mark.parametrize("mode", ["general-strengthened", "local-strengthened"])
def test_each_admitted_leader_is_searched_once(registry, monkeypatch, mode):
    # check runs the one split search per leader and holds its result until
    # the pop; expansions never searches again
    searches, checked, memberships = [], [], []
    popping = [False]
    search = engine.candidate_found_tuples

    def counted_search(cache, abar, *args, **kwargs):
        searches.append((tuple(abar), popping[0]))
        return search(cache, abar, *args, **kwargs)

    class Recorded(engine.SplitMembership):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memberships.append(self)

        def check(self, tup):
            checked.append(tup)
            return super().check(tup)

        def expansions(self, tup):
            popping[0] = True
            try:
                return super().expansions(tup)
            finally:
                popping[0] = False

    monkeypatch.setattr(engine, "candidate_found_tuples", counted_search)
    monkeypatch.setattr(engine, "SplitMembership", Recorded)
    if mode == "general-strengthened":
        db, q = figures.fallback_family(m=30, a_copies=0), figures.demo_query(registry)
        kwargs = {"epsilon": 0.05}
    else:
        db, q = figures.pair_a_copies(50), cherry_leaf_query(registry)
        kwargs = {"expansion_cap": 4}
    got = []
    summary = enumerate_query(db, q, mode, 0.05, 3, got.append, TypeCache(db, registry),
                              **kwargs)
    assert got and not summary.truncated
    assert [abar for abar, _ in searches] == checked
    assert not any(from_pop for _, from_pop in searches)
    assert memberships[0]._expanded == {}


def _session(db, seed):
    """One session on its own registry and cache: two enumeration modes and
    membership probes, as the streams and verdicts they produce."""
    registry = TypeRegistry()
    cache = TypeCache(db, registry)
    local, general = [], []
    enumerate_query(db, cherry_leaf_query(registry), "local-strengthened", 0.05, seed,
                    local.append, cache, expansion_cap=4)
    demo = figures.demo_query(registry)
    enumerate_query(db, demo, "general-strengthened", 0.05, seed, general.append, cache,
                    epsilon=0.2, tester="sampling")
    index = membership_preprocess(db, demo, 0.2, seed, cache=cache, tester="sampling")
    rng = random.Random(seed)
    # uniform pairs and root/pendant pairs of one copy, which are answers
    pairs = [(rng.randint(1, db.n), rng.randint(1, db.n)) for _ in range(200)]
    pairs += [(8 * j + 1, 8 * j + 4) for j in rng.sample(range(db.n // 8), 100)]
    verdicts = [membership_answer(index, pair) for pair in pairs]
    return local, general, verdicts


def test_threads_share_one_database():
    # four threads, each with its own registry and cache, read one Database;
    # each produces what a sequential run of its seed produces
    db = figures.pair_a_copies(300)
    seeds = [11, 12, 13, 14]
    results, errors = {}, []
    barrier = threading.Barrier(len(seeds), timeout=60)

    def run(seed):
        try:
            barrier.wait()
            results[seed] = _session(db, seed)
        except Exception as exc:  # re-raised in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-session
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]
    assert not any(t.is_alive() for t in threads)
    for seed in seeds:
        local, general, verdicts = _session(db, seed)
        assert local and general and any(verdicts)
        assert results[seed] == (local, general, verdicts)
