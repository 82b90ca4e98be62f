"""Acceptance criterion runners.

Each runner exercises one release gate at full statistical strength and
returns a pass/fail result with a detail line.  The test suite runs them at
scale 1.0; the ``selftest`` command runs reduced-trial versions of the same
code.  Statistical floors are tested with an exact one-sided binomial test:
a criterion requiring frequency >= p passes unless the observed success
count would be rejected under H0: true frequency >= p at significance 0.01.

The runners deliberately verify against independent oracles: degree scans,
brute-force answer sets, direct neighbourhood extraction and the exhaustive
edit-distance checker, never the code path under test.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import figures
from .db import Database
from .engine import enumerate_query
from .errors import ParameterError, check_parameter
from .exact import answer_set, closeness_check
from .neighborhoods import TypeRegistry
from .query import Clause, QueryNF, SphereAtom
from .services import approx_count, estimate_frequencies
from .splits import candidate_found_tuples
from .testers import (
    SamplingClauseTester,
    example_tester,
    frequency_sample_size,
)
from .typecache import TypeCache

SIGNIFICANCE = 0.01  # level of every statistical floor's one-sided binomial test


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


@dataclass
class Context:
    scale: float = 1.0
    fault: Optional[str] = None
    duplicate_violations: int = 0
    runs_checked: int = 0

    def trials(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * self.scale)))

    def note_run(self, emitted: list) -> None:
        self.runs_checked += 1
        if len(emitted) != len(set(emitted)):
            self.duplicate_violations += 1


def binomial_floor_ok(successes: int, trials: int, p: float) -> bool:
    """True unless H0 'success prob >= p' is rejected at level SIGNIFICANCE."""
    if trials == 0:
        return True
    logp, logq = math.log(p), math.log1p(-p)
    tail = 0.0
    for i in range(successes + 1):
        tail += math.exp(math.lgamma(trials + 1) - math.lgamma(i + 1)
                         - math.lgamma(trials - i + 1) + i * logp + (trials - i) * logq)
    return tail >= SIGNIFICANCE


def _fault_kwargs(ctx: Context) -> dict:
    return {"_fault_skip_dedup": True} if ctx.fault == "dedup" else {}


# -- C1: exact soundness of local enumeration ---------------------------------


def criterion_local_soundness(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    runs = ctx.trials(10_000, floor=200)
    rng = random.Random(0xC1)
    registry = TypeRegistry()
    iso_pair = figures.isolated_pair_query(registry)
    iso_vertex = figures.isolated_vertex_query(registry)
    bad = 0
    emissions = 0
    answer_set_checks = 0
    for run in range(runs):
        if run % 50 == 49:
            n, d = 2000, rng.choice([3, 4])
        elif run % 200 == 0:
            n, d = rng.randint(20, 60), rng.choice([3, 4])  # brute-force sized
        else:
            n, d = rng.randint(20, 300), rng.choice([3, 4])
        db = figures.random_bounded_db(n, d, rng, tuple_target=n)
        cache = TypeCache(db, registry)
        pick = run % 3
        if pick == 0:
            q = iso_pair
        elif pick == 1:
            q = iso_vertex
        else:
            edges = db.tuples[0]
            if edges:
                u, v = edges[rng.randrange(len(edges))]
                t = registry.type_of(db, (u, v), 1)
                q = QueryNF(k=2, radius=1, degree_bound=d,
                            clauses=(Clause(SphereAtom(t, 1), ()),))
            else:
                q = iso_pair
        got: list = []
        enumerate_query(db, q, "local", 0.2, run, got.append, cache, max_outputs=60,
                        **_fault_kwargs(ctx))
        ctx.note_run(got)
        emissions += len(got)
        ids = q.sphere_type_ids()
        for tup in got:
            # independent path: direct extraction, no composition or memo
            if cache.tuple_type_direct(tup, q.radius) not in ids:
                bad += 1
        if run % 200 == 0 and db.n <= 60:
            exact = set(answer_set(db, q, registry).tuples)
            answer_set_checks += 1
            bad += sum(1 for tup in got if tuple(tup) not in exact)
    ok = bad == 0
    detail = (f"{runs} runs, {emissions} emissions verified, {bad} violations "
              f"({answer_set_checks} brute-force cross-checks)")
    return CriterionResult("C1 local soundness", ok, detail, time.perf_counter() - t0)


# -- C2: local completeness above the gamma n^k threshold ----------------------


def criterion_local_completeness(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    q = figures.isolated_pair_query(registry)
    gamma = 0.05
    parts = []
    ok = True
    for n in (500, 2000):
        trials = ctx.trials(300, floor=30)
        z = int(0.24 * n)
        db = figures.planted_isolated_db(n, z, random.Random(97 + n))
        # independent oracle: isolated vertices via a degree scan
        iso = [a for a in range(1, n + 1) if db.degree(a) == 0]
        exact = {(a, b) for a in iso for b in iso if a != b}
        assert len(exact) >= gamma * n * n
        cache = TypeCache(db, registry)
        wins = 0
        for seed in range(trials):
            got: list = []
            enumerate_query(db, q, "local", gamma, seed, got.append, cache,
                            **_fault_kwargs(ctx))
            ctx.note_run(got)
            got_set = set(got)
            assert got_set <= exact, "soundness violated inside completeness runs"
            wins += got_set == exact
        good = binomial_floor_ok(wins, trials, 2 / 3)
        ok = ok and good
        parts.append(f"n={n}: {wins}/{trials} complete")
    return CriterionResult("C2 local completeness", ok, "; ".join(parts),
                           time.perf_counter() - t0)


# -- C3: strengthened threshold gamma n^conn -----------------------------------


def criterion_strengthened_threshold(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    q = figures.local_pair_a_query(registry)
    m = 200
    db = figures.pair_a_copies(m)
    n = db.n
    gamma = 0.05
    exact = set(answer_set(db, q, registry, budget=4_000_000).tuples)
    assert len(exact) == m, "one answer pair per copy"
    assert len(exact) >= gamma * n          # strengthened threshold holds
    assert len(exact) < gamma * n * n       # the plain gamma n^k threshold fails
    cache = TypeCache(db, registry)
    trials = ctx.trials(300, floor=30)
    wins = 0
    for seed in range(trials):
        got: list = []
        summary = enumerate_query(db, q, "local-strengthened", gamma, seed, got.append,
                                  cache, **_fault_kwargs(ctx))
        ctx.note_run(got)
        assert summary.conn == 1
        got_set = set(got)
        assert got_set <= exact, "soundness violated in strengthened runs"
        wins += got_set == exact
    ok = binomial_floor_ok(wins, trials, 2 / 3)
    detail = f"n={n}, |answers|={m} (= n/8 >= gamma*n): {wins}/{trials} complete"
    return CriterionResult("C3 strengthened threshold", ok, detail,
                           time.perf_counter() - t0)


# -- C4: duplicate freedom across every run ------------------------------------


def criterion_no_duplicates(ctx: Context) -> CriterionResult:
    ok = ctx.duplicate_violations == 0
    detail = (f"{ctx.runs_checked} runs audited, "
              f"{ctx.duplicate_violations} duplicate violations")
    if ctx.fault == "dedup":
        detail += " [dedup fault injected]"
    return CriterionResult("C4 no duplicates", ok, detail)


# -- C5: constant delay ----------------------------------------------------------


def criterion_constant_delay(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    sizes = (10 ** 3, 10 ** 4, 10 ** 5)
    cap = max(200, int(1200 * min(1.0, ctx.scale)))
    parts = []
    ok = True
    for mode, q, tested in (("local", figures.isolated_pair_query(registry, radius=2), {}),
                            ("general", figures.general_iso_query(registry),
                             {"epsilon": 0.3, "tester": "sampling"})):
        maxima = []
        for n in sizes:
            db = figures.isolated_db(n)
            sink: list = []
            summary = enumerate_query(db, q, mode, 0.3, 41, sink.append, TypeCache(db, registry),
                                      instrument=True, max_outputs=cap, **tested)
            ctx.note_run(sink)
            maxima.append((n, summary.max_delay_ops, summary.delay_bound,
                           summary.max_oracle_per_output))
        ops = [m[1] for m in maxima]
        spread = (max(ops) - min(ops)) / min(ops)
        bound = maxima[0][2]
        within_bound = all(b / 2 <= o <= b for (_, o, b, _) in maxima)
        # oracle probes per output are bounded by an n-independent constant
        # (every candidate explores a bounded ball); the empirical max only
        # shrinks when caches are already warm, so assert the bound, not
        # cross-size equality
        oracle = [m[3] for m in maxima]
        alpha, batch = summary.alpha, summary.batch
        oracle_cap = 8 * (alpha + batch)
        good = spread < 0.05 and within_bound and max(oracle) <= oracle_cap
        ok = ok and good
        parts.append(f"{mode}: ops={ops} (spread {spread:.3%}), bound={bound}, "
                     f"oracle={oracle} (cap {oracle_cap})")
    return CriterionResult("C5 constant delay", ok, "; ".join(parts),
                           time.perf_counter() - t0)


# -- C6: the demo property tester -------------------------------------------------


def criterion_demo_tester(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    trials = ctx.trials(200, floor=30)

    copies = 4100
    d = 3
    n_far = copies * figures.SHAPE_SIZE
    eps = 0.96 * (copies / 2) / (d * n_far)
    # farness certificate: every tree copy carries one marker vertex whose
    # radius-2 view is its own copy; deleting it from the property requires an
    # edited edge with an endpoint in that copy, and one edge touches at most
    # two copies, so the edit distance to the property is at least copies/2
    assert copies / 2 >= eps * d * n_far
    assert n_far >= 24 * d ** 3 / eps, "sampling branch must be active"
    # the generic counting argument, evaluated numerically: a far instance
    # must carry at least eps*d*n - 8(d+1) - 8d^4 marker vertices
    lower = eps * d * n_far - 8 * (d + 1) - 8 * d ** 4
    assert copies >= lower

    member_small = figures.fallback_family(m=2, a_copies=0)
    member_big = figures.fallback_family(m=copies, a_copies=0)
    far_db = figures.pair_a_copies(copies)

    accepts = 0
    for seed in range(trials):
        db = member_small if seed % 2 else member_big
        accepts += example_tester(db, eps if db is member_big else 0.5, seed,
                                  registry).accept
    rejects = sum(not example_tester(far_db, eps, seed, registry).accept
                  for seed in range(trials))
    ok = accepts == trials and binomial_floor_ok(rejects, trials, 2 / 3)
    detail = (f"members {accepts}/{trials} accepted; far instance (n={n_far}, "
              f"markers={copies} >= {lower:.0f}) rejected {rejects}/{trials}")
    return CriterionResult("C6 demo tester", ok, detail, time.perf_counter() - t0)


# -- C7: frequency estimation -------------------------------------------------------


def criterion_frequency_estimation(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    db = figures.pair_a_copies(50)
    cache = TypeCache(db, registry)
    exact = estimate_frequencies(cache, radius=2, k=1, samples=1, seed=0, exhaustive=True)
    realized = len(exact.entries)
    lam = 0.1
    s = frequency_sample_size(realized, lam)
    trials = ctx.trials(300, floor=30)
    hits = 0
    for seed in range(trials):
        dv = estimate_frequencies(cache, radius=2, k=1, samples=s, seed=seed)
        assert abs(dv.total() - 1.0) < 1e-9
        hits += dv.l1_distance(exact) <= lam
    ok = binomial_floor_ok(hits, trials, 9 / 10)
    detail = (f"{realized} realized types, s={s}, lambda={lam}: "
              f"{hits}/{trials} within L1 bound")
    return CriterionResult("C7 frequency estimation", ok, detail,
                           time.perf_counter() - t0)


# -- C8: grounded split-table equivalence --------------------------------------------


def criterion_split_equivalence(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    rng = random.Random(0xC8)
    corpus: list[tuple[Database, int]] = [
        (figures.fallback_family(m=1, a_copies=1), 2),
        (figures.fallback_family(m=2, a_copies=1), 2),
        (figures.pair_a_copies(5), 2),
        (figures.planted_isolated_db(24, 12, rng), 1),
    ]
    for n in (12, 20, 30, 40):
        corpus.append((figures.random_bounded_db(n, rng.choice([3, 4]), rng,
                                                 tuple_target=n + 4), 1))
    k = 2
    violations = 0
    tuples_checked = 0
    for db, r in corpus:
        assert db.n <= 40
        cache = TypeCache(db, registry)
        ids = set()
        for _ in range(6):
            ids.add(cache.tuple_type((rng.randint(1, db.n), rng.randint(1, db.n)), r))
        type_ids = frozenset(ids)
        want = {b for b in itertools.product(range(1, db.n + 1), repeat=k)
                if cache.tuple_type(b, r) in type_ids}
        produced: dict[tuple, list] = {}
        for c in (1, 2):
            for abar in itertools.product(range(1, db.n + 1), repeat=c):
                for b in candidate_found_tuples(cache, abar, type_ids, k, r):
                    produced.setdefault(b, []).append(abar)
        if set(produced) != want:
            violations += 1
        for b, sources in produced.items():
            if len(sources) != 1:
                violations += 1
        tuples_checked += len(want)
    ok = violations == 0
    detail = (f"{len(corpus)} databases, {tuples_checked} target tuples, "
              f"{violations} violations")
    return CriterionResult("C8 split equivalence", ok, detail, time.perf_counter() - t0)


# -- C9: general-mode soundness against the closeness margin --------------------------


def criterion_general_soundness(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    q = figures.demo_query(registry)
    d = 3

    def eps_for_budget(n: int, budget: int) -> float:
        return (budget + 0.9) / (d * n)

    instances = []
    for name, tree_copies, tri_copies, budget in (
        ("A 2 trees+1 tri b0", 2, 1, 0),
        ("B 1 tree+2 tris b1", 1, 2, 1),
        ("C 3 tris b1", 0, 3, 1),
        ("D 1 tree+2 tris b2", 1, 2, 2),
        ("E 1 tree+1 tri b3", 1, 1, 3),
    ):
        blocks = []
        if tree_copies:
            blocks.append((figures.PAIR_A_EDGES, tree_copies))
        if tri_copies:
            blocks.append((figures.PAIR_B_EDGES, tri_copies))
        db = figures.disjoint_copies(blocks, d)
        eps = eps_for_budget(db.n, budget)
        assert int(eps * d * db.n) == budget and db.n <= 24
        instances.append((name, db, eps))

    # the exhaustive closeness oracle, memoized per (instance, tuple)
    closeness_memo: dict[tuple, bool] = {}

    def is_ok(inst_idx: int, db: Database, eps: float, tup: tuple) -> bool:
        key = (inst_idx, tup)
        if key not in closeness_memo:
            closeness_memo[key] = closeness_check(db, tup, q, eps, registry)
        return closeness_memo[key]

    plugins = [SamplingClauseTester(c, q.k, force_sample=True, sample_cap=400)
               for c in q.clauses]
    # (mode, tester kind, plugins), by seed % 3
    styles = (("general", "exact", None), ("hanf-testable", None, plugins),
              ("general-strengthened", "sampling", None))
    trials = ctx.trials(300, floor=30)
    wins = 0
    for seed in range(trials):
        inst_idx = seed % len(instances)
        name, db, eps = instances[inst_idx]
        mode, tester, style_plugins = styles[seed % 3]
        got: list = []
        enumerate_query(db, q, mode, 0.02, seed, got.append, TypeCache(db, registry),
                        epsilon=eps, tester=tester, plugins=style_plugins,
                        **_fault_kwargs(ctx))
        ctx.note_run(got)
        wins += all(is_ok(inst_idx, db, eps, tuple(t)) for t in got)
    # the closeness margin is not vacuous: on instance B a triangle pair is
    # one edit away from being an answer, on instance A (budget 0) it is not
    db_b = instances[1][1]
    assert is_ok(1, db_b, instances[1][2], (8 + 1, 8 + 4))
    db_a = instances[0][1]
    assert not is_ok(0, db_a, instances[0][2], (16 + 1, 16 + 4))
    ok = binomial_floor_ok(wins, trials, 2 / 3)
    detail = f"{wins}/{trials} runs fully inside answers+closeness margin"
    return CriterionResult("C9 general soundness", ok, detail, time.perf_counter() - t0)


# -- C10: approximate counting ----------------------------------------------------------


def criterion_approx_counting(ctx: Context) -> CriterionResult:
    t0 = time.perf_counter()
    registry = TypeRegistry()
    lam = 0.1
    parts = []
    ok = True

    # local family with a known linear count
    m = 60
    db = figures.pair_a_copies(m)
    q_local = figures.local_pair_a_query(registry)
    truth = len(answer_set(db, q_local, registry).tuples)
    assert truth == m
    trials = ctx.trials(300, floor=30)
    cache = TypeCache(db, registry)
    hits = 0
    for seed in range(trials):
        est = approx_count(db, q_local, epsilon=0.1, lam=lam, seed=seed, cache=cache)
        if truth - est.half_width <= est.estimate <= truth + est.half_width:
            hits += 1
    good = binomial_floor_ok(hits, trials, 2 / 3)
    ok = ok and good
    parts.append(f"local m={m}: {hits}/{trials} in band")

    # tiny non-local instance where the closeness-extended count is exact
    q = figures.demo_query(registry)
    db2 = figures.disjoint_copies([(figures.PAIR_A_EDGES, 1), (figures.PAIR_B_EDGES, 2)])
    eps = 1.9 / (3 * db2.n)  # budget 1
    exact_answers = set(answer_set(db2, q, registry).tuples)
    truth2 = len(exact_answers)
    cache2 = TypeCache(db2, registry)
    clause_types = frozenset(q.sphere_type_ids())
    candidates = [b for b in itertools.product(range(1, db2.n + 1), repeat=2)
                  if cache2.tuple_type(b, q.radius) in clause_types]
    close = {b for b in candidates
             if closeness_check(db2, b, q, eps, registry)}
    true_close = len(exact_answers | close)
    assert truth2 == 1 and true_close == 3
    trials2 = ctx.trials(300, floor=30)
    c = 1
    hits2 = 0
    for seed in range(trials2):
        est = approx_count(db2, q, epsilon=eps, lam=lam, seed=seed, cache=cache2)
        lo = truth2 - lam * c * db2.n ** c
        hi = true_close + lam * c * db2.n ** c
        if lo <= est.estimate <= hi:
            hits2 += 1
    good2 = binomial_floor_ok(hits2, trials2, 2 / 3)
    ok = ok and good2
    parts.append(f"tiny non-local truth={truth2}, truth+close={true_close}: "
                 f"{hits2}/{trials2} in band")
    return CriterionResult("C10 approx counting", ok, "; ".join(parts),
                           time.perf_counter() - t0)


CRITERIA: dict[str, Callable[[Context], CriterionResult]] = {
    "C1": criterion_local_soundness,
    "C2": criterion_local_completeness,
    "C3": criterion_strengthened_threshold,
    "C4": criterion_no_duplicates,
    "C5": criterion_constant_delay,
    "C6": criterion_demo_tester,
    "C7": criterion_frequency_estimation,
    "C8": criterion_split_equivalence,
    "C9": criterion_general_soundness,
    "C10": criterion_approx_counting,
}


# the criteria that record enumeration runs for C4 to audit
AUDITED_BY_C4 = ("C1", "C2", "C3", "C5", "C9")


def run_criteria(scale: float = 1.0, fault: Optional[str] = None,
                 only: Optional[str] = None) -> list[CriterionResult]:
    """Run the chosen criteria, then C4 if they recorded runs for it to audit."""
    check_parameter("scale", scale)
    wanted = None if only is None else {w.strip().upper() for w in only.split(",")}
    unknown = sorted(wanted - set(CRITERIA)) if wanted is not None else []
    if unknown:
        raise ParameterError(f"unknown criteria {', '.join(map(repr, unknown))}; "
                             f"choose from {', '.join(CRITERIA)}")
    if wanted is not None and "C4" in wanted and not wanted.intersection(AUDITED_BY_C4):
        raise ParameterError(f"C4 audits the runs of {', '.join(AUDITED_BY_C4)}; "
                             f"name one of them with it")
    ctx = Context(scale=scale, fault=fault)
    results = []
    for name, runner in CRITERIA.items():
        if name == "C4" or (wanted is not None and name not in wanted):
            continue
        results.append(runner(ctx))
    if ctx.runs_checked:
        results.append(criterion_no_duplicates(ctx))
    return results
