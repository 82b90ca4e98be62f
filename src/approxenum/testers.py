"""Property-testing layer: clause testers, amplification, relevant-type sets.

A clause tester looks at a database through the incidence index only and
decides, for one query clause, whether the database plausibly satisfies "some
tuple carries the clause's sphere type and the clause's count sentences hold".
Member databases must be accepted with probability at least 2/3 and databases
far from satisfying the clause rejected with probability at least 2/3; the
relevant-type computation amplifies that to (5/6)^(1/m) per clause and keeps
the clause types whose testers accept.

Three testers ship:

* ``ExactClauseTester`` evaluates the clause exactly (the reference plugin;
  linear time, no error).
* ``SamplingClauseTester`` estimates each sentence type's frequency from a
  constant vertex sample and accepts sphere existence outright whenever a
  witness could be planted within the edit budget (else it falls back to a
  full check).  The slack and sample sizes follow the frequency-estimation
  bound; its tester guarantee is validated empirically per instance family,
  not proved in general.
* ``MarkerExclusionTester`` (exposed standalone as ``example_tester``)
  hand-rolls the constant-time tester for the demo property "some PAIR_B
  pair exists and no marker vertex does": full check below 24*d^3/eps,
  otherwise sample ceil(log_{1-eps*d/3}(1/3)) vertices and reject exactly
  when a sampled vertex carries the marker type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import figures
from .db import Database
from .errors import MissingTester, SchemaMismatch, check_parameter
from .exact import sentences_hold
from .neighborhoods import TypeRegistry
from .query import Clause, QueryNF
from .randutil import child_rng, child_seed
from .splits import iter_found_tuples
from .typecache import TypeCache


@dataclass
class TesterVerdict:
    accept: bool
    samples_used: int
    seed: int
    detail: dict = field(default_factory=dict)


class ClauseTester:
    """Base: deterministic verdict given (db, epsilon, seed)."""

    error_model = "two-sided"  # or "one-sided" (never rejects members) or "exact"

    def run(self, cache: TypeCache, epsilon: float, seed: int) -> TesterVerdict:
        raise NotImplementedError


def sphere_witness_exists(cache: TypeCache, type_id: int, k: int, radius: int) -> bool:
    """Exact existence of a tuple with the given type, via the split table.

    Scans the leader tuples of arity the type's component count, one leader
    per component; each witness is found from exactly one of them, so
    existence reduces to the first tuple any expansion yields.
    """
    ids = frozenset([type_id])
    arity = cache.registry.by_id(type_id).component_count
    leaders = itertools.product(range(1, cache.db.n + 1), repeat=arity)
    return any(True for abar in leaders for _ in iter_found_tuples(cache, abar, ids, k, radius))


def clause_holds_exactly(cache: TypeCache, clause: Clause, k: int) -> bool:
    return sentences_hold(cache, clause) and \
        sphere_witness_exists(cache, clause.sphere.type.type_id, k, clause.sphere.radius)


@dataclass
class ExactClauseTester(ClauseTester):
    clause: Clause
    k: int
    error_model = "exact"

    def run(self, cache: TypeCache, epsilon: float, seed: int) -> TesterVerdict:
        ok = clause_holds_exactly(cache, self.clause, self.k)
        return TesterVerdict(ok, samples_used=0, seed=seed,
                             detail={"tester": "exact", "mode": "full-check"})


def plant_cost(t, degree_bound: int) -> int:
    """Edits sufficient to plant a fresh copy of a type's representative.

    Free the representative's footprint (each element sits in at most d
    tuples) and insert the representative's own tuples.
    """
    frag = t.representative.fragment
    tuple_count = sum(len(ts) for ts in frag.tuples)
    return frag.size * degree_bound + tuple_count


def frequency_sample_size(type_count: int, accuracy: float) -> int:
    """Sample size making an empirical type distribution accurate to ``accuracy``
    in L1 with probability at least 9/10."""
    c = max(2, type_count)
    return max(1, math.ceil(c * c / (accuracy * accuracy) * math.log(20.0 * c)))


@dataclass
class SamplingClauseTester(ClauseTester):
    """Constant-sample tester for one clause; see the module docstring.

    ``force_sample`` is a test hook that skips the small-instance full check
    so the statistical path can be exercised at desk scale; it also caps the
    sample size at ``sample_cap`` (the formula sizes are tuned for instances
    large enough to be worth sampling).
    """

    clause: Clause
    k: int
    force_sample: bool = False
    sample_cap: int = 2000
    error_model = "two-sided"

    def run(self, cache: TypeCache, epsilon: float, seed: int) -> TesterVerdict:
        check_parameter("epsilon", epsilon)
        db = cache.db
        n, d = db.n, db.degree_bound
        insert_cost = plant_cost(self.clause.sphere.type, d)
        full_check_below = max(insert_cost / (epsilon * d), 8 * self.k / epsilon)
        if not self.force_sample and n < full_check_below:
            ok = clause_holds_exactly(cache, self.clause, self.k)
            return TesterVerdict(ok, 0, seed, {"tester": "sampling", "mode": "full-check"})

        # sphere existence: a witness copy is plantable within the budget,
        # so existence alone can never witness farness; accept by default
        accuracy = min(epsilon * d / 6.0, 0.25)
        sample_size = frequency_sample_size(len(self.clause.sentences) + 1, accuracy)
        if self.force_sample:
            sample_size = min(sample_size, self.sample_cap)
        rng = child_rng(seed, "sampling-tester")
        samples = rng.integers(1, n + 1, size=sample_size) if self.clause.sentences else \
            np.empty(0, dtype=np.int64)
        accept = True
        estimates = {}
        for idx, sentence in enumerate(self.clause.sentences):
            etypes = cache.element_types_many(samples, sentence.radius)
            hits = int((etypes == sentence.type.type_id).sum())
            estimate = hits / max(1, sample_size) * n
            estimates[idx] = estimate
            slack = sentence.threshold / 2.0
            if sentence.negated:
                ok = estimate <= slack
            else:
                ok = estimate >= sentence.threshold - slack
            accept = accept and ok
        return TesterVerdict(accept, int(samples.size), seed,
                             {"tester": "sampling", "mode": "sampled", "estimates": estimates})


@dataclass
class MarkerExclusionTester(ClauseTester):
    """Constant-time tester for clauses of the demo shape.

    Requires a clause whose single sentence forbids one marker type; the
    sphere must be plantable (it always is under the bounded-degree class).
    Members are never rejected: acceptance only fails when a sampled vertex
    carries the forbidden marker type.
    """

    clause: Clause
    k: int
    error_model = "one-sided"

    def __post_init__(self):
        sentences = self.clause.sentences
        if len(sentences) != 1 or not sentences[0].negated or sentences[0].threshold != 1:
            raise SchemaMismatch("marker-exclusion tester needs exactly one negated >=1 sentence")

    def run(self, cache: TypeCache, epsilon: float, seed: int) -> TesterVerdict:
        check_parameter("epsilon", epsilon)
        db = cache.db
        if len(db.schema.relations) != 1 or not db.schema.relations[0].symmetric:
            raise SchemaMismatch("marker-exclusion tester runs on single symmetric binary relations")
        n, d = db.n, db.degree_bound
        marker = self.clause.sentences[0].type
        if n < 24 * d ** 3 / epsilon:
            ok = clause_holds_exactly(cache, self.clause, self.k)
            return TesterVerdict(ok, 0, seed, {"tester": "marker-exclusion", "mode": "full-check"})
        base = 1.0 - epsilon * d / 3.0
        if base <= 0.0:
            alpha = 1
        else:
            alpha = math.ceil(math.log(1.0 / 3.0) / math.log(base))
        rng = child_rng(seed, "marker-tester")
        samples = rng.integers(1, n + 1, size=alpha)
        reject = any(
            cache.element_type(int(a), marker.radius) == marker.type_id for a in samples
        )
        return TesterVerdict(not reject, alpha, seed,
                             {"tester": "marker-exclusion", "mode": "sampled", "alpha": alpha})


def example_tester(db: Database, epsilon: float, seed: int,
                   registry: TypeRegistry) -> TesterVerdict:
    """Standalone demo-property tester on graphs (see module docstring).

    Property: some pair of vertices has the PAIR_B type and no vertex has the
    marker type.  Implements the four steps: full check below 24*d^3/eps,
    otherwise sample ceil(log_{1-eps*d/3}(1/3)) vertices, compute each
    sampled vertex's radius-2 type, and reject exactly when a marker shows up.
    """
    if db.degree_bound < 3:
        raise SchemaMismatch("demo shapes need a degree bound of at least 3")
    fallback = figures.demo_query(registry, db.degree_bound).clauses[1]
    return MarkerExclusionTester(fallback, k=2).run(TypeCache(db, registry), epsilon, seed)


# -- amplification -------------------------------------------------------------


@dataclass
class AmplifiedTester(ClauseTester):
    base: ClauseTester
    repetitions: int

    @property
    def error_model(self):  # type: ignore[override]
        return self.base.error_model

    def run(self, cache: TypeCache, epsilon: float, seed: int) -> TesterVerdict:
        verdicts = [self.base.run(cache, epsilon, child_seed(seed, "amplify", rep))
                    for rep in range(self.repetitions)]
        if self.base.error_model == "one-sided":
            accept = all(v.accept for v in verdicts)  # any rejection is conclusive
        else:
            accept = sum(v.accept for v in verdicts) * 2 > len(verdicts)
        return TesterVerdict(
            accept,
            sum(v.samples_used for v in verdicts),
            seed,
            {"tester": "amplified", "repetitions": self.repetitions,
             "model": self.base.error_model, "votes": [v.accept for v in verdicts]},
        )


def amplification_count(error_model: str, target_confidence: float) -> int:
    """Repetitions bringing a 1/3-error tester to the target confidence.

    One-sided testers repeat with any-reject; the miss probability after t
    repetitions is (1/3)^t.  Two-sided testers take a majority vote; the
    standard exponential tail bound exp(-t/18) controls the error.
    """
    if target_confidence <= 2.0 / 3.0:
        return 1
    fail = 1.0 - target_confidence
    if error_model == "exact":
        return 1
    if error_model == "one-sided":
        return max(1, math.ceil(math.log(fail) / math.log(1.0 / 3.0)))
    return max(1, math.ceil(18.0 * math.log(1.0 / fail)))


def amplify(tester: ClauseTester, target_confidence: float) -> ClauseTester:
    reps = amplification_count(tester.error_model, target_confidence)
    if reps <= 1:
        return tester
    return AmplifiedTester(tester, reps)


# -- relevant-type computation ---------------------------------------------------


@dataclass
class TypeSetT:
    members: frozenset[int]
    provenance: tuple
    exact: bool

    def __contains__(self, type_id: int) -> bool:
        return type_id in self.members


TesterFactory = Callable[[Clause], ClauseTester]
TESTER_KINDS = ("exact", "sampling", "example22")


def make_tester_factory(kind: str, k: int) -> TesterFactory:
    if kind not in TESTER_KINDS:
        raise MissingTester(f"unknown tester kind {kind!r}")

    def factory(clause: Clause) -> ClauseTester:
        if kind == "exact":
            return ExactClauseTester(clause, k)
        if kind == "sampling" or not clause.sentences:
            return SamplingClauseTester(clause, k)
        try:
            return MarkerExclusionTester(clause, k)
        except SchemaMismatch as exc:
            raise MissingTester(f"no constant-time tester for clause shape: {exc}") from exc

    return factory


def compute_type_set(cache: TypeCache, q: QueryNF, epsilon: float, seed: int,
                     tester: str = "exact",
                     plugins: Optional[Sequence[ClauseTester]] = None) -> TypeSetT:
    """Types of tuples that are plausibly answers, by running clause testers.

    ``tester`` names a tester kind, one of ``TESTER_KINDS``; it is checked
    even where the exact check below leaves it unused.  Caller-supplied
    ``plugins``, one per clause, take its place.
    Small instances (n below 8k/epsilon) are checked exactly.  Otherwise each
    clause's tester, amplified to per-clause confidence (5/6)^(1/m), runs at
    epsilon/2; the accepted clauses contribute their sphere types.  The goal,
    with probability at least 5/6 overall: answer tuples have their type in
    the set, and tuples too far from being answers do not.
    """
    check_parameter("epsilon", epsilon)
    factory = make_tester_factory(tester, q.k)
    m = len(q.clauses)
    if plugins is not None and len(plugins) != m:
        raise MissingTester(f"{m} clauses but {len(plugins)} tester plugins")
    if m == 0:
        return TypeSetT(frozenset(), (), exact=True)
    n = cache.db.n
    if n < 8 * q.k / epsilon and plugins is None:
        members = set()
        details = []
        for clause in q.clauses:
            ok = clause_holds_exactly(cache, clause, q.k)
            if ok:
                members.add(clause.sphere.type.type_id)
            details.append(("full-check", ok))
        return TypeSetT(frozenset(members), tuple(details), exact=True)

    target = (5.0 / 6.0) ** (1.0 / m)
    members = set()
    details = []
    for idx, clause in enumerate(q.clauses):
        base = plugins[idx] if plugins is not None else factory(clause)
        verdict = amplify(base, target).run(cache, epsilon / 2.0,
                                            child_seed(seed, "amplify", 1000 + idx))
        if verdict.accept:
            members.add(clause.sphere.type.type_id)
        details.append((clause.sphere.type.type_id, verdict))
    return TypeSetT(frozenset(members), tuple(details), exact=False)
