"""Approximate membership answering, type-frequency estimation and counting.

Membership: preprocessing computes the tested relevant-type set once; each
query tuple then costs one neighbourhood type lookup.  With probability at
least 2/3 the answer is true for actual answers and false for tuples beyond
the edit-distance closeness margin.

Frequency estimation: the empirical type distribution of s uniformly sampled
k-tuples.  With s at least c^2/lambda^2 * ln(20c), where c counts the types
under consideration, the estimate is within lambda of the true distribution
in L1 with probability at least 9/10.

Counting: for each group count i up to conn(q), sample leader tuples from
D^i, average the number of target-type tuples found from each, and scale by
n^i.  Every target-type tuple is found from exactly one leader tuple, so the
per-i estimators are unbiased for the number of target-type tuples with i
interaction components, and their sum estimates the number of tuples whose
type lies in the tested set, which squeezes between the answer count and the
count including edit-close tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .db import Database
from .errors import BudgetExceeded, check_parameter
from .query import QueryNF, compute_conn
from .randutil import child_rng, child_seed
from .splits import candidate_found_tuples
from .testers import TypeSetT, compute_type_set, frequency_sample_size
from .typecache import TypeCache, check_cache

CENSUS_BUDGET = 2_000_000  # most k-tuples an exhaustive frequency census scans


@dataclass
class MembershipIndex:
    query: QueryNF
    type_set: TypeSetT
    cache: TypeCache


def membership_preprocess(db: Database, q: QueryNF, epsilon: float, seed: int,
                          cache: TypeCache,
                          tester: str = "exact") -> MembershipIndex:
    check_cache(db, cache)
    tset = compute_type_set(cache, q, epsilon, child_seed(seed, "typeset"), tester=tester)
    return MembershipIndex(q, tset, cache)


def membership_answer(index: MembershipIndex, abar: Sequence[int]) -> bool:
    """One type lookup against the preprocessed set; constant work."""
    return index.cache.tuple_type(tuple(abar), index.query.radius) in index.type_set


@dataclass
class DistributionVector:
    """Empirical (or exact) frequencies of tuple types, keyed by type id."""

    entries: dict[int, float] = field(default_factory=dict)

    def l1_distance(self, other: "DistributionVector") -> float:
        keys = set(self.entries) | set(other.entries)
        return sum(abs(self.entries.get(t, 0.0) - other.entries.get(t, 0.0)) for t in keys)

    def total(self) -> float:
        return sum(self.entries.values())


def estimate_frequencies(cache: TypeCache, radius: int, k: int, samples: int,
                         seed: int, exhaustive: bool = False) -> DistributionVector:
    """Type distribution of k-tuples: sampled, or exact with ``exhaustive``."""
    n = cache.db.n
    entries: dict[int, float] = {}
    if exhaustive:
        if n ** k > CENSUS_BUDGET:
            raise BudgetExceeded(f"census over n^k = {n ** k} exceeds budget")
        total = n ** k
        for tup in itertools.product(range(1, n + 1), repeat=k):
            tid = cache.tuple_type(tup, radius)
            entries[tid] = entries.get(tid, 0.0) + 1.0
        return DistributionVector({t: v / total for t, v in entries.items()})
    check_parameter("samples", samples)
    if n == 0:
        return DistributionVector({})
    rng = child_rng(seed, "frequencies")
    draws = rng.integers(1, n + 1, size=(samples, k))
    for row in draws:
        tid = cache.tuple_type(tuple(int(e) for e in row), radius)
        entries[tid] = entries.get(tid, 0.0) + 1.0
    return DistributionVector({t: v / samples for t, v in entries.items()})


@dataclass
class CountEstimate:
    estimate: float
    half_width: float          # lambda * conn * n^conn
    conn: int
    per_arity: dict[int, float]
    sample_sizes: dict[int, int]
    type_set: TypeSetT


def approx_count(db: Database, q: QueryNF, epsilon: float, lam: float, seed: int,
                 cache: TypeCache,
                 tester: str = "exact") -> CountEstimate:
    """Estimate the answer count; see the module docstring for the guarantee.

    The sample-size formula tracks the tested types plus one.
    """
    check_parameter("lam", lam)
    check_cache(db, cache)
    tset = compute_type_set(cache, q, epsilon, child_seed(seed, "typeset"), tester=tester)
    c = compute_conn(q)
    n = db.n
    track = len(tset.members) + 1
    per_arity: dict[int, float] = {}
    sizes: dict[int, int] = {}
    total = 0.0
    for i in range(1, c + 1):
        if not tset.members or n == 0:
            per_arity[i] = 0.0
            sizes[i] = 0
            continue
        s_i = frequency_sample_size(track, lam / c)
        sizes[i] = s_i
        rng = child_rng(seed, "count", i)
        draws = rng.integers(1, n + 1, size=(s_i, i))
        found = 0
        for row in draws:
            abar = tuple(int(e) for e in row)
            found += len(candidate_found_tuples(cache, abar, tset.members, q.k, q.radius))
        block = found / s_i * float(n) ** i
        per_arity[i] = block
        total += block
    return CountEstimate(
        estimate=total,
        half_width=lam * c * float(n) ** c,
        conn=c,
        per_arity=per_arity,
        sample_sizes=sizes,
        type_set=tset,
    )
