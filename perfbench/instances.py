"""Seeded inputs and correctness oracles for the benchmark workloads.

Each workload turns its seed into a database (built with the generators of
``approxenum.figures``) and its text, a fixed list of membership probes and
the seeds of every randomized call, and precomputes what a correct run must
produce.  The oracles use a registry and type cache of their own (never the
caches under test) and run outside every timed region:

* ``local-iso``: a degree scan of the generated edge list;
* ``general-tree``: ``tuple_type_direct`` on all ordered pairs of one copy
  of each shape, which fixes the answer set for either tester outcome;
* every workload: a direct-extraction type for each membership probe and a
  band for ``approx_count``.

The sampling tester of ``general-tree`` may accept or reject the fallback
clause, and both outcomes are correct: its samples miss or hit the single
marker vertex.  So each preprocessing is checked against the oracle targets
of the outcome it reports (``targets_for``).  On rejection the one PAIR_A
answer is below the engine's completeness threshold, so a pass may then emit
it or nothing.
"""

from __future__ import annotations

import random
import zlib

import approxenum as ae
from approxenum import figures

DEGREE_BOUND = 3
LAMBDA = 0.1
PROBES = 20_000


def derive_seed(seed: int, label: str) -> int:
    return zlib.crc32(f"{seed}:{label}".encode())


class Workload:
    """One seeded instance; subclasses define the program calls and oracles."""

    epsilon = 0.1
    full_enumeration = True

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        db = self.build()
        self.text = ae.serialize_database(db)
        self.edges = db.tuples[0]
        n = db.n
        rng = random.Random(self.seed_for("probes"))
        # alternate pairs inside one ball with uniform (mostly separated) pairs
        self.probes = [(rng.randint(1, n), rng.randint(1, n)) if i % 2 else self.local_pair(rng)
                       for i in range(400 if tiny else PROBES)]
        self.oracle_cache = ae.TypeCache(self.parse(), ae.TypeRegistry())
        self.targets = self.oracle_targets()
        self.prepare_oracle()
        self.probe_types = [self.oracle_cache.tuple_type_direct(p, self.radius)
                            for p in self.probes]

    def prepare_oracle(self):
        """Build and check the oracle's answer sets; local-iso needs none."""

    def seed_for(self, label: str) -> int:
        return derive_seed(self.seed, label)

    def parse(self):
        return ae.parse_database(figures.GRAPH_SCHEMA, self.text, DEGREE_BOUND)

    @property
    def stream_length(self) -> int:
        """Most outputs a correct pass emits."""
        return len(self.expected)

    def local_pair(self, rng):
        """A pair whose balls interact: an edge, in either orientation."""
        u, v = rng.choice(self.edges)
        return (u, v) if rng.random() < 0.5 else (v, u)

    def targets_for(self, query, type_set) -> frozenset:
        """Oracle type ids of the answers, given the type set a preprocessing chose."""
        return self.targets

    def expected_for(self, targets, summary) -> tuple[frozenset, frozenset]:
        """(answers a full enumeration may emit, answers it must emit) under these targets."""
        return self.expected, self.expected

    def in_band(self, est) -> bool:
        lo, hi = self.count_truth()
        return lo - est.half_width <= est.estimate <= hi + est.half_width

    def enumerate(self, db, query, cache, seed, emit):
        raise NotImplementedError

    def membership(self, db, query, cache, seed):
        return ae.membership_preprocess(db, query, self.epsilon, seed, cache=cache,
                                        tester="sampling")

    def count(self, db, query, cache, seed):
        return ae.approx_count(db, query, self.epsilon, LAMBDA, seed, cache=cache,
                               tester="sampling")


class LocalIso(Workload):
    """Local mode, isolated pairs at radius 2, on a planted graph, gamma 0.3."""

    name = "local-iso"
    radius = 2
    full_enumeration = False

    def build(self):
        n = 2_000 if self.tiny else 50_000
        self.max_outputs = 2_000 if self.tiny else 50_000
        self.isolated = n * 3 // 5
        db = figures.planted_isolated_db(n, self.isolated, random.Random(self.seed_for("graph")),
                                         DEGREE_BOUND)
        self.degree = [0] * (n + 1)
        for u, v in db.tuples[0]:
            self.degree[u] += 1
            self.degree[v] += 1
        return db

    def oracle_targets(self):
        q = figures.isolated_pair_query(self.oracle_cache.registry, DEGREE_BOUND, self.radius)
        return q.sphere_type_ids()

    def query(self, registry):
        return figures.isolated_pair_query(registry, DEGREE_BOUND, self.radius)

    @property
    def stream_length(self) -> int:
        return self.max_outputs

    def sound(self, tup) -> bool:
        a, b = tup
        return a != b and self.degree[a] == 0 and self.degree[b] == 0

    def count_truth(self):
        exact = self.isolated * (self.isolated - 1)
        return exact, exact

    def enumerate(self, db, query, cache, seed, emit):
        return ae.enumerate_local(db, query, gamma=0.3, seed=seed, emit=emit, cache=cache,
                                  max_outputs=self.max_outputs)


class GeneralTree(Workload):
    """General-strengthened with the sampling tester on ``fallback_family(m, a_copies=1)``.

    The m PAIR_B root/pendant pairs are answers exactly when the tester
    accepts the fallback clause; the PAIR_A pairs always are.  The tiny
    instance, 5 PAIR_B and 4 PAIR_A copies, has n below 8k/epsilon, so its
    type set comes from the exact check, which sees a marker and rejects the
    fallback clause; four PAIR_A copies give the warm pass gaps to time.

    epsilon is 0.2.  The tester takes a majority over 44 repetitions; at 0.2
    a repetition samples the marker with probability about 0.14, so a call
    rejects with probability below 1e-8.  At 0.1 about half the repetitions
    hit it and rejection is common; a rejected pass may emit nothing, which
    is correct but leaves its first-output time and throughput undefined.
    """

    name = "general-tree"
    radius = figures.SHAPE_RADIUS
    epsilon = 0.2

    def build(self):
        self.m, self.a_copies = (5, 4) if self.tiny else (5_000, 1)
        return figures.fallback_family(self.m, self.a_copies, DEGREE_BOUND)

    def local_pair(self, rng):
        base = figures.SHAPE_SIZE * rng.randrange(self.m + self.a_copies)
        return base + rng.randint(1, figures.SHAPE_SIZE), base + rng.randint(1, figures.SHAPE_SIZE)

    def oracle_targets(self):
        types = figures.shape_types(self.oracle_cache.registry, DEGREE_BOUND)
        self.pair_a, self.pair_b = types["pair_a"].type_id, types["pair_b"].type_id
        return frozenset({self.pair_a, self.pair_b})

    def prepare_oracle(self):
        size = figures.SHAPE_SIZE
        root, pendant = figures.PAIR_CENTRES
        # copies 0..m-1 are PAIR_B, the rest PAIR_A
        copies = range(self.m + self.a_copies)
        self.b_answers = frozenset((root + size * j, pendant + size * j) for j in copies[:self.m])
        self.a_answers = frozenset((root + size * j, pendant + size * j) for j in copies[self.m:])
        self.expected = self.a_answers | self.b_answers
        # copies are separate components, so only in-copy pairs can carry a
        # connected target type; check every ordered pair of one copy per shape
        direct = self.oracle_cache.tuple_type_direct
        bad = []
        for j in (0, self.m):
            for a in range(1, size + 1):
                for b in range(1, size + 1):
                    pair = (size * j + a, size * j + b)
                    t = direct(pair, self.radius)
                    if (t == self.pair_a) != (pair in self.a_answers) or \
                            (t == self.pair_b) != (pair in self.b_answers):
                        bad.append(pair)
        if bad:
            raise RuntimeError(f"general-tree oracle inconsistent at {bad[:5]}")

    def targets_for(self, query, type_set) -> frozenset:
        # clause 1 is the fallback clause; its sphere type is PAIR_B's
        fallback = query.clauses[1].sphere.type.type_id in type_set
        return self.targets if fallback else frozenset({self.pair_a})

    def expected_for(self, targets, summary) -> tuple[frozenset, frozenset]:
        answers = self.expected if self.pair_b in targets else self.a_answers
        # the engine emits every answer only when their leaders (here the
        # roots, one per answer) fill at least mu of the leader space; below
        # that, as with the PAIR_A pair alone, any subset is correct
        complete = len(answers) >= summary.mu * summary.space_size
        return answers, answers if complete else frozenset()

    def count_truth(self):
        # PAIR_B pairs are answers only without a marker; with one they are
        # edit-close, which the count may include
        return len(self.a_answers), len(self.expected)

    def query(self, registry):
        return figures.demo_query(registry, DEGREE_BOUND)

    def enumerate(self, db, query, cache, seed, emit):
        return ae.enumerate_general_strengthened(db, query, gamma=0.05, epsilon=self.epsilon,
                                                 seed=seed, emit=emit, cache=cache,
                                                 tester="sampling")


WORKLOADS = {w.name: w for w in (LocalIso, GeneralTree)}
