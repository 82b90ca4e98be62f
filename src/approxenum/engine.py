"""Randomized constant-delay enumeration over sampled index spaces.

The core loop enumerates a subset of an index space ``V`` given a constant
time membership check for the target set ``V1``: each round draws ``alpha``
indices uniformly at random, advances a sequential cursor by ``batch``
indices, filters the fresh ones through the membership check and queues the
indices of the hits, pops one queued index, decodes it into its tuple and
outputs that tuple's expansions; the run stops the first time the queue is
empty.  The queue holds index arrays, so a hit becomes a tuple only at its
pop, and a hit that a truncated run never pops is never decoded.  A tuple's
expansions are the tuple itself, except in the strengthened modes, where a
leader tuple expands to the answers it leads (at least one, since membership
is a non-empty expansion).  The membership check computes that expansion once
and holds it until the leader is popped.  With

    q     = min((1 - mu*(1-mu))^2, (1-delta)^2 / 9)
    alpha = ceil(log_{1 - mu*(1-mu)} q)
    batch = ceil(1 / mu^2)

the output is always a duplicate-free subset of ``V1``, and whenever
``|V1| >= mu * |V|`` it equals ``V1`` with probability at least ``delta``.
Work between consecutive outputs is bounded by a constant in ``alpha``,
``batch``, the per-check cost and the expansion count.

Three behaviour-preserving fast paths keep large runs tractable; all leave
the emitted sequence bit-identical to the literal loop for a fixed seed:

* rounds are processed in blocks of up to ``_CHUNK`` whenever enough queued
  items guarantee no stop can occur inside the block (samples are drawn from
  a fixed-size buffered stream, so consumption order does not depend on the
  blocking);
* in the plain modes, whose expansion is the identity, popped tuples are
  emitted straight off the queue;
* once every index has been touched, sampling is skipped while the queue
  drains (post-saturation samples are all duplicates and can never change
  the output).

Instrumented runs (``instrument=True``) execute the literal single-round
loop and record elementary operations per output: samples drawn, cursor
advances, dedup reads/writes, membership checks, queue traffic and
emissions, with incidence probes tallied separately.

``enumerate_query`` wires the loop to query semantics.  Its plan table,
``_PLANS``, gives each of the five modes its index space, membership, delta
and the source of its type set:

=========================  =========================  ======================
mode                       index space                membership
=========================  =========================  ======================
local                      all k-tuples               tuple type in the
                                                      query's sphere types
local-strengthened         leader tuples of arity     non-empty expansion
                           up to conn(q)              through the split table
general                    all k-tuples               tuple type in the
                                                      tested relevant set
general-strengthened /     leader tuples of arity     non-empty expansion
hanf-testable (plugins)    up to conn(q)              against the tested set
=========================  =========================  ======================

A leader tuple has one coordinate per component of its answers' type
(``CanonicalType.partition``); ``TypeCache.split_table`` gives both prefilters.

Local modes emit only true answers.  General modes emit, with probability at
least 2/3, only tuples that are answers or within the edit-distance closeness
margin, and all answers whenever the answer set meets the threshold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .db import Database
from .errors import MissingTester, NotLocal, ParameterError, check_parameter
from .query import QueryNF, compute_conn, is_local
from .randutil import child_rng, child_seed
from .splits import candidate_found_tuples
from .testers import ClauseTester, compute_type_set
from .typecache import TypeCache, check_cache

_NUMPY_SPACE_LIMIT = 1 << 62
_SAMPLE_BLOCK = 1 << 16
_CHUNK = 4096  # most rounds one block processes


def lemma_constants(mu: float, delta: float) -> tuple[float, int, int]:
    """(q, alpha, batch) for the core loop's sampling schedule."""
    if not (0.0 < mu < 1.0 and 0.0 < delta < 1.0):
        raise ParameterError(f"mu and delta must lie in (0, 1), got mu={mu}, delta={delta}")
    p = mu * (1.0 - mu)
    q = min((1.0 - p) ** 2, (1.0 - delta) ** 2 / 9.0)
    alpha = max(1, math.ceil(math.log(q) / math.log(1.0 - p)))
    batch = max(1, math.ceil(1.0 / (mu * mu)))
    return q, alpha, batch


def analytic_delay_bound(alpha: int, batch: int, expansion_cap: int) -> int:
    """Upper bound on instrumented ops between consecutive outputs.

    Mirrors the instrumented loop: alpha sample draws, up to ``batch`` cursor
    advances, one dedup read per candidate, at most one dedup write plus one
    membership check per fresh candidate, queue pushes, one queue pop, the
    expansion work, and the emission itself.
    """
    per_candidate = alpha + batch
    return alpha + batch + 4 * per_candidate + 2 * expansion_cap + 3


@dataclass(frozen=True)
class IndexSpace:
    """1-based index space over tuples: a union of blocks D^a, a in arities."""

    n: int
    arities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_sizes", tuple(self.n ** a for a in self.arities))
        offs = []
        total = 0
        for s in self._sizes:  # type: ignore[attr-defined]
            offs.append(total)
            total += s
        object.__setattr__(self, "_offsets", tuple(offs))
        object.__setattr__(self, "size", total)

    @classmethod
    def power(cls, n: int, k: int) -> "IndexSpace":
        return cls(n, (k,))

    @classmethod
    def union_up_to(cls, n: int, c: int) -> "IndexSpace":
        return cls(n, tuple(range(1, c + 1)))

    def decode(self, idx: int) -> tuple[int, ...]:
        """The tuple at 1-based index ``idx``; IndexError for any index outside [1, size]."""
        j = idx - 1
        for arity, off, size in zip(self.arities, self._offsets, self._sizes):
            if 0 <= j < off + size:
                return tuple(self._columns(j - off, arity))
        raise IndexError(f"index {idx} outside space of size {self.size}")

    def split_blocks(self, idxs: np.ndarray) -> list[tuple[int, np.ndarray, list[np.ndarray]]]:
        """Per arity block: (arity, positions into ``idxs``, coordinate columns).

        Every index must lie in [1, size]; the engine passes no other.  A space
        of one arity is one block, so its positions are all of ``idxs``.
        """
        j = idxs - 1
        if len(self.arities) == 1:
            return [(self.arities[0], np.arange(idxs.size), self._columns(j, self.arities[0]))]
        out = []
        for arity, off, size in zip(self.arities, self._offsets, self._sizes):
            sel = np.nonzero((j >= off) & (j < off + size))[0]
            if sel.size:
                out.append((arity, sel, self._columns(j[sel] - off, arity)))
        return out

    def _columns(self, rel, arity: int) -> list:
        """1-based coordinates of the 0-based in-block offsets ``rel``, most significant first.

        They are peeled off by ``//`` and ``%`` (``np.divmod`` has no object-array
        loop); object arrays, of spaces of at least 2^62, come out as int64 columns.
        """
        cols = []
        for _ in range(arity - 1):
            cols.append(rel % self.n + 1)
            rel = rel // self.n
        cols.append(rel + 1)
        cols.reverse()
        if isinstance(rel, np.ndarray) and rel.dtype == object:
            cols = [c.astype(np.int64) for c in cols]
        return cols


class _Dedup:
    """Seen-index record: the cursor mark plus sorted runs of the samples ahead of it.

    Every index at or below ``mark`` has already been a candidate, because the
    cursor passed it, so only sampled indices beyond the mark are stored. They
    sit in sorted runs, oldest and largest first; a new run merges into the one
    before it once it reaches half that run's size, so an index takes part in
    O(log) merges, and each merge drops the indices the mark has since passed.
    The record starts empty whatever the size of the space. A batch's first
    occurrences come from one sort of packed (value, position) int64 keys;
    ``np.unique`` serves only spaces too wide for the keys to pack. Runs keep
    the dtype of the candidates: int64, or python ints in object arrays for
    spaces of at least 2^62.
    """

    def __init__(self, size: int, fault_skip: bool = False):
        self.size = size
        self.count = 0
        self.fault_skip = fault_skip
        self.mark = 0
        self._runs: list[np.ndarray] = []

    @property
    def saturated(self) -> bool:
        return self.count >= self.size

    def test_and_set_many(self, idxs: np.ndarray, mark: int) -> np.ndarray:
        """Mask of first-ever occurrences, in order; marks them seen.

        ``mark`` is the cursor after this batch: every index up to it occurs in
        ``idxs`` or in an earlier batch.
        """
        if self.fault_skip:
            # every candidate passes as fresh, but the count still advances so
            # the post-saturation skip, and with it the run's end, still come
            self.count += idxs.size
            return np.ones(idxs.size, dtype=bool)
        prev = self.mark
        past = np.flatnonzero(idxs > prev)
        uniq, first = self._first_occurrences(idxs[past])
        # uniq opens with the whole window (prev, mark] the cursor just
        # covered, then holds the samples ahead of the new mark
        width = mark - prev
        ahead = uniq[width:]
        fresh = np.ones(uniq.size, dtype=bool)
        if self._runs:
            # one search per run: the window's bounds, then the samples ahead
            keys = np.concatenate(((prev + 1, mark + 1), ahead))
            hits = np.zeros(keys.size, dtype=bool)
            behind = []
            for run in self._runs:
                pos = run.searchsorted(keys)
                behind.append(run[pos[0]:pos[1]])
                hits |= run.take(pos, mode="clip") == keys
            fresh[(np.concatenate(behind) - (prev + 1)).astype(np.intp)] = False
            fresh[width:] &= ~hits[2:]
        first = first[fresh]
        mask = np.zeros(idxs.size, dtype=bool)
        mask[past[first]] = True
        self.count += first.size
        self.mark = mark
        ahead = ahead[fresh[width:]]
        if ahead.size:
            self._push(ahead)
        return mask

    def _first_occurrences(self, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``np.unique(vals, return_index=True)``, from one sort of packed keys.

        Each key is ``value << bits | position``; equal values sort in position
        order, so each group of equal values opens at its first occurrence.
        Keys of spaces too wide to pack into an int64, which include every
        object-dtype space, go through ``np.unique``.
        """
        bits = vals.size.bit_length()
        if vals.dtype == object or self.size.bit_length() + bits > 63:
            return np.unique(vals, return_index=True)
        keys = (vals << bits) | np.arange(vals.size)
        keys.sort()
        sorted_vals = keys >> bits
        start = np.empty(keys.size, dtype=bool)
        start[:1] = True
        np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=start[1:])
        return sorted_vals[start], keys[start] & ((1 << bits) - 1)

    def _push(self, run: np.ndarray) -> None:
        runs = self._runs
        runs.append(run)
        while len(runs) > 1 and 2 * runs[-1].size >= runs[-2].size:
            merged = np.concatenate((runs[-2], runs.pop()))
            merged.sort(kind="stable")
            merged = merged[np.searchsorted(merged, self.mark, side="right"):]
            if merged.size:
                runs[-1] = merged
            else:
                runs.pop()


class _SampleStream:
    """Uniform indices in [1, size], buffered in fixed-size blocks.

    The draw order is a pure function of the seed, so callers may consume in
    any group sizes without changing the stream.
    """

    def __init__(self, size: int, seed: int):
        self.size = size
        self.drawn = 0
        if size < _NUMPY_SPACE_LIMIT:
            self._rng = child_rng(seed, "samples")
            self._py = None
        else:
            import random as _random

            self._py = _random.Random(child_seed(seed, "samples"))
            self._rng = None
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def draw(self, count: int) -> np.ndarray:
        self.drawn += count
        if self._py is not None:
            return np.array([self._py.randrange(1, self.size + 1) for _ in range(count)],
                            dtype=object)
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos >= self._buf.size:
                self._buf = self._rng.integers(1, self.size + 1, size=_SAMPLE_BLOCK)
                self._pos = 0
            take = min(count - filled, self._buf.size - self._pos)
            out[filled:filled + take] = self._buf[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out


class _HitQueue:
    """FIFO of hit indices, decoded into tuples only when popped.

    One index array per block of rounds, plus a head offset into the first
    array and the count of queued indices.  Arrays keep the dtype of the
    candidates: int64, or python ints in object arrays for spaces of at least
    2^62, which ``split_blocks`` decodes all the same.
    """

    def __init__(self, space: IndexSpace):
        self.space = space
        self.count = 0
        self._arrays: deque[np.ndarray] = deque()
        self._head = 0

    def push(self, idxs: np.ndarray) -> None:
        if idxs.size:
            self._arrays.append(idxs)
            self.count += idxs.size

    def pop(self, count: int) -> list[tuple[int, ...]]:
        """The next ``count`` queued tuples, in FIFO order."""
        parts = []
        need = count
        while need:
            arr = self._arrays[0]
            part = arr[self._head:self._head + need]
            parts.append(part)
            need -= part.size
            self._head += part.size
            if self._head == arr.size:
                self._arrays.popleft()
                self._head = 0
        self.count -= count
        blocks = self.space.split_blocks(parts[0] if len(parts) == 1 else np.concatenate(parts))
        if len(blocks) == 1:  # one arity block holds every index, in queue order
            return list(zip(*(c.tolist() for c in blocks[0][2])))
        out: list = [None] * count
        for _, sel, cols in blocks:
            for pos, tup in zip(sel.tolist(), zip(*(c.tolist() for c in cols))):
                out[pos] = tup
        return out


# -- membership evaluators -----------------------------------------------------


def _type_table(type_ids) -> np.ndarray:
    """Bool table over type ids, padded with a trailing False.

    ``np.take(table, ids, mode="clip")`` tests membership; an id interned after
    the table was built lies beyond it and clips onto the pad.
    """
    ids = np.fromiter(type_ids, dtype=np.int64)
    table = np.zeros(int(ids.max(initial=-1)) + 2, dtype=bool)
    table[ids] = True
    return table


def _elementwise_prefilter(cache: TypeCache, radius: int, tables: Sequence[np.ndarray],
                           cols: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows whose element at each position has a type its position's table admits.

    Types the columns in position order and stops once no row survives, so
    later columns are not typed; returns the mask and the element types of
    the columns it typed.
    """
    mask = np.ones(cols[0].size, dtype=bool)
    etypes = []
    for table, col in zip(tables, cols):
        etypes.append(cache.element_types_many(col, radius))
        mask &= np.take(table, etypes[-1], mode="clip")
        if not mask.any():
            break
    return mask, etypes


class TypeMembership:
    """V1 = tuples whose radius-r type belongs to a fixed set."""

    def __init__(self, cache: TypeCache, type_ids: frozenset[int], k: int, radius: int):
        self.cache = cache
        self.type_ids = type_ids
        self.k = k
        self.radius = radius
        table = cache.split_table(type_ids, k).values()
        self._allowed = [_type_table(set().union(*(f[pos] for f, _ in table)))
                         for pos in range(k)]
        self._degrees = np.asarray(cache.db.degrees, dtype=np.int64)
        self.expansion_cap = 1

    def check(self, tup: tuple[int, ...]) -> bool:
        return self.cache.tuple_type(tup, self.radius) in self.type_ids

    def _pair_ok(self, ta: int, tb: int) -> bool:
        return self.cache.registry.compose_disjoint((0, 1), (ta, tb), self.radius) \
            in self.type_ids

    def check_block(self, arity: int, cols: list[np.ndarray]) -> np.ndarray:
        if arity != self.k or not self.type_ids:
            return np.zeros(cols[0].size, dtype=bool)
        mask, etypes = _elementwise_prefilter(self.cache, self.radius, self._allowed, cols)
        if self.k == 1 or not mask.any():
            return mask  # the elementwise filter is exact for one centre
        scalar = mask.copy()
        if self.k == 2:
            # degree-0 elements have singleton balls at every radius, so a
            # distinct pair of them composes from the element types alone
            iso = mask & (self._degrees[cols[0]] == 0) & (self._degrees[cols[1]] == 0)
            iso &= cols[0] != cols[1]
            idx = np.nonzero(iso)[0]
            if idx.size:
                keys = etypes[0][idx] * (1 << 32) + etypes[1][idx]
                for key in np.unique(keys):
                    ta, tb = int(key >> 32), int(key & 0xFFFFFFFF)
                    sub = idx[keys == key]
                    mask[sub] = self._pair_ok(ta, tb)
                scalar &= ~iso
        for i in np.nonzero(scalar)[0]:
            tup = tuple(int(cols[pos][i]) for pos in range(self.k))
            if not self.check(tup):
                mask[i] = False
        return mask

    def expansions(self, tup: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tup]


class SplitMembership:
    """V1 = leader tuples from which some target-type tuple is found.

    The elementwise prefilter admits element ``a`` at slot ``j`` of a leader
    tuple of arity c only when some c-group partition of the split table
    admits ``a``'s radius-r type at its j-th group's leader position;
    survivors get the exact check, which is the full split expansion.  An
    admitted leader's expansion is held, keyed by the leader, until the loop
    pops it, so each leader is expanded once.
    """

    def __init__(self, cache: TypeCache, type_ids: frozenset[int], k: int, radius: int,
                 expansion_cap: int):
        self.cache = cache
        self.type_ids = type_ids
        self.k = k
        self.radius = radius
        self.expansion_cap = expansion_cap
        allowed = {c: [set() for _ in range(c)] for c in range(1, k + 1)}
        for partition, (filters, _) in cache.split_table(type_ids, k).items():
            for slot, grp in zip(allowed[len(partition)], partition):
                slot |= filters[grp[0]]
        self._allowed = {c: [_type_table(s) for s in slots] for c, slots in allowed.items()}
        self._expanded: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def check(self, tup: tuple[int, ...]) -> bool:
        found = candidate_found_tuples(self.cache, tup, self.type_ids, self.k, self.radius)
        if found:
            self._expanded[tup] = found
        return bool(found)

    def check_block(self, arity: int, cols: list[np.ndarray]) -> np.ndarray:
        slots = self._allowed.get(arity)
        if slots is None or not self.type_ids:
            return np.zeros(cols[0].size, dtype=bool)
        mask = _elementwise_prefilter(self.cache, self.radius, slots, cols)[0]
        for i in np.nonzero(mask)[0]:
            tup = tuple(int(cols[j][i]) for j in range(arity))
            if not self.check(tup):
                mask[i] = False
        return mask

    def expansions(self, tup: tuple[int, ...]) -> list[tuple[int, ...]]:
        found = self._expanded.pop(tup, None)
        if found is None:
            # a leader queued twice, which only the injected dedup fault
            # allows, had its held expansion taken at its first pop
            found = candidate_found_tuples(self.cache, tup, self.type_ids, self.k, self.radius)
        return found


# -- session summary -----------------------------------------------------------


@dataclass
class EnumSummary:
    mode: str
    n: int
    k: int
    space_size: int
    mu: float
    delta: float
    q: float
    alpha: int
    batch: int
    seed: int
    conn: int = 1
    expansion_cap: int = 1
    outputs: int = 0
    samples_drawn: int = 0
    cursor_consumed: int = 0
    seen_count: int = 0
    rounds: int = 0
    truncated: bool = False
    max_delay_ops: int = 0
    first_output_ops: int = 0
    end_delay_ops: int = 0
    max_oracle_per_output: int = 0
    max_inner_queue: int = 0  # most hit indices queued at once
    max_expansions: int = 0   # largest expansion of a popped tuple
    delay_bound: int = 0
    preprocessing: dict = field(default_factory=dict)


# -- the core loop ---------------------------------------------------------------


def partitioned_enumerate(space: IndexSpace, membership, mu: float, delta: float,
                          seed: int, emit: Callable[[tuple[int, ...]], None],
                          mode: str = "partitioned",
                          max_outputs: Optional[int] = None,
                          instrument: bool = False,
                          _fault_skip_dedup: bool = False) -> EnumSummary:
    """Run the sampling loop; see the module docstring for the contract."""
    if max_outputs is not None:
        check_parameter("max_outputs", max_outputs)
    q, alpha, batch = lemma_constants(mu, delta)
    summary = EnumSummary(mode=mode, n=space.n, k=max(space.arities),
                          space_size=space.size, mu=mu, delta=delta, q=q,
                          alpha=alpha, batch=batch, seed=seed)
    summary.delay_bound = analytic_delay_bound(alpha, batch, membership.expansion_cap)
    if space.size == 0:
        return summary

    dedup = _Dedup(space.size, fault_skip=_fault_skip_dedup)
    stream = _SampleStream(space.size, seed)
    straight = isinstance(membership, TypeMembership) and not instrument
    limit = math.inf if max_outputs is None else max_outputs
    pending = _HitQueue(space)
    cursor = 0
    emitted = 0
    widest = 0  # the largest expansion popped so far
    ops_since_emit = 0
    had_output = False
    probes0 = membership.cache.db.probes if hasattr(membership, "cache") else 0
    db = membership.cache.db if hasattr(membership, "cache") else None

    def arrivals_for(cand: np.ndarray, mark: int) -> np.ndarray:
        """The fresh candidates that pass the membership check, in order."""
        fresh = cand[dedup.test_and_set_many(cand, mark)]
        hit = np.zeros(fresh.size, dtype=bool)
        for arity, sel, cols in space.split_blocks(fresh):
            hit[sel] = membership.check_block(arity, cols)
        return fresh[hit]

    while True:
        if emitted >= limit:
            summary.truncated = True
            break
        # a block of rounds never outruns the queue, so only a one-round
        # block can find it empty and stop
        rounds = 1 if instrument else max(1, min(_CHUNK, pending.count))
        take_cursor = min(batch * rounds, space.size - cursor)
        # sampling may be skipped once every index has been seen: all draws
        # would be duplicates and cannot affect the output; the instrumented
        # mode keeps the literal loop
        if instrument or not dedup.saturated:
            samples = stream.draw(alpha * rounds)
            summary.samples_drawn += alpha * rounds
            # each round's alpha samples, then its batch cursor steps; when the
            # cursor runs short, steps past the end of the space are dropped
            # and the rounds after it keep only their samples
            rows = -(-take_cursor // batch)
            steps = np.arange(cursor + 1, cursor + batch * rows + 1, dtype=samples.dtype)
            cand = np.concatenate((samples[:alpha * rows].reshape(rows, alpha),
                                   steps.reshape(rows, batch)), axis=1).ravel()
            if take_cursor < batch * rounds:
                cand = np.concatenate((cand[cand <= space.size], samples[alpha * rows:]))
            hits = arrivals_for(cand, cursor + take_cursor)
            pending.push(hits)
            if instrument:
                fresh_count = dedup.count  # updated inside arrivals_for
                ops_since_emit += alpha + take_cursor  # draws + cursor advances
                ops_since_emit += cand.size            # dedup reads
                # dedup writes + membership checks for fresh candidates:
                # counted via the change in the seen counter
                ops_since_emit += 2 * (fresh_count - summary.seen_count)
                ops_since_emit += hits.size            # queue pushes
                summary.seen_count = fresh_count
        cursor += take_cursor
        summary.rounds += rounds
        summary.max_inner_queue = max(summary.max_inner_queue, pending.count)
        if not pending.count:
            break
        if straight:
            # the expansion is the identity: emit the popped tuples themselves
            take = min(rounds, limit - emitted)
            for tup in pending.pop(take):
                emit(tup)
            emitted += take
            widest = 1
            continue
        for leader in pending.pop(rounds):
            expanded = membership.expansions(leader)
            if len(expanded) > widest:
                widest = len(expanded)
            if instrument:
                ops_since_emit += 1 + 2 * len(expanded)
            for tup in expanded:
                emit(tup)
                emitted += 1
                if instrument:
                    ops_since_emit += 2
                    _record_delay(summary, ops_since_emit, had_output)
                    if db is not None:
                        summary.max_oracle_per_output = max(
                            summary.max_oracle_per_output, db.probes - probes0)
                        probes0 = db.probes
                    had_output = True
                    ops_since_emit = 0
                if emitted >= limit:
                    break
            if emitted >= limit:
                break

    summary.outputs = emitted
    summary.max_expansions = widest
    summary.cursor_consumed = cursor
    summary.seen_count = dedup.count
    if instrument:
        # delay covers the gap to the end-of-enumeration message as well
        summary.end_delay_ops = ops_since_emit + 1  # the stop check itself
        if not summary.truncated:
            summary.max_delay_ops = max(summary.max_delay_ops, summary.end_delay_ops)
    return summary


def _record_delay(summary: EnumSummary, ops: int, had_output: bool) -> None:
    if not had_output:
        summary.first_output_ops = ops
    summary.max_delay_ops = max(summary.max_delay_ops, ops)


# -- query enumeration ------------------------------------------------------------

# mode: (strengthened, type-set source, delta).  Strengthened modes sample
# leader tuples of arity up to conn(q) and admit those with a non-empty split
# expansion; the others sample all k-tuples and admit those whose type is in
# the set.  The set is the query's own sphere types ("sphere"), or the clause
# types accepted by testers of the named kind ("tester") or by caller-supplied
# testers ("plugins").
_PLANS = {
    "local": (False, "sphere", 2.0 / 3.0),
    "local-strengthened": (True, "sphere", 4.0 / 5.0),
    "general": (False, "tester", 5.0 / 6.0),
    "general-strengthened": (True, "tester", 4.0 / 5.0),
    "hanf-testable": (True, "plugins", 4.0 / 5.0),
}


def enumerate_query(db: Database, q: QueryNF, mode: str, gamma: float, seed: int,
                    emit: Callable[[tuple[int, ...]], None], cache: TypeCache, *,
                    epsilon: Optional[float] = None, tester: Optional[str] = None,
                    plugins: Optional[Sequence[ClauseTester]] = None,
                    expansion_cap: Optional[int] = None, **loop_kwargs) -> EnumSummary:
    """Enumerate the answers of ``q`` in ``mode`` (a key of ``_PLANS``).

    The tested modes need ``epsilon``, and ``hanf-testable`` needs one plugin
    tester per clause.  ``expansion_cap`` must upper-bound the answers one
    leader tuple leads for the strengthened modes' threshold to hold; it
    divides their mu.  ``tester`` and ``expansion_cap`` default to ``"exact"``
    and 1; an option the mode does not read raises ParameterError.
    ``loop_kwargs`` go to ``partitioned_enumerate``.
    """
    if mode not in _PLANS:
        raise ParameterError(f"unknown mode {mode!r}; choose from {', '.join(_PLANS)}")
    strengthened, source, delta = _PLANS[mode]
    for name, value, reads in (("epsilon", epsilon, source != "sphere"),
                               ("tester", tester, source == "tester"),
                               ("plugins", plugins, source == "plugins"),
                               ("expansion_cap", expansion_cap, strengthened)):
        if value is not None and not reads:
            raise ParameterError(f"{name} does not apply to mode {mode!r}")
    tester = "exact" if tester is None else tester
    expansion_cap = 1 if expansion_cap is None else expansion_cap
    if source == "sphere" and not is_local(q):
        raise NotLocal("local modes require a sentence-free query")
    if source == "plugins" and plugins is None:
        raise MissingTester(f"mode {mode!r} needs one tester per clause ({len(q.clauses)})")
    if source != "sphere" and epsilon is None:
        raise ParameterError(f"mode {mode!r} needs epsilon")
    check_parameter("gamma", gamma)
    check_parameter("expansion_cap", expansion_cap)
    check_cache(db, cache)
    if source == "sphere":
        type_ids = q.sphere_type_ids()
    else:
        tset = compute_type_set(cache, q, epsilon, child_seed(seed, "typeset"),
                                tester=tester, plugins=plugins)
        type_ids = tset.members
    if strengthened:
        c = compute_conn(q)
        space = IndexSpace.union_up_to(db.n, c)
        membership = SplitMembership(cache, type_ids, q.k, q.radius, expansion_cap)
        mu = gamma / (c * expansion_cap)
    else:
        space = IndexSpace.power(db.n, q.k)
        membership = TypeMembership(cache, type_ids, q.k, q.radius)
        mu = gamma
    summary = partitioned_enumerate(space, membership, mu=mu, delta=delta, seed=seed,
                                    emit=emit, mode=mode, **loop_kwargs)
    if strengthened:
        summary.conn = c
        summary.expansion_cap = expansion_cap
    if source != "sphere":
        summary.preprocessing = {"type_set": sorted(tset.members), "exact_branch": tset.exact}
    return summary


def enumerate_local(db: Database, q: QueryNF, gamma: float, seed: int,
                    emit: Callable[[tuple[int, ...]], None],
                    cache: TypeCache, **loop_kwargs) -> EnumSummary:
    """Alias of mode ``local``; goes when the benchmark calls enumerate_query."""
    return enumerate_query(db, q, "local", gamma, seed, emit, cache, **loop_kwargs)


def enumerate_local_strengthened(db: Database, q: QueryNF, gamma: float, seed: int,
                                 emit: Callable[[tuple[int, ...]], None],
                                 cache: TypeCache, expansion_cap: int = 1,
                                 **loop_kwargs) -> EnumSummary:
    """Alias of mode ``local-strengthened``; goes when the benchmark calls enumerate_query."""
    return enumerate_query(db, q, "local-strengthened", gamma, seed, emit, cache,
                           expansion_cap=expansion_cap, **loop_kwargs)


def enumerate_general(db: Database, q: QueryNF, gamma: float, epsilon: float, seed: int,
                      emit: Callable[[tuple[int, ...]], None],
                      cache: TypeCache, tester: str = "exact",
                      **loop_kwargs) -> EnumSummary:
    """Alias of mode ``general``; goes when the benchmark calls enumerate_query."""
    return enumerate_query(db, q, "general", gamma, seed, emit, cache, epsilon=epsilon,
                           tester=tester, **loop_kwargs)


def enumerate_general_strengthened(db: Database, q: QueryNF, gamma: float, epsilon: float,
                                   seed: int, emit: Callable[[tuple[int, ...]], None],
                                   cache: TypeCache, tester: str = "exact",
                                   expansion_cap: int = 1,
                                   **loop_kwargs) -> EnumSummary:
    """Alias of mode ``general-strengthened``; goes when the benchmark calls enumerate_query."""
    return enumerate_query(db, q, "general-strengthened", gamma, seed, emit, cache,
                           epsilon=epsilon, tester=tester, expansion_cap=expansion_cap,
                           **loop_kwargs)


def enumerate_hanf_testable(db: Database, q: QueryNF, gamma: float, epsilon: float,
                            seed: int, emit: Callable[[tuple[int, ...]], None],
                            plugins: Sequence[ClauseTester], cache: TypeCache,
                            expansion_cap: int = 1,
                            **loop_kwargs) -> EnumSummary:
    """Alias of mode ``hanf-testable``; goes when the benchmark calls enumerate_query."""
    return enumerate_query(db, q, "hanf-testable", gamma, seed, emit, cache, epsilon=epsilon,
                           plugins=plugins, expansion_cap=expansion_cap, **loop_kwargs)
