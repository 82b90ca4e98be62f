"""Brute-force reference engine: exact evaluation and edit-distance closeness.

Everything here favours transparency over speed and serves as the oracle the
randomized components are validated against.  ``answer_set`` scans the full
tuple space; ``closeness_check`` exhaustively searches edit sets on instances
small enough to enumerate.  Both refuse (BudgetExceeded) rather than guess
when an instance is too large.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .db import Database
from .errors import BudgetExceeded
from .neighborhoods import TypeRegistry
from .query import Clause, HanfSentence, QueryNF
from .typecache import TypeCache

EDIT_BUDGET_CAP = 3  # largest edit budget the closeness search explores
INSERTION_SPACE_CAP = 2000  # most candidate insertions it enumerates


@dataclass(frozen=True)
class AnswerSet:
    query: QueryNF
    tuples: tuple[tuple[int, ...], ...]  # sorted, duplicate-free


def count_type(cache: TypeCache, type_id: int, radius: int) -> int:
    """Exact number of elements with the given 1-centre type.

    One full scan per (type, radius) and cache; later calls read the memo.
    """
    key = (type_id, radius)
    total = cache.type_counts.get(key)
    if total is None:
        total = sum(cache.element_type(a, radius) == type_id for a in range(1, cache.db.n + 1))
        cache.type_counts[key] = total
    return total


def eval_hanf(cache: TypeCache, sentence: HanfSentence) -> bool:
    threshold = max(1, sentence.threshold)  # parser forbids 0; clamp defensively
    holds = count_type(cache, sentence.type.type_id, sentence.radius) >= threshold
    return not holds if sentence.negated else holds


def sentences_hold(cache: TypeCache, clause: Clause) -> bool:
    """True iff every count sentence of the clause holds (a local clause has none)."""
    return all(eval_hanf(cache, s) for s in clause.sentences)


def live_types(cache: TypeCache, q: QueryNF) -> frozenset[int]:
    """Sphere types of the clauses whose sentences hold: exactly the answers' types."""
    return frozenset(c.sphere.type.type_id for c in q.clauses if sentences_hold(cache, c))


def eval_query(cache: TypeCache, abar: Sequence[int], q: QueryNF) -> bool:
    """True iff ``abar`` is a k-tuple whose type is live."""
    abar = tuple(abar)
    return len(abar) == q.k and cache.tuple_type(abar, q.radius) in live_types(cache, q)


def answer_set(db: Database, q: QueryNF, registry: TypeRegistry,
               budget: int = 2_000_000) -> AnswerSet:
    """All answers by full scan over the tuple space; BudgetExceeded beyond the cap."""
    if db.n ** q.k > budget:
        raise BudgetExceeded(f"n^k = {db.n ** q.k} exceeds answer_set budget {budget}")
    cache = TypeCache(db, registry)
    live = live_types(cache, q)
    out = []
    for abar in itertools.product(range(1, db.n + 1), repeat=q.k):
        if cache.tuple_type(abar, q.radius) in live:
            out.append(abar)
    return AnswerSet(q, tuple(sorted(out)))


# -- edit-distance closeness --------------------------------------------------


def _edit_candidates(db: Database) -> list[tuple[str, int, tuple]]:
    """All legal single edits: deletions of present tuples, insertions of absent ones."""
    edits: list[tuple[str, int, tuple]] = []
    tuples = db.tuples
    for rel_idx, tups in enumerate(tuples):
        for t in tups:
            edits.append(("del", rel_idx, t))
    space = 0
    for rel_idx, rel in enumerate(db.schema.relations):
        present = set(tuples[rel_idx])
        if rel.symmetric:
            universe: Iterable[tuple] = itertools.combinations(range(1, db.n + 1), 2)
        else:
            universe = itertools.product(range(1, db.n + 1), repeat=rel.arity)
        for t in universe:
            space += 1
            if space > INSERTION_SPACE_CAP:
                raise BudgetExceeded(
                    f"insertion space exceeds {INSERTION_SPACE_CAP}; instance too large for the edit search"
                )
            if t not in present:
                edits.append(("ins", rel_idx, t))
    return edits


def _apply_edits(db: Database, edits: Sequence[tuple[str, int, tuple]]) -> Optional[Database]:
    """Edited database, or None when the degree bound would break."""
    deltas: dict[int, int] = {}
    for kind, rel_idx, t in edits:
        step = 1 if kind == "ins" else -1
        for e in set(t):
            deltas[e] = deltas.get(e, 0) + step
    for e, delta in deltas.items():
        if db.degrees[e] + delta > db.degree_bound:
            return None
    new_tuples = []
    for rel_idx, tups in enumerate(db.tuples):
        tups = set(tups)
        for kind, ri, t in edits:
            if ri != rel_idx:
                continue
            if kind == "del":
                tups.discard(t)
            else:
                tups.add(t)
        new_tuples.append(sorted(tups))
    return Database(db.schema, db.n, db.degree_bound, new_tuples)


def closeness_check(db: Database, abar: Sequence[int], q: QueryNF, epsilon: float,
                    registry: TypeRegistry) -> bool:
    """Can at most floor(epsilon*d*n) tuple edits make ``abar`` an answer?

    The edited database must stay within the degree bound (the only class
    constraint enforced here) and must leave the radius-r type of ``abar``
    unchanged.  Exhaustive over edit sets, so only desk-scale instances are
    admissible; a budget above ``EDIT_BUDGET_CAP`` raises BudgetExceeded
    rather than returning a wrong answer.  Since the type of ``abar`` is
    preserved, only clauses whose sphere already matches can ever fire, which
    prunes the search to their sentences.
    """
    abar = tuple(abar)
    budget = int(epsilon * db.degree_bound * db.n)
    if budget > EDIT_BUDGET_CAP:
        raise BudgetExceeded(f"edit budget {budget} exceeds cap {EDIT_BUDGET_CAP}")

    cache = TypeCache(db, registry)
    own_type = cache.tuple_type(abar, q.radius)
    matching = [c for c in q.clauses if c.sphere.type.type_id == own_type]
    if not matching:
        return False  # a preserved type can never satisfy any clause
    if eval_query(cache, abar, q):
        return True  # zero edits suffice

    edits = _edit_candidates(db)
    for size in range(1, budget + 1):
        for combo in itertools.combinations(edits, size):
            edited = _apply_edits(db, combo)
            if edited is None:
                continue
            ecache = TypeCache(edited, registry)
            if ecache.tuple_type(abar, q.radius) != own_type:
                continue
            if any(sentences_hold(ecache, c) for c in matching):
                return True
    return False
