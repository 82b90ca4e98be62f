"""Grounded split expansion: finding target tuples from their group leaders.

Every k-tuple decomposes uniquely into groups of coordinates whose radius-r
balls chain together (``typecache.group_positions``); distinct groups are
fully separated (pairwise distance greater than 2r+1, so no tuple spans
them).  Each group is led by its leader, the coordinate appearing first in
the tuple, and every other member sits within ``member_reach`` of it.

``candidate_found_tuples`` expands a leader tuple against a target set of
tuple types: it enumerates exactly the k-tuples with those types whose
grouping is led by the given leaders, filling the non-leader coordinates
from the leaders' reach balls.  Each k-tuple arises from exactly one leader
tuple, which the enumeration engine relies on for duplicate freedom.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .db import gaifman_ball
from .typecache import TypeCache, group_positions


def member_reach(radius: int, k: int) -> int:
    """Max distance of a group member from its leader."""
    return (2 * radius + 1) * (k - 1)


def _ordered_partitions(k: int, blocks: int) -> Iterator[list[list[int]]]:
    """Partitions of positions 0..k-1 into ``blocks`` groups ordered by first member."""

    def rec(pos: int, groups: list[list[int]]):
        if pos == k:
            if len(groups) == blocks:
                yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(pos)
            yield from rec(pos + 1, groups)
            g.pop()
        if len(groups) < blocks:
            groups.append([pos])
            yield from rec(pos + 1, groups)
            groups.pop()

    yield from rec(0, [])


def candidate_found_tuples(cache: TypeCache, abar: Sequence[int], type_ids: frozenset[int],
                           k: int, radius: int, first_only: bool = False) -> list[tuple[int, ...]]:
    """All k-tuples of a target type split into |abar| groups led by ``abar``.

    Enumerates group assignments and fills non-leader coordinates from the
    leaders' reach balls, then keeps exactly the tuples whose own split
    reproduces the assignment.  Work depends only on the degree bound, the
    radius and k.  Results are sorted; with ``first_only`` the scan stops at
    the first hit (membership tests need only non-emptiness).
    """
    abar = tuple(abar)
    c = len(abar)
    if c > k or not type_ids:
        return []
    allowed = _position_filters(cache.registry, type_ids, k)
    reach = member_reach(radius, k)
    balls = [sorted(gaifman_ball(cache.db, (a,), reach)) for a in abar]
    results = []
    for partition in _ordered_partitions(k, c):
        # leaders occupy each group's first position
        slots: list[Optional[int]] = [None] * k
        for gi, grp in enumerate(partition):
            slots[grp[0]] = abar[gi]
        free = [(pos, gi) for gi, grp in enumerate(partition) for pos in grp[1:]]
        if not _leaders_pass(cache, slots, allowed, radius, partition):
            continue

        def fill(idx: int):
            if idx == len(free):
                btuple = tuple(slots)  # type: ignore[arg-type]
                if cache.tuple_type(btuple, radius) not in type_ids:
                    return
                grouping = group_positions(cache, btuple, radius)
                if grouping != [sorted(g) for g in partition]:
                    return
                results.append(btuple)
                return
            pos, gi = free[idx]
            for x in balls[gi]:
                if cache.element_type(x, radius) not in allowed[pos]:
                    continue
                slots[pos] = x
                fill(idx + 1)
                if first_only and results:
                    slots[pos] = None
                    return
                slots[pos] = None

        fill(0)
        if first_only and results:
            break
    return sorted(set(results))


def _position_filters(registry, type_ids: frozenset[int], k: int) -> list[set[int]]:
    """Per-position sets of admissible 1-centre element types, from the targets."""
    allowed: list[set[int]] = [set() for _ in range(k)]
    for tid in type_ids:
        t = registry.by_id(tid)
        if len(t.centre_positions) != k:
            continue
        for pos in range(k):
            allowed[pos].add(registry.centre_restriction(t, pos))
    return allowed


def _leaders_pass(cache: TypeCache, slots, allowed, radius: int, partition) -> bool:
    for grp in partition:
        pos = grp[0]
        if cache.element_type(slots[pos], radius) not in allowed[pos]:
            return False
    return True
