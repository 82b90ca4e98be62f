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
tuple, which the enumeration engine relies on for duplicate freedom.  The
engine's membership check runs the full expansion once per leader; the
``first_only`` stop at the first hit serves only the exact witness scan
``testers.sphere_witness_exists``.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from .db import gaifman_ball
from .typecache import TypeCache, group_positions


def member_reach(radius: int, k: int) -> int:
    """Max distance of a group member from its leader."""
    return (2 * radius + 1) * (k - 1)


@functools.cache
def _ordered_partitions(k: int, blocks: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partitions of positions 0..k-1 into ``blocks`` groups ordered by first member."""
    out = []

    def rec(pos: int, groups: list[list[int]]):
        if pos == k:
            if len(groups) == blocks:
                out.append(tuple(tuple(g) for g in groups))
            return
        for g in groups:
            g.append(pos)
            rec(pos + 1, groups)
            g.pop()
        if len(groups) < blocks:
            groups.append([pos])
            rec(pos + 1, groups)
            groups.pop()

    rec(0, [])
    return tuple(out)


def candidate_found_tuples(cache: TypeCache, abar: Sequence[int], type_ids: frozenset[int],
                           k: int, radius: int, first_only: bool = False) -> list[tuple[int, ...]]:
    """All k-tuples of a target type split into |abar| groups led by ``abar``.

    Enumerates group assignments and fills non-leader coordinates from the
    leaders' reach balls, then keeps exactly the tuples whose own split
    reproduces the assignment.  Work depends only on the degree bound, the
    radius and k.  A leader's reach ball is built the first time one of its
    group's non-leader positions is filled, so a leader tuple whose element
    types lead no target costs no ball search.  Results are sorted; with
    ``first_only`` the scan stops at the first hit.
    """
    abar = tuple(abar)
    c = len(abar)
    if c > k or not type_ids:
        return []
    allowed = cache.position_filters(type_ids, k)
    reach = member_reach(radius, k)
    balls: dict[int, list[int]] = {}
    results = []
    for partition in _ordered_partitions(k, c):
        # leaders occupy each group's first position
        slots: list[Optional[int]] = [None] * k
        for gi, grp in enumerate(partition):
            slots[grp[0]] = abar[gi]
        if not _leaders_pass(cache, slots, allowed, radius, partition):
            continue
        free = [(pos, gi) for gi, grp in enumerate(partition) for pos in grp[1:]]

        def fill(idx: int):
            if idx == len(free):
                btuple = tuple(slots)  # type: ignore[arg-type]
                if cache.tuple_type(btuple, radius) not in type_ids:
                    return
                grouping = group_positions(cache, btuple, radius)
                if [tuple(g) for g in grouping] != list(partition):
                    return
                results.append(btuple)
                return
            pos, gi = free[idx]
            ball = balls.get(gi)
            if ball is None:
                ball = balls[gi] = sorted(gaifman_ball(cache.db, (abar[gi],), reach))
            for x in ball:
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


def _leaders_pass(cache: TypeCache, slots, allowed, radius: int, partition) -> bool:
    for grp in partition:
        pos = grp[0]
        if cache.element_type(slots[pos], radius) not in allowed[pos]:
            return False
    return True
