"""Grounded split expansion: finding target tuples from their group leaders.

Every k-tuple splits into the groups of its type's partition
(``CanonicalType.partition``): the coordinates whose centres lie in one
component of the tuple's radius-r neighbourhood form a group.  Each group is
led by its leader, the coordinate appearing first in the tuple, and every
other member is chained to it through centres at distance at most 2r+1, so it
sits within ``member_reach`` of the leader.

``iter_found_tuples`` expands a leader tuple against a target set of tuple
types: it enumerates exactly the k-tuples with those types whose split
is led by the given leaders, filling the non-leader coordinates from the
leaders' reach balls.  Each k-tuple arises from exactly one leader tuple,
which the enumeration engine relies on for duplicate freedom.
``candidate_found_tuples`` returns a leader's whole expansion, sorted; the
exact witness scan ``testers.sphere_witness_exists`` stops at the first tuple
the expansion yields.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .db import gaifman_ball
from .typecache import TypeCache


def member_reach(radius: int, k: int) -> int:
    """Max distance of a group member from its leader."""
    return (2 * radius + 1) * (k - 1)


def iter_found_tuples(cache: TypeCache, abar: Sequence[int], type_ids: frozenset[int],
                      k: int, radius: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of a target type split into |abar| groups led by ``abar``.

    For each partition of the split table (``TypeCache.split_table``) with
    |abar| groups, places the leaders at the groups' first positions, gates
    them with that partition's element-type filters, fills the non-leader
    coordinates from the leaders' reach balls and yields the tuples whose type
    is one of the partition's targets, in search order.  Work depends only on
    the degree bound, the radius and k, and a consumer that stops early skips
    the rest of the search.  A leader's reach ball is built the first time one
    of its group's non-leader positions is filled, so a leader tuple whose
    element types lead no target costs no ball search.
    """
    abar = tuple(abar)
    reach = member_reach(radius, k)
    balls: dict[int, list[int]] = {}
    for partition, (allowed, targets) in cache.split_table(type_ids, k).items():
        if len(partition) != len(abar):
            continue
        if any(cache.element_type(a, radius) not in allowed[grp[0]]
               for a, grp in zip(abar, partition)):
            continue
        # leaders occupy each group's first position
        slots: list[Optional[int]] = [None] * k
        for a, grp in zip(abar, partition):
            slots[grp[0]] = a
        free = [(pos, gi) for gi, grp in enumerate(partition) for pos in grp[1:]]

        def fill(idx: int) -> Iterator[tuple[int, ...]]:
            if idx == len(free):
                btuple = tuple(slots)  # type: ignore[arg-type]
                if cache.tuple_type(btuple, radius) in targets:
                    yield btuple
                return
            pos, gi = free[idx]
            ball = balls.get(gi)
            if ball is None:
                ball = balls[gi] = sorted(gaifman_ball(cache.db, (abar[gi],), reach))
            for x in ball:
                if cache.element_type(x, radius) not in allowed[pos]:
                    continue
                slots[pos] = x
                yield from fill(idx + 1)
                slots[pos] = None

        yield from fill(0)


def candidate_found_tuples(cache: TypeCache, abar: Sequence[int], type_ids: frozenset[int],
                           k: int, radius: int) -> list[tuple[int, ...]]:
    """``iter_found_tuples``' whole result, sorted."""
    return sorted(iter_found_tuples(cache, abar, type_ids, k, radius))
