import random

import pytest
from hypothesis import given, settings, strategies as st

from approxenum import figures
from approxenum.db import (
    Database,
    Relation,
    Schema,
    gaifman_ball,
    induced_subdb,
    load_database,
    parse_database,
    serialize_database,
)
from approxenum.errors import (
    ArityMismatch,
    DegreeExceeded,
    DomainTooLarge,
    ElementOutOfRange,
    IndexOutOfRange,
    ParseError,
)

SCHEMA_TEXT = "relation E 2 symmetric\n"

PAIR_A_TEXT = "domain 8\n" + "\n".join(
    f"E {u} {v}" for u, v in figures.PAIR_A_EDGES
)


def test_load_pair_a():
    schema, db = load_database(SCHEMA_TEXT, PAIR_A_TEXT, 3)
    assert db.n == 8
    assert max(db.degrees[1:]) <= 3
    assert db.degree(1) == 3
    assert db.degree(8) == 1


def test_load_empty_relations():
    schema, db = load_database(SCHEMA_TEXT, "domain 5\n", 3)
    assert db.n == 5
    assert all(db.degree(a) == 0 for a in range(1, 6))


def test_degree_violation_rejected():
    # a vertex already incident to 3 edges gains a fourth
    text = PAIR_A_TEXT + "\nE 1 5"
    with pytest.raises(DegreeExceeded):
        load_database(SCHEMA_TEXT, text, 3)


def test_element_out_of_range():
    with pytest.raises(ElementOutOfRange):
        load_database(SCHEMA_TEXT, "domain 4\nE 1 9\n", 3)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        load_database(SCHEMA_TEXT, "domain 4\nE 1 2 3\n", 3)


def test_comments_and_blank_lines():
    text = "# a comment\n\ndomain 3\n# another\nE 1 2\n"
    _, db = load_database(SCHEMA_TEXT, text, 3)
    assert db.tuples[0] == ((1, 2),)


def test_db_round_trip():
    schema, db = load_database(SCHEMA_TEXT, PAIR_A_TEXT, 3)
    again = parse_database(schema, serialize_database(db), 3)
    assert again.tuples == db.tuples and again.n == db.n


def test_oracle_first_edge_at_root(pair_a_db):
    # independent oracle: sort the edges containing vertex 1, take rank 1
    edges = sorted(t for t in pair_a_db.tuples[0] if 1 in t)
    assert pair_a_db.oracle("E", 1, 1) == edges[0]
    assert pair_a_db.oracle("E", 1, len(edges)) == edges[-1]
    # pendant vertex: one incident edge, rank 2 is absent
    assert pair_a_db.oracle("E", 4, 2) is None


def test_oracle_isolated_element():
    _, db = load_database(SCHEMA_TEXT, "domain 5\nE 1 2\n", 3)
    assert db.oracle("E", 4, 1) is None


def test_oracle_contract_bounds(pair_a_db):
    with pytest.raises(IndexOutOfRange):
        pair_a_db.oracle("E", 1, 4)  # d + 1
    with pytest.raises(IndexOutOfRange):
        pair_a_db.oracle("E", 9, 1)
    with pytest.raises(IndexOutOfRange):
        pair_a_db.oracle("F", 1, 1)


def test_oracle_ordering_and_membership(rng):
    db = figures.random_bounded_db(60, 4, rng, tuple_target=80)
    for a in range(1, db.n + 1):
        answers = []
        for j in range(1, db.degree_bound + 1):
            t = db.oracle("E", a, j)
            if t is None:
                break
            answers.append(t)
            assert a in t
        assert answers == sorted(answers)
        # degree cross-check: incidence-derived count equals tuple-list count
        count = sum(1 for t in db.tuples[0] if a in t)
        assert db.degree(a) == count


def test_gaifman_ball_radius_zero(pair_a_db):
    assert gaifman_ball(pair_a_db, (3, 7), 0) == {3, 7}


def test_gaifman_ball_pair_a(pair_a_db):
    # derived by hand from the shape: root reaches everything within 2
    assert gaifman_ball(pair_a_db, (1,), 2) == set(range(1, 9))
    assert gaifman_ball(pair_a_db, (1,), 1) == {1, 2, 3, 4}


def test_ball_monotone_and_bounded(rng):
    d = 3
    for _ in range(20):
        db = figures.random_bounded_db(40, d, rng, tuple_target=50)
        a = rng.randint(1, db.n)
        prev = None
        for r in range(4):
            ball = gaifman_ball(db, (a,), r)
            assert len(ball) <= d ** (r + 1)
            if prev is not None:
                assert prev <= ball
            prev = ball


def test_induced_identity(pair_a_db):
    frag = induced_subdb(pair_a_db, range(1, 9))
    assert frag.size == 8
    assert frag.tuples == pair_a_db.tuples


def test_induced_singleton(pair_a_db):
    frag = induced_subdb(pair_a_db, {1})
    assert frag.size == 1
    assert all(not tups for tups in frag.tuples)


def test_induced_star(pair_a_db):
    # radius-1 ball of the root induces a star with 3 edges
    ball = gaifman_ball(pair_a_db, (1,), 1)
    frag = induced_subdb(pair_a_db, ball)
    # independent oracle: filter edges inside the ball directly
    expected = {tuple(sorted(t)) for t in pair_a_db.tuples[0] if set(t) <= ball}
    local = {e: i + 1 for i, e in enumerate(sorted(ball))}
    expected = {tuple(sorted((local[u], local[v]))) for u, v in expected}
    assert set(frag.tuples[0]) == expected
    assert len(frag.tuples[0]) == 3


@pytest.mark.parametrize("members", [{0, 1}, {1, -1}, {1, 9}])
def test_induced_rejects_members_outside_domain(pair_a_db, members):
    # the incidence offsets are indexed by element: -1 would read element 8's
    with pytest.raises(ElementOutOfRange):
        induced_subdb(pair_a_db, members)


def test_symmetric_stored_once():
    text = "domain 3\nE 2 1\nE 1 2\n"
    _, db = load_database(SCHEMA_TEXT, text, 3)
    assert db.tuples[0] == ((1, 2),)
    assert db.degree(1) == 1


def test_symmetric_irreflexive():
    with pytest.raises(ParseError):
        load_database(SCHEMA_TEXT, "domain 3\nE 2 2\n", 3)


def test_nonbinary_relation_roundtrip():
    schema = Schema([Relation("R", 3), Relation("S", 1)])
    db = Database(schema, 5, 2, [[(1, 2, 3), (3, 4, 5)], [(2,)]])
    assert db.degree(3) == 2
    assert db.degree(2) == 2
    frag = induced_subdb(db, {1, 2, 3})
    assert frag.tuples[0] == ((1, 2, 3),)
    assert frag.tuples[1] == ((2,),)


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 50), st.integers(0, 3), st.integers(1, 1 << 30))
def test_ball_via_distance_oracle(n, r, seed):
    # independent oracle: all-pairs BFS distances over the Gaifman graph
    rng = random.Random(seed)
    db = figures.random_bounded_db(n, 3, rng, tuple_target=n)
    a = rng.randint(1, n)
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in db.neighbours(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    expected = {v for v, dv in dist.items() if dv <= r}
    assert gaifman_ball(db, (a,), r) == expected


@pytest.mark.parametrize("keyword", ["HANF", "CLAUSE", "END"])
def test_query_keywords_cannot_name_relations(keyword):
    # such a relation loaded from a database file, while its tuple lines cut a
    # query block short: "DOMAIN 2 / CENTRES 1 / END 1 2" raised RadiusMismatch
    schema_text = f"relation {keyword} 2 symmetric\n"
    message = f"relation {keyword}: '{keyword}' is a query keyword"
    with pytest.raises(ParseError, match=message):
        Schema([Relation(keyword, 2, symmetric=True)])
    with pytest.raises(ParseError, match=message):
        load_database(schema_text, f"domain 2\n{keyword} 1 2\n", 3)


def test_domain_too_large_to_index():
    # the incidence and adjacency offsets hold n + 2 int64 entries each
    with pytest.raises(DomainTooLarge, match=r"^domain 1000000000000000 is too large to index"):
        load_database(SCHEMA_TEXT, "domain 1000000000000000\n", 3)
    # tuple errors are still found first
    with pytest.raises(ElementOutOfRange):
        load_database(SCHEMA_TEXT, "domain 1000000000000000\nE 1 10000000000000000\n", 3)


MALFORMED = [
    # (tuples per relation of U 1 / E 2 symmetric / R 2, error, message)
    ([[], [(1, 2), (2, 99999999999999999999999)], []], ElementOutOfRange,
     "relation E: element 99999999999999999999999 outside [1, 6]"),
    ([[], [(1, 2), (-1, 2)], []], ElementOutOfRange, "relation E: element -1 outside [1, 6]"),
    ([[], [(3, 3), (1, 9)], []], ParseError,
     "relation E: symmetric relations are irreflexive, got (3, 3)"),
    ([[], [(1, 9), (3, 3)], []], ElementOutOfRange, "relation E: element 9 outside [1, 6]"),
    ([[], [(2, 2, 2), (1, 9)], []], ArityMismatch, "relation E: tuple (2, 2, 2) has arity 3"),
    ([[(7,)], [(3, 3)], []], ElementOutOfRange, "relation U: element 7 outside [1, 6]"),
    ([[], [(1, 2)], [(2, 2), (0, 1)]], ElementOutOfRange, "relation R: element 0 outside [1, 6]"),
    ([[(2,), (1,)], [(1, 2), (2, 3)], [(2, 2)]], DegreeExceeded,
     "element 2 has degree 4, exceeding bound 3"),
]


@pytest.mark.parametrize("tuples, error, message", MALFORMED)
def test_first_offending_tuple_named(tuples, error, message):
    schema = Schema([Relation("U", 1), Relation("E", 2, symmetric=True), Relation("R", 2)])
    with pytest.raises(error) as info:
        Database(schema, 6, 3, tuples)
    assert str(info.value) == message


def test_columnar_index_matches_tuples():
    schema = Schema([Relation("U", 1), Relation("E", 2, symmetric=True), Relation("R", 2),
                     Relation("T", 3)])
    db = Database(schema, 9, 4, [[(3,), (1,)], [(4, 2), (2, 1), (1, 2)],
                                 [(5, 5), (5, 1)], [(2, 7, 2), (8, 9, 6)]])
    assert db.tuples == (((1,), (3,)), ((1, 2), (2, 4)), ((5, 1), (5, 5)),
                         ((2, 7, 2), (8, 9, 6)))
    for rel_idx, tups in enumerate(db.tuples):
        assert db.rows[rel_idx].tolist() == [list(t) for t in tups]
        ptr, positions = db.incidence[rel_idx]
        for a in range(1, db.n + 1):
            want = [p for p, t in enumerate(tups) if a in t]
            assert positions[ptr[a]:ptr[a + 1]].tolist() == want
    ptr, adjacent = db.adjacency
    for a in range(1, db.n + 1):
        want = sorted({c for tups in db.tuples for t in tups if a in t for c in t} - {a})
        assert adjacent[ptr[a]:ptr[a + 1]].tolist() == want
        assert db.degree(a) == sum(a in t for tups in db.tuples for t in tups)
    assert db.neighbours(2) == {1, 4, 7}
    assert not db.degrees.flags.writeable and not db.rows[0].flags.writeable


def test_scalar_readers_charge_probes(pair_a_db):
    # one probe per oracle call; incident_tuples and neighbours charge
    # (tuples found + 1) per relation
    probes = pair_a_db.probes
    pair_a_db.oracle("E", 1, 1)
    assert pair_a_db.probes == probes + 1
    assert sorted(t for _, t in pair_a_db.incident_tuples(1)) == [(1, 2), (1, 3), (1, 4)]
    assert pair_a_db.probes == probes + 5
    assert pair_a_db.neighbours(1) == {2, 3, 4}
    assert pair_a_db.probes == probes + 9
