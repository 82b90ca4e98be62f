import random

import pytest
from hypothesis import given, settings, strategies as st

from approxenum import figures
from approxenum.db import parse_database
from approxenum.errors import (
    ApproxEnumError,
    ArityMismatch,
    CentreCountMismatch,
    DegreeExceeded,
    ElementOutOfRange,
    ParseError,
    RadiusMismatch,
)
from approxenum.neighborhoods import TypeRegistry
from approxenum.query import compute_conn, is_local, parse_query, print_query


def demo_text() -> str:
    reg = TypeRegistry()
    return print_query(figures.demo_query(reg))


def test_parse_demo_query(registry):
    q = parse_query(demo_text(), figures.GRAPH_SCHEMA, registry)
    assert q.k == 2 and q.radius == 2 and len(q.clauses) == 2
    assert not q.clauses[0].sentences
    (sentence,) = q.clauses[1].sentences
    assert sentence.negated and sentence.threshold == 1
    assert not is_local(q)
    assert compute_conn(q) == 1


def test_parse_print_round_trip(registry):
    q1 = parse_query(demo_text(), figures.GRAPH_SCHEMA, registry)
    q2 = parse_query(print_query(q1), figures.GRAPH_SCHEMA, registry)
    assert q1 == q2


def test_single_sphere_is_local(registry):
    q = figures.local_pair_a_query(registry)
    assert is_local(q)
    text = print_query(q)
    q2 = parse_query(text, figures.GRAPH_SCHEMA, registry)
    assert is_local(q2) and q2.sphere_type_ids() == q.sphere_type_ids()


def test_centre_count_mismatch(registry):
    text = demo_text().replace("CENTRES 1 2", "CENTRES 1", 1)
    with pytest.raises(CentreCountMismatch):
        parse_query(text, figures.GRAPH_SCHEMA, registry)


def test_conn_two_components(registry):
    q = figures.isolated_pair_query(registry)
    assert compute_conn(q) == 2


def test_conn_single_centre_always_one(registry):
    q = figures.isolated_vertex_query(registry)
    assert compute_conn(q) == 1


def test_radius_mismatch(registry):
    # a path of length 3 declared with one end as centre is not a 1-ball
    lines = [
        "QUERY k=1 r=1 d=3",
        "CLAUSE",
        "SPHERE",
        "DOMAIN 4",
        "CENTRES 1",
        "E 1 2",
        "E 2 3",
        "E 3 4",
        "END",
    ]
    with pytest.raises(RadiusMismatch):
        parse_query("\n".join(lines), figures.GRAPH_SCHEMA, registry)


def test_degree_exceeded_in_block(registry):
    lines = [
        "QUERY k=1 r=1 d=2",
        "CLAUSE",
        "SPHERE",
        "DOMAIN 4",
        "CENTRES 1",
        "E 1 2",
        "E 1 3",
        "E 1 4",
        "END",
    ]
    with pytest.raises(DegreeExceeded):
        parse_query("\n".join(lines), figures.GRAPH_SCHEMA, registry)


def test_exact_count_expands(registry):
    lines = [
        "QUERY k=1 r=1 d=3",
        "CLAUSE",
        "SPHERE",
        "DOMAIN 1",
        "CENTRES 1",
        "HANF + = 2",
        "DOMAIN 1",
        "CENTRES 1",
        "END",
    ]
    q = parse_query("\n".join(lines), figures.GRAPH_SCHEMA, registry)
    (clause,) = q.clauses
    assert len(clause.sentences) == 2
    pos, neg = clause.sentences
    assert (pos.negated, pos.threshold) == (False, 2)
    assert (neg.negated, neg.threshold) == (True, 3)


def test_zero_threshold_rejected(registry):
    lines = [
        "QUERY k=1 r=1 d=3",
        "CLAUSE",
        "SPHERE",
        "DOMAIN 1",
        "CENTRES 1",
        "HANF + >= 0",
        "DOMAIN 1",
        "CENTRES 1",
        "END",
    ]
    with pytest.raises(ParseError):
        parse_query("\n".join(lines), figures.GRAPH_SCHEMA, registry)


def test_duplicate_clause_merged(registry):
    q = figures.local_pair_a_query(registry)
    text = print_query(q)
    body = text[text.index("CLAUSE"):text.rindex("END")]
    doubled = text.replace(body, body + body)
    q2 = parse_query(doubled, figures.GRAPH_SCHEMA, registry)
    assert len(q2.clauses) == 1


def test_missing_end(registry):
    text = demo_text().rsplit("END", 1)[0]
    with pytest.raises(ParseError):
        parse_query(text, figures.GRAPH_SCHEMA, registry)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1 << 30))
def test_round_trip_generated_queries(seed):
    # queries assembled from randomly extracted neighbourhood types survive a
    # print/parse cycle structurally intact
    from approxenum.neighborhoods import TypeRegistry
    from approxenum.query import Clause, HanfSentence, QueryNF, SphereAtom

    rng = random.Random(seed)
    registry = TypeRegistry()
    k = rng.choice([1, 2])
    r = rng.choice([1, 2])
    db = figures.random_bounded_db(14, 3, rng, tuple_target=16)
    clauses = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        abar = tuple(rng.randint(1, 14) for _ in range(k))
        t = registry.type_of(db, abar, r)
        if t.type_id in seen:
            continue
        seen.add(t.type_id)
        sentences = []
        for _ in range(rng.randint(0, 2)):
            s_t = registry.type_of(db, (rng.randint(1, 14),), r)
            sentences.append(HanfSentence(rng.random() < 0.5, rng.randint(1, 3), s_t, r))
        clauses.append(Clause(SphereAtom(t, r), tuple(sentences)))
    q = QueryNF(k=k, radius=r, degree_bound=3, clauses=tuple(clauses))
    q2 = parse_query(print_query(q), figures.GRAPH_SCHEMA, registry)
    assert q2 == q


def test_empty_clause_list_vacuously_local(registry):
    from approxenum.query import QueryNF

    q = QueryNF(k=2, radius=1, degree_bound=3, clauses=())
    assert is_local(q)
    assert compute_conn(q) == 1


def test_conn_never_exceeds_k(registry, rng):
    for _ in range(10):
        db = figures.random_bounded_db(10, 3, rng, tuple_target=12)
        abar = tuple(rng.randint(1, 10) for _ in range(3))
        t = registry.type_of(db, abar, 1)
        assert 1 <= t.component_count <= 3


# a radius-2 ball around 1 under degree bound 3
BLOCK_TUPLES = ["E 1 2", "E 1 3", "E 1 4", "E 4 5"]


def sphere_query_text(tuple_lines, domain="DOMAIN 5", centres="CENTRES 1") -> str:
    return "\n".join(["QUERY k=1 r=2 d=3", "CLAUSE", "SPHERE", domain, centres,
                      *tuple_lines, "END"])


def test_block_tuples_load_both_ways(registry):
    db = parse_database(figures.GRAPH_SCHEMA, "\n".join(["domain 5", *BLOCK_TUPLES]), 3)
    q = parse_query(sphere_query_text(BLOCK_TUPLES), figures.GRAPH_SCHEMA, registry)
    assert q.clauses[0].sphere.type == registry.type_of(db, (1,), 2)


@pytest.mark.parametrize("bad, error", [
    ("F 1 2", ParseError),
    ("E 1", ArityMismatch),
    ("E 1 x", ParseError),
    ("E 1 9", ElementOutOfRange),
    ("E 2 2", ParseError),
    ("E 1 5", DegreeExceeded),  # element 1 would have degree 4
], ids=["unknown-relation", "arity", "non-integer", "out-of-range", "self-loop", "degree"])
def test_block_lines_fail_as_database_lines(registry, bad, error):
    # a SPHERE block's tuple lines are read and checked as a database file's
    tuple_lines = BLOCK_TUPLES + [bad]
    raised = []
    with pytest.raises(ApproxEnumError) as info:
        parse_database(figures.GRAPH_SCHEMA, "\n".join(["domain 5", *tuple_lines]), 3)
    raised.append(type(info.value))
    with pytest.raises(ApproxEnumError) as info:
        parse_query(sphere_query_text(tuple_lines), figures.GRAPH_SCHEMA, registry)
    raised.append(type(info.value))
    assert raised == [error, error]


@pytest.mark.parametrize("domain, centres", [("DOMAINX 5", "CENTRES 1"),
                                             ("DOMAIN 5", "CENTRESX 1")],
                         ids=["domain", "centres"])
def test_block_headers_match_exactly(registry, domain, centres):
    with pytest.raises(ParseError):
        parse_query(sphere_query_text(BLOCK_TUPLES, domain, centres),
                    figures.GRAPH_SCHEMA, registry)
