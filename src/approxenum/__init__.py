"""Approximate constant-delay query enumeration on bounded-degree databases."""

from .db import (
    Database,
    Fragment,
    Relation,
    Schema,
    gaifman_ball,
    induced_subdb,
    load_database,
    parse_database,
    serialize_database,
)
from .neighborhoods import (
    CanonicalType,
    Neighbourhood,
    TypeRegistry,
    extract_neighbourhood,
)
from .query import (
    Clause,
    HanfSentence,
    QueryNF,
    SphereAtom,
    compute_conn,
    is_local,
    parse_query,
    print_query,
)
from .typecache import TypeCache
from .exact import (
    AnswerSet,
    answer_set,
    closeness_check,
    count_type,
    eval_hanf,
    eval_query,
    live_types,
    sentences_hold,
)
from .splits import candidate_found_tuples
from .testers import (
    ClauseTester,
    ExactClauseTester,
    MarkerExclusionTester,
    SamplingClauseTester,
    TesterVerdict,
    TESTER_KINDS,
    TypeSetT,
    amplify,
    compute_type_set,
    example_tester,
    make_tester_factory,
)
from .engine import (
    EnumSummary,
    IndexSpace,
    enumerate_general,
    enumerate_general_strengthened,
    enumerate_hanf_testable,
    enumerate_local,
    enumerate_local_strengthened,
    enumerate_query,
    lemma_constants,
    partitioned_enumerate,
)
from .services import (
    CountEstimate,
    DistributionVector,
    MembershipIndex,
    approx_count,
    estimate_frequencies,
    membership_answer,
    membership_preprocess,
)

__all__ = [name for name in dir() if not name.startswith("_")]
