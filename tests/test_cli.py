import contextlib
import hashlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from approxenum import figures
from approxenum.cli import main
from approxenum.db import serialize_database
from approxenum.neighborhoods import TypeRegistry
from approxenum.query import print_query
from approxenum.testers import TESTER_KINDS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    registry = TypeRegistry()
    schema = tmp_path / "schema.txt"
    schema.write_text(figures.GRAPH_SCHEMA.serialize())
    db = tmp_path / "db.txt"
    db.write_text(serialize_database(figures.fallback_family(m=2, a_copies=1)))
    local_q = tmp_path / "local.query"
    local_q.write_text(print_query(figures.local_pair_a_query(registry)))
    demo_q = tmp_path / "demo.query"
    demo_q.write_text(print_query(figures.demo_query(registry)))
    return tmp_path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def io_args(workdir, query="local.query"):
    return ["--schema", str(workdir / "schema.txt"), "--db", str(workdir / "db.txt"),
            "--d", "3", "--query", str(workdir / query)]


@pytest.mark.parametrize("cap, lines", [
    (None, ["17 20", "-- end --"]),  # the tree copy sits in the third block
    ("0", ["-- truncated --"]),
    ("1", ["17 20", "-- end --"]),   # the one answer fits: nothing is cut
], ids=["uncapped", "cap-0", "cap-1"])
def test_exact_mode_max_outputs(workdir, cap, lines):
    extra = [] if cap is None else ["--max-outputs", cap]
    code, out, err = run_cli(["enumerate", "--mode", "exact"] + extra + io_args(workdir))
    assert code == 0
    assert out.splitlines() == lines
    assert err.strip() == f"outputs={len(lines) - 1} mode=exact"


def test_enumerate_local_stream_deterministic(workdir):
    argv = ["enumerate", "--mode", "local", "--gamma", "0.01", "--seed", "7"] + io_args(workdir)
    code1, out1, err1 = run_cli(argv)
    code2, out2, err2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical replay
    assert out1.strip().splitlines()[-1] == "-- end --"
    report = json.loads(err1.strip().splitlines()[-1])
    # the summary reports the audit constants
    assert {"alpha", "batch", "mu", "q", "seed"} <= set(report)


def test_enumerate_requires_seed(workdir):
    code, out, err = run_cli(["enumerate", "--mode", "local"] + io_args(workdir))
    assert code == 2 and "--seed" in err


def test_enumerate_mode_mismatch(workdir):
    code, out, err = run_cli(
        ["enumerate", "--mode", "local", "--seed", "3"] + io_args(workdir, "demo.query"))
    assert code == 3


def test_enumerate_max_outputs(workdir, tmp_path):
    # a dense workload truncates at the cap
    iso = tmp_path / "iso.txt"
    iso.write_text(serialize_database(figures.isolated_db(50)))
    registry = TypeRegistry()
    q = tmp_path / "iso.query"
    q.write_text(print_query(figures.isolated_pair_query(registry)))
    argv = ["enumerate", "--mode", "local", "--gamma", "0.2", "--seed", "5",
            "--max-outputs", "5", "--schema", str(workdir / "schema.txt"),
            "--db", str(iso), "--d", "3", "--query", str(q)]
    code, out, err = run_cli(argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6 and lines[-1] == "-- truncated --"


def test_enumerate_general_modes(workdir):
    for mode in ("general", "general-strengthened", "hanf"):
        argv = ["enumerate", "--mode", mode, "--gamma", "0.05", "--epsilon", "0.05",
                "--seed", "11", "--tester", "exact"] + io_args(workdir, "demo.query")
        if mode == "hanf":
            argv[argv.index("--tester") + 1] = "example22"
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert out.strip().splitlines()[-1] in ("-- end --", "-- truncated --")


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The inputs scripts/demo_walkthrough.py writes, plus the local pair query."""
    tmp_path = tmp_path_factory.mktemp("walkthrough")
    registry = TypeRegistry()
    (tmp_path / "schema.txt").write_text(figures.GRAPH_SCHEMA.serialize())
    (tmp_path / "family.db").write_text(
        serialize_database(figures.fallback_family(m=3, a_copies=1)))
    (tmp_path / "demo.query").write_text(print_query(figures.demo_query(registry)))
    (tmp_path / "local.query").write_text(print_query(figures.local_pair_a_query(registry)))
    return tmp_path


# SHA-256 of stdout then stderr for --gamma 0.01 --epsilon 0.02 --seed 7 (the local
# modes read neither --epsilon nor --tester, so they get neither): plain,
# --instrument, --max-outputs 1; pinned from the five-function engine.  At n = 32
# every tester kind takes its full check, so the kind leaves them unchanged.
MODE_DIGESTS = {
    "local": ("dc01b3d5a64dcb9896c5a93566e15a3fd134ae9cff1c114c583d7a6da1e23b2f",
              "79bb8188f2afe7d2a0437f01f492426b76a455f497f7337523d45a46ec1fe46b",
              "fd4e0b8e6be33c0ed45adfa2cba1e5c592be732f63522f32d69844d47f786132"),
    "local-strengthened": ("f1bba464533ea6be7ac4bb420cc884244a6680098def99e2519712f1d7f30141",
                           "46b8b7ba75bb46bdc9a90c74cdf3276876faa39e2f48904b3754145062e4362f",
                           "7f466972d1046678b47d6150becee6a7f01e2ebd91c3387cb560d7114fb5c081"),
    "general": ("329cb1392a18a25ef1658a42bba060c3a145b3ef5d1d9407a4420bcca2a9e337",
                "51a694ee913cc0a11f006ed86ccfbfdd6c0531273b65260202d946f1fadb37f0",
                "678eddeee89ef4be5303283a9ad0b8ba130418bda83060d16309cef64ac625cc"),
    "general-strengthened": ("7b405a5655e443cf59a2aad87543a47be10e189ade589c274ff6a77f3f9ab73b",
                             "0317ca060eeb90cba1a7fce3f80d924a3696537ff9f3a834c58918dff2979a3b",
                             "8cdc2502d41bdd15b3a137306c91bfa8c5f139cb44328bc3e005f69600daadff"),
    "hanf": ("5d6d85ddd28fced4dc8db51455368be11407c99454641a683f8c1840f71a849f",
             "c6e365a5ebf5b8cc0abc47244675a6d9e8ac53a8a923ead0957311842a3b0ff6",
             "9dd8ad1d2768614697b66b4e1dc4d2df6411ee87cbfe7b5b614e6f3dfd3b01cd"),
}


@pytest.mark.parametrize("tester", TESTER_KINDS)
@pytest.mark.parametrize("mode", sorted(MODE_DIGESTS))
def test_enumerate_output_pinned(walkthrough, mode, tester):
    local = mode.startswith("local")
    tested = [] if local else ["--tester", tester, "--epsilon", "0.02"]
    argv = ["enumerate", "--mode", mode] + tested + ["--gamma", "0.01", "--seed", "7",
            "--schema", str(walkthrough / "schema.txt"),
            "--db", str(walkthrough / "family.db"), "--d", "3",
            "--query", str(walkthrough / ("local.query" if local else "demo.query"))]
    digests = []
    for extra in ([], ["--instrument"], ["--max-outputs", "1"]):
        code, out, err = run_cli(argv + extra)
        assert code == 0, err
        digests.append(hashlib.sha256((out + err).encode()).hexdigest())
    assert tuple(digests) == MODE_DIGESTS[mode]


# Largest incidence-probe count between two outputs of the strengthened
# --instrument runs above.  Each admitted leader's split search runs once, at
# its check; a second search at the pop made these 500, 156 and 156.
MAX_ORACLE_PER_OUTPUT = {"local-strengthened": 478, "general-strengthened": 134, "hanf": 134}


@pytest.mark.parametrize("mode", sorted(MAX_ORACLE_PER_OUTPUT))
def test_enumerate_max_oracle_per_output(walkthrough, mode):
    local = mode.startswith("local")
    tested = [] if local else ["--tester", "exact", "--epsilon", "0.02"]
    code, out, err = run_cli(["enumerate", "--mode", mode, "--instrument"] + tested
                             + ["--gamma", "0.01", "--seed", "7",
                                "--schema", str(walkthrough / "schema.txt"),
                                "--db", str(walkthrough / "family.db"), "--d", "3",
                                "--query", str(walkthrough / ("local.query" if local
                                                              else "demo.query"))])
    assert code == 0, err
    report = json.loads(err.strip().splitlines()[-1])
    assert report["max_oracle_per_output"] == MAX_ORACLE_PER_OUTPUT[mode]


@pytest.mark.parametrize("mode, option, value, name", [
    ("local", "--epsilon", "0.5", "epsilon"),
    ("local", "--tester", "sampling", "tester"),
    ("local", "--expansion-cap", "3", "expansion_cap"),
    ("local-strengthened", "--epsilon", "0.5", "epsilon"),
    ("local-strengthened", "--tester", "exact", "tester"),
    ("general", "--expansion-cap", "3", "expansion_cap"),
    ("exact", "--epsilon", "0.5", "epsilon"),
    ("exact", "--tester", "sampling", "tester"),
    ("exact", "--expansion-cap", "3", "expansion_cap"),
    ("exact", "--instrument", None, "instrument"),
])
def test_enumerate_rejects_unread_options(workdir, mode, option, value, name):
    given = [option] if value is None else [option, value]
    code, out, err = run_cli(["enumerate", "--mode", mode] + given + ["--seed", "7"]
                             + io_args(workdir))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {name} does not apply to mode '{mode}'"]


def test_parse_error_exit_code(workdir, tmp_path):
    bad = tmp_path / "bad.query"
    bad.write_text("QUERY k=2\n")
    code, out, err = run_cli(["enumerate", "--mode", "local", "--seed", "1",
                              "--schema", str(workdir / "schema.txt"),
                              "--db", str(workdir / "db.txt"), "--d", "3",
                              "--query", str(bad)])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv, query", [
    (["enumerate", "--mode", "local", "--gamma", "0"], "local.query"),
    (["enumerate", "--mode", "local", "--gamma", "1.5"], "local.query"),
    (["test", "--tester", "example22", "--epsilon", "0"], "demo.query"),
    (["count", "--lambda", "0"], "demo.query"),
    (["enumerate", "--mode", "local-strengthened", "--expansion-cap", "0"], "local.query"),
    (["member", "--epsilon", "-1", "--tuple", "17,20"], "demo.query"),
    (["enumerate", "--mode", "local", "--max-outputs", "-3"], "local.query"),
], ids=["gamma-0", "gamma-1.5", "epsilon-0", "lambda-0", "expansion-cap-0", "epsilon-negative",
        "max-outputs-negative"])
def test_parameter_out_of_range(workdir, argv, query):
    code, out, err = run_cli(argv + ["--seed", "1"] + io_args(workdir, query))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --")


_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_OUTSIDE_UNIT = st.one_of(st.floats(max_value=0), st.floats(min_value=1, exclude_min=True),
                          _NONFINITE)
# numeric option: (command that takes it, values outside its range)
FUZZED = {
    "--gamma": (["enumerate", "--mode", "local", "--seed", "1"],
                st.one_of(st.floats(max_value=0), st.floats(min_value=1), _NONFINITE)),
    "--epsilon": (["member", "--tuple", "17,20", "--seed", "1"], _OUTSIDE_UNIT),
    "--lambda": (["count", "--seed", "1"], _OUTSIDE_UNIT),
    "--expansion-cap": (["enumerate", "--mode", "local-strengthened", "--seed", "1"],
                        st.integers(max_value=0)),
    "--r": (["split", "--tuple", "1,4"], st.integers(max_value=-1)),
    "--max-outputs": (["enumerate", "--mode", "local", "--seed", "1"],
                      st.integers(max_value=-1)),
}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_parameters_rejected(workdir, data):
    option = data.draw(st.sampled_from(sorted(FUZZED)))
    command, values = FUZZED[option]
    value = data.draw(values)
    # the = form keeps argparse from reading a negative value as an option
    code, out, err = run_cli(command + [f"{option}={value!r}"] + io_args(workdir))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {option} ")


def test_member_exact_and_approx(workdir):
    base = ["member"] + io_args(workdir, "demo.query") + ["--tuple", "17,20"]
    code, out, _ = run_cli(base + ["--exact"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(base + ["--seed", "4", "--epsilon", "0.02"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(["member"] + io_args(workdir, "demo.query")
                           + ["--tuple", "1,4", "--seed", "4", "--epsilon", "0.02"])
    assert code == 0 and out.strip() == "false"  # marker vertex exists


@pytest.fixture(scope="module")
def isolated_vertex_inputs(tmp_path_factory):
    """Three PAIR_A copies (n = 24) and the k = 1 isolated-vertex query."""
    tmp_path = tmp_path_factory.mktemp("k1")
    (tmp_path / "schema.txt").write_text(figures.GRAPH_SCHEMA.serialize())
    (tmp_path / "db.txt").write_text(serialize_database(figures.pair_a_copies(3)))
    (tmp_path / "q.query").write_text(print_query(figures.isolated_vertex_query(TypeRegistry())))
    return ["--schema", str(tmp_path / "schema.txt"), "--db", str(tmp_path / "db.txt"),
            "--d", "3", "--query", str(tmp_path / "q.query")]


@pytest.mark.parametrize("element", ["0", "-1", "25", "12345678901234567890"])
@pytest.mark.parametrize("how", [["--exact"], ["--seed", "4"]], ids=["exact", "approx"])
def test_member_rejects_out_of_range_element(isolated_vertex_inputs, element, how):
    code, out, err = run_cli(["member", "--tuple=" + element] + how + isolated_vertex_inputs)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: element {element} outside [1, 24]"]


def test_count_command(workdir):
    code, out, err = run_cli(["count", "--seed", "6", "--epsilon", "0.02",
                              "--lambda", "0.1"] + io_args(workdir, "demo.query"))
    assert code == 0
    estimate = float(out.strip())
    report = json.loads(err.strip().splitlines()[-1])
    assert estimate >= 0 and report["conn"] == 1


def test_test_command_demo_property(workdir):
    code, out, err = run_cli(["test", "--epsilon", "0.5", "--seed", "2",
                              "--schema", str(workdir / "schema.txt"),
                              "--db", str(workdir / "db.txt"), "--d", "3"])
    assert code == 0
    assert out.strip() in ("accept", "reject")
    # this instance carries a marker vertex: the property fails
    assert out.strip() == "reject"


def test_test_command_rejects_tester_without_query(workdir):
    # the demo property has one tester of its own; --tester picks clause testers
    code, out, err = run_cli(["test", "--tester", "sampling", "--seed", "2",
                              "--schema", str(workdir / "schema.txt"),
                              "--db", str(workdir / "db.txt"), "--d", "3"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: tester does not apply without --query"]


def test_test_command_clauses(workdir):
    code, out, err = run_cli(["test", "--epsilon", "0.02", "--seed", "2",
                              "--tester", "exact"] + io_args(workdir, "demo.query"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "clause 1: accept"
    assert lines[1] == "clause 2: reject"


def test_split_command(workdir):
    code, out, err = run_cli(["split", "--tuple", "1,4", "--r", "2",
                              "--schema", str(workdir / "schema.txt"),
                              "--db", str(workdir / "db.txt"), "--d", "3"])
    assert code == 0
    assert out.startswith("group 1: coords=[1, 2]")


def test_split_command_follows_type_components(tmp_path):
    # 1 and 2 share a ternary tuple but no tuple of their radius-0 neighbourhood
    (tmp_path / "schema.txt").write_text("relation R 3\n")
    (tmp_path / "db.txt").write_text("domain 30\nR 1 2 3\n")
    code, out, err = run_cli(["split", "--tuple", "1,2", "--r", "0",
                              "--schema", str(tmp_path / "schema.txt"),
                              "--db", str(tmp_path / "db.txt"), "--d", "3"])
    assert code == 0
    assert out.splitlines() == ["group 1: coords=[1] leader=1", "group 2: coords=[2] leader=2"]


@pytest.mark.parametrize("tup, r", [("99", "2"), ("1", "-1"), ("", "2")])
def test_split_rejects_bad_inputs(workdir, tup, r):
    # a single-element tuple never reaches a ball, so TypeCache.element_type checks
    # its range; the CLI's own checks reject the radius and the empty tuple
    code, out, err = run_cli(["split", "--tuple", tup, "--r", r,
                              "--schema", str(workdir / "schema.txt"),
                              "--db", str(workdir / "db.txt"), "--d", "3"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_domain_too_large_exits_2(workdir, tmp_path):
    # a domain the database's int64 arrays cannot index is one error line, not
    # a MemoryError traceback
    (tmp_path / "db.txt").write_text("domain 1000000000000000\n")
    code, out, err = run_cli(["count", "--seed", "1", "--schema", str(workdir / "schema.txt"),
                              "--db", str(tmp_path / "db.txt"), "--d", "3",
                              "--query", str(workdir / "demo.query")])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: domain 1000000000000000 is too large to index (at most 3037000498)"]


@pytest.mark.parametrize("keyword", ["HANF", "CLAUSE", "END"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--mode", "local", "--seed", "1"],
    ["enumerate", "--mode", "exact"],
    ["member", "--exact", "--tuple", "1"],
    ["count", "--seed", "1"],
    ["test", "--seed", "1"],
    ["split", "--tuple", "1", "--r", "1"],
], ids=["enumerate", "exact", "member", "count", "test", "split"])
def test_query_keyword_relation_rejected(tmp_path, keyword, argv):
    # the relation's tuple lines would end the query's SPHERE block early
    (tmp_path / "schema.txt").write_text(f"relation {keyword} 2 symmetric\n")
    (tmp_path / "db.txt").write_text(f"domain 2\n{keyword} 1 2\n")
    (tmp_path / "q.query").write_text("\n".join([
        "QUERY k=1 r=1 d=3", "CLAUSE", "SPHERE", "DOMAIN 2", "CENTRES 1", f"{keyword} 1 2",
        "END"]))
    query = [] if argv[0] == "split" else ["--query", str(tmp_path / "q.query")]
    code, out, err = run_cli(argv + ["--schema", str(tmp_path / "schema.txt"),
                                     "--db", str(tmp_path / "db.txt"), "--d", "3"] + query)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: relation {keyword}: '{keyword}' is a query keyword"]


def test_seed_auto(workdir):
    argv = ["enumerate", "--mode", "local", "--gamma", "0.01", "--seed", "auto"] \
        + io_args(workdir)
    code, out, err = run_cli(argv)
    assert code == 0 and "seed:" in err


def test_selftest_scale_zero():
    code, out, err = run_cli(["selftest", "--scale", "0"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --scale must be finite and greater than 0, got 0.0"]


@pytest.mark.parametrize("argv, message", [
    (["--scale=nan"], "error: --scale "),
    (["--scale=inf"], "error: --scale "),
    (["--scale=-1"], "error: --scale "),
    (["--scale", "0.02", "--only", "C55"], "error: unknown criteria 'C55'"),
    (["--scale", "0.02", "--only", "C1,C55"], "error: unknown criteria 'C55'"),
], ids=["scale-nan", "scale-inf", "scale-negative", "only-unknown", "only-partly-unknown"])
def test_selftest_rejects_bad_options(argv, message):
    # rejected before any criterion runs: no vacuous pass
    code, out, err = run_cli(["selftest"] + argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


def test_selftest_audits_duplicates_last():
    code, out, err = run_cli(["selftest", "--scale", "0.02", "--only", "C5"])
    assert code == 0
    lines = out.splitlines()
    assert [line.split("]")[0] for line in lines] == ["[C5 constant delay", "[C4 no duplicates"]
    audited = int(re.search(r"(\d+) runs audited", lines[-1]).group(1))
    assert audited > 0


@pytest.mark.parametrize("only, code, first_lines", [
    ("C4", 2, []),     # C4 alone would audit no run
    ("C7", 0, ["[C7 frequency estimation"]),  # C7 records no run: no C4 line
], ids=["only-C4", "only-C7"])
def test_selftest_reports_c4_only_with_runs(only, code, first_lines):
    got, out, err = run_cli(["selftest", "--scale", "0.02", "--only", only])
    assert got == code
    assert [line.split("]")[0] for line in out.splitlines()] == first_lines
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: C4 audits")


def test_selftest_fault_injection():
    code, out, err = run_cli(["selftest", "--scale", "0.02", "--inject-fault",
                              "dedup", "--only", "C1"])
    assert code == 1
    assert any("C4 no duplicates] FAIL" in line for line in out.splitlines())
