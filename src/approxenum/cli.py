"""Command-line interface: enumeration, membership, counting, testing, splits, selftest.

All randomized commands require --seed (or ``--seed auto``, which draws one
from system entropy and reports it on stderr); two runs with the same inputs
and seed produce byte-identical stdout.  Tuples stream to stdout one per
line, terminated by ``-- end --`` (or ``-- truncated --`` when --max-outputs
hits); run summaries go to stderr.  Op counts per output come from
``enumerate --instrument`` and from ``selftest --only C5``; wall-clock
numbers from ``perfbench/run.py``.

Exit codes: 0 success, 1 selftest failure, 2 bad inputs or parameters,
3 mode/query mismatch.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

from .db import Database, Schema, load_database
from .engine import enumerate_query
from .errors import (
    PARAMETER_RANGES,
    ApproxEnumError,
    NotLocal,
    ParameterError,
    ParseError,
    check_parameter,
)
from .exact import answer_set, eval_query
from .neighborhoods import TypeRegistry
from .query import QueryNF, parse_query
from .services import approx_count, membership_answer, membership_preprocess
from .testers import TESTER_KINDS, compute_type_set, example_tester, make_tester_factory
from .typecache import TypeCache


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_inputs(args, registry: TypeRegistry) -> tuple[Schema, Database, QueryNF | None]:
    schema, db = load_database(_read(args.schema), _read(args.db), args.d)
    query = None
    if getattr(args, "query", None):
        query = parse_query(_read(args.query), schema, registry)
    return schema, db, query


def _resolve_seed(args) -> int:
    if args.seed == "auto":
        seed = secrets.randbits(48)
        print(f"seed: {seed}", file=sys.stderr)
        return seed
    try:
        return int(args.seed)
    except ValueError:
        raise ParseError(f"--seed must be an integer or 'auto', got {args.seed!r}") from None


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        tup = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"bad tuple {text!r}") from None
    if not tup:
        raise ParseError("empty tuple")
    return tup


def _check_parameters(args) -> None:
    """Reject numeric options outside the ranges the guarantees are stated for."""
    for name in PARAMETER_RANGES:
        value = getattr(args, name, None)
        if value is not None:
            option = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            check_parameter(name, value, option)


def _emit_stream(out):
    def emit(tup):
        print(" ".join(str(e) for e in tup), file=out)

    return emit


def cmd_enumerate(args) -> int:
    registry = TypeRegistry()
    schema, db, q = _load_inputs(args, registry)
    if q is None:
        raise ParseError("enumerate requires --query")
    emit = _emit_stream(sys.stdout)
    if args.mode == "exact":
        for name in ("epsilon", "tester", "expansion_cap", "instrument"):
            value = getattr(args, name)
            if value is not None and value is not False:
                raise ParameterError(f"{name} does not apply to mode 'exact'")
        answers = answer_set(db, q, registry).tuples
        shown = answers if args.max_outputs is None else answers[:args.max_outputs]
        for tup in shown:
            emit(tup)
        print("-- truncated --" if len(shown) < len(answers) else "-- end --")
        print(f"outputs={len(shown)} mode=exact", file=sys.stderr)
        return 0
    seed = _resolve_seed(args)
    mode, epsilon, tester, plugins = args.mode, args.epsilon, args.tester, None
    if epsilon is None and not mode.startswith("local"):
        epsilon = 0.1  # the tested modes' default
    if mode == "hanf":  # hanf-testable, with testers of the --tester kind as plugins
        factory = make_tester_factory(tester or "exact", q.k)
        mode, tester, plugins = "hanf-testable", None, [factory(c) for c in q.clauses]
    summary = enumerate_query(db, q, mode, args.gamma, seed, emit, TypeCache(db, registry),
                              epsilon=epsilon, tester=tester, plugins=plugins,
                              expansion_cap=args.expansion_cap, max_outputs=args.max_outputs,
                              instrument=args.instrument)
    print("-- truncated --" if summary.truncated else "-- end --")
    report = {
        "mode": summary.mode, "outputs": summary.outputs, "n": summary.n,
        "space": summary.space_size, "mu": summary.mu, "delta": summary.delta,
        "q": summary.q, "alpha": summary.alpha, "batch": summary.batch,
        "conn": summary.conn, "expansion_cap": summary.expansion_cap,
        "seed": seed, "samples": summary.samples_drawn,
        "seen": summary.seen_count, "truncated": summary.truncated,
    }
    if args.instrument:
        report.update(max_delay_ops=summary.max_delay_ops,
                      delay_bound=summary.delay_bound,
                      first_output_ops=summary.first_output_ops,
                      max_oracle_per_output=summary.max_oracle_per_output)
    if summary.preprocessing:
        report["preprocessing"] = summary.preprocessing
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return 0


def cmd_member(args) -> int:
    registry = TypeRegistry()
    schema, db, q = _load_inputs(args, registry)
    if q is None:
        raise ParseError("member requires --query")
    abar = _parse_tuple(args.tuple)
    if len(abar) != q.k:
        raise ParseError(f"tuple arity {len(abar)} does not match query k={q.k}")
    cache = TypeCache(db, registry)
    if args.exact:
        print("true" if eval_query(cache, abar, q) else "false")
        return 0
    seed = _resolve_seed(args)
    index = membership_preprocess(db, q, args.epsilon, seed, cache, tester=args.tester)
    print("true" if membership_answer(index, abar) else "false")
    print(json.dumps({"type_set": sorted(index.type_set.members),
                      "exact_branch": index.type_set.exact, "seed": seed},
                     sort_keys=True), file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    registry = TypeRegistry()
    schema, db, q = _load_inputs(args, registry)
    if q is None:
        raise ParseError("count requires --query")
    seed = _resolve_seed(args)
    est = approx_count(db, q, args.epsilon, args.lam, seed, TypeCache(db, registry),
                       tester=args.tester)
    print(f"{est.estimate:.3f}")
    print(json.dumps({"half_width": est.half_width, "conn": est.conn,
                      "per_arity": {str(k): v for k, v in est.per_arity.items()},
                      "sample_sizes": {str(k): v for k, v in est.sample_sizes.items()},
                      "type_set": sorted(est.type_set.members), "seed": seed},
                     sort_keys=True), file=sys.stderr)
    return 0


def cmd_test(args) -> int:
    registry = TypeRegistry()
    schema, db, q = _load_inputs(args, registry)
    seed = _resolve_seed(args)
    if q is None:
        if args.tester is not None:
            raise ParameterError("tester does not apply without --query")
        verdict = example_tester(db, args.epsilon, seed, registry)
        print("accept" if verdict.accept else "reject")
        print(json.dumps({"samples": verdict.samples_used, "seed": seed,
                          **{k: v for k, v in verdict.detail.items() if k != "votes"}},
                         sort_keys=True, default=str), file=sys.stderr)
        return 0
    cache = TypeCache(db, registry)
    tset = compute_type_set(cache, q, args.epsilon, seed, tester=args.tester or "exact")
    for i, clause in enumerate(q.clauses):
        accepted = clause.sphere.type.type_id in tset.members
        print(f"clause {i + 1}: {'accept' if accepted else 'reject'}")
    print(json.dumps({"type_set": sorted(tset.members), "exact_branch": tset.exact,
                      "seed": seed}, sort_keys=True), file=sys.stderr)
    return 0


def cmd_split(args) -> int:
    registry = TypeRegistry()
    schema, db, _ = _load_inputs(args, registry)
    btuple = _parse_tuple(args.tuple)
    partition = registry.by_id(TypeCache(db, registry).tuple_type(btuple, args.r)).partition
    for i, grp in enumerate(partition, start=1):
        print(f"group {i}: coords={[pos + 1 for pos in grp]} leader={btuple[grp[0]]}")
    return 0


def cmd_selftest(args) -> int:
    from . import selfcheck

    results = selfcheck.run_criteria(scale=args.scale, fault=args.inject_fault,
                                     only=args.only)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.name}] {status} - {res.detail}")
        failed += not res.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="approxenum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, query_required=True):
        p.add_argument("--schema", required=True, help="schema file")
        p.add_argument("--db", required=True, help="database file")
        p.add_argument("--d", type=int, required=True, help="degree bound")
        p.add_argument("--query", required=query_required, help="query file")

    p = sub.add_parser("enumerate", help="stream (approximate) query answers")
    add_io(p)
    p.add_argument("--mode", default="local",
                   choices=["exact", "local", "local-strengthened", "general",
                            "general-strengthened", "hanf"])
    p.add_argument("--gamma", type=float, default=0.1, help="answer density threshold")
    p.add_argument("--epsilon", type=float, help="closeness parameter (default 0.1)")
    p.add_argument("--seed", default=None)
    p.add_argument("--max-outputs", type=int, default=None)
    p.add_argument("--tester", choices=TESTER_KINDS, help="tester kind (default exact)")
    p.add_argument("--expansion-cap", type=int,
                   help="bound on found tuples per leader tuple (default 1)")
    p.add_argument("--instrument", action="store_true", help="count per-output operations")
    p.set_defaults(func=cmd_enumerate, needs_seed=lambda a: a.mode != "exact")

    p = sub.add_parser("member", help="approximate membership for one tuple")
    add_io(p)
    p.add_argument("--tuple", required=True, help="comma separated elements")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", default=None)
    p.add_argument("--exact", action="store_true", help="use the exact oracle")
    p.add_argument("--tester", default="exact", choices=TESTER_KINDS)
    p.set_defaults(func=cmd_member, needs_seed=lambda a: not a.exact)

    p = sub.add_parser("count", help="approximate answer count")
    add_io(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--seed", default=None)
    p.add_argument("--tester", default="exact", choices=TESTER_KINDS)
    p.set_defaults(func=cmd_count, needs_seed=lambda a: True)

    p = sub.add_parser("test", help="run property testers")
    add_io(p, query_required=False)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", default=None)
    p.add_argument("--tester", choices=TESTER_KINDS,
                   help="tester kind for --query (default exact)")
    p.set_defaults(func=cmd_test, needs_seed=lambda a: True)

    p = sub.add_parser("split", help="print the coordinate groups of a tuple and their leaders")
    add_io(p, query_required=False)
    p.add_argument("--tuple", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_split, needs_seed=lambda a: False)

    p = sub.add_parser("selftest", help="reduced-trial acceptance suites")
    p.add_argument("--scale", type=float, default=0.2,
                   help="trial-count scale; 1.0 reproduces the full suites")
    p.add_argument("--inject-fault", default=None, choices=["dedup"],
                   help="negative control: break an invariant on purpose")
    p.add_argument("--only", default=None, help="comma separated criterion names")
    p.set_defaults(func=cmd_selftest, needs_seed=lambda a: False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_parameters(args)
        if getattr(args, "needs_seed", lambda a: False)(args) and args.seed is None:
            print("error: this command requires --seed (or --seed auto)", file=sys.stderr)
            return 2
        return args.func(args)
    except NotLocal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ApproxEnumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
