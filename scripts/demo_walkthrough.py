#!/usr/bin/env python3
"""End-to-end walkthrough on the built-in demo query.

Builds a small family (triangle-closed copies plus one tree copy), writes the
schema/database/query files, then drives the library through every surface:
exact enumeration, approximate enumeration in all modes, membership, counting
and the property tester.  Everything is seeded, so reruns match exactly.

Usage: python scripts/demo_walkthrough.py [--outdir DIR] [--seed N]
"""

import argparse
import sys
from pathlib import Path

from approxenum import figures
from approxenum.db import serialize_database
from approxenum.engine import enumerate_query
from approxenum.exact import answer_set, closeness_check
from approxenum.neighborhoods import TypeRegistry
from approxenum.query import print_query
from approxenum.services import approx_count, membership_answer, membership_preprocess
from approxenum.testers import example_tester
from approxenum.typecache import TypeCache


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    registry = TypeRegistry()
    db = figures.fallback_family(m=3, a_copies=1)  # 3 triangle copies + 1 tree copy
    q = figures.demo_query(registry)
    cache = TypeCache(db, registry)

    (outdir / "schema.txt").write_text(figures.GRAPH_SCHEMA.serialize())
    (outdir / "family.db").write_text(serialize_database(db))
    (outdir / "demo.query").write_text(print_query(q))
    print(f"wrote inputs to {outdir}/ (n={db.n}, degree bound {db.degree_bound})")

    exact = answer_set(db, q, registry)
    print(f"exact answers: {list(exact.tuples)}")
    print("  (the tree-copy pair; triangle pairs are blocked by the marker vertex)")

    got = []
    enumerate_query(db, figures.local_pair_a_query(registry), "local-strengthened", 0.02,
                    args.seed, got.append, cache)
    print(f"local enumeration of tree pairs (strengthened threshold): {sorted(got)}")

    got = []
    summary = enumerate_query(db, q, "general-strengthened", 0.05, args.seed, got.append,
                              cache, epsilon=0.02, tester="exact")
    print(f"general (strengthened) enumeration: {sorted(got)}  "
          f"[alpha={summary.alpha}, batch={summary.batch}]")

    idx = membership_preprocess(db, q, epsilon=0.02, seed=args.seed, cache=cache)
    tree_pair = (3 * figures.SHAPE_SIZE + 1, 3 * figures.SHAPE_SIZE + 4)
    print(f"membership {tree_pair}: {membership_answer(idx, tree_pair)}; "
          f"(1, 4): {membership_answer(idx, (1, 4))}")

    eps_one_edit = 1.9 / (db.degree_bound * db.n)
    close = closeness_check(db, (1, 4), q, eps_one_edit, registry)
    print(f"triangle pair (1, 4) within one edit of being an answer: {close}")

    est = approx_count(db, q, epsilon=eps_one_edit, lam=0.1, seed=args.seed, cache=cache)
    print(f"approximate count: {est.estimate:.2f} (half width {est.half_width:.1f})")

    verdict = example_tester(db, epsilon=0.5, seed=args.seed, registry=registry)
    print(f"demo property tester: {'accept' if verdict.accept else 'reject'} "
          f"({verdict.detail['mode']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
