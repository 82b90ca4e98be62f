"""Run one benchmark workload in this process; print its result as JSON lines.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

``run.py`` starts this in a fresh process per workload.  The process is a
closed loop with one consumer: each enumeration emits into a callback that
stamps the time and keeps the tuple, and the next probe starts only after the
previous one returned.  A cycle is

    parse_database -> cold pass (fresh registry and TypeCache) -> warm pass
    (new seed, same TypeCache) -> membership probes -> approx_count

Cycles repeat identical work for ``--seconds``, alternating over the CPUs
the process may use.  Every cycle replays the same seeds, so each slice of
work (a window of a pass, a gap between two outputs, one membership probe,
one count) is the same in every cycle, and each is timed by its median
over the cycles; see ``slice_medians``.  ``setup_s`` is the
median of at least seven parses, one per cycle.  With ``--trace 1``
untraced and traced cycles alternate; the traced ones give the per-layer
numbers and must emit bit-identical streams.  Correctness checks run outside
every timed region.

The first stdout line is a plan (operations per cycle, so a parent can count
them as failed if this process dies); the last is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import approxenum as ae  # noqa: E402

from instances import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

PERCENTILES = ("50", "90", "99", "99.9", "99.99", "99.999")
SETUP_SAMPLES = 7
WINDOWS = 256  # slices of a pass, each timed over the cycles on its own


def _rank(n: int, pct: str) -> int:
    return int((Decimal(pct) * n / 100).to_integral_value(rounding=ROUND_CEILING))


def percentile(ordered: np.ndarray, pct: str) -> float:
    """Nearest-rank percentile of sorted samples."""
    return float(ordered[max(_rank(len(ordered), pct), 1) - 1])


def tail(ordered: np.ndarray) -> tuple[str, float]:
    """The highest listed percentile of sorted samples with at least 10 beyond it."""
    n = len(ordered)
    pct = ([p for p in PERCENTILES if n - _rank(n, p) >= 10] or ["100"])[-1]
    return pct, percentile(ordered, pct)


def stream_digest(stream) -> str:
    h = hashlib.sha256()
    for tup in stream:
        h.update((",".join(map(str, tup)) + "\n").encode())
    return h.hexdigest()


@dataclass
class Pass:
    wall: float
    first: float
    outputs: int
    gaps_us: np.ndarray
    windows: np.ndarray
    digest: str
    summary: object
    extract_calls: int
    stream: list


def run_pass(w, db, query, cache, seed, tracer) -> Pass:
    # preallocated, so that the consumer costs the same for every output and
    # never resizes a list mid-stream; a stream more than twice as long as
    # expected overflows, which kills the run and fails everything it planned
    capacity = 2 * w.stream_length
    stamps = array("d", bytes(8 * capacity))
    out: list = [None] * capacity
    count = 0
    clock = time.perf_counter

    def consumer(tup):
        nonlocal count
        stamps[count] = clock()
        out[count] = tup
        count += 1

    emit = consumer if tracer is None else tracer.wrap(consumer, "consumer")
    extract0 = tracer.calls["neighborhoods.extract"] if tracer else 0
    with tracer.installed() if tracer else nullcontext():
        start = clock()
        summary = w.enumerate(db, query, cache, seed, emit)
        end = clock()
    times = np.frombuffer(stamps, count=count)
    out = out[:count]
    # the pass cut at fixed output counts: the call, the outputs, the return
    bounds = np.concatenate(([start], times, [end]))
    cuts = np.linspace(0, count + 1, min(WINDOWS, count + 1) + 1).round().astype(int)
    return Pass(
        wall=end - start,
        first=times[0] - start if count else float("nan"),
        outputs=count,
        gaps_us=np.diff(times) * 1e6,
        windows=np.diff(bounds[cuts]),
        digest=stream_digest(out),
        summary=summary,
        extract_calls=(tracer.calls["neighborhoods.extract"] - extract0) if tracer else 0,
        stream=out,
    )


@dataclass
class Cycle:
    setup: float
    cold: Pass
    warm: Pass
    probes: int
    member_us: np.ndarray
    verdicts: list
    targets: dict
    count_s: float
    estimate: object
    types_interned: int
    element_misses: int
    memo_size: int
    tracer: Tracer | None

    @property
    def wall(self) -> float:
        """Time spent in the program's calls, the consumer included."""
        return (self.setup + self.cold.wall + self.warm.wall
                + float(self.member_us.sum()) / 1e6 + self.count_s)


def run_cycle(w, tracer: Tracer | None = None) -> Cycle:
    gc.collect()
    clock = time.perf_counter
    registry = ae.TypeRegistry()
    query = w.query(registry)
    traced = tracer.installed if tracer else nullcontext
    with traced():
        start = clock()
        db = w.parse()
        setup = clock() - start
    cache = ae.TypeCache(db, registry)
    probes0 = db.probes
    cold = run_pass(w, db, query, cache, w.seed_for("cold"), tracer)
    warm = run_pass(w, db, query, cache, w.seed_for("warm"), tracer)
    probes = db.probes - probes0
    with traced():
        index = w.membership(db, query, cache, w.seed_for("member"))
        answer = ae.membership_answer
        latencies = []
        verdicts = []
        for pair in w.probes:
            start = clock()
            verdicts.append(answer(index, pair))
            latencies.append(clock() - start)
        start = clock()
        estimate = w.count(db, query, cache, w.seed_for("count"))
        count_s = clock() - start
    # which answers each preprocessing's type set admits, for the oracles
    targets = {"cold": w.targets_for(query, cold.summary.preprocessing.get("type_set", ())),
               "warm": w.targets_for(query, warm.summary.preprocessing.get("type_set", ())),
               "member": w.targets_for(query, index.type_set.members)}
    return Cycle(
        setup=setup, cold=cold, warm=warm, probes=probes,
        member_us=np.asarray(latencies) * 1e6, verdicts=verdicts, targets=targets,
        count_s=count_s, estimate=estimate, types_interned=len(registry),
        element_misses=sum(int((arr >= 0).sum()) for arr in cache._etype.values()),
        memo_size=len(cache._tuple_memo), tracer=tracer,
    )


def check_cycle(w, c: Cycle) -> tuple[int, int]:
    """(attempted, failed) for one cycle; drops the kept streams afterwards."""
    attempted = failed = 0
    for label, p in (("cold", c.cold), ("warm", c.warm)):
        allowed = required = None
        if w.full_enumeration:
            allowed, required = w.expected_for(c.targets[label], p.summary)
        seen = set()
        for tup in p.stream:
            attempted += 1
            if tup in seen or not (w.sound(tup) if allowed is None else tup in allowed):
                failed += 1
            seen.add(tup)
        if required is not None:
            # every possible answer is attempted, whichever outcome the tester chose
            attempted += len(w.expected)
            failed += len(required - seen)
        p.stream = []
    attempted += len(w.probes)
    targets = c.targets["member"]
    failed += sum(got != (t in targets) for got, t in zip(c.verdicts, w.probe_types))
    attempted += 1
    failed += not w.in_band(c.estimate)
    return attempted, failed


def planned_operations(w) -> int:
    checked = 2 * len(w.expected) if w.full_enumeration else 0
    return 2 * w.stream_length + checked + len(w.probes) + 1


def slice_medians(samples) -> np.ndarray:
    """Median over cycles of each slice, from one row per cycle.

    A shared host slows its CPUs by up to 2x, in stretches from milliseconds
    to minutes.  A slice is the same work in every cycle, so its median
    skips the stalls and slow stretches that hit it in a minority of cycles.
    """
    return np.median(np.vstack(samples), axis=0)


def end_to_end(cycles: list[Cycle], setups: list[float]) -> tuple[dict, dict]:
    gaps = np.sort(slice_medians([c.warm.gaps_us for c in cycles]))
    member = np.sort(slice_medians([c.member_us for c in cycles]))
    cold, warm = cycles[0].cold.outputs, cycles[0].warm.outputs
    metrics = {
        "setup_s": statistics.median(setups),
        "first_output_s": statistics.median(c.cold.first for c in cycles),
        "cold_outputs_per_s": cold / float(slice_medians([c.cold.windows for c in cycles]).sum()),
        "warm_outputs_per_s": warm / float(slice_medians([c.warm.windows for c in cycles]).sum()),
        "delay_p50_us": percentile(gaps, "50"),
        "delay_tail_us": tail(gaps)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "member_p50_us": percentile(member, "50"),
        "member_tail_us": tail(member)[1],
        "count_s": statistics.median(c.count_s for c in cycles),
    }
    detail = {
        "delay_tail_percentile": tail(gaps)[0],
        "delay_samples": gaps.size,
        "member_tail_percentile": tail(member)[0],
        "member_samples": member.size,
        "setup_samples": setups,
        # whole-cycle values, for judging how much the host varied
        "cycle_walls": {"cold": [c.cold.wall for c in cycles],
                        "warm": [c.warm.wall for c in cycles],
                        "count": [c.count_s for c in cycles]},
    }
    return metrics, detail


def per_layer(c: Cycle) -> dict:
    tr = c.tracer
    summaries = (c.cold.summary, c.warm.summary)
    outputs = c.cold.outputs + c.warm.outputs
    candidates = sum(s.samples_drawn + s.cursor_consumed for s in summaries)
    seen = sum(s.seen_count for s in summaries)
    tuple_calls = tr.calls["typecache.tuple"]
    memo_hits = tr.counts["tuple_calls_multi"] - c.memo_size
    expand_calls = tr.calls["splits.expand"]
    return {
        "db.parse_s": tr.total["db.parse"],
        "db.ball_calls": tr.calls["db.ball"],
        "db.ball_s": tr.total["db.ball"],
        "db.induced_s": tr.total["db.induced"],
        "db.probes_per_output": c.probes / outputs,
        "neighborhoods.extract_calls": tr.calls["neighborhoods.extract"],
        "neighborhoods.extract_s": tr.total["neighborhoods.extract"],
        "neighborhoods.warm_extract_calls": c.warm.extract_calls,
        "neighborhoods.canonicalize_calls": tr.calls["neighborhoods.canonicalize"],
        "neighborhoods.canonicalize_s": tr.total["neighborhoods.canonicalize"],
        "neighborhoods.types_interned": c.types_interned,
        "neighborhoods.compose_calls": tr.calls["neighborhoods.compose"],
        "typecache.element_lookups": tr.counts["element_lookups"],
        "typecache.element_misses": c.element_misses,
        "typecache.element_s": tr.total["typecache.element"],
        "typecache.tuple_calls": tuple_calls,
        "typecache.tuple_memo_hit_ratio": memo_hits / tuple_calls if tuple_calls else 0.0,
        "typecache.tuple_s": tr.total["typecache.tuple"],
        "splits.expand_calls": expand_calls,
        "splits.expand_s": tr.total["splits.expand"],
        "splits.found_per_call": tr.counts["found"] / expand_calls if expand_calls else 0.0,
        "testers.type_set_calls": tr.calls["testers.type_set"],
        "testers.type_set_s": tr.total["testers.type_set"],
        "testers.samples": tr.counts["tester_samples"],
        "engine.self_s": tr.own["engine.enumerate"],
        "engine.check_s": tr.total["engine.check"],
        "engine.candidates": candidates,
        "engine.candidates_per_output": candidates / outputs,
        "engine.fresh_ratio": seen / candidates,
        "engine.hit_ratio": tr.counts["hits"] / tr.counts["checked"] if tr.counts["checked"] else 0.0,
        "engine.max_expansions": tr.counts["max_expansions"],
        "engine.expansion_cap": max(s.expansion_cap for s in summaries),
        "services.member_self_s": tr.own["services.member"],
        "services.count_self_s": tr.own["services.count"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed, args.tiny)
    print(json.dumps({"plan": planned_operations(w)}), flush=True)
    # the inputs and oracles live for the whole run; keep them out of the
    # collector's way so they do not lengthen the program's collections
    gc.collect()
    gc.freeze()

    clock = time.perf_counter
    start = clock()
    cycles: list[Cycle] = []
    traced: list[Cycle] = []
    attempted = failed = 0
    # alternate cycles over the CPUs this process may use: a noisy neighbour
    # on one of them then cannot slow every cycle
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        os.sched_setaffinity(0, {cpus[len(cycles) % len(cpus)]})
        round_start = clock()
        for c in [run_cycle(w)] + ([run_cycle(w, Tracer())] if args.trace else []):
            a, f = check_cycle(w, c)
            attempted, failed = attempted + a, failed + f
            (traced if c.tracer else cycles).append(c)
        # start no round that would end after the measuring time
        now = clock()
        if now + (now - round_start) - start > args.seconds:
            break
    setups = [c.setup for c in cycles]
    while len(setups) < SETUP_SAMPLES:
        t0 = clock()
        w.parse()
        setups.append(clock() - t0)

    # every cycle replays the same seeds, so every stream must match the first
    reference = (cycles[0].cold.digest, cycles[0].warm.digest)
    for c in cycles[1:] + traced:
        attempted += 2
        failed += (c.cold.digest != reference[0]) + (c.warm.digest != reference[1])

    metrics, detail = end_to_end(cycles, setups)
    if args.trace:
        layers = [per_layer(c) for c in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = statistics.median(
            t.wall / u.wall for t, u in zip(traced, cycles))
        detail["traced_digests"] = {"cold": traced[0].cold.digest, "warm": traced[0].warm.digest}
    detail.update(
        cycles=len(cycles), traced_cycles=len(traced),
        digests={"cold": reference[0], "warm": reference[1]},
        outputs={"cold": cycles[0].cold.outputs, "warm": cycles[0].warm.outputs},
        error_share=failed / attempted,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "detail": detail}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
