"""Aggregating span tracer wrapped around approxenum's public functions.

Nothing inside ``src/`` is instrumented.  ``Tracer.installed()`` replaces each
traced function at every place the package binds it (modules import these
names directly, so ``approxenum.typecache.gaifman_ball`` is a binding of its
own) and each traced method on its class, then restores the originals.

Spans are aggregated per layer group as they close instead of being kept one
by one, so memory stays flat however many calls a run makes:

* ``calls[g]``  spans of group g;
* ``total[g]``  inclusive seconds, counting only spans with no enclosing span
  of the same group (recursion and nested entry points are not counted twice);
* ``own[g]``    self seconds: each span's duration minus its child spans.

Counters that need a call's arguments or result (element lookups, check
hits, expansion sizes, tester samples) are taken by observer hooks at the
same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from approxenum import db, engine, neighborhoods, services, splits, testers, typecache

GROUPS = (
    "db.parse", "db.ball", "db.induced",
    "neighborhoods.extract", "neighborhoods.canonicalize", "neighborhoods.type_of",
    "neighborhoods.compose",
    "typecache.element", "typecache.tuple",
    "splits.expand", "testers.type_set",
    "engine.enumerate", "engine.check", "engine.expansions",
    "services.member", "services.count",
    "consumer",
)


def _count_elements(tracer, args, result):
    tracer.counts["element_lookups"] += len(args[1])


def _count_element(tracer, args, result):
    # misses of element_types_many resolve through element_type; those are
    # not lookups of their own
    if not tracer.depth["typecache.element"]:
        tracer.counts["element_lookups"] += 1


def _count_tuple(tracer, args, result):
    if len(args[1]) > 1:
        tracer.counts["tuple_calls_multi"] += 1


def _count_check(tracer, args, result):
    tracer.counts["checked"] += len(args[2][0])
    tracer.counts["hits"] += int(result.sum())


def _count_expansion(tracer, args, result):
    tracer.counts["max_expansions"] = max(tracer.counts["max_expansions"], len(result))


def _count_found(tracer, args, result):
    tracer.counts["found"] += len(result)


def _count_samples(tracer, args, result):
    tracer.counts["tester_samples"] += sum(
        v.samples_used for _, v in result.provenance if isinstance(v, testers.TesterVerdict))


# (defining module, attribute, group, observer); every binding of the same
# function object inside the package is replaced
FUNCTIONS = (
    (db, "parse_database", "db.parse", None),
    (db, "gaifman_ball", "db.ball", None),
    (db, "induced_subdb", "db.induced", None),
    (neighborhoods, "extract_neighbourhood", "neighborhoods.extract", None),
    (splits, "candidate_found_tuples", "splits.expand", _count_found),
    (testers, "compute_type_set", "testers.type_set", _count_samples),
    (engine, "enumerate_local", "engine.enumerate", None),
    (engine, "enumerate_local_strengthened", "engine.enumerate", None),
    (engine, "enumerate_general", "engine.enumerate", None),
    (engine, "enumerate_general_strengthened", "engine.enumerate", None),
    (engine, "enumerate_hanf_testable", "engine.enumerate", None),
    (services, "membership_preprocess", "services.member", None),
    (services, "membership_answer", "services.member", None),
    (services, "approx_count", "services.count", None),
)

METHODS = (
    (neighborhoods.TypeRegistry, "canonicalize", "neighborhoods.canonicalize", None),
    (neighborhoods.TypeRegistry, "type_of", "neighborhoods.type_of", None),
    (neighborhoods.TypeRegistry, "compose_disjoint", "neighborhoods.compose", None),
    (typecache.TypeCache, "element_types_many", "typecache.element", _count_elements),
    (typecache.TypeCache, "element_type", "typecache.element", _count_element),
    (typecache.TypeCache, "tuple_type", "typecache.tuple", _count_tuple),
    (engine.TypeMembership, "check_block", "engine.check", _count_check),
    (engine.SplitMembership, "check_block", "engine.check", _count_check),
    (engine.TypeMembership, "expansions", "engine.expansions", _count_expansion),
    (engine.SplitMembership, "expansions", "engine.expansions", _count_expansion),
)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(GROUPS, 0)
        self.total = dict.fromkeys(GROUPS, 0.0)
        self.own = dict.fromkeys(GROUPS, 0.0)
        self.depth = dict.fromkeys(GROUPS, 0)
        self.counts = dict.fromkeys(
            ("element_lookups", "tuple_calls_multi", "checked", "hits",
             "max_expansions", "found", "tester_samples"), 0)
        self._stack: list[list[float]] = []

    def wrap(self, fn, group: str, observe=None):
        """``fn`` with a span of ``group`` around every call."""
        clock = time.perf_counter
        stack, depth = self._stack, self.depth
        calls, total, own = self.calls, self.total, self.own
        tracer = self

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[group] -= 1
                calls[group] += 1
                own[group] += elapsed - children[0]
                if not depth[group]:
                    total[group] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        """Route every package binding of the traced names through spans."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "approxenum" or name.startswith("approxenum.")]
        undo = []
        try:
            for owner, attr, group, observe in FUNCTIONS:
                original = getattr(owner, attr)
                wrapped = self.wrap(original, group, observe)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
                            undo.append((mod, name, original))
            for cls, attr, group, observe in METHODS:
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(original, group, observe))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

