"""Query representation: disjunctions of sphere clauses with count sentences.

A query is a disjunction of clauses; each clause pairs one sphere atom (the
answer tuple has this exact radius-r type) with a conjunction of signed count
sentences (at least / fewer than m elements carry some 1-centre type).  A
query whose clauses carry no sentences is *local*: membership of a tuple
depends only on its own r-ball.

The text grammar is line oriented::

    QUERY k=2 r=2 d=3
    CLAUSE
    SPHERE
    DOMAIN 8
    CENTRES 1 4
    E 1 2
    ...
    HANF - >= 1
    DOMAIN 8
    CENTRES 1
    E 1 2
    ...
    END

``HANF + = m`` is sugar for the pair of sentences (>= m) and NOT(>= m+1).
Neighbourhood blocks are interpreted at the query radius; a block whose
fragment has an element beyond distance r of the centres is rejected.  Their
tuple lines are read and checked as a database over local ids 1..m
(``db.read_tuple_lines``, ``db.Database``), so they raise a database file's errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .db import (
    QUERY_KEYWORDS,
    Database,
    Fragment,
    Schema,
    gaifman_ball,
    read_tuple_lines,
    write_tuple_lines,
)
from .errors import CentreCountMismatch, ParseError, RadiusMismatch
from .neighborhoods import CanonicalType, Neighbourhood, TypeRegistry


@dataclass(frozen=True)
class SphereAtom:
    type: CanonicalType
    radius: int


@dataclass(frozen=True)
class HanfSentence:
    negated: bool
    threshold: int
    type: CanonicalType
    radius: int


@dataclass(frozen=True)
class Clause:
    sphere: SphereAtom
    sentences: tuple[HanfSentence, ...]


@dataclass(frozen=True)
class QueryNF:
    k: int
    radius: int
    degree_bound: int
    clauses: tuple[Clause, ...]

    def sphere_type_ids(self) -> frozenset[int]:
        return frozenset(c.sphere.type.type_id for c in self.clauses)


def is_local(q: QueryNF) -> bool:
    """True iff the query is a plain disjunction of sphere atoms."""
    return all(not c.sentences for c in q.clauses)


def compute_conn(q: QueryNF) -> int:
    """Max component count over clause sphere types (1 for empty queries)."""
    if not q.clauses:
        return 1
    return max(c.sphere.type.component_count for c in q.clauses)


# -- text format -------------------------------------------------------------


def _read_block(lines: list[tuple[int, str]], idx: int, schema: Schema, centre_count: int,
                radius: int, degree_bound: int, registry: TypeRegistry,
                what: str) -> tuple[CanonicalType, int]:
    """Intern the type of the neighbourhood block at ``lines[idx]``; also
    return the index of the line after the block.

    The block is a ``DOMAIN m`` line, a ``CENTRES`` line and tuple lines over
    local ids, which ``read_tuple_lines`` reads and ``Database`` checks exactly
    as it checks a database file.
    """
    end = idx
    while end < len(lines) and lines[end][1].split()[0] not in QUERY_KEYWORDS:
        end += 1
    header = [line.split() for _, line in lines[idx:min(idx + 2, end)]]
    if not header or header[0][0] != "DOMAIN" or len(header[0]) != 2:
        raise ParseError(f"{what}: expected 'DOMAIN <m>' line")
    try:
        m = int(header[0][1])
    except ValueError:
        raise ParseError(f"line {lines[idx][0]}: bad domain size") from None
    if len(header) < 2 or header[1][0] != "CENTRES":
        raise ParseError(f"{what}: expected CENTRES line after DOMAIN")
    lineno = lines[idx + 1][0]
    try:
        centres = tuple(int(p) for p in header[1][1:])
    except ValueError:
        raise ParseError(f"line {lineno}: bad centre list") from None
    db = Database(schema, m, degree_bound, read_tuple_lines(schema, lines[idx + 2:end]))
    if len(centres) != centre_count:
        raise CentreCountMismatch(
            f"{what} at line {lineno}: {len(centres)} centres, expected {centre_count}")
    covered = gaifman_ball(db, centres, radius)
    if len(covered) != m:
        raise RadiusMismatch(
            f"{what}: {m - len(covered)} element(s) beyond distance {radius} of the centres")
    nb = Neighbourhood(Fragment(schema, m, db.tuples), centres, radius)
    return registry.canonicalize(nb), end


def parse_query(text: str, schema: Schema, registry: TypeRegistry) -> QueryNF:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise ParseError("empty query text")

    lineno, header = lines[0]
    parts = header.split()
    if parts[0] != "QUERY":
        raise ParseError(f"line {lineno}: expected QUERY header")
    fields = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ParseError(f"line {lineno}: bad header field {p!r}")
        key, val = p.split("=", 1)
        try:
            fields[key] = int(val)
        except ValueError:
            raise ParseError(f"line {lineno}: bad header value {p!r}") from None
    for key in ("k", "r", "d"):
        if key not in fields:
            raise ParseError(f"line {lineno}: header missing {key}=")
    k, radius, d = fields["k"], fields["r"], fields["d"]
    if k < 1 or radius < 0 or d < 2:
        raise ParseError(f"line {lineno}: need k>=1, r>=0, d>=2")

    # split the body into CLAUSE sections, each a SPHERE block plus HANF blocks
    idx = 1
    clauses: list[Clause] = []
    seen_end = False
    while idx < len(lines):
        lineno, line = lines[idx]
        if line == "END":
            seen_end = True
            idx += 1
            if idx != len(lines):
                raise ParseError(f"line {lines[idx][0]}: content after END")
            break
        if line != "CLAUSE":
            raise ParseError(f"line {lineno}: expected CLAUSE or END")
        idx += 1
        if idx >= len(lines) or lines[idx][1] != "SPHERE":
            raise ParseError(f"line {lineno}: CLAUSE must start with a SPHERE block")
        sphere_type, idx = _read_block(lines, idx + 1, schema, k, radius, d, registry,
                                       "SPHERE block")

        sentences: list[HanfSentence] = []
        while idx < len(lines) and lines[idx][1].split()[0] == "HANF":
            hline_no, hline = lines[idx]
            hparts = hline.split()
            if len(hparts) != 4 or hparts[1] not in ("+", "-") or hparts[2] not in (">=", "="):
                raise ParseError(f"line {hline_no}: expected 'HANF <+|-> <>=|=> <m>'")
            try:
                threshold = int(hparts[3])
            except ValueError:
                raise ParseError(f"line {hline_no}: bad threshold") from None
            if threshold < 1:
                raise ParseError(f"line {hline_no}: threshold must be >= 1")
            htype, idx = _read_block(lines, idx + 1, schema, 1, radius, d, registry, "HANF block")
            negated = hparts[1] == "-"
            if hparts[2] == "=":
                if negated:
                    raise ParseError(f"line {hline_no}: exact counts only with sign '+'")
                sentences.append(HanfSentence(False, threshold, htype, radius))
                sentences.append(HanfSentence(True, threshold + 1, htype, radius))
            else:
                sentences.append(HanfSentence(negated, threshold, htype, radius))
        clauses.append(Clause(SphereAtom(sphere_type, radius), tuple(sentences)))
    if not seen_end:
        raise ParseError("query text not terminated by END")

    deduped: list[Clause] = []
    seen_types: dict[int, Clause] = {}
    for c in clauses:
        tid = c.sphere.type.type_id
        prev = seen_types.get(tid)
        if prev is None:
            seen_types[tid] = c
            deduped.append(c)
        elif prev == c:
            continue  # exact duplicate clause, merge silently
        else:
            raise ParseError(
                "two clauses share a sphere type but differ in sentences; "
                "clause sphere types must be pairwise distinct"
            )
    return QueryNF(k=k, radius=radius, degree_bound=d, clauses=tuple(deduped))


def _print_neighbourhood(t: CanonicalType) -> list[str]:
    frag = t.representative.fragment
    return [f"DOMAIN {frag.size}",
            "CENTRES " + " ".join(str(c) for c in t.representative.centres),
            *write_tuple_lines(frag.schema, frag.tuples)]


def print_query(q: QueryNF) -> str:
    lines = [f"QUERY k={q.k} r={q.radius} d={q.degree_bound}"]
    for c in q.clauses:
        lines.append("CLAUSE")
        lines.append("SPHERE")
        lines.extend(_print_neighbourhood(c.sphere.type))
        for s in c.sentences:
            sign = "-" if s.negated else "+"
            lines.append(f"HANF {sign} >= {s.threshold}")
            lines.extend(_print_neighbourhood(s.type))
    lines.append("END")
    return "\n".join(lines) + "\n"
