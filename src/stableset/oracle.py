"""Brute-force ground truth.

Every check here is a definition written as a union identity over set
images (the union of per-element masks over each subset's members), tested
on all 2^n subsets at once.  The subsets are bit-sliced (`bitset.planes`):
plane x holds bit v iff subset v holds x, so a test over every subset is a
few big-int operations per alternative, with no step per subset.  The
oracle uses its own strict part and closure and never calls the
constructive code paths in `solutions`, so that agreement between the two
is evidence rather than tautology.  Only `cross_verify` calls
`solutions.solve`, because comparing the two is its job.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import repeat
from operator import and_, invert, or_, xor
from typing import Sequence

from .bitset import (Mask, diagonal, from_members, image, image_table,
                     iter_bits, planes, positions, transpose)
from .errors import check_size
from .relations import DecisionProblem, Relation
from .solutions import SUBSET_LIMIT, Concept, SociallyInterp, solve


# `random()` returns a multiple of 1 / _DRAW_SPAN.  `random_problem` takes
# at most about _CHUNK_DRAWS draws per `getrandbits`: a problem with n <= 12
# in one call, one with n = 2,000 four rows (64 KB of words) at a time,
# never its whole matrix's 32 MB.
_DRAW_SPAN = 2 ** 53
_CHUNK_DRAWS = 8192


@dataclass(frozen=True)
class VerificationReport:
    concept: Concept
    passed: bool
    only_constructive: tuple[Mask, ...] = ()
    only_oracle: tuple[Mask, ...] = ()


def _strict(r: Relation) -> Relation:
    return Relation(r.n, tuple(map(and_, r.rows, map(invert, r.columns()))))


def _closure(r: Relation) -> Relation:
    rows = list(r.rows)
    for k in range(r.n):
        via = rows[k]
        if not via:  # nothing to add to the rows that reach k
            continue
        bit = 1 << k
        for x in range(r.n):
            if rows[x] & bit:
                rows[x] |= via
    return Relation(r.n, tuple(rows))


def _omega(strict: Relation, closure: Relation) -> Relation:
    """Extended dominance, equipotent pairs kept, from the strict part and
    its closure: x ω y iff some z equipotent to x strictly dominates some w
    equipotent to y, so row x is the union of the classes eq[w] over w in
    S[eq[x]]."""
    cols = closure.columns()
    eq = [closure.rows[x] & cols[x] | 1 << x for x in range(strict.n)]
    return Relation(strict.n, tuple(image(image(e, strict.rows), eq)
                                    for e in eq))


def _meet_tables(n: int) -> tuple[int, tuple[list[Mask], ...]]:
    """`bitset.planes(n)` in groups of `width` alternatives, each tabled by
    `bitset.image_table`: entry m of group k is the plane of the subsets
    that meet ``m << k * width``.  A width of ``max(4, 16 - n)`` makes one
    table up to n = 8 and keeps each at 2^16 bits or 16 planes."""
    width = max(4, 16 - n)
    sliced = planes(n)
    return width, tuple(image_table(sliced[at:at + width])
                        for at in range(0, n, width))


# The tables are kept up to the default ceiling, where one call is a few
# microseconds and `verify` cycles through every n; above it each call
# builds its own, in a small share of its time, and keeps no wide plane.
_kept_meet_tables = functools.lru_cache(maxsize=SUBSET_LIMIT)(_meet_tables)


def _meets(masks: Sequence[Mask], n: int) -> list[Mask]:
    """Plane i marks the subsets that meet masks[i]: X[v] holds y iff v
    meets column y of X, so over X's columns these are its image planes."""
    width, tables = (_kept_meet_tables(n) if n <= SUBSET_LIMIT
                     else _meet_tables(n))
    if len(tables) == 1:
        return list(map(tables[0].__getitem__, masks))
    low = (1 << width) - 1
    out = map(tables[0].__getitem__, [m & low for m in masks])
    for k, table in enumerate(tables[1:], 1):
        out = map(or_, out, map(table.__getitem__,
                                [m >> k * width & low for m in masks]))
    return list(out)


def _open_edges(rows: Sequence[Mask]) -> Mask:
    """The plane of the subsets v with an edge of `rows` inside v on no
    cycle inside v.  Warshall over planes: reach[a][b] marks the subsets
    that hold every node after a on some path from a to b, so edge (a, b)
    closes inside v iff v holds a and b and reach[b][a] marks v.
    Reversing every edge keeps every cycle, so the rows may be the strict
    part's or its columns."""
    sliced = planes(len(rows))
    reach = [[plane if row >> b & 1 else 0 for b, plane in enumerate(sliced)]
             for row in rows]
    for k, into in enumerate(reach):
        for row in reach:
            via = row[k]
            if via:
                row[:] = map(or_, row, map(and_, into, repeat(via)))
    return functools.reduce(or_, [
        sliced[a] & sliced[b] & ~reach[b][a]
        for a, row in enumerate(rows) for b in iter_bits(row)], 0)


def enumerate_solutions(p: DecisionProblem, concept: Concept,
                        interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE,
                        max_n: int = SUBSET_LIMIT) -> list[Mask]:
    """All non-empty subsets passing the definitional stability checks,
    in ascending bitmask order.

    Each check is the definition as a union identity over set images, X[v]
    being the union of the rows X[x] over the members x of v.  S is the
    strict part, C its closure, Cᵀ the closure's columns, * drops the
    diagonal and ω is `_omega` of S and C.  A non-empty v is stable iff

        vnm  S[v] ∩ v = ∅       and  S[v] ∪ v = full
        gss  C*[v] ∩ v = ∅      and  C*[v] ∪ v = full
        sss  (C∖Cᵀ)[v] ∩ v = ∅  and  S[v] ∪ v = full  (restrict_closure)
        mss  (C∖Cᵀ)[v] ∩ v = ∅  and  Cᵀ[v] ⊆ v
        wss  C*[v] ∩ v = ∅      and  (Cᵀ∖C)[v] ⊆ v
        ess  ω*[v] ∩ v = ∅      and  ω*[v] ∪ v = full

    sss closure_of_restriction needs S[v] ∪ v = full and every strict edge
    inside v on a cycle inside v (`_open_edges`).

    All 2^n subsets are tested at once on planes (`bitset.planes`).  The
    plane "X[v] holds y" is the union of the planes of column y of X
    (`_meets`).  So X[v] meets v on the union over y of that plane and
    plane y, X[v] ∪ v = full on the intersection over y of their union,
    and X[v] ⊆ v fails on the union over y of that plane without plane y.
    The passing subsets are read off the result by `bitset.positions`.

    Every line reads columns, so the oracle starts from the strict part's
    columns Sᵀ and closes them: the closure of Sᵀ is Cᵀ, and ω of Sᵀ and
    Cᵀ is ω's transpose, equipotence being symmetric.  Each concept derives
    only what its line reads: vnm and closure_of_restriction Sᵀ alone, with
    no closure; gss Cᵀ alone; sss, mss, wss and ess Cᵀ and its columns C,
    which ω reads too.  `_closure` skips a pivot whose row is empty.
    """
    check_size(p.n, max_n, "oracle")
    n = p.n
    above = _strict_columns(p.rel)
    restricted = (concept is Concept.SOCIALLY
                  and interp is SociallyInterp.CLOSURE_OF_RESTRICTION)
    if concept is Concept.VNM:
        inner = outer = above
    elif restricted:
        inner, outer = None, above
    else:
        strict_t = Relation(n, above)
        closure_t = _closure(strict_t)
        cols = closure_t.rows
        if concept is Concept.GENERALIZED:
            inner = outer = _off_diagonal(cols)
        elif concept is Concept.EXTENDED:
            inner = outer = _off_diagonal(_omega(strict_t, closure_t).rows)
        else:
            rows = closure_t.columns()
            if concept is Concept.W_STABLE:
                inner, outer = _off_diagonal(cols), [
                    r & ~c for r, c in zip(rows, cols)]
            else:
                inner = [c & ~r for r, c in zip(rows, cols)]
                outer = rows if concept is Concept.M_STABLE else above
    sliced = planes(n)
    size = 1 << n
    every = (1 << size) - 1
    if outer is inner:  # stable iff X[v] is the complement of v
        found = functools.reduce(and_, map(xor, sliced, _meets(inner, n)),
                                 every)
    elif concept is Concept.M_STABLE or concept is Concept.W_STABLE:
        # Subset v fails at y on the inner plane if it holds y, else on the
        # outer one: o ^ (o ^ i) & p picks i where p is set, o elsewhere.
        met_out = _meets(outer, n)
        found = every & ~functools.reduce(or_, map(xor, met_out, map(
            and_, map(xor, met_out, _meets(inner, n)), sliced)), 1)
    else:
        found = functools.reduce(and_, map(or_, sliced, _meets(outer, n)),
                                 every)
        found &= ~(_open_edges(above) if restricted else functools.reduce(
            or_, map(and_, sliced, _meets(inner, n)), 1))
    return positions(found, size) if found else []


def _strict_columns(r: Relation) -> tuple[Mask, ...]:
    """The columns of `_strict(r)`: column y of r without row y."""
    return tuple(map(and_, r.columns(), map(invert, r.rows)))


def _off_diagonal(rows: Sequence[Mask]) -> list[Mask]:
    return list(map(and_, rows, map(invert, diagonal(len(rows)))))


def gocha_bruteforce(p: DecisionProblem) -> Mask:
    """Union of all inclusion-minimal strictly-undominated non-empty subsets;
    d is undominated iff Sᵀ[d] ⊆ d, Sᵀ being the strict part's columns.

    On planes (`bitset.planes`): d is dominated iff some y outside d has a
    row S[y] that meets d.  The up-set of the undominated subsets grows by
    one alternative x at a time, each subset without x shifted up by
    ``2 ** x`` to its union with {x}; an undominated subset is minimal iff
    no subset of it one member smaller lies in that up-set.
    """
    check_size(p.n, SUBSET_LIMIT, "oracle")
    n = p.n
    sliced = planes(n)
    dominated = functools.reduce(or_, map(and_, map(invert, sliced), _meets(
        _strict(p.rel).rows, n)), 1)
    undominated = up = (1 << (1 << n)) - 1 & ~dominated
    for x, plane in enumerate(sliced):
        up |= (up & ~plane) << (1 << x)
    minimal = undominated & ~functools.reduce(or_, [
        (up & ~plane) << (1 << x) for x, plane in enumerate(sliced)])
    return from_members(x for x, plane in enumerate(sliced)
                        if minimal & plane)


def random_problem(n: int, density: float, seed: int,
                   tournament: bool = False) -> DecisionProblem:
    """Deterministic random irreflexive digraph (or tournament) per seed.

    A digraph holds pair (x, y), x != y, iff its draw `rng.random()` is below
    density, the pairs drawn in row-major order.  A tournament draws the
    pairs x < y in that order and holds (x, y) if the draw is below 0.5, or
    else (y, x).  No Python step runs per draw.  On CPython `random()` reads
    two 32-bit words, a then b, and returns exactly K / 2**53 with
    K = (a >> 5) * 2**26 + (b >> 6), while `getrandbits(64 * k)` returns the
    next 2k words with word i at bits 32i to 32i+31.  So a draw is below
    density iff K < ceil(density * 2**53), and K's top byte is a's top byte:
    byte 8i+3 of the words' little-endian bytes (`_flags`).

    Both shapes draw and place their rows in one pass of `_draw_rows`.
    Digraph row x, n - 1 draws, moves its bits from x up one place for its
    diagonal; tournament row x's upper half, n - 1 - x draws, moves up past
    x, and row y's lower half is the complement, below y, of column y of
    the upper half.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    mixed = (seed * 1_000_003 + n * 10_007
             + round(density * 1000) * 97 + int(tournament))
    rng = random.Random(mixed)
    if tournament:
        upper = _draw_rows(rng, range(n - 1, -1, -1), _DRAW_SPAN // 2, True)
        rows = [u | (1 << y) - 1 ^ c
                for y, (u, c) in enumerate(zip(upper, transpose(upper, n)))]
    else:
        rows = _draw_rows(rng, [n - 1] * n, math.ceil(density * _DRAW_SPAN),
                          False)
    return DecisionProblem(Relation(n, tuple(rows)))


def _flags(rng: random.Random, draws: int, limit: int) -> bytes:
    """One digit per draw of rng, b"1" if the draw is below limit / 2**53
    and b"0" if not, the next `draws` draws taken in one `getrandbits`.

    A table read of each draw's top byte decides it unless that byte equals
    limit's top byte, which happens to 1 draw in 256 and never when limit's
    45 low bits are 0; those draws are settled from their two words.
    """
    data = rng.getrandbits(64 * draws).to_bytes(8 * draws, "little")
    undecided = b"?" if limit % 2 ** 45 else b"0"
    flags = data[3::8].translate(
        (b"1" * (limit >> 45) + undecided + b"0" * 255)[:256])
    if b"?" not in flags:
        return flags
    flags = bytearray(flags)
    at = flags.find(b"?")
    while at >= 0:
        words = int.from_bytes(data[8 * at:8 * at + 8], "little")
        k = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38  # a low, b high
        flags[at] = 49 if k < limit else 48
        at = flags.find(b"?", at + 1)
    return flags


def _draw_rows(rng: random.Random, widths: Sequence[int], limit: int,
               tournament: bool) -> list[Mask]:
    """Rows of the given widths, drawn in order, a row's draw j at bit j
    and set iff it falls below limit / 2**53.  Row x is placed as it is cut:
    a tournament's moves up past x and a digraph's moves its bits from x up
    one place for the diagonal.  A `_flags` call draws
    `_CHUNK_DRAWS // len(widths) or 1` rows, its digits read backwards as
    one `int` from which each row takes its next bits."""
    rows: list[Mask] = []
    step = _CHUNK_DRAWS // len(widths) or 1
    for start in range(0, len(widths), step):
        chunk = widths[start:start + step]
        bits = int(_flags(rng, sum(chunk), limit)[::-1] or b"0", 2)
        for x, width in enumerate(chunk, start):
            row = bits & (1 << width) - 1
            rows.append(row << x + 1 if tournament else row + (row >> x << x))
            bits >>= width
    return rows


def cross_verify(p: DecisionProblem, concept: Concept,
                 interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE,
                 max_n: int = SUBSET_LIMIT) -> VerificationReport:
    """Compare the constructive family with enumeration bounded by max_n."""
    expected = set(enumerate_solutions(p, concept, interp=interp, max_n=max_n))
    actual = set(solve(p, concept, interp=interp))
    if expected == actual:
        return VerificationReport(concept, True)
    return VerificationReport(concept, False,
                              only_constructive=tuple(sorted(actual - expected)),
                              only_oracle=tuple(sorted(expected - actual)))
