"""Brute-force ground truth.

Every check here is a definition written as a union identity over set
images (the union of per-element masks over each subset's members), tested
on all 2^n subsets.  It uses its own strict part and closure and never calls
the constructive code paths in `solutions`, so that agreement between the
two is evidence rather than tautology.  Only `cross_verify` calls
`solutions.solve`, because comparing the two is its job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .bitset import Mask, image_table, iter_bits, transpose
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
    cols = r.columns()
    return Relation(r.n, tuple(r.rows[x] & ~cols[x] for x in range(r.n)))


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
    strict_img, eq_img = image_table(strict.rows), image_table(eq)
    return Relation(strict.n, tuple(eq_img[strict_img[e]] for e in eq))


def _cycles_inside(v: Mask, strict: Relation) -> bool:
    """Every strict edge inside v lies on a cycle inside v."""
    q = _closure(Relation(strict.n, tuple(
        strict.rows[x] & v if v >> x & 1 else 0 for x in range(strict.n)))).rows
    return all(q[y] >> x & 1 for x in iter_bits(v) for y in iter_bits(q[x]))


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

    sss closure_of_restriction needs S[v] ∪ v = full and `_cycles_inside`;
    (S∖Cᵀ)[v] ∩ v = ∅, no edge in v off every cycle, filters first.

    Each concept derives only the relations its line reads: vnm S alone,
    with no closure; gss C, with no columns; sss, mss, wss and ess C and
    Cᵀ, which ω reads too.  `_closure` skips a pivot whose row is empty.
    """
    check_size(p.n, max_n, "oracle")
    strict = _strict(p.rel)
    restricted = (concept is Concept.SOCIALLY
                  and interp is SociallyInterp.CLOSURE_OF_RESTRICTION)
    if concept is Concept.VNM:
        inner = outer = strict.rows
    else:
        closure = _closure(strict)
        rows = closure.rows
        if concept is Concept.GENERALIZED:
            inner = outer = _off_diagonal(rows)
        elif concept is Concept.EXTENDED:
            inner = outer = _off_diagonal(_omega(strict, closure).rows)
        else:
            cols = closure.columns()
            if concept is Concept.W_STABLE:
                inner = _off_diagonal(rows)
                outer = [c & ~r for r, c in zip(rows, cols)]
            else:
                inner = [r & ~c for r, c in zip(
                    strict.rows if restricted else rows, cols)]
                outer = cols if concept is Concept.M_STABLE else strict.rows
    ins = image_table(inner)
    outs = ins if outer is inner else image_table(outer)
    full = p.all_mask
    if concept is Concept.M_STABLE or concept is Concept.W_STABLE:
        out = [v for v in range(1, full + 1)
               if not ins[v] & v and not outs[v] & ~v]
    else:
        out = [v for v in range(1, full + 1)
               if not ins[v] & v and outs[v] | v == full]
    if restricted:
        out = [v for v in out if _cycles_inside(v, strict)]
    return out


def _off_diagonal(rows: Sequence[Mask]) -> list[Mask]:
    return [r & ~(1 << x) for x, r in enumerate(rows)]


def gocha_bruteforce(p: DecisionProblem) -> Mask:
    """Union of all inclusion-minimal strictly-undominated non-empty subsets;
    d is undominated iff Sᵀ[d] ⊆ d, Sᵀ being the strict part's columns."""
    check_size(p.n, SUBSET_LIMIT, "oracle")
    above = image_table(_strict(p.rel).columns())
    undominated = [d for d in range(1, len(above)) if not above[d] & ~d]
    # Ascending popcount: any non-minimal set has a minimal one strictly
    # inside it, so checking against minimals found so far suffices.
    undominated.sort(key=int.bit_count)
    minimal = []
    out = 0
    for d in undominated:
        if not any(e & ~d == 0 for e in minimal):
            minimal.append(d)
            out |= d
    return out


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
