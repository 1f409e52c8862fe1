"""Brute-force ground truth.

Every check here is a definition written as a union identity over set
images (the union of per-element masks over each subset's members), tested
on all 2^n subsets.  It uses its own strict part and closure and never calls
the constructive code paths in `solutions`, so that agreement between the
two is evidence rather than tautology.  Only `cross_verify` calls
`solutions.solve`, because comparing the two is its job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bitset import Mask, iter_bits
from .errors import check_size
from .relations import DecisionProblem, Relation
from .solutions import SUBSET_LIMIT, Concept, SociallyInterp, solve


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
        bit = 1 << k
        for x in range(r.n):
            if rows[x] & bit:
                rows[x] |= rows[k]
    return Relation(r.n, tuple(rows))


def _images(masks) -> list[Mask]:
    """`images[v]` is the union of `masks[x]` over the members x of v."""
    images = [0]
    for mk in masks:
        images += [u | mk for u in images]
    return images


def _omega(p: DecisionProblem) -> Relation:
    """Extended dominance, equipotent pairs kept: x ω y iff some z
    equipotent to x strictly dominates some w equipotent to y, so row x is
    the union of the classes eq[w] over w in S[eq[x]]."""
    strict = _strict(p.rel)
    closure = _closure(strict)
    cols = closure.columns()
    eq = [closure.rows[x] & cols[x] | 1 << x for x in range(p.n)]
    strict_img, eq_img = _images(strict.rows), _images(eq)
    return Relation(p.n, tuple(eq_img[strict_img[e]] for e in eq))


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
    diagonal and ω is `_omega`.  A non-empty v is stable iff

        vnm  S[v] ∩ v = ∅       and  S[v] ∪ v = full
        gss  C*[v] ∩ v = ∅      and  C*[v] ∪ v = full
        sss  (C∖Cᵀ)[v] ∩ v = ∅  and  S[v] ∪ v = full  (restrict_closure)
        mss  (C∖Cᵀ)[v] ∩ v = ∅  and  Cᵀ[v] ⊆ v
        wss  C*[v] ∩ v = ∅      and  (Cᵀ∖C)[v] ⊆ v
        ess  ω*[v] ∩ v = ∅      and  ω*[v] ∪ v = full

    sss closure_of_restriction needs S[v] ∪ v = full and `_cycles_inside`;
    (S∖Cᵀ)[v] ∩ v = ∅, no edge in v off every cycle, filters first.
    """
    check_size(p.n, max_n, "oracle")
    strict = _strict(p.rel)
    closure = _closure(strict)
    rows, cols = closure.rows, closure.columns()
    star = [rows[x] & ~(1 << x) for x in range(p.n)]
    one_way = [r & ~c for r, c in zip(rows, cols)]
    restricted = (concept is Concept.SOCIALLY
                  and interp is SociallyInterp.CLOSURE_OF_RESTRICTION)
    if concept is Concept.EXTENDED:
        inner = outer = [r & ~(1 << x) for x, r in enumerate(_omega(p).rows)]
    else:
        inner, outer = {
            Concept.VNM: (strict.rows, strict.rows),
            Concept.GENERALIZED: (star, star),
            Concept.SOCIALLY: ([r & ~c for r, c in zip(strict.rows, cols)]
                               if restricted else one_way, strict.rows),
            Concept.M_STABLE: (one_way, cols),
            Concept.W_STABLE: (star, [c & ~r for r, c in zip(rows, cols)]),
        }[concept]
    ins = _images(inner)
    outs = ins if outer is inner else _images(outer)
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


def gocha_bruteforce(p: DecisionProblem) -> Mask:
    """Union of all inclusion-minimal strictly-undominated non-empty subsets;
    d is undominated iff Sᵀ[d] ⊆ d, Sᵀ being the strict part's columns."""
    check_size(p.n, SUBSET_LIMIT, "oracle")
    above = _images(_strict(p.rel).columns())
    undominated = [d for d in range(1, len(above)) if not above[d] & ~d]
    # Ascending popcount: any non-minimal set has a minimal one strictly
    # inside it, so checking against minimals found so far suffices.
    undominated.sort(key=lambda d: (d.bit_count(), d))
    minimal = []
    out = 0
    for d in undominated:
        if not any(e & ~d == 0 for e in minimal):
            minimal.append(d)
            out |= d
    return out


def random_problem(n: int, density: float, seed: int,
                   tournament: bool = False) -> DecisionProblem:
    """Deterministic random irreflexive digraph (or tournament) per seed."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    mixed = (seed * 1_000_003 + n * 10_007
             + round(density * 1000) * 97 + int(tournament))
    rng = random.Random(mixed)
    draw = rng.random
    if tournament:
        pairs = ((x, y) if draw() < 0.5 else (y, x)
                 for x in range(n) for y in range(x + 1, n))
    else:
        pairs = ((x, y) for x in range(n) for y in range(n)
                 if x != y and draw() < density)
    return DecisionProblem(Relation.from_checked_pairs(n, pairs))


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
