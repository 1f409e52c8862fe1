"""Brute-force ground truth.

Every check here transcribes a definition directly against the raw relation
data, with its own strict part and closure, and never calls the constructive
code paths in `solutions`, so that agreement between the two is evidence
rather than tautology.  Only `cross_verify` calls `solutions.solve`, because
comparing the two is its job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bitset import Mask, iter_bits, subsets
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


def _omega(p: DecisionProblem, literal: bool = False) -> Relation:
    """Extended dominance straight from its definition via equipotence.

    The default drops equipotent pairs (the acyclic reading); `literal`
    keeps them, which is the relation stability is judged against.
    """
    strict = _strict(p.rel)
    closure = _closure(strict)
    n = p.n

    def equipotent(x, y):
        return x == y or (closure.has(x, y) and closure.has(y, x))

    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if not literal and equipotent(x, y):
                continue
            if any(equipotent(x, z) and strict.has(z, w) and equipotent(w, y)
                   for z in range(n) for w in range(n)):
                rows[x] |= 1 << y
    return Relation(n, tuple(rows))


def enumerate_solutions(p: DecisionProblem, concept: Concept,
                        interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE,
                        max_n: int = SUBSET_LIMIT) -> list[Mask]:
    """All non-empty subsets passing the definitional stability checks,
    in ascending bitmask order."""
    check_size(p.n, max_n, "oracle")
    strict = _strict(p.rel)
    closure = _closure(strict)
    strict_cols = strict.columns()
    closure_cols = closure.columns()
    omega = _omega(p, literal=True) if concept is Concept.EXTENDED else None
    full = p.all_mask
    out = []
    for v in subsets(full):
        if v and _passes(v, full, concept, interp, strict, closure,
                         strict_cols, closure_cols, omega):
            out.append(v)
    return out


def _passes(v, full, concept, interp, strict, closure,
            strict_cols, closure_cols, omega) -> bool:
    outside = full & ~v
    if concept is Concept.VNM:
        if any(strict.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        return all(strict_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.GENERALIZED:
        if any(closure.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        return all(closure_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.SOCIALLY:
        if interp is SociallyInterp.RESTRICT_CLOSURE:
            q_rows = [closure.rows[x] & v if v >> x & 1 else 0
                      for x in range(full.bit_length())]
        else:
            sub = Relation(strict.n, tuple(strict.rows[x] & v if v >> x & 1 else 0
                                           for x in range(strict.n)))
            q_rows = list(_closure(sub).rows)
        for x in iter_bits(v):
            for y in iter_bits(q_rows[x] & v):
                if not q_rows[y] >> x & 1:
                    return False
        return all(strict_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.M_STABLE:
        for x in iter_bits(v):
            for y in iter_bits(closure.rows[x] & v):
                if not closure.rows[y] >> x & 1:
                    return False
        return all(closure_cols[x] & outside == 0 for x in iter_bits(v))
    if concept is Concept.W_STABLE:
        if any(closure.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        for x in iter_bits(v):
            for y in iter_bits(closure_cols[x] & outside):
                if not closure.rows[x] >> y & 1:
                    return False
        return True
    # EXTENDED
    if any(omega.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
        return False
    omega_cols = omega.columns()
    return all(omega_cols[y] & v for y in iter_bits(outside))


def gocha_bruteforce(p: DecisionProblem) -> Mask:
    """Union of all inclusion-minimal strictly-undominated non-empty subsets."""
    check_size(p.n, SUBSET_LIMIT, "oracle")
    strict = _strict(p.rel)
    strict_cols = strict.columns()
    undominated = [d for d in subsets(p.all_mask)
                   if d and all(strict_cols[x] & ~d == 0 for x in iter_bits(d))]
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
    pairs = []
    if tournament:
        for x in range(n):
            for y in range(x + 1, n):
                pairs.append((x, y) if rng.random() < 0.5 else (y, x))
    else:
        for x in range(n):
            for y in range(n):
                if x != y and rng.random() < density:
                    pairs.append((x, y))
    return DecisionProblem.from_edges(n, pairs)


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
