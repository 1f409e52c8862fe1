"""Solution concepts over abstract decision problems.

Every concept with a product-form characterization (generalized, m-, w-,
extended stable sets) is built from the condensation; concepts without one
(VNM on cyclic inputs, socially stable) fall back to subset search under the
oracle ceiling.  Definitional checkers live here as well so each family can
be validated member by member.
"""

from __future__ import annotations

import enum
import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from .bitset import Mask, iter_bits, members, subsets
from .contraction import (condensation_stable_set, equipotence_classes,
                          extended_dominance, maximal_components)
from .errors import EmptySolution, OracleLimitExceeded
from .relations import (DecisionProblem, Relation, is_acyclic,
                        iterated_maximal, maximal_set, restrict,
                        trap_relation, transitive_closure)

DEFAULT_MAX_N = 12


def subset_search_ceiling() -> int:
    return int(os.environ.get("STABLESET_MAX_N", DEFAULT_MAX_N))


class Concept(enum.Enum):
    VNM = "vnm"
    GENERALIZED = "generalized"
    SOCIALLY = "socially"
    M_STABLE = "m_stable"
    W_STABLE = "w_stable"
    EXTENDED = "extended"


class SchwartzMethod(enum.Enum):
    CONDENSATION = "condensation"
    DEB = "deb"
    BRUTE = "brute"


class SociallyInterp(enum.Enum):
    RESTRICT_CLOSURE = "restrict_closure"
    CLOSURE_OF_RESTRICTION = "closure_of_restriction"


class FamilyForm(enum.Enum):
    EXPLICIT = "explicit"
    ONE_PER_COMPONENT = "one_per_component"
    SUBSET_OF_REPRESENTATIVES = "subset_of_representatives"
    UNIONS_OF_COMPONENTS = "unions_of_components"


@dataclass(frozen=True)
class SolutionFamily:
    """A possibly-exponential family of subsets, explicit or product-form."""

    form: FamilyForm
    n: int
    components: tuple[Mask, ...] = ()
    explicit: tuple[Mask, ...] = ()

    def count(self) -> int:
        if self.form is FamilyForm.EXPLICIT:
            return len(self.explicit)
        if self.form is FamilyForm.ONE_PER_COMPONENT:
            out = 1
            for comp in self.components:
                out *= comp.bit_count()
            return out
        if self.form is FamilyForm.SUBSET_OF_REPRESENTATIVES:
            out = 1
            for comp in self.components:
                out *= comp.bit_count() + 1
            return out - 1
        return (1 << len(self.components)) - 1

    def contains(self, v: Mask) -> bool:
        if self.form is FamilyForm.EXPLICIT:
            return v in self.explicit
        carrier = 0
        for comp in self.components:
            carrier |= comp
        if v == 0 or v & ~carrier:
            return False
        per_class = [(v & comp) for comp in self.components]
        if self.form is FamilyForm.ONE_PER_COMPONENT:
            return all(part.bit_count() == 1 for part in per_class)
        if self.form is FamilyForm.SUBSET_OF_REPRESENTATIVES:
            return all(part.bit_count() <= 1 for part in per_class)
        return all(part in (0, comp)
                   for part, comp in zip(per_class, self.components))

    def __iter__(self) -> Iterator[Mask]:
        """Deterministic iteration, lexicographic by alternative index."""
        if self.form is FamilyForm.EXPLICIT:
            yield from sorted(self.explicit)
            return
        if self.form is FamilyForm.ONE_PER_COMPONENT:
            pools = [tuple(1 << x for x in iter_bits(comp))
                     for comp in self.components]
            for pick in itertools.product(*pools):
                v = 0
                for bit in pick:
                    v |= bit
                yield v
            return
        if self.form is FamilyForm.SUBSET_OF_REPRESENTATIVES:
            pools = [(0,) + tuple(1 << x for x in iter_bits(comp))
                     for comp in self.components]
            seen = []
            for pick in itertools.product(*pools):
                v = 0
                for bit in pick:
                    v |= bit
                if v:
                    seen.append(v)
            yield from sorted(set(seen))
            return
        out = []
        for chosen in subsets((1 << len(self.components)) - 1):
            if not chosen:
                continue
            v = 0
            for i in iter_bits(chosen):
                v |= self.components[i]
            out.append(v)
        yield from sorted(out)

    def sets(self) -> tuple[Mask, ...]:
        return tuple(self)


@dataclass(frozen=True)
class StabilityReport:
    internal_ok: bool
    external_ok: bool
    witness: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.internal_ok and self.external_ok


def is_stable_set(v: Mask, q: Relation) -> StabilityReport:
    """Internal/external stability of v under dominance q.

    Internal stability quantifies over distinct pairs only, so closure loops
    never disqualify singletons.
    """
    if v == 0:
        raise EmptySolution("the empty set is never a solution")
    for x in iter_bits(v):
        bad = q.rows[x] & v & ~(1 << x)
        if bad:
            y = bad.bit_length() - 1
            return StabilityReport(False, _external_ok(v, q), (x, y))
    outside = ((1 << q.n) - 1) & ~v
    for y in iter_bits(outside):
        if not any(q.rows[x] >> y & 1 for x in iter_bits(v)):
            return StabilityReport(True, False, (y,))
    return StabilityReport(True, True)


def _external_ok(v: Mask, q: Relation) -> bool:
    outside = ((1 << q.n) - 1) & ~v
    return all(any(q.rows[x] >> y & 1 for x in iter_bits(v))
               for y in iter_bits(outside))


def core(p: DecisionProblem) -> Mask:
    """Weakly maximal alternatives under strict dominance; may be empty."""
    return maximal_set(p.all_mask, p.strict)


def schwartz_set(p: DecisionProblem,
                 method: SchwartzMethod = SchwartzMethod.CONDENSATION,
                 max_n: int | None = None) -> Mask:
    if method is SchwartzMethod.CONDENSATION:
        c = equipotence_classes(p)
        out = 0
        for i in iter_bits(maximal_components(c)):
            out |= c.classes[i]
        return out
    if method is SchwartzMethod.DEB:
        closure = transitive_closure(p.strict)
        return maximal_set(p.all_mask, closure)
    from .oracle import gocha_bruteforce
    return gocha_bruteforce(p, max_n=max_n)


def duggan_set(p: DecisionProblem) -> Mask:
    return maximal_set(p.all_mask, trap_relation(p))


def vnm_stable_sets(p: DecisionProblem,
                    max_n: int | None = None) -> SolutionFamily:
    """All stable sets under one-step strict dominance.

    Acyclic strict parts take the constructive route (iterated maximal set,
    unique and core-inclusive); anything else is a subset search.
    """
    strict = p.strict
    if is_acyclic(strict):
        s = iterated_maximal(strict)
        assert is_stable_set(s, strict).ok
        assert core(p) & ~s == 0, "acyclic stable set must contain the core"
        return SolutionFamily(FamilyForm.EXPLICIT, p.n, explicit=(s,))
    limit = max_n if max_n is not None else subset_search_ceiling()
    if p.n > limit:
        raise OracleLimitExceeded(f"n={p.n} exceeds subset-search ceiling {limit}")
    found = [v for v in subsets(p.all_mask)
             if v and is_stable_set(v, strict).ok]
    return SolutionFamily(FamilyForm.EXPLICIT, p.n, explicit=tuple(found))


def generalized_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """One representative from each undominated component."""
    c = equipotence_classes(p)
    comps = tuple(c.classes[i] for i in iter_bits(maximal_components(c)))
    return SolutionFamily(FamilyForm.ONE_PER_COMPONENT, p.n, components=comps)


def socially_stable_sets(p: DecisionProblem,
                         interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE,
                         max_n: int | None = None) -> SolutionFamily:
    limit = max_n if max_n is not None else subset_search_ceiling()
    if p.n > limit:
        raise OracleLimitExceeded(f"n={p.n} exceeds subset-search ceiling {limit}")
    strict = p.strict
    closure = transitive_closure(strict)
    strict_cols = strict.columns()
    found = []
    for v in subsets(p.all_mask):
        if not v:
            continue
        if not _socially_internal_ok(v, strict, closure, interp):
            continue
        outside = p.all_mask & ~v
        if all(strict_cols[y] & v for y in iter_bits(outside)):
            found.append(v)
    family = SolutionFamily(FamilyForm.EXPLICIT, p.n, explicit=tuple(found))
    c = equipotence_classes(p)
    top = [c.classes[i] for i in iter_bits(maximal_components(c))]
    for v in family.explicit:
        assert all(v & comp for comp in top), \
            "socially stable set must meet every maximal component"
    return family


def _socially_internal_ok(v: Mask, strict: Relation, closure: Relation,
                          interp: SociallyInterp) -> bool:
    if interp is SociallyInterp.RESTRICT_CLOSURE:
        q = restrict(closure, v)
    else:
        q = transitive_closure(restrict(strict, v))
    return all(q.rows[y] >> x & 1
               for x in iter_bits(v) for y in iter_bits(q.rows[x] & v))


def m_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """Non-empty unions of whole undominated components."""
    c = equipotence_classes(p)
    comps = tuple(c.classes[i] for i in iter_bits(maximal_components(c)))
    return SolutionFamily(FamilyForm.UNIONS_OF_COMPONENTS, p.n, components=comps)


def w_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """At most one representative per undominated component, none elsewhere."""
    c = equipotence_classes(p)
    comps = tuple(c.classes[i] for i in iter_bits(maximal_components(c)))
    return SolutionFamily(FamilyForm.SUBSET_OF_REPRESENTATIVES, p.n,
                          components=comps)


def extended_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """One alternative per class of the condensation's unique stable set."""
    c = equipotence_classes(p)
    chosen = condensation_stable_set(c)
    comps = tuple(c.classes[i] for i in iter_bits(chosen))
    return SolutionFamily(FamilyForm.ONE_PER_COMPONENT, p.n, components=comps)


@dataclass(frozen=True)
class UndominatedPair:
    generator: Mask
    ground: Mask

    def below(self, other: "UndominatedPair") -> bool:
        """Product inclusion: generator x ground inside the other's product."""
        return (self.generator & ~other.generator == 0
                and self.ground & ~other.ground == 0)


def undominated_pairs(p: DecisionProblem,
                      max_n: int | None = None) -> list[UndominatedPair]:
    """All minimal strictly-undominated pairs (generator, ground)."""
    limit = max_n if max_n is not None else min(subset_search_ceiling(), 8)
    if p.n > limit:
        raise OracleLimitExceeded(f"n={p.n} exceeds pair-enumeration ceiling {limit}")
    strict = p.strict
    closure = transitive_closure(strict)
    strict_cols = strict.columns()
    closure_cols = closure.columns()
    all_pairs: list[UndominatedPair] = []
    for ground in subsets(p.all_mask):
        if not ground:
            continue
        # Generator members may not be strictly dominated from outside ground.
        eligible = 0
        for x in iter_bits(ground):
            if strict_cols[x] & ~ground == 0:
                eligible |= 1 << x
        if not eligible:
            continue
        non_singleton = ground.bit_count() > 1
        for gen in subsets(eligible):
            if not gen:
                continue
            if non_singleton and not all(closure_cols[y] & gen
                                         for y in iter_bits(ground)):
                continue
            all_pairs.append(UndominatedPair(gen, ground))
    all_pairs.sort(key=lambda u: (u.generator.bit_count() + u.ground.bit_count(),
                                  u.ground, u.generator))
    minimal: list[UndominatedPair] = []
    for cand in all_pairs:
        if not any(prev.below(cand) for prev in minimal):
            minimal.append(cand)
    return minimal


def top_pairgenerators(p: DecisionProblem,
                       max_n: int | None = None) -> Mask:
    """Union of generators of minimal pairs whose two sets are strict cycles."""
    closure = transitive_closure(p.strict)

    def is_cycle(mask: Mask) -> bool:
        return all(closure.has(x, y)
                   for x in iter_bits(mask) for y in iter_bits(mask))

    out = 0
    for pair in undominated_pairs(p, max_n=max_n):
        if is_cycle(pair.generator) and is_cycle(pair.ground):
            out |= pair.generator
    return out


def solve(p: DecisionProblem, concept: Concept,
          interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE,
          max_n: int | None = None) -> SolutionFamily:
    """Dispatch a family-producing concept by tag."""
    if concept is Concept.VNM:
        return vnm_stable_sets(p, max_n=max_n)
    if concept is Concept.GENERALIZED:
        return generalized_stable_sets(p)
    if concept is Concept.SOCIALLY:
        return socially_stable_sets(p, interp=interp, max_n=max_n)
    if concept is Concept.M_STABLE:
        return m_stable_sets(p)
    if concept is Concept.W_STABLE:
        return w_stable_sets(p)
    return extended_stable_sets(p)


def dominance_for(p: DecisionProblem, concept: Concept) -> Relation:
    """The relation each concept's stability is judged against."""
    strict = p.strict
    if concept is Concept.VNM or concept is Concept.SOCIALLY:
        return strict
    if concept is Concept.EXTENDED:
        # Stability is judged against the literal relation; the acyclic
        # component-level variant would leave same-class pairs undominated.
        return extended_dominance(p, literal=True)
    return transitive_closure(strict)
