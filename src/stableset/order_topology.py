"""Finite order-topology lab: cut completion, Frink ideals, way-below,
precontinuity, excluded-set topologies and the separation checks built on
them.

No check enumerates subsets, and validating a poset builds no closure.  The
cuts come from closing the full set under intersection with each principal
down-set, so their cost grows with the number of cuts, which `CUT_LIMIT`
bounds; precontinuity, which holds on every finite poset, builds none.  An
excluded-set topology is held as its excluded set, and its checks read the
smallest open around each point: the point alone when it is free, the full
set when it is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import Mask, full_mask, image, iter_bits
from .errors import PosetViolation, check_size
from .relations import Relation, transitive_closure

# Largest number of cuts `dm_completion` builds.  It admits every chain and
# antichain at the parse ceiling (at most n + 2 cuts).
CUT_LIMIT = 2048


@dataclass(frozen=True)
class Poset:
    """A reflexive, transitive, antisymmetric relation; validated on build."""

    leq: Relation

    def __post_init__(self):
        """Reflexivity and antisymmetry take one test per element, and
        transitivity no closure: row x tests its least untested member y for
        rows[y] ⊆ rows[x], then skips all of rows[y].  Antisymmetry makes
        rows[y] strictly smaller, so the smallest row that breaks
        transitivity fails at a tested member.  Only a failure looks for
        its pair."""
        rows, cols = self.leq.rows, self.leq.columns()
        for x in range(self.leq.n):
            if not rows[x] >> x & 1:
                raise PosetViolation(f"not reflexive at {x}")
            if rows[x] & cols[x] != 1 << x:
                y = next(iter_bits(rows[x] & cols[x] & ~(1 << x)))
                raise PosetViolation(f"not antisymmetric on ({x},{y})")
        for x, row in enumerate(rows):
            rest = row ^ 1 << x
            while rest:
                up = rows[(rest & -rest).bit_length() - 1]
                if up & ~row:
                    x, y = next((x, y) for x, y in self.leq.pairs()
                                if rows[y] & ~rows[x])
                    raise PosetViolation(f"not transitive through ({x},{y})")
                rest &= ~up

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Poset":
        """Reflexive-transitive closure of the given covers; must come out
        antisymmetric."""
        closure = transitive_closure(Relation.from_pairs(n, pairs))
        return cls(Relation(n, tuple(row | 1 << x
                                     for x, row in enumerate(closure.rows))))

    @property
    def n(self) -> int:
        return self.leq.n

    @property
    def all_mask(self) -> Mask:
        return full_mask(self.leq.n)


@dataclass(frozen=True)
class ExcludedSetTopology:
    """The topology on {0..n-1} whose opens are the subsets disjoint from
    `excluded`, plus the full set."""

    n: int
    excluded: Mask

    @property
    def open_count(self) -> int:
        free = self.n - self.excluded.bit_count()
        return 2 ** free + (self.excluded != 0)

    @property
    def opens(self) -> frozenset[Mask]:
        """Every open set, listed: `open_count` of them, so this is for
        tests and references at small n; no check reads it."""
        opens = {0, full_mask(self.n)}
        for x in iter_bits(full_mask(self.n) & ~self.excluded):
            opens |= {u | 1 << x for u in opens}
        return frozenset(opens)


@dataclass(frozen=True)
class CutLattice:
    """All closure-stable sets of a poset, ordered by inclusion."""

    cuts: tuple[Mask, ...]


def upper_bounds(p: Poset, a: Mask) -> Mask:
    out = p.all_mask
    for x in iter_bits(a):
        out &= p.leq.rows[x]
    return out


def lower_bounds(p: Poset, a: Mask) -> Mask:
    cols = p.leq.columns()
    out = p.all_mask
    for x in iter_bits(a):
        out &= cols[x]
    return out


def delta_closure(p: Poset, a: Mask) -> Mask:
    """Lower bounds of the upper bounds; a closure operator."""
    return lower_bounds(p, upper_bounds(p, a))


def dm_completion(p: Poset) -> CutLattice:
    """Every closure-stable set (cut), in ascending order.

    Every cut is an intersection of principal down-sets (MacNeille 1937),
    the empty intersection being the full set, so closing {X} under
    intersection with each down-set in turn yields all of them.  The count
    never falls, so it is checked against `CUT_LIMIT` after each down-set.
    """
    cuts = {p.all_mask}
    for down in p.leq.columns():
        cuts |= {c & down for c in cuts}
        check_size(len(cuts), CUT_LIMIT, "cut-completion", "cuts")
    return CutLattice(tuple(sorted(cuts)))


def frink_ideals(p: Poset) -> list[Mask]:
    """Sets I containing the delta-closure of each of their subsets.

    On a finite poset these are exactly the cuts.  A cut I satisfies
    δ(Z) ⊆ δ(I) = I for every Z ⊆ I, because δ is monotone; and an ideal I
    contains δ(I), so I = δ(I) is a cut.  The empty subset counts, so on a
    bounded poset the empty set is not an ideal.
    """
    return list(dm_completion(p).cuts)


def way_below_e(p: Poset, x: int, y: int) -> bool:
    """x is ideal-theoretically below y: every ideal whose closure captures y
    already contains x.

    An ideal is a cut, its own closure, so x must lie in the AND of the cuts
    that contain y.  On a finite poset that AND is the principal down-set
    of y: every cut δ(A) is a down-set, so a cut containing y contains ↓y,
    and ↓y = δ({y}) is itself a cut.  Hence x is way below y iff x ≤ y.
    """
    return p.leq.has(x, y)


def is_precontinuous(p: Poset) -> bool:
    """Every element sits in the closure of its way-below lower set, the
    AND of the cuts that contain it.

    Always true on a finite poset, so no cut is built: the way-below set of
    x is the principal down-set ↓x (see `way_below_e`), a cut, hence its own
    closure, and it contains x.
    """
    return True


def excluded_set_topology(n: int, excluded: Mask) -> ExcludedSetTopology:
    """Opens are the subsets disjoint from `excluded`, plus the full set."""
    return ExcludedSetTopology(n, excluded)


def weak_t1_separation(top: ExcludedSetTopology, strict: Relation) -> bool:
    """Each strictly dominated point has an open set excluding its dominator.

    `strict` is irreflexive, so the open {x} serves a free x, and the only
    open around an excluded x is the full set: the check holds iff no
    excluded point is dominated.  Under extended dominance, as under the
    strict part of the closure, that means the excluded set lies in the
    Schwartz set.
    """
    return image(full_mask(strict.n), strict.rows) & top.excluded == 0


def nachbin_closed(top: ExcludedSetTopology, order: Relation) -> bool:
    """Every non-related pair separates by an open rectangle avoiding the
    order's graph.

    The smallest opens give the best rectangle: {x} x {y} when both are
    free.  `order` is reflexive, so a full-set side meets the order's graph
    and the pair fails; the check holds iff every pair x ≰ y has both x and
    y free.  On a poset with n ≥ 2 every point is in such a pair, so it
    holds iff nothing is excluded.
    """
    full = full_mask(order.n)
    unrelated = 0
    for x, row in enumerate(order.rows):
        if row != full:
            unrelated |= 1 << x | full & ~row
    return unrelated & top.excluded == 0
