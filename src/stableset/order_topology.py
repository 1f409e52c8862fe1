"""Finite order-topology lab: cut completion, Frink ideals, way-below,
precontinuity, excluded-set topologies and the separation checks built on
them.  Everything is explicit and desk-scale; size guards raise instead of
truncating."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import Mask, full_mask, iter_bits, subsets
from .errors import check_size
from .relations import Relation, _check_poset, transitive_closure

DM_LIMIT = 10
IDEAL_LIMIT = 8
# Largest number of free alternatives (outside the excluded set) of an
# excluded-set topology, which has 2^free + 1 opens; `nachbin_closed` scans
# pairs of them.
FREE_LIMIT = 12


@dataclass(frozen=True)
class Poset:
    """A reflexive, transitive, antisymmetric relation; validated on build."""

    leq: Relation

    def __post_init__(self):
        _check_poset(self.leq)

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
class FiniteTopology:
    """An explicit family of open sets over {0..n-1}."""

    n: int
    opens: frozenset[Mask]

    def __post_init__(self):
        if 0 not in self.opens or full_mask(self.n) not in self.opens:
            raise ValueError("a topology must contain the empty and full sets")

    def is_valid(self) -> bool:
        """Pairwise union/intersection closure (sufficient on finite spaces).

        Quadratic in the number of opens; call it in tests, not hot loops.
        """
        for u in self.opens:
            for v in self.opens:
                if u | v not in self.opens or u & v not in self.opens:
                    return False
        return True

    def opens_by_size(self) -> list[Mask]:
        return sorted(self.opens, key=lambda u: (u.bit_count(), u))

    def compactness_witness(self) -> Mask:
        """The full space itself covers any open cover of a finite space."""
        return full_mask(self.n)


@dataclass(frozen=True)
class CutLattice:
    """All closure-stable sets of a poset, ordered by inclusion."""

    n: int
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


def dm_completion(p: Poset, max_n: int = DM_LIMIT) -> CutLattice:
    """Every closure-stable set, by image of the closure over all subsets."""
    check_size(p.n, max_n, "completion")
    cuts = sorted({delta_closure(p, a) for a in subsets(p.all_mask)})
    return CutLattice(p.n, tuple(cuts))


def frink_ideals(p: Poset, max_n: int = IDEAL_LIMIT) -> list[Mask]:
    """Sets closed under the delta-closure of each of their subsets.

    The empty subset counts, so an ideal always contains the closure of the
    empty set (the global lower bounds); on a bounded poset the empty set is
    therefore not an ideal.
    """
    check_size(p.n, max_n, "ideal-enumeration")
    out = []
    for i in subsets(p.all_mask):
        if all(delta_closure(p, z) & ~i == 0 for z in subsets(i)):
            out.append(i)
    return out


def way_below_e(p: Poset, x: int, y: int) -> bool:
    """x is ideal-theoretically below y: every ideal whose closure captures y
    already contains x."""
    for ideal in frink_ideals(p):
        if delta_closure(p, ideal) >> y & 1 and not ideal >> x & 1:
            return False
    return True


def is_precontinuous(p: Poset) -> bool:
    """Every element sits in the closure of its way-below lower set."""
    ideals = frink_ideals(p)
    closures = {i: delta_closure(p, i) for i in ideals}
    for x in range(p.n):
        below = 0
        for y in range(p.n):
            if all(not (closures[i] >> x & 1) or i >> y & 1 for i in ideals):
                below |= 1 << y
        if not delta_closure(p, below) >> x & 1:
            return False
    return True


def excluded_set_topology(n: int, excluded: Mask) -> FiniteTopology:
    """Opens are the subsets disjoint from `excluded`, plus the full set.

    The number of free alternatives is bounded by `FREE_LIMIT`."""
    free = full_mask(n) & ~excluded
    check_size(free.bit_count(), FREE_LIMIT, "excluded-set topology")
    opens = set(subsets(free))
    opens.add(full_mask(n))
    return FiniteTopology(n, frozenset(opens))


def weak_t1_separation(top: FiniteTopology, strict: Relation) -> bool:
    """Each strictly dominated point has an open set excluding its dominator."""
    opens = top.opens_by_size()
    for y in range(strict.n):
        for x in iter_bits(strict.rows[y]):
            # y strictly dominates x: need x in some open missing y.
            ybit = 1 << y
            xbit = 1 << x
            if not any(u & xbit and not u & ybit for u in opens):
                return False
    return True


def nachbin_closed(top: FiniteTopology, order: Relation) -> bool:
    """Every non-related pair separates by an open rectangle avoiding the
    order's graph."""
    opens = top.opens_by_size()
    cols = order.columns()
    for x in range(order.n):
        for y in range(order.n):
            if order.rows[x] >> y & 1:
                continue
            if not _rectangle_exists(opens, order, cols, x, y):
                return False
    return True


def _rectangle_exists(opens, order, cols, x, y) -> bool:
    xbit, ybit = 1 << x, 1 << y
    for u in opens:
        if not u & xbit:
            continue
        # v must avoid every point order-reachable from inside u.
        blocked = 0
        for s in iter_bits(u):
            blocked |= order.rows[s]
        for v in opens:
            if v & ybit and not v & blocked:
                return True
    return False
