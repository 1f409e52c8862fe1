"""Strong components of the strict closure, their condensation, and the
component-mediated dominance relation built on top of them."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import Mask, full_mask, image, iter_bits
from .relations import (DecisionProblem, Relation, acyclic_stable_set,
                        maximal_set)


@dataclass(frozen=True)
class Contraction:
    """Partition into strong components plus the induced acyclic relation.

    ``classes`` is ordered topologically for ``cond``: each component comes
    after every component dominating it, and the next is the least-indexed
    ready one (see `_topological_order`).  That makes the output
    deterministic and every condensation edge ``(i, j)`` point forward,
    ``i < j``.
    """

    classes: tuple[Mask, ...]
    class_of: tuple[int, ...]
    cond: Relation

    @property
    def k(self) -> int:
        return len(self.classes)


def equipotence_classes(p: DecisionProblem) -> Contraction:
    """Group alternatives that reach each other through the strict closure.

    Symmetric R-edges vanish in the strict part, so they never merge classes.
    The classes are the problem's strong components, sorted by least member
    for the least-ready tie-break of the topological sort.
    """
    strict = p.strict
    raw_classes = sorted(p.components, key=lambda comp: comp & -comp)
    n = p.n

    # Condensation edges from one-step strict dominance across classes: one
    # step per class edge, since a hit drops the whole target class.
    idx_of = [0] * n
    for i, cls in enumerate(raw_classes):
        for x in iter_bits(cls):
            idx_of[x] = i
    k = len(raw_classes)
    raw_cond = [0] * k
    for i, cls in enumerate(raw_classes):
        out = image(cls, strict.rows) & ~cls
        row = 0
        while out:
            j = idx_of[(out & -out).bit_length() - 1]
            row |= 1 << j
            out &= ~raw_classes[j]
        raw_cond[i] = row

    order = _topological_order(k, raw_cond)
    rank = [0] * k
    for new_i, old_i in enumerate(order):
        rank[old_i] = new_i
    classes = tuple(raw_classes[old_i] for old_i in order)
    rank_bits = [1 << r for r in rank]
    cond_rows = tuple(image(raw_cond[old_i], rank_bits) for old_i in order)
    class_of = tuple(rank[idx_of[x]] for x in range(n))
    return Contraction(classes, class_of, Relation(k, cond_rows))


def _topological_order(k: int, rows: list[Mask]) -> list[int]:
    """Kahn's algorithm with the least-indexed ready class next.

    A class becomes ready once every class dominating it is placed, and the
    next class is the lowest bit of the ready mask, for deterministic
    output.  Undominated classes need not come first: edges {0->1} beside
    an isolated 2 give the order [0, 1, 2].
    """
    cols = Relation(k, tuple(rows)).columns()
    placed = 0
    ready = sum(1 << i for i in range(k) if not cols[i])
    out: list[int] = []
    while ready:
        low = ready & -ready
        i = low.bit_length() - 1
        out.append(i)
        placed |= low
        ready ^= low
        for j in iter_bits(rows[i]):
            if not cols[j] & ~placed:
                ready |= 1 << j
    if len(out) != k:
        raise AssertionError("condensation relation is cyclic")
    return out


def maximal_components(c: Contraction) -> Mask:
    """Class indices with no incoming condensation edge; never empty.  The
    condensation is acyclic, so these are its weakly maximal classes."""
    return maximal_set(full_mask(c.k), c.cond)


def extended_dominance(p: DecisionProblem) -> Relation:
    """Component-mediated strict dominance between alternatives.

    Equipotent pairs are excluded, which is what makes the relation acyclic.
    """
    c = equipotence_classes(p)
    class_rows = [image(row, c.classes) for row in c.cond.rows]
    return Relation(p.n, tuple(class_rows[i] for i in c.class_of))


def condensation_stable_set(c: Contraction) -> Mask:
    """The unique stable set of the acyclic condensation, as class indices;
    every condensation edge points forward, so index order is topological."""
    return acyclic_stable_set(c.cond, range(c.k))
