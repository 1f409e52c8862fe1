"""Strong components of the strict part, their condensation, built in one
least-ready walk over the components, and the component-mediated dominance
relation built on top of them."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import Mask, image, iter_bits
from .relations import DecisionProblem, Relation, acyclic_stable_set


@dataclass(frozen=True)
class Contraction:
    """Partition into strong components plus the induced acyclic relation.

    ``classes`` is ordered topologically for ``cond``: each component comes
    after every component dominating it, and of the ready components the one
    with the least member comes next (Kahn 1962).  That makes the output
    deterministic and every condensation edge ``(i, j)`` point forward,
    ``i < j``.  Undominated components need not come first: edges {0->1}
    beside an isolated 2 give the order [0, 1, 2].
    """

    classes: tuple[Mask, ...]
    class_of: tuple[int, ...]
    cond: Relation

    @property
    def k(self) -> int:
        return len(self.classes)


def equipotence_classes(p: DecisionProblem) -> Contraction:
    """Group alternatives that reach each other along the strict part.

    Symmetric R-edges vanish in the strict part, so they never merge classes.
    Each component is keyed by its least member.  ``p.components`` lists
    every component after all its dominators, so a component has an outside
    dominator iff it meets the out-edges of the components before it; only
    then are its dominators read off the strict columns.  ``ready`` holds
    the least members of the components whose dominators are all placed,
    so its lowest bit names the next class.  Placing a component writes its
    bit into the row of each dominator class, all already placed, and tests
    each target component once, since a hit drops the whole target.
    """
    rows, cols = p.strict.rows, p.strict.columns()
    lead = [0] * p.n      # the least member of each alternative's component
    comp_at = [0] * p.n   # a component, at its least member
    doms = [0] * p.n      # its outside dominators, at its least member
    outs = [0] * p.n      # its outside targets, at its least member
    hit = 0               # the outside targets of the components so far
    ready = 0
    for comp in p.components:
        low = comp & -comp
        x = low.bit_length() - 1
        for y in iter_bits(comp):
            lead[y] = x
        comp_at[x] = comp
        if comp & hit:
            doms[x] = image(comp, cols) & ~comp
        else:
            ready |= low
        outs[x] = image(comp, rows) & ~comp
        hit |= outs[x]

    classes: list[Mask] = []
    cond_rows: list[Mask] = []
    position = [0] * p.n  # a component's class index, at its least member
    unplaced = p.all_mask
    while ready:
        low = ready & -ready
        ready ^= low
        x = low.bit_length() - 1
        comp, d = comp_at[x], doms[x]
        bit = 1 << len(classes)
        while d:
            i = position[lead[(d & -d).bit_length() - 1]]
            cond_rows[i] |= bit
            d ^= d & classes[i]
        position[x] = len(classes)
        classes.append(comp)
        cond_rows.append(0)
        unplaced ^= comp
        targets = outs[x]
        while targets:
            t = lead[(targets & -targets).bit_length() - 1]
            targets ^= targets & comp_at[t]
            if not doms[t] & unplaced:
                ready |= 1 << t
    if len(classes) != len(p.components):
        raise AssertionError("condensation relation is cyclic")
    return Contraction(tuple(classes), tuple(position[x] for x in lead),
                       Relation(len(classes), tuple(cond_rows)))


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
