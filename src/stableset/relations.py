"""Finite binary-relation algebra: construction, closure, maximal sets, cycles.

Relations are stored densely as one int bitmask per source index
(``rows[x]`` has bit ``y`` set iff ``x`` relates to ``y``), so closure
reduces to row-parallel integer arithmetic.

Derived data is computed once: a relation memoises its columns, and a
decision problem memoises its strict part, the strict part's strong
components and its transitive closure.  The components come from a linear
Kosaraju pass over the bit rows, not from the closure, which is derived only
for the callers that need full reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import and_, or_
from typing import Iterable, Iterator

from .bitset import Mask, diagonal, full_mask, iter_bits, reach, transpose
from .errors import EmptyGround


@dataclass(frozen=True)
class Relation:
    """A binary relation on {0..n-1}."""

    n: int
    rows: tuple[Mask, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        if self.rows and (min(self.rows) < 0
                          or max(self.rows).bit_length() > self.n):
            raise ValueError("row refers to an index >= n")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        """Raises ValueError unless every end is an int in range(n)."""
        rows = [0] * n
        try:
            for x, y in pairs:
                if not (type(x) is int and type(y) is int
                        and 0 <= x < n and 0 <= y < n):
                    raise ValueError
                rows[x] |= 1 << y
        except (TypeError, ValueError):  # TypeError: a pair not unpacked
            raise ValueError(f"pair ends must be ints in range({n})") from None
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return _with_columns(n, (0,) * n, (0,) * n)

    def has(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            for y in iter_bits(self.rows[x]):
                yield x, y

    def columns(self) -> tuple[Mask, ...]:
        """cols[y] has bit x set iff x relates to y; computed once."""
        cols = self.__dict__.get("_columns")
        if cols is None:
            cols = transpose(self.rows, self.n)
            object.__setattr__(self, "_columns", cols)
        return cols

    def is_irreflexive(self) -> bool:
        return not any(map(and_, self.rows, diagonal(self.n)))


@dataclass(frozen=True)
class DecisionProblem:
    """A finite ground set with an irreflexive dominance relation."""

    rel: Relation
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.rel.n < 1:
            raise ValueError("a decision problem needs at least one alternative")
        if not self.rel.is_irreflexive():
            raise ValueError("dominance relation must be irreflexive")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(map(str, range(self.rel.n))))
        elif len(self.labels) != self.rel.n:
            raise ValueError("label count must equal n")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Iterable[str] | None = None) -> "DecisionProblem":
        """Edges are pairs of ints in range(n); raises ValueError otherwise."""
        return cls(Relation.from_pairs(n, edges),
                   tuple(labels) if labels else ())

    @property
    def n(self) -> int:
        return self.rel.n

    @property
    def all_mask(self) -> Mask:
        return full_mask(self.rel.n)

    @cached_property
    def strict(self) -> Relation:
        """The strict part of the dominance relation, derived once."""
        return asymmetric_part(self.rel)

    @cached_property
    def components(self) -> tuple[Mask, ...]:
        """Strong components of the strict part, in topological order."""
        return strong_components(self.strict)

    @cached_property
    def closure(self) -> Relation:
        """Transitive closure of the strict part, derived once."""
        return transitive_closure(self.strict)


def _with_columns(n: int, rows: tuple[Mask, ...],
                  cols: tuple[Mask, ...]) -> Relation:
    """A relation whose columns the caller already knows."""
    r = Relation(n, rows)
    object.__setattr__(r, "_columns", cols)
    return r


def asymmetric_part(r: Relation) -> Relation:
    """Strict part: keep (x,y) only when (y,x) is absent.

    Column y of the strict part is cols[y] & ~rows[y], so it needs no second
    transpose.
    """
    cols = r.columns()
    return _with_columns(r.n,
                         tuple(row & ~col for row, col in zip(r.rows, cols)),
                         tuple(col & ~row for row, col in zip(r.rows, cols)))


def transitive_closure(r: Relation) -> Relation:
    """Reachability by chains of length >= 1 (loops appear exactly on cycles)."""
    rows = list(r.rows)
    for k in range(r.n):
        bit = 1 << k
        via = rows[k]
        if not via:  # a pivot with no successors adds nothing to any row
            continue
        for x in range(r.n):
            if rows[x] & bit:
                rows[x] |= via
        # rows[k] may have grown while k was the pivot; re-propagate is not
        # needed: Warshall's invariant covers intermediate nodes <= k.
    return Relation(r.n, tuple(rows))


def strong_components(r: Relation) -> tuple[Mask, ...]:
    """Strong components of r (mutual reachability), in topological order:
    each comes before every component it reaches.

    Kosaraju's two passes over bit rows: a depth-first pass along the rows
    records finishing order, then a breadth-first pass along the columns, in
    reverse finishing order, collects each component, in that order (Sharir
    1981).  Each pass takes O(n) steps of a few big-int operations each.
    """
    rows = r.rows
    unvisited = full_mask(r.n)
    finished: list[int] = []
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        while stack:
            nxt = rows[stack[-1]] & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())
    cols = r.columns()
    unassigned = full_mask(r.n)
    comps: list[Mask] = []
    for x in reversed(finished):
        if unassigned >> x & 1:
            comp = reach(1 << x, cols, unassigned)
            unassigned ^= comp
            comps.append(comp)
    return tuple(comps)


def maximal_set(xs: Mask, r: Relation) -> Mask:
    """Weakly maximal members of xs: every dominator inside xs is dominated back."""
    if xs == 0:
        raise EmptyGround("maximal_set needs a non-empty carrier")
    cols = r.columns()
    rows = r.rows
    out = 0
    for x in iter_bits(xs):
        if not cols[x] & xs & ~rows[x]:
            out |= 1 << x
    return out


def acyclic_stable_set(r: Relation, order: Iterable[int]) -> Mask:
    """The unique stable set of an acyclic relation, from its nodes in a
    topological order: take each node that no node taken before it
    dominates.  All its dominators are decided by then."""
    chosen = covered = 0
    for x in order:
        if not covered >> x & 1:
            chosen |= 1 << x
            covered |= r.rows[x]
    return chosen


def is_acyclic(r: Relation) -> bool:
    """No loops and no cycles: every strong component is a single node."""
    return r.is_irreflexive() and len(strong_components(r)) == r.n


def trap_relation(p: DecisionProblem) -> Relation:
    """x traps y: strict domination that y cannot answer through the closure.

    For a strict edge x -> y, y reaches x back exactly when both lie in one
    strong component, so the trap relation drops within-component edges.
    """
    strict = p.strict
    rows = list(strict.rows)
    cols = list(strict.columns())
    for comp in p.components:
        for x in iter_bits(comp):
            rows[x] &= ~comp
            cols[x] &= ~comp
    return _with_columns(p.n, tuple(rows), tuple(cols))


def strict_poset_order(p: DecisionProblem) -> Relation:
    """Partial order induced by the strict closure: its strict part plus the
    diagonal.  The strict part comes with its columns, so the order keeps
    them and is never transposed again.  `order_topology.Poset` checks the
    axioms when it wraps it."""
    strict = asymmetric_part(p.closure)
    bits = diagonal(p.n)
    return _with_columns(p.n, tuple(map(or_, strict.rows, bits)),
                         tuple(map(or_, strict.columns(), bits)))
