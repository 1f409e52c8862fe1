"""Solution concepts over abstract decision problems.

Every concept with a product-form characterization is built from the
strong components: generalized, m- and w-stable sets from the undominated
ones, extended stable sets from the condensation.  VNM stable sets on
cyclic inputs and socially stable sets have none; they are found by one
branch-and-prune search (`_stable_search`) under the subset-search ceiling.
A node whose chosen alternatives dominate every undecided one, no two of
those in conflict, ends it with all its completions at once.
The closure-of-restriction reading adds a node test, and keeps the
completions whose strict edges all lie on cycles (`_closed_completions`):
one closed with a single weak component is carried to the next, closed
iff the added alternative has an edge into it; any other gets a verdict
from degree balance and, at six or more members, a walk.  Both tests read
set images from tables (`_cycle_tests`); the other routes build none.
The brute-force routes live in `stableset.oracle`, which imports this
module; this module never imports the oracle.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .bitset import Mask, image, image_table, iter_bits, subsets
from .contraction import condensation_stable_set, equipotence_classes
from .errors import check_size
from .relations import (DecisionProblem, Relation, acyclic_stable_set,
                        maximal_set, trap_relation)

# Largest n for the VNM and socially stable searches (exponential in the
# worst case) and for the oracle's 2^n definitional checks.  The
# closure-of-restriction search's image tables hold 2 * 2^ceil(n/2) entries
# per relation, so lifting this ceiling means splitting them further.
SUBSET_LIMIT = 12
# Largest n for the pair enumeration, which scans subsets of subsets.
PAIR_LIMIT = 8


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
    """A possibly-exponential family of subsets, explicit or product-form.

    A product-form member picks one part from each component's pool (see
    `_pools`); the components are disjoint, so the member is the sum of its
    parts, and the empty pick is not a member.
    """

    form: FamilyForm
    components: tuple[Mask, ...] = ()
    explicit: tuple[Mask, ...] = ()

    def _pools(self) -> list[tuple[Mask, ...]]:
        """The parts each component may contribute to a member."""
        return [_pool(self.form, comp) for comp in self.components]

    def count(self) -> int:
        if self.form is FamilyForm.EXPLICIT:
            return len(self.explicit)
        pools = self._pools()
        size = math.prod(map(len, pools))
        return size - 1 if all(0 in pool for pool in pools) else size

    def contains(self, v: Mask) -> bool:
        if self.form is FamilyForm.EXPLICIT:
            return v in self.explicit
        parts = [v & comp for comp in self.components]
        return (v != 0 and sum(parts) == v
                and all(part in pool
                        for part, pool in zip(parts, self._pools())))

    def __iter__(self) -> Iterator[Mask]:
        """The members in the order `blocks` gives them, built lazily.

        Explicit families and the forms that may skip a component come out
        in ascending bitmask order.  ``ONE_PER_COMPONENT`` streams the
        product in component order, the last component varying fastest:
        components ({1,2},{0,3}) give {0,1}, {1,3}, {0,2}, {2,3}.
        """
        for high, lows in self.blocks():
            yield from map(high.__or__, lows)

    def blocks(self) -> Iterator[tuple[Mask, tuple[int, ...]]]:
        """The members in runs that share all but their low byte.

        Yields ``(high, lows)``: ``high`` has a zero low byte, ``lows`` is
        an ascending tuple of low bytes, and the members are ``high | low``
        for each low in turn.  The ascending forms never hold the whole
        family: an in/out walk decides the bits above the low byte from
        the top down, one block per high part (see `_ascending_blocks`).
        """
        if self.form is FamilyForm.EXPLICIT:
            return _runs(sorted(self.explicit))
        if self.form is FamilyForm.ONE_PER_COMPONENT:
            return _runs(filter(None, map(
                sum, itertools.product(*self._pools()))))
        runs = _ascending_blocks(self.form, self.components)
        high, lows = next(runs)  # the empty pick comes first; drop it
        return itertools.chain(((high, lows[1:]),) if len(lows) > 1 else (),
                               runs)


def _runs(masks: Iterable[Mask]) -> Iterator[tuple[Mask, tuple[int, ...]]]:
    """Cut masks, in their order, into runs of one high part and ascending
    low bytes."""
    high, lows = -1, []
    for mask in masks:
        low = mask & 255
        if mask ^ low != high or low <= lows[-1]:
            if lows:
                yield high, tuple(lows)
            high, lows = mask ^ low, []
        lows.append(low)
    if lows:
        yield high, tuple(lows)


def _ascending_blocks(form: FamilyForm, components: tuple[Mask, ...]
                      ) -> Iterator[tuple[Mask, tuple[int, ...]]]:
    """`SolutionFamily.blocks` of an ascending form over `components`, the
    empty member included: it comes first, in the block ``(0, (0, ...))``.

    An in/out walk on an explicit stack that branches on the highest
    undecided alternative.  Members without it are smaller than members
    with it, so the out-branch runs first.  Taking it decides its whole
    component: a union takes the component whole, and a representative is
    its component's only one.  Once nothing undecided lies above the low
    byte, the high part is fixed, and the block's low bytes come from one
    table per pair of undecided and already taken low bits.
    """
    unions = form is FamilyForm.UNIONS_OF_COMPONENTS
    component_of = {x: comp for comp in components for x in iter_bits(comp)}
    low_parts = [comp & 255 for comp in components if comp & 255]
    tables: dict[tuple[Mask, Mask], tuple[int, ...]] = {}
    # (undecided alternatives, high part so far, low byte so far)
    stack = [(sum(components), 0, 0)]
    while stack:
        undecided, high, low = stack.pop()
        if undecided >> 8:
            top = undecided.bit_length() - 1
            comp = component_of[top]
            taken = comp if unions else 1 << top
            stack.append((undecided & ~comp, high | taken & ~255,
                          low | taken & 255))
            stack.append((undecided & ~taken, high, low))
            continue
        lows = tables.get((undecided, low))
        if lows is None:
            pools = [_pool(form, part & undecided)
                     for part in low_parts if part & undecided]
            rests = sorted(map(sum, itertools.product(*pools)))
            lows = tables[undecided, low] = tuple(low | r for r in rests)
        yield high, lows


def _pool(form: FamilyForm, comp: Mask) -> tuple[Mask, ...]:
    """The parts one component may contribute to a member."""
    if form is FamilyForm.UNIONS_OF_COMPONENTS:
        return (0, comp)
    picks = tuple(1 << x for x in iter_bits(comp))
    return picks if form is FamilyForm.ONE_PER_COMPONENT else (0,) + picks


def core(p: DecisionProblem) -> Mask:
    """Weakly maximal alternatives under strict dominance; may be empty."""
    return maximal_set(p.all_mask, p.strict)


def schwartz_set(p: DecisionProblem,
                 method: SchwartzMethod = SchwartzMethod.CONDENSATION) -> Mask:
    """Union of the undominated strong components, or (DEB) the maximal set
    of the strict closure; `oracle.gocha_bruteforce` is the third route."""
    if method is SchwartzMethod.DEB:
        return maximal_set(p.all_mask, p.closure)
    return sum(_maximal_classes(p))


def duggan_set(p: DecisionProblem) -> Mask:
    return maximal_set(p.all_mask, trap_relation(p))


def vnm_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """All stable sets under one-step strict dominance.

    Acyclic strict parts (every strong component a single alternative) get
    their unique stable set in one pass over the components, which come in
    topological order; anything else is a search for the strict kernels.
    """
    if len(p.components) == p.n:
        order = (comp.bit_length() - 1 for comp in p.components)
        return SolutionFamily(FamilyForm.EXPLICIT,
                              explicit=(acyclic_stable_set(p.strict, order),))
    check_size(p.n, SUBSET_LIMIT, "subset-search")
    return _stable_search(p, p.strict, p.all_mask)


def _maximal_classes(p: DecisionProblem) -> tuple[Mask, ...]:
    """The undominated strong components (no outsider strictly dominates
    them) by least member, their order in the contraction, whose least-ready
    walk places the components ready from the start by least member."""
    cols = p.strict.columns()
    tops = [comp for comp in p.components if image(comp, cols) & ~comp == 0]
    return tuple(sorted(tops, key=lambda comp: comp & -comp))


def generalized_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """One representative from each undominated component."""
    return SolutionFamily(FamilyForm.ONE_PER_COMPONENT,
                          components=_maximal_classes(p))


def socially_stable_sets(p: DecisionProblem,
                         interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE
                         ) -> SolutionFamily:
    """Sets that strictly dominate every outsider and relate their own
    members only both ways: under the closure restricted to v, or under
    the closure of the strict digraph on v.

    Restrict-closure members avoid one-way closure pairs and lie in the
    Schwartz set (each undominated component meets v, and nothing it
    reaches reaches back), so only that set is searched.  Nothing in it
    conflicts: a path between two undominated components would enter one
    from outside, so there x reaching y means y reaches x.  Closure of
    restriction has no such confinement; its members avoid the trap
    relation, whose edges join strong components and so lie on no cycle.
    """
    check_size(p.n, SUBSET_LIMIT, "subset-search")
    if interp is SociallyInterp.RESTRICT_CLOSURE:
        return _stable_search(p, Relation.empty(p.n), schwartz_set(p))
    return _stable_search(p, trap_relation(p), p.all_mask, cyclic=True)


def _stable_search(p: DecisionProblem, conflict: Relation, free: Mask,
                   cyclic: bool = False) -> SolutionFamily:
    """Every non-empty v inside `free` that no `conflict` edge joins and
    that strictly dominates each alternative outside it, in ascending
    order; with `cyclic`, every strict edge inside v also lies on a cycle
    inside v.

    In/out branching: putting x in excludes everything adjacent to x in
    `conflict`, and a branch dies once an excluded alternative has no
    dominator left among the chosen and undecided ones.  Each step branches
    on a dominator of the excluded, undominated alternative with the
    fewest dominators left; with none pending, on an undecided alternative
    the chosen ones do not dominate.  A node where the chosen ones dominate
    every undecided alternative ends the search: each union of the chosen
    ones with a subset of the undecided ones is a member (with `cyclic`,
    if `_closed_completions` keeps it), and all of them are built at once
    by doubling.  No conflict edge joins two undecided ones there but
    under `cyclic`, where it is a trap edge, on no cycle, so `settle`
    refuses every completion that holds it.  VNM reaches that node with
    nothing undecided, since a dominated alternative conflicts with its
    dominator, and restrict-closure has no conflict edges.
    """
    full, rows, cols = p.all_mask, p.strict.rows, p.strict.columns()
    adjacent = tuple(row | col
                     for row, col in zip(conflict.rows, conflict.columns()))
    if cyclic:
        degrees_ok, settle = _cycle_tests(rows, cols)
        closed_completions = _closed_completions(rows, settle)
    found = []
    # (chosen, undecided, everything the chosen dominate)
    stack = [(0, free, 0)]
    while stack:
        chosen, undecided, covered = stack.pop()
        pending = full & ~(chosen | undecided | covered)
        pick, fewest = 0, len(rows) + 1
        while pending:
            low = pending & -pending
            pending ^= low
            cands = cols[low.bit_length() - 1] & undecided
            size = cands.bit_count()
            if size < fewest:
                pick, fewest = cands, size
                if size <= 1:
                    break
        if fewest == 0:
            continue
        if cyclic and not degrees_ok(chosen, covered, chosen | undecided):
            continue
        if not pick:
            pick, fewest = undecided & ~covered, 2
        if not pick:
            if cyclic:
                found += closed_completions(chosen, undecided)
                continue
            completions = [chosen]
            while undecided:
                bit = undecided & -undecided
                undecided ^= bit
                completions += [v | bit for v in completions]
            found += completions
            continue
        bit = pick & -pick
        x = bit.bit_length() - 1
        if fewest > 1:  # a sole dominator gets no out-branch
            stack.append((chosen, undecided ^ bit, covered))
        stack.append((chosen | bit, undecided & ~adjacent[x] & ~bit,
                      covered | rows[x]))
    found.sort()
    return SolutionFamily(FamilyForm.EXPLICIT, explicit=tuple(found))


def _closed_completions(rows: tuple[Mask, ...], settle: Callable[[Mask], int]
                        ) -> Callable[[Mask, Mask], list[Mask]]:
    """The closure-of-restriction exit: given a dominating node's chosen
    and undecided alternatives, its completions in which every strict edge
    lies on a cycle.

    Doubling adds the undecided alternatives one at a time, so each
    completion is ``v | u`` for a completion v without u, and u has an
    edge in from the chosen ones.  Each is held with its `settle` flag.
    One closed with one weak component is carried forward, ``v | u``
    being too iff u has an edge into v; any other is settled afresh.
    """
    full = (1 << len(rows)) - 1
    _, several, one = _verdicts(len(rows))

    def completions(chosen: Mask, undecided: Mask) -> list[Mask]:
        items = [settle(chosen)]
        for x in iter_bits(undecided):
            bit, out = 1 << x, rows[x]
            items += [item | bit if item >= one and out & item
                      else settle((item | bit) & full) for item in items]
        return [item & full for item in items if item >= several]

    return completions


def _verdicts(n: int) -> tuple[int, int, int]:
    """`settle`'s flags over n bits; ``item >= flag`` reads it or any above."""
    return 1 << n, 2 << n, 4 << n


def _cycle_tests(rows: tuple[Mask, ...], cols: tuple[Mask, ...]
                 ) -> tuple[Callable[[Mask, Mask, Mask], bool],
                            Callable[[Mask], int]]:
    """The closure-of-restriction search's node test and leaf verdict,
    with every set image read from tables.

    ``succ(m)``, the union of `rows` over m, is one lookup in a table for
    the low ``h = ceil(n / 2)`` alternatives joined with one for the rest
    (see `bitset.image_table`); ``pred(m)`` is the same over `cols`.  Each
    relation's two tables hold at most 2 * 2^h entries.
    """
    h = (len(rows) + 1) // 2
    low = (1 << h) - 1
    succ_lo, succ_hi = image_table(rows[:h]), image_table(rows[h:])
    pred_lo, pred_hi = image_table(cols[:h]), image_table(cols[h:])
    failed, several, one = _verdicts(len(rows))

    def degrees_ok(chosen: Mask, covered: Mask, live: Mask) -> bool:
        """A chosen alternative with an edge in from the chosen ones (it
        lies in `covered`, their successors) needs one out to a live one
        (chosen or undecided), and the reverse."""
        return not chosen & (
            covered & ~(pred_lo[live & low] | pred_hi[live >> h])
            | (pred_lo[chosen & low] | pred_hi[chosen >> h])
            & ~(succ_lo[live & low] | succ_hi[live >> h]))

    def settle(v: Mask) -> int:
        """v with its flag: failed, or closed (every edge inside v on a
        cycle inside v) with several weak components or one.

        Unbalanced degrees, ``v & (succ(v) ^ pred(v))``, fail.  A balanced
        set that fails has a source and a sink strong component of three
        or more members each (the strict part is asymmetric), so one of
        under six members is closed, its edges in one component and each
        isolated member in its own.  A larger one is walked: inside v,
        each weak component's least member must reach what reaches it.
        """
        succ = succ_lo[v & low] | succ_hi[v >> h]
        pred = pred_lo[v & low] | pred_hi[v >> h]
        if v & (succ ^ pred):
            return v | failed
        rest, count = v, 0
        if v.bit_count() < 6:
            lone = v & ~(succ | pred)
            rest, count = 0, lone.bit_count() + (v != lone)
        while rest:
            start = rest & -rest
            ahead = frontier = start
            while frontier:
                frontier = ((succ_lo[frontier & low] | succ_hi[frontier >> h])
                            & v & ~ahead)
                ahead |= frontier
            behind = frontier = start
            while frontier:
                frontier = ((pred_lo[frontier & low] | pred_hi[frontier >> h])
                            & v & ~behind)
                behind |= frontier
            if behind != ahead:
                return v | failed
            count += 1
            rest &= ~ahead
        return v | (one if count < 2 else several)

    return degrees_ok, settle


def m_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """Non-empty unions of whole undominated components."""
    return SolutionFamily(FamilyForm.UNIONS_OF_COMPONENTS,
                          components=_maximal_classes(p))


def w_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """At most one representative per undominated component, none elsewhere."""
    return SolutionFamily(FamilyForm.SUBSET_OF_REPRESENTATIVES,
                          components=_maximal_classes(p))


def extended_stable_sets(p: DecisionProblem) -> SolutionFamily:
    """One alternative per class of the condensation's unique stable set."""
    c = equipotence_classes(p)
    chosen = condensation_stable_set(c)
    comps = tuple(c.classes[i] for i in iter_bits(chosen))
    return SolutionFamily(FamilyForm.ONE_PER_COMPONENT, components=comps)


@dataclass(frozen=True)
class UndominatedPair:
    generator: Mask
    ground: Mask

    def below(self, other: "UndominatedPair") -> bool:
        """Product inclusion: generator x ground inside the other's product."""
        return (self.generator & ~other.generator == 0
                and self.ground & ~other.ground == 0)


def undominated_pairs(p: DecisionProblem) -> list[UndominatedPair]:
    """All minimal strictly-undominated pairs (generator, ground)."""
    check_size(p.n, PAIR_LIMIT, "pair-enumeration")
    strict_cols = p.strict.columns()
    closure_cols = p.closure.columns()
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


def top_pairgenerators(p: DecisionProblem) -> Mask:
    """Union of generators of minimal pairs whose two sets are strict cycles."""
    closure = p.closure

    def is_cycle(mask: Mask) -> bool:
        return all(closure.has(x, y)
                   for x in iter_bits(mask) for y in iter_bits(mask))

    out = 0
    for pair in undominated_pairs(p):
        if is_cycle(pair.generator) and is_cycle(pair.ground):
            out |= pair.generator
    return out


def solve(p: DecisionProblem, concept: Concept,
          interp: SociallyInterp = SociallyInterp.RESTRICT_CLOSURE
          ) -> SolutionFamily:
    """Dispatch a family-producing concept by tag."""
    if concept is Concept.VNM:
        return vnm_stable_sets(p)
    if concept is Concept.GENERALIZED:
        return generalized_stable_sets(p)
    if concept is Concept.SOCIALLY:
        return socially_stable_sets(p, interp=interp)
    if concept is Concept.M_STABLE:
        return m_stable_sets(p)
    if concept is Concept.W_STABLE:
        return w_stable_sets(p)
    return extended_stable_sets(p)
