"""Shared test support: the small named instances, the reference stability
checker, and the seeded corpora for property and acceptance tests."""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from stableset.bitset import full_mask, image, iter_bits
from stableset.oracle import random_problem
from stableset.relations import DecisionProblem, Relation, maximal_set
from stableset.solutions import FamilyForm

THREE_CYCLE = DecisionProblem.from_edges(3, [(0, 1), (1, 2), (2, 0)])
CHAIN = DecisionProblem.from_edges(3, [(0, 1), (1, 2), (0, 2)])
CYCLE_WITH_TAIL = DecisionProblem.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
FOUR_CYCLE = DecisionProblem.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
SYMMETRIC_PAIR = DecisionProblem.from_edges(2, [(0, 1), (1, 0)])
FIVE_CYCLE = DecisionProblem.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                            (4, 0)])

DENSITIES = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class StabilityReport:
    internal_ok: bool
    external_ok: bool
    witness: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.internal_ok and self.external_ok


def is_stable_set(v, q):
    """Internal/external stability of the set v under dominance q, member by
    member: the reference the families and `condensation_stable_set` are
    checked against.

    Internal stability quantifies over distinct pairs only, so closure loops
    never disqualify singletons.  On a non-empty ground set the empty set
    fails external stability.
    """
    cols = q.columns()
    outside = ((1 << q.n) - 1) & ~v
    undominated = next((y for y in iter_bits(outside) if not cols[y] & v),
                       None)
    external_ok = undominated is None
    for x in iter_bits(v):
        bad = q.rows[x] & v & ~(1 << x)
        if bad:
            y = bad.bit_length() - 1
            return StabilityReport(False, external_ok, (x, y))
    if not external_ok:
        return StabilityReport(True, False, (undominated,))
    return StabilityReport(True, True)


def assert_same_text(actual, expected):
    """``assert actual == expected`` for long texts.  A mismatch reports
    the first offset where they differ and 200 characters of each around
    it, where pytest would diff the whole texts, which takes minutes on a
    few megabytes."""
    if actual == expected:
        return
    same, stop = 0, min(len(actual), len(expected))
    while same < stop:  # the longest common prefix, by halving
        mid = (same + stop + 1) // 2
        if actual[:mid] == expected[:mid]:
            same = mid
        else:
            stop = mid - 1
    start = max(0, same - 100)
    raise AssertionError(
        f"texts differ at offset {same} (lengths {len(actual)} and "
        f"{len(expected)})\n  actual:   {actual[start:start + 200]!r}\n"
        f"  expected: {expected[start:start + 200]!r}")


def corpus_digraphs(count=1002, max_n=10):
    """Deterministic mixed-density random digraphs, n cycling 1..max_n."""
    out = []
    for seed in range(count):
        n = 1 + seed % max_n
        density = DENSITIES[seed % len(DENSITIES)]
        out.append(random_problem(n, density, seed))
    return out


def corpus_tournaments(count=201, max_n=9):
    out = []
    for seed in range(count):
        n = 1 + seed % max_n
        out.append(random_problem(n, 1.0, seed, tournament=True))
    return out


@functools.lru_cache(maxsize=None)
def kernel_corpus():
    """Both corpora above plus seeded n = 50 and n = 200 instances: sparse
    (mean out-degree 1 and 4), dense (density 0.5) and tournaments."""
    out = corpus_digraphs() + corpus_tournaments()
    for n in (50, 200):
        for seed in range(2):
            out.append(random_problem(n, 1 / (n - 1), seed))
            out.append(random_problem(n, 4 / (n - 1), seed))
            out.append(random_problem(n, 0.5, seed))
            out.append(random_problem(n, 0.5, seed, tournament=True))
    return tuple(out)


def long_acyclic_problems():
    """The worst cases of a layer-by-layer stable set: the 2,000-chain, a
    directed path with n / 2 layers, and the complete bipartite
    1,000 x 1,000 order, whose 10^6 edges all join two singleton classes."""
    chain = DecisionProblem.from_edges(2000, [(x, x + 1) for x in range(1999)])
    tops = full_mask(2000) >> 1000 << 1000
    bipartite = DecisionProblem(Relation(2000, (tops,) * 1000 + (0,) * 1000))
    return chain, bipartite


def layered_stable_set(r):
    """The unique stable set of an acyclic relation, layer by layer: keep
    the undominated members, drop everything they dominate, repeat on the
    remainder.  r is acyclic, so a layer is the remainder's `maximal_set`.
    The reference the one-pass `relations.acyclic_stable_set` is checked
    against."""
    remaining = full_mask(r.n)
    chosen = 0
    while remaining:
        layer = maximal_set(remaining, r)
        chosen |= layer
        remaining &= ~(layer | image(layer, r.rows))
    return chosen


def kahn_contraction(p):
    """Classes, class_of and condensation rows in three passes: the
    condensation of the components in order of least member, one step per
    class edge; Kahn's sort with the least-indexed ready class next; and a
    renumbering of classes and rows in that order.  The reference the
    one-walk `contraction.equipotence_classes` is checked against."""
    raw_classes = sorted(p.components, key=lambda comp: comp & -comp)
    idx_of = [0] * p.n
    for i, cls in enumerate(raw_classes):
        for x in iter_bits(cls):
            idx_of[x] = i
    k = len(raw_classes)
    raw_cond = [0] * k
    for i, cls in enumerate(raw_classes):
        out = image(cls, p.strict.rows) & ~cls
        while out:
            j = idx_of[(out & -out).bit_length() - 1]
            raw_cond[i] |= 1 << j
            out &= ~raw_classes[j]
    order = least_ready_order(k, raw_cond)
    rank = [0] * k
    for new_i, old_i in enumerate(order):
        rank[old_i] = new_i
    rank_bits = [1 << r for r in rank]
    return (tuple(raw_classes[old_i] for old_i in order),
            tuple(rank[idx_of[x]] for x in range(p.n)),
            tuple(image(raw_cond[old_i], rank_bits) for old_i in order))


def least_ready_order(k, rows):
    """Kahn's algorithm on the class relation `rows`: a class becomes ready
    once every class dominating it is placed, and the lowest bit of the
    ready mask is placed next."""
    cols = Relation(k, tuple(rows)).columns()
    placed = 0
    ready = sum(1 << i for i in range(k) if not cols[i])
    out = []
    while ready:
        low = ready & -ready
        i = low.bit_length() - 1
        out.append(i)
        placed |= low
        ready ^= low
        for j in iter_bits(rows[i]):
            if not cols[j] & ~placed:
                ready |= 1 << j
    assert len(out) == k, "condensation relation is cyclic"
    return out


def maximal_classes(c):
    """Indices of the contraction's classes with no incoming condensation
    edge; the condensation is acyclic, so these are its weakly maximal
    classes, and there is at least one."""
    return maximal_set(full_mask(c.k), c.cond)


def reference_order(family):
    """A family's members in order, from the whole product of its pools:
    ascending for the forms that may skip a component, product order (last
    component fastest) for ONE_PER_COMPONENT."""
    if family.form is FamilyForm.EXPLICIT:
        return sorted(family.explicit)
    if family.form is FamilyForm.UNIONS_OF_COMPONENTS:
        pools = [(0, comp) for comp in family.components]
    else:
        head = () if family.form is FamilyForm.ONE_PER_COMPONENT else (0,)
        pools = [head + tuple(1 << x for x in iter_bits(comp))
                 for comp in family.components]
    picks = filter(None, map(sum, itertools.product(*pools)))
    if family.form is FamilyForm.ONE_PER_COMPONENT:
        return list(picks)
    return sorted(picks)


@functools.lru_cache(maxsize=None)
def product_partitions(count=1000, max_n=22, limit=200_000, seed=2026):
    """Seeded (n, components) pairs: a random subset of range(n), n <= 22,
    cut into disjoint components, kept when the unions and the
    representatives families both have at most `limit` members.  Many
    components straddle bit 8, some bit 16, and some partitions leave a
    whole byte untouched between two they touch."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        skipped = rng.choice((None, 1))  # byte 1 is bits 8 to 15
        used = [x for x in range(n)
                if x // 8 != skipped and rng.random() < 0.7]
        if not used:
            continue
        comps = [0] * rng.randint(1, len(used))
        for x in used:
            comps[rng.randrange(len(comps))] |= 1 << x
        comps = tuple(comp for comp in comps if comp)
        reps = math.prod(comp.bit_count() + 1 for comp in comps) - 1
        if max(reps, 2 ** len(comps) - 1) <= limit:
            out.append((n, comps))
    return tuple(out)
