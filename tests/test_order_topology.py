"""The order-topology lab against its definitions.

The library reads cuts and smallest open sets; the reference scans below
enumerate subsets and open sets by the definitions, and play the part that
`stableset.oracle` plays for the solution concepts.
"""

import random

import pytest

from conftest import CYCLE_WITH_TAIL
from stableset.bitset import from_members, full_mask, subsets
from stableset.errors import PosetViolation
from stableset.oracle import random_problem
from stableset.order_topology import (Poset, delta_closure, dm_completion,
                                      excluded_set_topology, frink_ideals,
                                      is_precontinuous, lower_bounds,
                                      nachbin_closed, upper_bounds,
                                      way_below_e, weak_t1_separation)
from stableset.relations import (Relation, asymmetric_part,
                                 strict_poset_order, transitive_closure)
from stableset.solutions import schwartz_set

CHAIN3 = Poset.from_pairs(3, [(0, 1), (1, 2)])
ANTI2 = Poset.from_pairs(2, [])
ANTI3 = Poset.from_pairs(3, [])
DIAMOND = Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def random_poset(seed, max_n=6):
    p = random_problem(1 + seed % max_n, (0.2, 0.5, 0.8)[seed % 3], seed)
    return Poset(strict_poset_order(p))


def indiscrete(n):
    return excluded_set_topology(n, full_mask(n))


# Reference scans, by the definitions.

def ref_is_poset(leq):
    """Reflexive, antisymmetric and transitive, checked pair by pair."""
    rows = leq.rows
    return (all(rows[x] >> x & 1 for x in range(leq.n))
            and all(x == y or not rows[y] >> x & 1 for x, y in leq.pairs())
            and all(rows[y] & ~rows[x] == 0 for x, y in leq.pairs()))


def ref_transitivity_violation(leq):
    """For a reflexive, antisymmetric leq: None when it equals its closure,
    else the message naming its first pair x <= y with rows[y] not inside
    rows[x]."""
    rows = leq.rows
    if transitive_closure(leq).rows == rows:
        return None
    x, y = next((x, y) for x, y in leq.pairs() if rows[y] & ~rows[x])
    return f"not transitive through ({x},{y})"


def ref_dm_completion(p):
    """The image of the delta-closure over all 2^n subsets."""
    return tuple(sorted({delta_closure(p, a) for a in subsets(p.all_mask)}))


def ref_frink_ideals(p):
    """Sets containing the delta-closure of each of their subsets: 3^n."""
    return [i for i in subsets(p.all_mask)
            if all(delta_closure(p, z) & ~i == 0 for z in subsets(i))]


def ref_way_below_e(p, ideals, x, y):
    return all(i >> x & 1 for i in ideals if delta_closure(p, i) >> y & 1)


def ref_is_precontinuous(p):
    ideals = ref_frink_ideals(p)
    for x in range(p.n):
        below = from_members(y for y in range(p.n)
                             if ref_way_below_e(p, ideals, y, x))
        if not delta_closure(p, below) >> x & 1:
            return False
    return True


def ref_opens(n, excluded):
    """The subsets disjoint from `excluded`, plus the full set."""
    return set(subsets(full_mask(n) & ~excluded)) | {full_mask(n)}


def ref_is_topology(n, opens):
    """Pairwise union/intersection closure (sufficient on finite spaces)."""
    return ({0, full_mask(n)} <= opens
            and all(u | v in opens and u & v in opens
                    for u in opens for v in opens))


def ref_weak_t1(opens, strict):
    """Each strictly dominated point x lies in an open set missing its
    dominator y."""
    return all(any(u >> x & 1 and not u >> y & 1 for u in opens)
               for y, x in strict.pairs())


def ref_nachbin(opens, order):
    """Each pair x, y with not x <= y has opens u around x and v around y
    such that v misses every point above a point of u."""
    for x in range(order.n):
        for y in range(order.n):
            if order.rows[x] >> y & 1:
                continue
            if not any(v >> y & 1 and not v & _above(order, u)
                       for u in opens if u >> x & 1 for v in opens):
                return False
    return True


def _above(order, u):
    out = 0
    for s in range(order.n):
        if u >> s & 1:
            out |= order.rows[s]
    return out


class TestPoset:
    def test_from_pairs_closes(self):
        assert CHAIN3.leq.has(0, 2)
        assert all(CHAIN3.leq.has(x, x) for x in range(3))

    def test_antisymmetry_enforced(self):
        with pytest.raises(PosetViolation):
            Poset.from_pairs(2, [(0, 1), (1, 0)])

    def test_validation_matches_the_axioms(self):
        # Raw relations with and without the diagonal, their closures, and
        # induced orders: posets and each kind of violation all occur.
        # Reflexive antisymmetric relations (the strict part plus the
        # diagonal, and induced orders less or plus one pair) are also
        # checked against the closure comparison, message and all.
        rng = random.Random(17)
        outcomes = set()
        transitive = []
        for seed in range(600):
            p = random_problem(1 + seed % 8, (0.1, 0.3, 0.6)[seed % 3], seed)
            diagonal = [1 << x for x in range(p.n)]
            reflexive = Relation(p.n, tuple(
                row | bit for row, bit in zip(p.rel.rows, diagonal)))
            closed = transitive_closure(reflexive)
            order = strict_poset_order(p)
            strict = asymmetric_part(p.rel)
            antisymmetric = [Relation(p.n, tuple(
                row | bit for row, bit in zip(strict.rows, diagonal)))]
            x, y = rng.randrange(p.n), rng.randrange(p.n)
            if x != y:
                rows = list(order.rows)
                if order.has(x, y):
                    rows[x] ^= 1 << y
                elif not order.has(y, x):
                    rows[x] |= 1 << y
                antisymmetric.append(Relation(p.n, tuple(rows)))
            for leq in [p.rel, reflexive, closed, order] + antisymmetric:
                try:
                    Poset(leq)
                    message = None
                except PosetViolation as exc:
                    message = str(exc)
                outcome = message.split(" ")[1] if message else "poset"
                assert (outcome == "poset") == ref_is_poset(leq), (seed, leq)
                outcomes.add(outcome)
                if leq in antisymmetric:
                    assert message == ref_transitivity_violation(leq), \
                        (seed, leq)
                    transitive.append(message is None)
        assert outcomes == {"poset", "reflexive", "antisymmetric",
                            "transitive"}
        assert 200 < sum(transitive) < len(transitive) - 200


class TestBounds:
    def test_chain(self):
        assert upper_bounds(CHAIN3, from_members([0, 1])) == from_members([1, 2])
        assert lower_bounds(CHAIN3, from_members([1, 2])) == from_members([0, 1])

    def test_antichain_no_common_bound(self):
        assert upper_bounds(ANTI2, from_members([0, 1])) == 0

    def test_empty_set_yields_everything(self):
        for p in (CHAIN3, ANTI2, DIAMOND):
            assert upper_bounds(p, 0) == p.all_mask
            assert lower_bounds(p, 0) == p.all_mask


class TestDeltaClosure:
    def test_examples(self):
        assert delta_closure(CHAIN3, from_members([0])) == from_members([0])
        assert delta_closure(ANTI2, from_members([0, 1])) == full_mask(2)
        assert delta_closure(DIAMOND, from_members([1, 2])) == full_mask(4)

    def test_closure_operator_laws(self):
        for seed in range(200):
            p = random_poset(seed)
            for a in subsets(p.all_mask):
                ca = delta_closure(p, a)
                assert a & ~ca == 0                      # extensive
                assert delta_closure(p, ca) == ca        # idempotent
            for seed2 in (seed + 1, seed + 2):
                a = seed2 % (p.all_mask + 1)
                b = a | (seed % (p.all_mask + 1))
                assert delta_closure(p, a) & ~delta_closure(p, b) == 0


class TestCompletion:
    def test_chain_cuts(self):
        assert dm_completion(CHAIN3).cuts == (0b001, 0b011, 0b111)

    def test_antichain_cuts(self):
        assert dm_completion(ANTI2).cuts == (0b00, 0b01, 0b10, 0b11)

    def test_singleton(self):
        assert dm_completion(Poset.from_pairs(1, [])).cuts == (0b1,)

    def test_complete_lattice_on_random(self):
        for seed in range(150):
            p = random_poset(seed)
            cuts = set(dm_completion(p).cuts)
            assert p.all_mask in cuts
            for a in cuts:
                for b in cuts:
                    assert a & b in cuts


class TestFrinkIdeals:
    def test_chain_downsets(self):
        # Bottom-bounded posets force the bottom into every ideal, so the
        # empty set does not qualify here.
        assert frink_ideals(CHAIN3) == [0b001, 0b011, 0b111]

    def test_antichain_excludes_unbounded_pairs(self):
        assert frink_ideals(ANTI3) == [0b000, 0b001, 0b010, 0b100, 0b111]

    def test_singleton(self):
        assert frink_ideals(Poset.from_pairs(1, [])) == [0b1]

    def test_every_ideal_is_a_down_set(self):
        for seed in range(100):
            p = random_poset(seed)
            cols = p.leq.columns()
            for i in frink_ideals(p):
                down = 0
                for x in range(p.n):
                    if i >> x & 1:
                        down |= cols[x]
                assert down & ~i == 0


class TestWayBelow:
    def test_chain_bottom_below_top(self):
        assert way_below_e(CHAIN3, 0, 2)

    def test_incomparable_direction_fails(self):
        assert not way_below_e(CHAIN3, 2, 0)
        assert not way_below_e(CHAIN3, 1, 0)

    def test_bottom_below_itself(self):
        assert way_below_e(CHAIN3, 0, 0)


class TestPrecontinuity:
    def test_named_shapes(self):
        assert is_precontinuous(Poset.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
        assert is_precontinuous(ANTI3)
        assert is_precontinuous(DIAMOND)

    def test_random_posets(self):
        for seed in range(150):
            p = random_poset(seed)
            assert is_precontinuous(p), f"counterexample poset seed={seed}"


class TestExcludedSetTopology:
    def test_examples(self):
        t = excluded_set_topology(3, from_members([0]))
        assert t.opens == frozenset({0b000, 0b010, 0b100, 0b110, 0b111})
        assert excluded_set_topology(2, 0).opens == \
            frozenset({0b00, 0b01, 0b10, 0b11})
        assert excluded_set_topology(2, 0b11).opens == frozenset({0b00, 0b11})

    def test_always_valid_and_compact(self):
        # Finite, so the full set, always open, covers any open cover.
        for n in range(1, 6):
            for f in subsets(full_mask(n)):
                t = excluded_set_topology(n, f)
                assert t.opens == ref_opens(n, f)
                assert ref_is_topology(n, t.opens)
                assert t.open_count == len(t.opens)


class TestWeakT1:
    def test_theorem_construction_on_tail_instance(self):
        top = excluded_set_topology(4, schwartz_set(CYCLE_WITH_TAIL))
        strict = asymmetric_part(
            transitive_closure(asymmetric_part(CYCLE_WITH_TAIL.rel)))
        assert weak_t1_separation(top, strict)

    def test_indiscrete_fails(self):
        strict = Relation.from_pairs(2, [(0, 1)])
        assert not weak_t1_separation(indiscrete(2), strict)

    def test_discrete_passes(self):
        strict = Relation.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        assert weak_t1_separation(excluded_set_topology(3, 0), strict)


class TestNachbin:
    def test_discrete_always_closed(self):
        order = CHAIN3.leq
        assert nachbin_closed(excluded_set_topology(3, 0), order)

    def test_indiscrete_diagonal_fails(self):
        order = Relation.from_pairs(2, [(0, 0), (1, 1)])
        assert not nachbin_closed(indiscrete(2), order)

    def test_excluded_topology_chain_with_hidden_top(self):
        # 1 < 2 < 0 with {0} excluded: no open rectangle separates pairs
        # that would need an open set isolating 0.
        order = Poset.from_pairs(3, [(1, 2), (2, 0)]).leq
        assert not nachbin_closed(excluded_set_topology(3, 0b001), order)


class TestAgainstReference:
    """The library's routes equal the reference scans on seeded inputs."""

    def test_cut_routes(self):
        for seed in range(600):
            p = random_poset(seed, max_n=8)
            cuts = dm_completion(p).cuts
            assert cuts == ref_dm_completion(p), seed
            ideals = ref_frink_ideals(p)
            assert frink_ideals(p) == ideals, seed
            for x in range(p.n):
                for y in range(p.n):
                    assert way_below_e(p, x, y) == \
                        ref_way_below_e(p, ideals, x, y), (seed, x, y)
            assert is_precontinuous(p) == ref_is_precontinuous(p), seed

    def test_excluded_set_routes(self):
        # Reflexive orders with and without full rows, random excluded sets
        # and, one time in four, none: both outcomes of each check occur.
        rng = random.Random(2026)
        outcomes = {"t1": set(), "nachbin": set()}
        for seed in range(1500):
            n = 1 + seed % 9
            p = random_problem(n, (0.2, 0.5, 0.8, 0.95)[seed % 4], seed)
            order = Relation(n, tuple(row | 1 << x
                                      for x, row in enumerate(p.rel.rows)))
            strict = asymmetric_part(p.closure)
            excluded = rng.getrandbits(n) if rng.random() < 0.75 else 0
            top = excluded_set_topology(n, excluded)
            opens = ref_opens(n, excluded)
            assert top.open_count == len(top.opens) == len(opens), seed
            t1 = weak_t1_separation(top, strict)
            assert t1 == ref_weak_t1(opens, strict), seed
            closed = nachbin_closed(top, order)
            assert closed == ref_nachbin(opens, order), seed
            outcomes["t1"].add(t1)
            outcomes["nachbin"].add(closed)
        assert outcomes == {"t1": {False, True}, "nachbin": {False, True}}
