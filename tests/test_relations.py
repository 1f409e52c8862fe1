import random
from functools import reduce
from operator import or_

import pytest

from conftest import (CHAIN, CYCLE_WITH_TAIL, SYMMETRIC_PAIR, THREE_CYCLE,
                      kernel_corpus, long_acyclic_problems)
from stableset.bitset import (diagonal, flags, from_members, full_mask, image,
                              image_table, iter_bits, members, planes,
                              positions, transpose)
from stableset.contraction import equipotence_classes
from stableset.errors import EmptyGround
from stableset.oracle import random_problem
from stableset.order_topology import Poset
from stableset.relations import (DecisionProblem, Relation, asymmetric_part,
                                 is_acyclic, maximal_set, strict_poset_order,
                                 strong_components, transitive_closure,
                                 trap_relation)


def rel(n, pairs):
    return Relation.from_pairs(n, pairs)


class TestFromPairs:
    def test_from_pairs_refuses_a_negative_target(self):
        # A negative end would count from the back of the rows and a
        # boolean as 0 or 1, each building some other relation.
        for build in (lambda: Relation.from_pairs(2, [(0, -1)]),
                      lambda: Relation.from_pairs(3, [(-1, 0)]),
                      lambda: DecisionProblem.from_edges(3, [(0, -1)]),
                      lambda: DecisionProblem.from_edges(3, [(True, 2)]),
                      lambda: Poset.from_pairs(3, [(-1, 0)])):
            with pytest.raises(ValueError):
                build()
        # A pair that is not iterable is refused the same way.
        for pairs in ([5], [None]):
            for build in (Relation.from_pairs, DecisionProblem.from_edges,
                          Poset.from_pairs):
                with pytest.raises(ValueError):
                    build(3, pairs)

    def test_checked_pairs_give_the_same_relation(self):
        for seed in range(100):
            r = random_problem(1 + seed % 12, 0.5, seed).rel
            pairs = list(r.pairs()) * 2  # duplicates collapse
            assert Relation.from_pairs(r.n, pairs) == r
            assert Relation.from_pairs(r.n, iter(pairs)) == r

    def test_checked_pairs_refuse_an_end_past_n(self):
        for pair in ((0, 2), (2, 0), (0, 10 ** 30)):
            with pytest.raises(ValueError, match=r"ints in range\(2\)"):
                Relation.from_pairs(2, [pair])


class TestConstructorsRefuse:
    def test_relation_rows(self):
        for n, rows, message in ((2, (0,), "row count must equal n"),
                                 (2, (0, 0, 0), "row count must equal n"),
                                 (2, (0b100, 0), "index >= n"),
                                 (2, (0, -1), "index >= n")):
            with pytest.raises(ValueError, match=message):
                Relation(n, rows)

    def test_decision_problem(self):
        with pytest.raises(ValueError, match="at least one alternative"):
            DecisionProblem(Relation(0, ()))
        for labels in (("a",), ("a", "b", "c")):
            with pytest.raises(ValueError, match="label count must equal n"):
                DecisionProblem(Relation.empty(2), labels)

    def test_a_loop_on_any_row(self):
        # Rows past one 64-bit word, and a loop on the first, a middle or
        # the last row.
        rng = random.Random(7)
        for n in (1, 2, 8, 65, 130):
            for x in {0, n // 2, n - 1}:
                rows = [rng.getrandbits(n) & ~(1 << y) for y in range(n)]
                assert Relation(n, tuple(rows)).is_irreflexive()
                rows[x] |= 1 << x
                assert not Relation(n, tuple(rows)).is_irreflexive()
                with pytest.raises(ValueError, match="must be irreflexive"):
                    DecisionProblem(Relation(n, tuple(rows)))


class TestImage:
    def test_image_is_the_union_of_the_members_rows(self):
        rng = random.Random(15)
        for trial in range(300):
            n = 1 + trial % 70
            rows = [rng.getrandbits(n) for _ in range(n)]
            for mask in (0, full_mask(n), rng.getrandbits(n)):
                expected = reduce(or_, (rows[x] for x in members(mask)), 0)
                assert image(mask, rows) == expected

    def test_image_table_holds_every_masks_image(self):
        assert image_table([]) == [0]
        rng = random.Random(18)
        for trial in range(64):
            width = trial % 8
            n = 1 + trial % 13
            rows = [rng.getrandbits(n) for _ in range(width)]
            table = image_table(rows)
            assert table == [image(m, rows) for m in range(1 << width)]


class TestFlags:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 2000])
    def test_flags_are_the_masks_bits(self, n):
        rng = random.Random(n)
        masks = [0, full_mask(n), 1, 1 << n - 1,
                 *(rng.getrandbits(n) for _ in range(5))]
        for mask in masks:
            assert flags(mask, n) == bytes(mask >> x & 1 for x in range(n))


class TestPlanes:
    # From n = 7 a plane is wider than one 64-bit word.
    @pytest.mark.parametrize("n", range(1, 13))
    def test_plane_x_holds_the_subsets_with_x(self, n):
        sliced = planes(n)
        assert len(sliced) == n
        for x, plane in enumerate(sliced):
            assert plane.bit_length() <= 1 << n
            assert [plane >> v & 1 for v in range(1 << n)] == \
                [v >> x & 1 for v in range(1 << n)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7, 8, 12])
    def test_positions_read_the_set_bits(self, n):
        size = 1 << n
        rng = random.Random(n)
        masks = [0, full_mask(size), *planes(n),
                 *(rng.getrandbits(size) for _ in range(6))]
        for mask in masks:
            assert positions(mask, size) == list(iter_bits(mask))

    def test_diagonal_is_the_identity(self):
        for n in (0, 1, 5, 70):
            assert diagonal(n) == tuple(1 << x for x in range(n))


def string_transpose(rows, width):
    """The columns read off one binary string of every row, most
    significant bit first in reverse row order: bit y of row x sits at
    index (h-1-x)*width + width-1-y, h being the row count, so every
    width-th character from index width-1-y reads column y."""
    if not rows:
        return (0,) * width
    fmt = f"0{width}b"
    text = "".join([format(row, fmt) for row in reversed(rows)])
    return tuple(int(text[width - 1 - y::width], 2) for y in range(width))


class TestTranspose:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    def test_columns_are_the_rows_bits(self, n):
        rng = random.Random(n)
        for height, width in ((n, n), (n, n + 3), (n + 5, n), (n, 1), (1, n)):
            for rows in ([0] * height, [full_mask(width)] * height,
                         [rng.getrandbits(width) for _ in range(height)]):
                expected = tuple(
                    sum(1 << x for x in range(height) if rows[x] >> y & 1)
                    for y in range(width))
                assert transpose(rows, width) == expected
                assert string_transpose(rows, width) == expected

    @pytest.mark.parametrize("sizes", [range(1, 70), [200], [1000], [2000]],
                             ids=["1-69", "200", "1000", "2000"])
    def test_block_swaps_match_the_string_reference(self, sizes):
        # Square, a third as high, five rows higher and one row: rows of
        # one to 250 bytes, row counts on and off a multiple of 8.
        for n in sizes:
            rng = random.Random(n)
            for height in (n, n // 3, n + 5, 1):
                for rows in ([full_mask(n)] * height,
                             [rng.getrandbits(n) for _ in range(height)]):
                    assert transpose(rows, n) == string_transpose(rows, n)

    def test_no_rows_or_no_columns(self):
        assert transpose([], 3) == (0, 0, 0)
        assert transpose([0, 0], 0) == ()
        assert transpose([0] * 9, 0) == ()


class TestAsymmetricPart:
    def test_symmetric_pair_vanishes(self):
        assert asymmetric_part(SYMMETRIC_PAIR.rel) == Relation.empty(2)

    def test_already_asymmetric_unchanged(self):
        assert asymmetric_part(THREE_CYCLE.rel) == THREE_CYCLE.rel

    def test_mixed(self):
        r = rel(3, [(0, 1), (1, 0), (1, 2)])
        assert sorted(asymmetric_part(r).pairs()) == [(1, 2)]

    def test_idempotent_on_random(self):
        for seed in range(200):
            r = random_problem(1 + seed % 8, 0.5, seed).rel
            p = asymmetric_part(r)
            assert asymmetric_part(p) == p


class TestTransitiveClosure:
    def test_already_transitive(self):
        assert transitive_closure(CHAIN.rel) == CHAIN.rel

    def test_cycle_closes_with_loops(self):
        # Path enumeration on the 3-cycle reaches every pair, loops included.
        c = transitive_closure(THREE_CYCLE.rel)
        assert sorted(c.pairs()) == [(x, y) for x in range(3) for y in range(3)]

    def test_cycle_with_tail(self):
        c = transitive_closure(CYCLE_WITH_TAIL.rel)
        expected = {(x, y) for x in range(3) for y in range(3)}
        expected |= {(0, 3), (1, 3), (2, 3)}
        assert set(c.pairs()) == expected

    def test_matches_path_enumeration(self):
        # Independent oracle: BFS path existence with length >= 1.
        for seed in range(150):
            r = random_problem(1 + seed % 7, 0.4, seed).rel
            c = transitive_closure(r)
            for x in range(r.n):
                reach = set()
                frontier = set(members(r.rows[x]))
                while frontier:
                    reach |= frontier
                    frontier = {z for y in frontier
                                for z in members(r.rows[y])} - reach
                assert set(members(c.rows[x])) == reach

    def test_idempotent_and_monotone(self):
        for seed in range(150):
            r = random_problem(1 + seed % 8, 0.3, seed).rel
            c = transitive_closure(r)
            assert transitive_closure(c) == c
            bigger = Relation(r.n, tuple(
                row | random_problem(r.n, 0.3, seed + 9000).rel.rows[i]
                for i, row in enumerate(r.rows)))
            closed = transitive_closure(bigger)
            assert all(a & ~b == 0 for a, b in zip(c.rows, closed.rows))


class TestMaximalSet:
    def test_mutual_domination_is_maximal(self):
        assert maximal_set(full_mask(2), SYMMETRIC_PAIR.rel) == from_members([0, 1])

    def test_chain_top(self):
        assert maximal_set(full_mask(3), CHAIN.rel) == from_members([0])

    def test_closure_of_tail_instance(self):
        c = transitive_closure(asymmetric_part(CYCLE_WITH_TAIL.rel))
        assert maximal_set(full_mask(4), c) == from_members([0, 1, 2])

    def test_empty_carrier_rejected(self):
        with pytest.raises(EmptyGround):
            maximal_set(0, CHAIN.rel)

    def test_acyclic_maximal_means_no_dominator(self):
        for seed in range(100):
            p = random_problem(1 + seed % 8, 0.4, seed)
            strict = asymmetric_part(p.rel)
            if not is_acyclic(strict):
                continue
            cols = strict.columns()
            expected = from_members(x for x in range(p.n) if cols[x] == 0)
            assert maximal_set(p.all_mask, strict) == expected


class TestAcyclicity:
    def test_examples(self):
        assert is_acyclic(CHAIN.rel)
        assert not is_acyclic(THREE_CYCLE.rel)
        assert is_acyclic(Relation.empty(3))


class TestTrapRelation:
    def test_examples(self):
        assert sorted(trap_relation(CYCLE_WITH_TAIL).pairs()) == [(0, 3)]
        assert sorted(trap_relation(THREE_CYCLE).pairs()) == []
        assert sorted(trap_relation(CHAIN).pairs()) == [(0, 1), (0, 2), (1, 2)]

    def test_always_acyclic(self):
        for seed in range(300):
            p = random_problem(1 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed)
            assert is_acyclic(trap_relation(p))


class TestStrictPosetOrder:
    def diagonal(self, n):
        return {(x, x) for x in range(n)}

    def test_chain(self):
        leq = strict_poset_order(CHAIN)
        assert set(leq.pairs()) == self.diagonal(3) | {(0, 1), (1, 2), (0, 2)}

    def test_cycle_collapses(self):
        assert set(strict_poset_order(THREE_CYCLE).pairs()) == self.diagonal(3)

    def test_tail(self):
        leq = strict_poset_order(CYCLE_WITH_TAIL)
        assert set(leq.pairs()) == self.diagonal(4) | {(0, 3), (1, 3), (2, 3)}

    def test_poset_axioms_on_random(self):
        # Poset checks the axioms on build; it must never raise here.  The
        # order comes with its columns, which must be its transpose.
        count = 0
        for seed in range(1000):
            p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3], seed)
            leq = Poset(strict_poset_order(p)).leq
            assert all(leq.has(x, x) for x in range(p.n))
            assert leq.columns() == pair_columns(leq)
            count += 1
        assert count == 1000


def pair_columns(r):
    """Columns by the definition, one pair at a time."""
    return tuple(from_members(x for x in range(r.n) if r.has(x, y))
                 for y in range(r.n))


class TestDeriveOnceKernels:
    """Memoised and closure-free kernels against definitions computed here,
    on the shared corpus plus seeded n = 50 and n = 200 instances."""

    def test_columns_match_per_pair_transpose(self):
        edge_cases = [r for n in (0, 1, 7, 8, 9, 64, 65)
                      for r in (Relation.empty(n),
                                Relation(n, (full_mask(n),) * n))]
        for r in edge_cases + [r for p in kernel_corpus()
                               for r in (p.rel, p.strict)]:
            assert r.columns() == pair_columns(r)
            assert r.columns() is r.columns()
        # Column y of the 2,000-chain holds only its predecessor y - 1.
        chain = long_acyclic_problems()[0].rel
        assert chain.columns() == (0,) + tuple(1 << y for y in range(1999))

    def test_strict_part_memoised_and_matches_definition(self):
        for p in kernel_corpus():
            expected = Relation.from_pairs(
                p.n, [(x, y) for x, y in p.rel.pairs() if not p.rel.has(y, x)])
            assert p.strict == expected
            assert p.strict is p.strict
            assert asymmetric_part(p.rel) == expected

    def test_components_are_mutual_reachability(self):
        for p in kernel_corpus():
            closure = transitive_closure(p.strict)
            comps = p.components
            assert comps is p.components
            assert comps == strong_components(p.strict)
            assert sum(comps) == p.all_mask
            # Topological order: no later component strictly dominates an
            # earlier one.
            earlier = 0
            for comp in comps:
                assert image(comp, p.strict.rows) & earlier == 0
                earlier |= comp
            for comp in comps:
                for x in members(comp):
                    mutual = from_members(
                        y for y in range(p.n)
                        if y == x or (closure.has(x, y) and closure.has(y, x)))
                    assert comp == mutual

    def test_pairs_ascend(self):
        # `contract` and `contract --dot` write pairs in this order unsorted.
        for p in kernel_corpus():
            for r in (p.rel, equipotence_classes(p).cond):
                assert list(r.pairs()) == sorted(r.pairs())

    def test_trap_relation_drops_what_reaches_back(self):
        for p in kernel_corpus():
            strict = asymmetric_part(p.rel)
            closure = transitive_closure(strict)
            expected = Relation.from_pairs(
                p.n, [(x, y) for x, y in strict.pairs()
                      if not closure.has(y, x)])
            trap = trap_relation(p)
            assert trap == expected
            assert trap.columns() == pair_columns(expected)
