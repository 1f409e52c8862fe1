import pytest

from stableset.bitset import from_members, members
from stableset.errors import LimitExceeded
from stableset.fixtures import (CHAIN, CYCLE_WITH_TAIL, FOUR_CYCLE,
                                SYMMETRIC_PAIR, THREE_CYCLE)
from stableset.oracle import (cross_verify, enumerate_solutions,
                              gocha_bruteforce, random_problem)
from stableset.solutions import Concept, SociallyInterp


def fam(masks):
    return [members(v) for v in masks]


class TestEnumeration:
    def test_vnm_examples(self):
        assert enumerate_solutions(THREE_CYCLE, Concept.VNM) == []
        assert fam(enumerate_solutions(FOUR_CYCLE, Concept.VNM)) == \
            [(0, 2), (1, 3)]
        assert fam(enumerate_solutions(CHAIN, Concept.VNM)) == [(0,)]

    def test_generalized_examples(self):
        assert fam(enumerate_solutions(CYCLE_WITH_TAIL, Concept.GENERALIZED)) == \
            [(0,), (1,), (2,)]
        assert fam(enumerate_solutions(SYMMETRIC_PAIR, Concept.GENERALIZED)) == \
            [(0, 1)]

    def test_socially_interp_divergence(self):
        rc = enumerate_solutions(CYCLE_WITH_TAIL, Concept.SOCIALLY)
        cr = enumerate_solutions(CYCLE_WITH_TAIL, Concept.SOCIALLY,
                                 interp=SociallyInterp.CLOSURE_OF_RESTRICTION)
        assert fam(rc) == [(0, 1), (0, 2), (0, 1, 2)]
        assert fam(cr) == [(0, 1, 2)]

    def test_extended_examples(self):
        assert fam(enumerate_solutions(CYCLE_WITH_TAIL, Concept.EXTENDED)) == \
            [(0,), (1,), (2,)]
        assert fam(enumerate_solutions(SYMMETRIC_PAIR, Concept.EXTENDED)) == \
            [(0, 1)]

    def test_ascending_order(self):
        out = enumerate_solutions(THREE_CYCLE, Concept.W_STABLE)
        assert out == sorted(out)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            enumerate_solutions(THREE_CYCLE, Concept.VNM, max_n=2)


class TestGochaBruteforce:
    def test_examples(self):
        assert gocha_bruteforce(CYCLE_WITH_TAIL) == from_members([0, 1, 2])
        assert gocha_bruteforce(CHAIN) == from_members([0])
        assert gocha_bruteforce(THREE_CYCLE) == from_members([0, 1, 2])
        assert gocha_bruteforce(SYMMETRIC_PAIR) == from_members([0, 1])


class TestRandomProblem:
    def test_deterministic(self):
        a = random_problem(7, 0.5, 42)
        b = random_problem(7, 0.5, 42)
        assert a.rel == b.rel

    def test_seeds_differ(self):
        rels = {random_problem(7, 0.5, s).rel for s in range(20)}
        assert len(rels) > 15

    def test_density_extremes(self):
        assert list(random_problem(5, 0.0, 1).rel.pairs()) == []
        full = random_problem(5, 1.0, 1).rel
        assert len(list(full.pairs())) == 20

    def test_tournament_shape(self):
        t = random_problem(6, 1.0, 3, tournament=True).rel
        for x in range(6):
            for y in range(x + 1, 6):
                assert t.has(x, y) != t.has(y, x)

    def test_irreflexive_always(self):
        for seed in range(50):
            assert random_problem(1 + seed % 9, 0.8, seed).rel.is_irreflexive()

    def test_bad_density(self):
        with pytest.raises(ValueError):
            random_problem(3, 1.5, 0)


class TestCrossVerify:
    def test_fixture_passes(self):
        assert cross_verify(CYCLE_WITH_TAIL, Concept.EXTENDED).passed
        assert cross_verify(FOUR_CYCLE, Concept.VNM).passed

    def test_tournament_property(self):
        p = random_problem(7, 1.0, 11, tournament=True)
        assert cross_verify(p, Concept.GENERALIZED).passed

    def test_report_structure_on_pass(self):
        r = cross_verify(CHAIN, Concept.W_STABLE)
        assert r.passed and r.only_constructive == () and r.only_oracle == ()

    def test_random_sweep(self):
        for seed in range(120):
            p = random_problem(1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
            for c in (Concept.GENERALIZED, Concept.M_STABLE,
                      Concept.W_STABLE, Concept.EXTENDED):
                assert cross_verify(p, c).passed, (seed, c)
