import random

import pytest

from conftest import (CHAIN, CYCLE_WITH_TAIL, FOUR_CYCLE, SYMMETRIC_PAIR,
                      THREE_CYCLE, corpus_digraphs, corpus_tournaments)
from stableset.bitset import (from_members, image_table, iter_bits, members,
                              subsets)
from stableset import oracle
from stableset.errors import LimitExceeded
from stableset.oracle import (_closure, _omega, _strict, cross_verify,
                              enumerate_solutions, gocha_bruteforce,
                              random_problem)
from stableset.relations import Relation
from stableset.solutions import Concept, SociallyInterp

ROUTES = [(concept, SociallyInterp.RESTRICT_CLOSURE) for concept in Concept] \
    + [(Concept.SOCIALLY, SociallyInterp.CLOSURE_OF_RESTRICTION)]


def fam(masks):
    return [members(v) for v in masks]


# The definitions transcribed member by member, quantifier by quantifier:
# the reference the oracle's image identities must reproduce exactly.

def reference_closure(r):
    """Row x holds every y reachable from x in one or more steps of r,
    found by a search along the pairs."""
    rows = []
    for x in range(r.n):
        reached = set()
        todo = [y for y in range(r.n) if r.has(x, y)]
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo += [z for z in range(r.n) if r.has(y, z)]
        rows.append(sum(1 << y for y in reached))
    return Relation(r.n, tuple(rows))


def reference_omega(p):
    """Literal extended dominance (equipotent pairs kept)."""
    strict = _strict(p.rel)
    closure = _closure(strict)
    n = p.n

    def equipotent(x, y):
        return x == y or (closure.has(x, y) and closure.has(y, x))

    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if any(equipotent(x, z) and strict.has(z, w) and equipotent(w, y)
                   for z in range(n) for w in range(n)):
                rows[x] |= 1 << y
    return Relation(n, tuple(rows))


def reference_solutions(p, concept, interp):
    strict = _strict(p.rel)
    closure = _closure(strict)
    strict_cols = strict.columns()
    closure_cols = closure.columns()
    omega = reference_omega(p) if concept is Concept.EXTENDED else None
    full = p.all_mask
    return [v for v in subsets(full)
            if v and reference_passes(v, full, concept, interp, strict,
                                      closure, strict_cols, closure_cols,
                                      omega)]


def reference_passes(v, full, concept, interp, strict, closure,
                     strict_cols, closure_cols, omega):
    outside = full & ~v
    if concept is Concept.VNM:
        if any(strict.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        return all(strict_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.GENERALIZED:
        if any(closure.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        return all(closure_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.SOCIALLY:
        if interp is SociallyInterp.RESTRICT_CLOSURE:
            q_rows = [closure.rows[x] & v if v >> x & 1 else 0
                      for x in range(full.bit_length())]
        else:
            sub = Relation(strict.n, tuple(strict.rows[x] & v if v >> x & 1 else 0
                                           for x in range(strict.n)))
            q_rows = list(_closure(sub).rows)
        for x in iter_bits(v):
            for y in iter_bits(q_rows[x] & v):
                if not q_rows[y] >> x & 1:
                    return False
        return all(strict_cols[y] & v for y in iter_bits(outside))
    if concept is Concept.M_STABLE:
        for x in iter_bits(v):
            for y in iter_bits(closure.rows[x] & v):
                if not closure.rows[y] >> x & 1:
                    return False
        return all(closure_cols[x] & outside == 0 for x in iter_bits(v))
    if concept is Concept.W_STABLE:
        if any(closure.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
            return False
        for x in iter_bits(v):
            for y in iter_bits(closure_cols[x] & outside):
                if not closure.rows[x] >> y & 1:
                    return False
        return True
    # EXTENDED
    if any(omega.rows[x] & v & ~(1 << x) for x in iter_bits(v)):
        return False
    omega_cols = omega.columns()
    return all(omega_cols[y] & v for y in iter_bits(outside))


def reference_gocha(p):
    strict_cols = _strict(p.rel).columns()
    undominated = [d for d in subsets(p.all_mask)
                   if d and all(strict_cols[x] & ~d == 0 for x in iter_bits(d))]
    undominated.sort(key=lambda d: (d.bit_count(), d))
    minimal = []
    out = 0
    for d in undominated:
        if not any(e & ~d == 0 for e in minimal):
            minimal.append(d)
            out |= d
    return out


def assert_matches_reference(p):
    strict = _strict(p.rel)
    assert _omega(strict, _closure(strict)) == reference_omega(p), p
    assert gocha_bruteforce(p) == reference_gocha(p), p
    for concept, interp in ROUTES:
        assert enumerate_solutions(p, concept, interp=interp) == \
            reference_solutions(p, concept, interp), (p, concept, interp)


# The image-table scan the planes replaced, kept as a second reference: each
# union identity read from 2^n-entry image tables, one step per subset, and
# closure of restriction settled by one closure per surviving subset.

def table_omega(strict, closure):
    cols = closure.columns()
    eq = [closure.rows[x] & cols[x] | 1 << x for x in range(strict.n)]
    strict_img, eq_img = image_table(strict.rows), image_table(eq)
    return Relation(strict.n, tuple(eq_img[strict_img[e]] for e in eq))


def table_cycles_inside(v, strict):
    """Every strict edge inside v lies on a cycle inside v."""
    q = _closure(Relation(strict.n, tuple(
        row & v if v >> x & 1 else 0
        for x, row in enumerate(strict.rows)))).rows
    return all(q[y] >> x & 1 for x in iter_bits(v) for y in iter_bits(q[x]))


def off_diagonal(rows):
    return [r & ~(1 << x) for x, r in enumerate(rows)]


def table_solutions(p, concept, interp):
    strict = _strict(p.rel)
    restricted = (concept is Concept.SOCIALLY
                  and interp is SociallyInterp.CLOSURE_OF_RESTRICTION)
    if concept is Concept.VNM:
        inner = outer = strict.rows
    else:
        closure = _closure(strict)
        rows = closure.rows
        if concept is Concept.GENERALIZED:
            inner = outer = off_diagonal(rows)
        elif concept is Concept.EXTENDED:
            inner = outer = off_diagonal(table_omega(strict, closure).rows)
        else:
            cols = closure.columns()
            if concept is Concept.W_STABLE:
                inner = off_diagonal(rows)
                outer = [c & ~r for r, c in zip(rows, cols)]
            else:
                inner = [r & ~c for r, c in zip(
                    strict.rows if restricted else rows, cols)]
                outer = cols if concept is Concept.M_STABLE else strict.rows
    ins = image_table(inner)
    outs = ins if outer is inner else image_table(outer)
    full = p.all_mask
    if concept is Concept.M_STABLE or concept is Concept.W_STABLE:
        out = [v for v in range(1, full + 1)
               if not ins[v] & v and not outs[v] & ~v]
    else:
        out = [v for v in range(1, full + 1)
               if not ins[v] & v and outs[v] | v == full]
    if restricted:
        out = [v for v in out if table_cycles_inside(v, strict)]
    return out


def table_gocha(p):
    above = image_table(_strict(p.rel).columns())
    undominated = [d for d in range(1, len(above)) if not above[d] & ~d]
    # Ascending popcount: any non-minimal set has a minimal one strictly
    # inside it, so checking against minimals found so far suffices.
    undominated.sort(key=int.bit_count)
    minimal = []
    out = 0
    for d in undominated:
        if not any(e & ~d == 0 for e in minimal):
            minimal.append(d)
            out |= d
    return out


def assert_matches_tables(p):
    strict = _strict(p.rel)
    closure = _closure(strict)
    assert _omega(strict, closure) == table_omega(strict, closure), p
    assert gocha_bruteforce(p) == table_gocha(p), p
    for concept, interp in ROUTES:
        assert enumerate_solutions(p, concept, interp=interp) == \
            table_solutions(p, concept, interp), (p, concept, interp)


class TestAgainstTranscription:
    """The image identities equal the member-by-member definitions.  The
    benchmark's subset-search references come from these same oracle
    functions, so this also guards what it checks answers against."""

    def test_corpus(self):
        for p in corpus_digraphs() + corpus_tournaments():
            assert_matches_reference(p)

    @pytest.mark.parametrize("density,tournament",
                             [(0.2, False), (0.5, False), (1.0, True)])
    @pytest.mark.parametrize("n", [11, 12])
    def test_seeded_at_the_ceiling(self, n, density, tournament):
        for seed in range(2):
            assert_matches_reference(
                random_problem(n, density, seed, tournament=tournament))


class TestAgainstImageTables:
    """The planes equal the image-table scan they replaced.  With
    `TestAgainstTranscription` on the same problems, the plane oracle and
    both references agree.  The benchmark checks its brute-force Schwartz
    sets against `gocha_bruteforce` itself, so these and the transcription
    are what check it."""

    def test_corpus(self):
        for p in corpus_digraphs() + corpus_tournaments():
            assert_matches_tables(p)

    @pytest.mark.parametrize("density,tournament",
                             [(0.2, False), (0.5, False), (1.0, True)])
    @pytest.mark.parametrize("n", [11, 12])
    def test_seeded_at_the_ceiling(self, n, density, tournament):
        for seed in range(2):
            assert_matches_tables(
                random_problem(n, density, seed, tournament=tournament))


class TestClosure:
    """`_closure` against a path search: `reference_solutions` derives its
    relations with `_closure` itself, so this is the check of the loop."""

    @staticmethod
    def assert_matches_search(p):
        for r in (p.rel, _strict(p.rel)):
            assert _closure(r) == reference_closure(r), p

    def test_corpus(self):
        for p in corpus_digraphs() + corpus_tournaments():
            self.assert_matches_search(p)

    @pytest.mark.parametrize("density,tournament",
                             [(0.2, False), (0.5, False), (1.0, True)])
    @pytest.mark.parametrize("n", [11, 12])
    def test_seeded_at_the_ceiling(self, n, density, tournament):
        for seed in range(2):
            self.assert_matches_search(
                random_problem(n, density, seed, tournament=tournament))


class TestEnumeration:
    def test_vnm_builds_no_closure(self, monkeypatch):
        corpus = corpus_digraphs() + corpus_tournaments()
        expected = [reference_solutions(p, Concept.VNM,
                                        SociallyInterp.RESTRICT_CLOSURE)
                    for p in corpus]

        def no_closure(r):
            raise AssertionError("vnm reads no closure")

        monkeypatch.setattr(oracle, "_closure", no_closure)
        assert [enumerate_solutions(p, Concept.VNM) for p in corpus] == \
            expected

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


def reference_random_rows(n, density, seed, tournament=False):
    """The rows of `random_problem` as it drew them into a list of pairs
    before building the relation: the same seed mix and draw order."""
    mixed = (seed * 1_000_003 + n * 10_007
             + round(density * 1000) * 97 + int(tournament))
    rng = random.Random(mixed)
    pairs = []
    if tournament:
        for x in range(n):
            for y in range(x + 1, n):
                pairs.append((x, y) if rng.random() < 0.5 else (y, x))
    else:
        for x in range(n):
            for y in range(n):
                if x != y and rng.random() < density:
                    pairs.append((x, y))
    rows = [0] * n
    for x, y in pairs:
        rows[x] |= 1 << y
    return tuple(rows)


class TestRandomProblem:
    # n = 130 and 200 span several draw chunks, and n = 65 has rows one bit
    # past a 64-bit word.  1/3 and 0.999 leave some draws to be settled from
    # their words (their top byte is that of the density); 0, 1 and 0.5
    # never do.  A tournament draws against 0.5 whatever its density, which
    # only changes its seed.  Chunks of 1 and 7 draws take one row a chunk
    # (`// n or 1`) and rows that span chunks at n <= 12; chunking does not
    # change the stream of words drawn.
    @pytest.mark.parametrize("n, chunk", [
        *(pytest.param(n, None, id=str(n))
          for n in [*range(1, 13), 50, 65, 130, 200]),
        *(pytest.param(n, k, id=f"{n}-chunk{k}")
          for k in (1, 7) for n in range(1, 13))])
    def test_matches_the_pair_list_generator(self, n, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(oracle, "_CHUNK_DRAWS", chunk)
        densities = [0.0, 0.2, 0.5, 1.0, 0, 1, 1 / 3, 0.999]
        if n > 4:  # 4 / (n - 1) is a density only from n = 5 on
            densities.append(4 / (n - 1))
        for seed in range(5):
            for density in densities:
                assert random_problem(n, density, seed).rel.rows == \
                    reference_random_rows(n, density, seed)
                assert random_problem(n, density, seed,
                                      tournament=True).rel.rows == \
                    reference_random_rows(n, density, seed, tournament=True)

    def test_random_is_two_words_of_getrandbits(self):
        """The identity the draw rests on: `random()` is K / 2**53 for the
        next words a, b, and `getrandbits(64 * k)` puts them low word first."""
        for seed in range(40):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(25):
                words = twin.getrandbits(64)
                a, b = words & 0xFFFFFFFF, words >> 32
                assert rng.random() == ((a >> 5) * 2**26 + (b >> 6)) / 2**53
            assert rng.getrandbits(64 * 3) == sum(
                twin.getrandbits(64) << 64 * i for i in range(3))

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
