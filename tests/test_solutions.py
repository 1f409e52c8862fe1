import tracemalloc
from itertools import islice

import pytest

from conftest import (CHAIN, CYCLE_WITH_TAIL, FIVE_CYCLE, FOUR_CYCLE,
                      SYMMETRIC_PAIR, THREE_CYCLE, corpus_digraphs,
                      corpus_tournaments, is_stable_set, kernel_corpus,
                      layered_stable_set, long_acyclic_problems,
                      maximal_classes, product_partitions, reference_order)
from stableset.bitset import from_members, image, members, reach, subsets
from stableset.contraction import equipotence_classes
from stableset.errors import LimitExceeded
from stableset.oracle import (_closure, _omega, _strict, enumerate_solutions,
                              gocha_bruteforce, random_problem)
from stableset.relations import (DecisionProblem, Relation, asymmetric_part,
                                 transitive_closure, trap_relation)
from stableset.solutions import (Concept, FamilyForm, SchwartzMethod,
                                 SociallyInterp, SolutionFamily,
                                 _closed_completions, _cycle_tests,
                                 _maximal_classes, _verdicts,
                                 _stable_search, core,
                                 duggan_set, extended_stable_sets,
                                 generalized_stable_sets, m_stable_sets,
                                 schwartz_set,
                                 socially_stable_sets, solve,
                                 top_pairgenerators, undominated_pairs,
                                 vnm_stable_sets, w_stable_sets)


def fam(family):
    return [members(v) for v in family]


def dominance_for(p, concept):
    """The relation each concept's stability is judged against."""
    if concept is Concept.VNM or concept is Concept.SOCIALLY:
        return p.strict
    if concept is Concept.EXTENDED:
        # Stability is judged against the literal relation; the acyclic
        # component-level variant would leave same-class pairs undominated.
        strict = _strict(p.rel)
        return _omega(strict, _closure(strict))
    return p.closure


class TestStabilityChecker:
    def test_four_cycle_alternating_set(self):
        strict = asymmetric_part(FOUR_CYCLE.rel)
        assert is_stable_set(from_members([0, 2]), strict).ok

    def test_external_failure_reports_witness(self):
        strict = asymmetric_part(THREE_CYCLE.rel)
        report = is_stable_set(from_members([0]), strict)
        assert report.internal_ok and not report.external_ok
        assert report.witness == (2,)

    def test_closure_singleton_survives_loops(self):
        closure = transitive_closure(asymmetric_part(THREE_CYCLE.rel))
        assert is_stable_set(from_members([0]), closure).ok


class TestPointSolutions:
    def test_core(self):
        assert members(core(CHAIN)) == (0,)
        assert members(core(THREE_CYCLE)) == ()
        assert members(core(SYMMETRIC_PAIR)) == (0, 1)

    def test_schwartz_examples(self):
        assert members(schwartz_set(CYCLE_WITH_TAIL)) == (0, 1, 2)
        assert members(schwartz_set(CHAIN)) == (0,)
        assert members(schwartz_set(SYMMETRIC_PAIR)) == (0, 1)

    def test_schwartz_methods_agree_on_fixtures(self):
        for p in (THREE_CYCLE, CHAIN, CYCLE_WITH_TAIL, FOUR_CYCLE,
                  SYMMETRIC_PAIR, FIVE_CYCLE):
            results = {schwartz_set(p, m) for m in SchwartzMethod}
            results.add(gocha_bruteforce(p))
            assert len(results) == 1

    def test_duggan_examples(self):
        assert members(duggan_set(CYCLE_WITH_TAIL)) == (0, 1, 2)
        assert members(duggan_set(THREE_CYCLE)) == (0, 1, 2)
        assert members(duggan_set(CHAIN)) == (0,)


class TestVnm:
    def test_odd_cycles_have_no_stable_set(self):
        assert fam(vnm_stable_sets(THREE_CYCLE)) == []
        assert fam(vnm_stable_sets(FIVE_CYCLE)) == []

    def test_four_cycle(self):
        assert fam(vnm_stable_sets(FOUR_CYCLE)) == [(0, 2), (1, 3)]

    def test_acyclic_constructive_route(self):
        family = vnm_stable_sets(CHAIN)
        assert fam(family) == [(0,)]

    def test_acyclic_route_matches_the_layered_reference(self):
        acyclic = [p for p in kernel_corpus() + long_acyclic_problems()
                   if len(p.components) == p.n]
        assert len(acyclic) > 100
        for p in acyclic:
            assert vnm_stable_sets(p).explicit == \
                (layered_stable_set(p.strict),)

    def test_limit(self):
        """The search answers a 12-cycle and refuses a 13-cycle at the
        fixed ceiling."""
        assert fam(vnm_stable_sets(directed_cycle(12))) == [
            tuple(range(0, 12, 2)), tuple(range(1, 12, 2))]
        with pytest.raises(LimitExceeded,
                           match="n=13 exceeds subset-search ceiling 12"):
            vnm_stable_sets(directed_cycle(13))


def directed_cycle(n):
    return DecisionProblem.from_edges(n, [(x, (x + 1) % n) for x in range(n)])


# The three searched routes: (concept, socially reading).
SEARCHED = ((Concept.VNM, SociallyInterp.RESTRICT_CLOSURE),
            (Concept.SOCIALLY, SociallyInterp.RESTRICT_CLOSURE),
            (Concept.SOCIALLY, SociallyInterp.CLOSURE_OF_RESTRICTION))


def cyclic_problem(n, density, seed, tournament=False):
    """The first instance from `seed` upward whose strict part has a cycle."""
    while True:
        p = random_problem(n, density, seed, tournament=tournament)
        if len(p.components) < p.n:
            return p
        seed += 1


@pytest.fixture(scope="module")
def searched_corpus():
    """The 1,203 corpus instances, each with the oracle's family for every
    searched route."""
    return [(p, {route: enumerate_solutions(p, route[0], interp=route[1])
                 for route in SEARCHED})
            for p in corpus_digraphs() + corpus_tournaments()]


class TestSearchAgainstOracle:
    def test_corpus(self, searched_corpus):
        for p, expected in searched_corpus:
            for (concept, interp), family in expected.items():
                got = list(solve(p, concept, interp=interp))
                assert got == family, (p, concept, interp)

    @pytest.mark.parametrize("density,tournament",
                             [(0.2, False), (0.5, False), (0.5, True)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cyclic_n12(self, density, tournament, seed):
        p = cyclic_problem(12, density, seed, tournament)
        for concept, interp in SEARCHED:
            assert list(solve(p, concept, interp=interp)) == \
                enumerate_solutions(p, concept, interp=interp)

    @pytest.mark.parametrize("n", [10, 11, 12])
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_cyclic_tournaments_closure_of_restriction(self, n, seed):
        # The reading's worst case: a tournament's trap relation is empty,
        # and nearly every leaf of the search is a member.
        p = cyclic_problem(n, 0.5, seed, tournament=True)
        interp = SociallyInterp.CLOSURE_OF_RESTRICTION
        assert list(socially_stable_sets(p, interp)) == \
            enumerate_solutions(p, Concept.SOCIALLY, interp=interp)

    @pytest.mark.parametrize("n, density, seed",
                             [(9, 0.2, 333), (11, 0.3, 90), (12, 0.3, 146)])
    def test_exits_with_a_trap_edge_left_undecided(self, n, density, seed,
                                                   monkeypatch):
        # The only seeded problems found whose search reaches a dominating
        # node with a trap edge between two undecided alternatives.  The
        # node still ends the search: a trap edge lies on no cycle, so
        # `settle` refuses every completion that holds one.
        exits = []

        def recorded(rows, settle):
            completions = _closed_completions(rows, settle)

            def exit_(chosen, undecided):
                exits.append(undecided)
                return completions(chosen, undecided)

            return exit_

        monkeypatch.setattr("stableset.solutions._closed_completions",
                            recorded)
        p = random_problem(n, density, seed)
        interp = SociallyInterp.CLOSURE_OF_RESTRICTION
        assert list(socially_stable_sets(p, interp)) == \
            enumerate_solutions(p, Concept.SOCIALLY, interp=interp)
        trap = trap_relation(p).rows
        assert any(trap[x] & undecided
                   for undecided in exits for x in members(undecided))

    def test_restrict_closure_members_lie_in_the_schwartz_set(
            self, searched_corpus):
        # The restrict-closure search runs over the Schwartz set only.
        route = (Concept.SOCIALLY, SociallyInterp.RESTRICT_CLOSURE)
        for p, expected in searched_corpus:
            top = schwartz_set(p)
            assert all(v & ~top == 0 for v in expected[route]), p

    def test_nothing_conflicts_inside_the_schwartz_set(self):
        # The strict closure relates two members of undominated components
        # only both ways, so the restrict-closure search needs no conflict
        # relation and no closure.
        for p in kernel_corpus():
            top = schwartz_set(p)
            one_way = asymmetric_part(p.closure)
            assert all(row & top == 0 for x, row in enumerate(one_way.rows)
                       if top >> x & 1), p
        p = cyclic_problem(10, 0.5, 0)
        socially_stable_sets(p)
        assert "closure" not in vars(p)

    def test_closure_of_restriction_is_not_confined(self):
        # On the path 0 -> 1 -> 2 the Schwartz set is {0}, but {0, 2} is
        # internally stable (no edge inside it) and dominates 1.
        path = DecisionProblem.from_edges(3, [(0, 1), (1, 2)])
        assert members(schwartz_set(path)) == (0,)
        for family in (enumerate_solutions(
                path, Concept.SOCIALLY,
                interp=SociallyInterp.CLOSURE_OF_RESTRICTION),
                socially_stable_sets(
                    path, SociallyInterp.CLOSURE_OF_RESTRICTION)):
            assert fam(family) == [(0, 2)]

    @pytest.mark.parametrize("density,tournament",
                             [(0.2, False), (0.5, False), (0.5, True)])
    @pytest.mark.parametrize("n", [
        13, 14, 15, 16, 17, 18,
        *(pytest.param(n, marks=pytest.mark.slow) for n in (19, 20))])
    def test_beyond_the_ceiling(self, n, density, tournament):
        # The ceiling bounds the entry points' time, not the search's
        # reach: called with their arguments, it matches the oracle up to
        # n = 20.  A case at n = 19 or 20 takes up to about 2 s, so those
        # run in CI's step for the slow tests (`-m slow`).
        p = cyclic_problem(n, density, n, tournament)
        arguments = {SEARCHED[0]: (p.strict, p.all_mask),
                     SEARCHED[1]: (Relation.empty(p.n), schwartz_set(p)),
                     SEARCHED[2]: (trap_relation(p), p.all_mask, True)}
        for (concept, interp), args in arguments.items():
            assert list(_stable_search(p, *args)) == enumerate_solutions(
                p, concept, interp=interp, max_n=n), (p, concept, interp)

    def test_dominating_nodes_end_the_search(self, monkeypatch):
        # A node whose chosen alternatives dominate every undecided one
        # emits all its completions at once.  Under closure of restriction
        # each such exit keeps exactly the completions whose strict edges
        # all lie on cycles inside them, and walks few of them: most are
        # carried from the completion they extend or settled without a
        # walk, which `settle` makes only for a set of six or more members
        # whose degrees balance.  Checked on a tournament (nothing
        # conflicts) and on a cyclic digraph.
        exits = []

        def recorded(rows, settle):
            walked = []

            def counted(v):
                pred = sum(1 << y for y, row in enumerate(rows) if row & v)
                if v.bit_count() >= 6 and not v & (image(v, rows) ^ pred):
                    walked.append(v)
                return settle(v)

            completions = _closed_completions(rows, counted)

            def exit_(chosen, undecided):
                before = len(walked)
                kept = completions(chosen, undecided)
                exits.append((chosen, undecided, kept, len(walked) - before))
                return kept

            return exit_

        monkeypatch.setattr("stableset.solutions._closed_completions",
                            recorded)
        interp = SociallyInterp.CLOSURE_OF_RESTRICTION
        for seed, tournament in ((0, True), (1, False)):
            exits.clear()
            p = cyclic_problem(10, 0.5, seed, tournament=tournament)
            assert list(socially_stable_sets(p, interp)) == \
                enumerate_solutions(p, Concept.SOCIALLY, interp=interp)
            rows, cols = p.strict.rows, p.strict.columns()
            for chosen, undecided, kept, _ in exits:
                assert undecided & ~image(chosen, rows) == 0
                assert sorted(kept) == [
                    v for v in sorted(chosen | s for s in subsets(undecided))
                    if reference_closed_inside(v, rows, cols)], (p, chosen)
            sizes = [1 << undecided.bit_count() for _, undecided, *_ in exits]
            walks = sum(walked for *_, walked in exits)
            assert max(sizes) >= 8, p
            assert 2 * walks < sum(sizes), (p, walks, sum(sizes))


# The closure-of-restriction search's two tests transcribed member by
# member: the reference its table lookups must reproduce exactly.

def reference_cycle_degrees_ok(chosen, live, rows, cols):
    """A chosen alternative with an edge in from the chosen ones needs one
    out to a live (chosen or undecided) one, and the reverse."""
    for x in members(chosen):
        if (cols[x] & chosen and not rows[x] & live
                or rows[x] & chosen and not cols[x] & live):
            return False
    return True


def reference_closed_inside(v, rows, cols):
    """Every edge inside v lies on a cycle inside v: inside v, each weak
    component's least member reaches exactly what reaches it."""
    rest = v
    while rest:
        start = rest & -rest
        ahead = reach(start, rows, v)
        if reach(start, cols, v) != ahead:
            return False
        rest &= ~ahead
    return True


class TestCycleTests:
    def test_node_test_matches_the_reference(self):
        for p in kernel_corpus():
            if p.n > 5:
                continue
            rows, cols = p.strict.rows, p.strict.columns()
            degrees_ok, *_ = _cycle_tests(rows, cols)
            for live in subsets(p.all_mask):
                for chosen in subsets(live):
                    assert degrees_ok(chosen, image(chosen, rows), live) == \
                        reference_cycle_degrees_ok(chosen, live, rows, cols), \
                        (p, chosen, live)

    def test_leaf_test_matches_the_reference(self):
        # `settle` flags v failed unless it is closed, and a closed v as
        # having one weak component or several; inside a closed v, each
        # component is what its least member reaches.
        for p in kernel_corpus():
            if p.n > 8:
                continue
            rows, cols = p.strict.rows, p.strict.columns()
            _, settle = _cycle_tests(rows, cols)
            failed, several, one = _verdicts(p.n)
            for v in subsets(p.all_mask):
                flag = settle(v) ^ v
                if not reference_closed_inside(v, rows, cols):
                    assert flag == failed, (p, v)
                    continue
                count, rest = 0, v
                while rest:
                    rest &= ~reach(rest & -rest, rows, v)
                    count += 1
                assert flag == (one if count < 2 else several), (p, v)

    def test_exit_keeps_what_the_reference_accepts(self):
        # Every chosen set, with everything it dominates undecided: the
        # exit's keep/drop decisions, whether a completion carries its
        # parent's one closed component or is settled afresh.
        for p in kernel_corpus():
            if p.n > 8:
                continue
            rows, cols = p.strict.rows, p.strict.columns()
            _, settle = _cycle_tests(rows, cols)
            completions = _closed_completions(rows, settle)
            accepted = {v for v in subsets(p.all_mask)
                        if reference_closed_inside(v, rows, cols)}
            for chosen in subsets(p.all_mask):
                undecided = image(chosen, rows) & ~chosen
                assert sorted(completions(chosen, undecided)) == [
                    v for v in (chosen | s for s in subsets(undecided))
                    if v in accepted], (p, chosen)

    def test_only_the_cyclic_route_builds_tables(self, monkeypatch):
        def refuse(rows, cols):
            raise AssertionError("tables built")

        monkeypatch.setattr("stableset.solutions._cycle_tests", refuse)
        p = cyclic_problem(8, 0.5, 0)
        vnm_stable_sets(p)
        socially_stable_sets(p, SociallyInterp.RESTRICT_CLOSURE)
        with pytest.raises(AssertionError, match="tables built"):
            socially_stable_sets(p, SociallyInterp.CLOSURE_OF_RESTRICTION)


class TestFamilies:
    def test_generalized(self):
        assert fam(generalized_stable_sets(CYCLE_WITH_TAIL)) == [(0,), (1,), (2,)]
        assert fam(generalized_stable_sets(SYMMETRIC_PAIR)) == [(0, 1)]
        assert fam(generalized_stable_sets(CHAIN)) == [(0,)]

    def test_socially_both_interpretations(self):
        assert fam(socially_stable_sets(CYCLE_WITH_TAIL)) == \
            [(0, 1), (0, 2), (0, 1, 2)]
        assert fam(socially_stable_sets(
            CYCLE_WITH_TAIL, SociallyInterp.CLOSURE_OF_RESTRICTION)) == \
            [(0, 1, 2)]
        for interp in SociallyInterp:
            assert fam(socially_stable_sets(CHAIN, interp)) == [(0,)]

    def test_socially_meets_every_maximal_component(self):
        for p in corpus_digraphs():
            if p.n > 8:
                continue
            c = equipotence_classes(p)
            top = [c.classes[i] for i in members(maximal_classes(c))]
            for interp in SociallyInterp:
                for v in socially_stable_sets(p, interp):
                    assert all(v & comp for comp in top), (p, interp, v)

    def test_maximal_classes_match_the_contraction(self):
        # The reference derivation: the classes with no incoming edge in
        # the condensation, in its topological order.  The kernel corpus
        # holds the digraph and tournament corpora.
        for p in kernel_corpus():
            c = equipotence_classes(p)
            expected = tuple(c.classes[i]
                             for i in members(maximal_classes(c)))
            assert _maximal_classes(p) == expected, p

    def test_m_stable(self):
        assert fam(m_stable_sets(CYCLE_WITH_TAIL)) == [(0, 1, 2)]
        assert fam(m_stable_sets(SYMMETRIC_PAIR)) == [(0,), (1,), (0, 1)]
        assert fam(m_stable_sets(CHAIN)) == [(0,)]

    def test_w_stable(self):
        assert fam(w_stable_sets(CYCLE_WITH_TAIL)) == [(0,), (1,), (2,)]
        assert fam(w_stable_sets(SYMMETRIC_PAIR)) == [(0,), (1,), (0, 1)]
        assert fam(w_stable_sets(THREE_CYCLE)) == [(0,), (1,), (2,)]

    def test_extended(self):
        assert fam(extended_stable_sets(CYCLE_WITH_TAIL)) == [(0,), (1,), (2,)]
        assert fam(extended_stable_sets(CHAIN)) == [(0,)]
        assert fam(extended_stable_sets(SYMMETRIC_PAIR)) == [(0, 1)]

    def test_every_member_passes_its_checker(self):
        for seed in range(150):
            p = random_problem(1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
            for concept in (Concept.GENERALIZED, Concept.M_STABLE,
                            Concept.EXTENDED):
                q = dominance_for(p, concept)
                for v in solve(p, concept):
                    if concept is Concept.M_STABLE:
                        continue  # m-stability is not the plain checker shape
                    assert is_stable_set(v, q).ok


class TestFamilyRepresentation:
    def test_counts(self):
        comps = (from_members([0, 1, 2]), from_members([3, 4]))
        one = SolutionFamily(FamilyForm.ONE_PER_COMPONENT, components=comps)
        assert one.count() == 6 == len(list(one))
        reps = SolutionFamily(FamilyForm.SUBSET_OF_REPRESENTATIVES,
                              components=comps)
        assert reps.count() == 11 == len(list(reps))
        unions = SolutionFamily(FamilyForm.UNIONS_OF_COMPONENTS,
                                components=comps)
        assert unions.count() == 3 == len(list(unions))

    def test_iteration_order(self):
        comps = (from_members([1, 2]), from_members([0, 3]))
        order = {
            # The product streams in component order, last component fastest.
            FamilyForm.ONE_PER_COMPONENT: [3, 10, 5, 12],
            FamilyForm.SUBSET_OF_REPRESENTATIVES: [1, 2, 3, 4, 5, 8, 10, 12],
            FamilyForm.UNIONS_OF_COMPONENTS: [6, 9, 15],
        }
        for form, expected in order.items():
            assert list(SolutionFamily(form, components=comps)) == expected

    def test_first_member_without_enumeration(self):
        comps = (from_members([1, 2]), from_members([0, 3]))
        first = {FamilyForm.ONE_PER_COMPONENT: 3,
                 FamilyForm.SUBSET_OF_REPRESENTATIVES: 1,
                 FamilyForm.UNIONS_OF_COMPONENTS: 6}
        for form, expected in first.items():
            family = SolutionFamily(form, components=comps)
            assert next(iter(family), 0) == expected
        assert next(iter(SolutionFamily(FamilyForm.EXPLICIT)), 0) == 0
        for p in corpus_digraphs(count=100):
            for concept in Concept:
                family = solve(p, concept)
                assert next(iter(family), 0) == \
                    (reference_order(family) or [0])[0]
        # 2^2000 - 1 w-stable and m-stable sets: the first is found
        # without the others.
        for form in (FamilyForm.SUBSET_OF_REPRESENTATIVES,
                     FamilyForm.UNIONS_OF_COMPONENTS):
            edgeless = SolutionFamily(
                form, components=tuple(1 << x for x in range(2000)))
            assert next(iter(edgeless), 0) == 1

    @pytest.mark.parametrize("form", [FamilyForm.UNIONS_OF_COMPONENTS,
                                      FamilyForm.SUBSET_OF_REPRESENTATIVES])
    def test_ascending_members_come_without_the_whole_product(self, form):
        # 2^20 - 1 members; building and sorting them all takes about 59 MiB.
        family = SolutionFamily(form,
                                components=tuple(1 << x for x in range(20)))
        tracemalloc.start()
        try:
            head = list(islice(family, 10_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert head == list(range(1, 10_001))
        assert peak < 4 * 2 ** 20

    def test_contains_without_enumeration(self):
        listed = SolutionFamily(FamilyForm.EXPLICIT,
                                explicit=(from_members([0]),
                                          from_members([1, 2])))
        assert listed.contains(from_members([1, 2]))
        assert not listed.contains(from_members([1]))
        assert not listed.contains(0)
        comps = (from_members([0, 1]), from_members([2]))
        one = SolutionFamily(FamilyForm.ONE_PER_COMPONENT, components=comps)
        assert one.contains(from_members([0, 2]))
        assert not one.contains(from_members([0, 1, 2]))
        assert not one.contains(from_members([0, 3]))
        assert not one.contains(0)
        reps = SolutionFamily(FamilyForm.SUBSET_OF_REPRESENTATIVES,
                              components=comps)
        assert reps.contains(from_members([1]))
        assert not reps.contains(from_members([0, 1]))
        unions = SolutionFamily(FamilyForm.UNIONS_OF_COMPONENTS,
                                components=comps)
        assert unions.contains(from_members([0, 1]))
        assert not unions.contains(from_members([0]))

    def test_contains_agrees_with_iteration(self):
        for seed in range(100):
            p = random_problem(1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
            for concept in (Concept.GENERALIZED, Concept.M_STABLE,
                            Concept.W_STABLE, Concept.EXTENDED):
                family = solve(p, concept)
                listed = set(family)
                assert len(listed) == family.count()
                for v in range(1, 1 << p.n):
                    assert family.contains(v) == (v in listed)


def gapped(comps):
    """Whether an untouched byte lies between two touched ones."""
    touched = sum(comps)
    top = (touched.bit_length() + 7) // 8
    return any(not touched >> 8 * k & 255
               for k in range((touched & -touched).bit_length() // 8, top))


class TestBlocks:
    """`SolutionFamily.blocks` and the iteration built on it, against the
    order of the whole product."""

    FORMS = (FamilyForm.UNIONS_OF_COMPONENTS,
             FamilyForm.SUBSET_OF_REPRESENTATIVES,
             FamilyForm.ONE_PER_COMPONENT)

    @staticmethod
    def check(family):
        assert list(family) == reference_order(family)
        highs = []
        for high, lows in family.blocks():
            assert high & 255 == 0
            assert lows and list(lows) == sorted(set(lows))
            assert 0 <= lows[0] and lows[-1] < 256
            highs.append(high)
        if family.form is not FamilyForm.ONE_PER_COMPONENT:
            # One block per high part, in ascending order, as `blocks`
            # states for the ascending forms.
            assert highs == sorted(set(highs))

    def test_seeded_partitions(self):
        partitions = product_partitions()
        assert len(partitions) >= 1000
        # Components that straddle a byte boundary tie a member's low byte
        # to its high part.
        assert sum(any(c & 0xFF and c >> 8 for c in comps)
                   for _, comps in partitions) >= 300
        assert sum(any(c & 0xFFFF and c >> 16 for c in comps)
                   for _, comps in partitions) >= 100
        assert sum(gapped(comps) for _, comps in partitions) >= 100
        for n, comps in partitions:
            for form in self.FORMS:
                self.check(SolutionFamily(form, components=comps))

    @pytest.mark.parametrize("form", FORMS)
    def test_untouched_bytes_add_no_level(self, form):
        # Three components spread over 1,000 bytes: the walk branches on
        # the alternatives above the low byte, never once per byte.
        n = 8010
        comps = (1 << n - 3, 1 << n - 5, (1 << n - 1) | 1)
        self.check(SolutionFamily(form, components=comps))

    @pytest.mark.parametrize("form", FORMS)
    def test_one_large_component(self, form):
        # 2,000 members, all but eight above the low byte, where each
        # representative is a block of its own.
        self.check(SolutionFamily(form, components=((1 << 2000) - 1,)))

    @pytest.mark.parametrize("form", FORMS)
    def test_straddling_components(self, form):
        # Bits {1, 11}, {6, 7}, {5, 8, 16, 18}, {9} and {10}: the member
        # {9} has a high part that touches no straddling component, like
        # the empty high part.
        comps = (2050, 192, 327968, 512, 1024)
        family = SolutionFamily(form, components=comps)
        self.check(family)
        if form is not FamilyForm.ONE_PER_COMPONENT:
            assert family.contains(512) and 512 in list(family)

    def test_explicit_runs(self):
        explicit = (3, 5, 256, 300, 257, 1 << 40, (1 << 40) | 7)
        family = SolutionFamily(FamilyForm.EXPLICIT, explicit=explicit)
        self.check(family)
        assert list(family.blocks()) == [(0, (3, 5)), (256, (0, 1, 44)),
                                         (1 << 40, (0, 7))]


class TestInclusions:
    def test_core_schwartz_duggan_chain(self):
        for seed in range(300):
            p = random_problem(1 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed)
            c = core(p)
            s = schwartz_set(p)
            d = duggan_set(p)
            assert c & ~s == 0
            assert s & ~d == 0

    def test_generalized_members_are_w_stable(self):
        for seed in range(150):
            p = random_problem(1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
            ws = w_stable_sets(p)
            for v in generalized_stable_sets(p):
                assert ws.contains(v)

    def test_schwartz_is_an_m_stable_member(self):
        for seed in range(150):
            p = random_problem(1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed)
            assert m_stable_sets(p).contains(schwartz_set(p))


class TestUndominatedPairs:
    def test_three_cycle_minimal_pairs(self):
        # Frozen from pair enumeration: each cycle member generates a minimal
        # pair whose ground adds its one-step dominator.
        got = [(members(u.generator), members(u.ground))
               for u in undominated_pairs(THREE_CYCLE)]
        assert got == [((1,), (0, 1)), ((0,), (0, 2)), ((2,), (1, 2))]

    def test_chain_single_pair_from_top(self):
        got = [(members(u.generator), members(u.ground))
               for u in undominated_pairs(CHAIN)]
        assert got == [((0,), (0,))]

    def test_pairgenerators_match_duggan_on_tail_instance(self):
        assert top_pairgenerators(CYCLE_WITH_TAIL) == duggan_set(CYCLE_WITH_TAIL)

    def test_limit(self):
        p = random_problem(9, 0.5, 1)
        with pytest.raises(LimitExceeded):
            undominated_pairs(p)
