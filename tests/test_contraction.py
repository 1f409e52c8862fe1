from conftest import (CHAIN, CYCLE_WITH_TAIL, FOUR_CYCLE, SYMMETRIC_PAIR,
                      THREE_CYCLE, is_stable_set, kahn_contraction,
                      kernel_corpus, layered_stable_set, long_acyclic_problems,
                      maximal_classes)
from stableset.bitset import iter_bits, members
from stableset.contraction import (condensation_stable_set,
                                   equipotence_classes, extended_dominance)
from stableset.oracle import _closure, _omega, _strict, random_problem
from stableset.relations import (DecisionProblem, Relation, asymmetric_part,
                                 is_acyclic, transitive_closure)
from stableset.solutions import extended_stable_sets, generalized_stable_sets


class TestEquipotenceClasses:
    def test_cycle_with_tail(self):
        c = equipotence_classes(CYCLE_WITH_TAIL)
        assert sorted(members(cls) for cls in c.classes) == [(0, 1, 2), (3,)]
        i = c.class_of[0]
        j = c.class_of[3]
        assert c.cond.has(i, j) and not c.cond.has(j, i)

    def test_symmetric_edges_do_not_merge(self):
        c = equipotence_classes(SYMMETRIC_PAIR)
        assert sorted(members(cls) for cls in c.classes) == [(0,), (1,)]
        assert list(c.cond.pairs()) == []

    def test_acyclic_input_is_isomorphic(self):
        c = equipotence_classes(CHAIN)
        assert all(cls.bit_count() == 1 for cls in c.classes)
        cond_pairs = {(members(c.classes[i])[0], members(c.classes[j])[0])
                      for i, j in c.cond.pairs()}
        assert cond_pairs == set(CHAIN.rel.pairs())

    def test_classes_match_mutual_reachability(self):
        for seed in range(300):
            p = random_problem(1 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed)
            c = equipotence_classes(p)
            closure = transitive_closure(asymmetric_part(p.rel))
            for x in range(p.n):
                for y in range(p.n):
                    same = c.class_of[x] == c.class_of[y]
                    mutual = x == y or (closure.has(x, y) and closure.has(y, x))
                    assert same == mutual

    def test_order_takes_the_least_indexed_ready_class(self):
        # Not sources first: {1} is ready once {0} is placed, and it comes
        # before the undominated {2}.
        c = equipotence_classes(DecisionProblem.from_edges(3, [(0, 1)]))
        assert [members(cls) for cls in c.classes] == [(0,), (1,), (2,)]
        assert list(c.cond.pairs()) == [(0, 1)]
        # Not least member first: {0} waits for its dominator {3}, so the
        # extended stable set lists {3} before {1}.
        p = DecisionProblem.from_edges(4, [(3, 0), (0, 1)])
        c = equipotence_classes(p)
        assert [members(cls) for cls in c.classes] == [(2,), (3,), (0,), (1,)]
        assert list(c.cond.pairs()) == [(1, 2), (2, 3)]
        assert [members(comp) for comp in
                extended_stable_sets(p).components] == [(2,), (3,), (1,)]

    def test_condensation_always_acyclic_irreflexive(self):
        for seed in range(300):
            p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3], seed)
            cond = equipotence_classes(p).cond
            assert cond.is_irreflexive()
            assert is_acyclic(cond)


class TestMaximalComponents:
    # The undominated components, read off the condensation by the tests'
    # reference and off the components by the generalized stable sets.
    def test_examples(self):
        for p, expected in ((CYCLE_WITH_TAIL, [(0, 1, 2)]),
                            (SYMMETRIC_PAIR, [(0,), (1,)]),
                            (CHAIN, [(0,)])):
            c = equipotence_classes(p)
            assert [members(c.classes[i])
                    for i in members(maximal_classes(c))] == expected
            assert [members(comp) for comp in
                    generalized_stable_sets(p).components] == expected

    def test_never_empty(self):
        for seed in range(500):
            p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3], seed)
            assert maximal_classes(equipotence_classes(p)) != 0
            assert generalized_stable_sets(p).components


class TestExtendedDominance:
    def test_examples(self):
        assert sorted(extended_dominance(CYCLE_WITH_TAIL).pairs()) == \
            [(0, 3), (1, 3), (2, 3)]
        assert sorted(extended_dominance(THREE_CYCLE).pairs()) == []
        assert sorted(extended_dominance(CHAIN).pairs()) == \
            [(0, 1), (0, 2), (1, 2)]

    def test_acyclic_on_random(self):
        for seed in range(1000):
            p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3], seed)
            assert is_acyclic(extended_dominance(p))

    def test_matches_raw_definition(self):
        # The class-level reading must coincide with the oracle's literal
        # relation less the equipotent pairs, those mutually reachable in
        # the closure.
        for seed in range(200):
            p = random_problem(1 + seed % 7, (0.2, 0.5, 0.8)[seed % 3], seed)
            strict = _strict(p.rel)
            closure = _closure(strict)
            cols = closure.columns()
            rows = tuple(row & ~(closure.rows[x] & cols[x] | 1 << x)
                         for x, row in enumerate(_omega(strict, closure).rows))
            assert extended_dominance(p) == Relation(p.n, rows)


def class_level_equivalence_check(p):
    """Condensation edges coincide with uniform extended dominance between
    the member alternatives, computed from the raw definition."""
    c = equipotence_classes(p)
    strict = p.strict
    closure = p.closure
    n = p.n

    def equipotent(x, y):
        return x == y or (closure.has(x, y) and closure.has(y, x))

    def omega_dominates(x, y):
        if equipotent(x, y):
            return False
        return any(equipotent(x, z) and strict.has(z, w) and equipotent(w, y)
                   for z in range(n) for w in range(n))

    for i in range(c.k):
        for j in range(c.k):
            if i == j:
                continue
            uniform = all(omega_dominates(x, y)
                          for x in iter_bits(c.classes[i])
                          for y in iter_bits(c.classes[j]))
            if bool(c.cond.rows[i] >> j & 1) != uniform:
                return False
    return True


class TestClassLevelEquivalence:
    def test_examples(self):
        assert class_level_equivalence_check(CYCLE_WITH_TAIL)
        assert class_level_equivalence_check(FOUR_CYCLE)

    def test_random(self):
        for seed in range(1000):
            p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3], seed)
            assert class_level_equivalence_check(p)


class TestCondensationStableSet:
    def test_examples(self):
        c3 = equipotence_classes(CYCLE_WITH_TAIL)
        assert [members(c3.classes[i])
                for i in members(condensation_stable_set(c3))] == [(0, 1, 2)]
        c2 = equipotence_classes(CHAIN)
        assert [members(c2.classes[i])
                for i in members(condensation_stable_set(c2))] == [(0,)]
        c5 = equipotence_classes(SYMMETRIC_PAIR)
        assert condensation_stable_set(c5).bit_count() == 2

    def test_is_stable_and_unique(self):
        from stableset.bitset import subsets
        for seed in range(300):
            p = random_problem(1 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed)
            c = equipotence_classes(p)
            chosen = condensation_stable_set(c)
            assert is_stable_set(chosen, c.cond).ok
            # Enumeration oracle: acyclic relations have exactly one stable set.
            stable = [v for v in subsets((1 << c.k) - 1)
                      if v and is_stable_set(v, c.cond).ok]
            assert stable == [chosen]

    def test_one_pass_matches_the_layered_reference(self):
        for p in kernel_corpus() + long_acyclic_problems():
            c = equipotence_classes(p)
            assert condensation_stable_set(c) == layered_stable_set(c.cond)


def kahn_order(k, rows):
    """Kahn's algorithm with indegree counts; of the ready classes, the
    least comes next."""
    indeg = [0] * k
    for i in range(k):
        for j in iter_bits(rows[i]):
            indeg[j] += 1
    ready = [i for i in range(k) if indeg[i] == 0]
    out = []
    while ready:
        ready.sort()
        i = ready.pop(0)
        out.append(i)
        for j in iter_bits(rows[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    assert len(out) == k, "condensation relation is cyclic"
    return out


def closure_equipotence_classes(p):
    """Classes, class_of and cond built from the Warshall closure: classes
    by mutual reachability in order of least member, condensation edges one
    strict edge at a time, then the topological renumbering of
    `kahn_order`."""
    strict = asymmetric_part(p.rel)
    closure = transitive_closure(strict)
    raw_classes, seen = [], 0
    for x in range(p.n):
        if seen >> x & 1:
            continue
        cls = 1 << x
        for y in iter_bits(closure.rows[x] & ~seen):
            if closure.has(y, x):
                cls |= 1 << y
        raw_classes.append(cls)
        seen |= cls
    idx_of = {x: i for i, cls in enumerate(raw_classes) for x in members(cls)}
    k = len(raw_classes)
    raw_cond = [0] * k
    for x, y in strict.pairs():
        if idx_of[x] != idx_of[y]:
            raw_cond[idx_of[x]] |= 1 << idx_of[y]
    order = kahn_order(k, raw_cond)
    rank = {old: new for new, old in enumerate(order)}
    classes = tuple(raw_classes[old] for old in order)
    cond = Relation.from_pairs(k, [(rank[i], rank[j]) for i in range(k)
                                   for j in iter_bits(raw_cond[i])])
    class_of = tuple(rank[idx_of[x]] for x in range(p.n))
    return classes, class_of, cond


class TestComponentKernel:
    def test_matches_closure_construction(self):
        for p in kernel_corpus():
            c = equipotence_classes(p)
            assert (c.classes, c.class_of, c.cond) == \
                closure_equipotence_classes(p)

    def test_one_walk_matches_the_three_pass_reference(self):
        n = 1000  # mean out-degree 1 and 4, density 0.5, a tournament
        seeded = (random_problem(n, 1 / (n - 1), 0),
                  random_problem(n, 4 / (n - 1), 0),
                  random_problem(n, 0.5, 0),
                  random_problem(n, 0.5, 0, tournament=True))
        for p in kernel_corpus() + long_acyclic_problems() + seeded:
            c = equipotence_classes(p)
            assert (c.classes, c.class_of, c.cond.rows) == kahn_contraction(p)
