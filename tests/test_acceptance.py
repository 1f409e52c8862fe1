"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines directly;
under plain `pytest` they appear in captured output on failure.
"""

import sys
import time
from pathlib import Path

import pytest

from conftest import (CYCLE_WITH_TAIL, FIVE_CYCLE, FOUR_CYCLE, THREE_CYCLE,
                      corpus_digraphs, corpus_tournaments)
from stableset.bitset import from_members, members, subsets
from stableset.contraction import equipotence_classes, extended_dominance
from stableset.oracle import (cross_verify, enumerate_solutions,
                              gocha_bruteforce, random_problem)
from stableset.order_topology import (Poset, delta_closure, dm_completion,
                                      excluded_set_topology, is_precontinuous,
                                      weak_t1_separation)
from stableset.relations import (DecisionProblem, asymmetric_part, is_acyclic,
                                 strict_poset_order, transitive_closure,
                                 trap_relation)
from stableset.solutions import (Concept, SchwartzMethod, SociallyInterp,
                                 core, duggan_set, schwartz_set,
                                 top_pairgenerators, vnm_stable_sets,
                                 w_stable_sets)

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


@pytest.fixture(scope="module")
def digraphs():
    return corpus_digraphs()


@pytest.fixture(scope="module")
def tournaments():
    return corpus_tournaments()


def report(number, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s)",
          file=sys.stderr)


def test_criterion_1_schwartz_triple_equivalence(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    for p in digraphs + tournaments:
        a = schwartz_set(p, SchwartzMethod.CONDENSATION)
        b = schwartz_set(p, SchwartzMethod.DEB)
        c = gocha_bruteforce(p)
        if not (a == b == c):
            ok = False
            break
    report(1, "schwartz-triple-equivalence", ok, time.perf_counter() - started)
    assert ok


def test_criterion_2_characterization_equivalences(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    witness = None
    concepts = (Concept.GENERALIZED, Concept.M_STABLE,
                Concept.W_STABLE, Concept.EXTENDED)
    for p in digraphs + tournaments:
        for concept in concepts:
            r = cross_verify(p, concept, max_n=10)
            if not r.passed:
                ok = False
                witness = (p, concept, r)
                break
        if not ok:
            break
    report(2, "characterization-equivalences", ok,
           time.perf_counter() - started)
    assert ok, witness


def test_criterion_3_vnm_classics():
    started = time.perf_counter()
    ok = (tuple(vnm_stable_sets(THREE_CYCLE)) == ()
          and tuple(vnm_stable_sets(FIVE_CYCLE)) == ()
          and [members(v) for v in vnm_stable_sets(FOUR_CYCLE)]
          == [(0, 2), (1, 3)])
    dag_count = 0
    seed = 0
    while dag_count < 100:
        p = random_problem(1 + seed % 10, (0.2, 0.5, 0.8)[seed % 3],
                           50_000 + seed)
        seed += 1
        # Orient every strict edge low-to-high to force acyclicity.
        edges = [(min(x, y), max(x, y))
                 for x, y in asymmetric_part(p.rel).pairs()]
        dag = DecisionProblem.from_edges(p.n, edges)
        if not is_acyclic(dag.rel):
            continue
        dag_count += 1
        family = tuple(vnm_stable_sets(dag))
        if len(family) != 1 or core(dag) & ~family[0]:
            ok = False
            break
    report(3, "vnm-classics", ok, time.perf_counter() - started)
    assert ok


def test_criterion_4_inclusion_chain(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    for p in digraphs + tournaments:
        c = core(p)
        s = schwartz_set(p)
        d = duggan_set(p)
        if c & ~s or s & ~d:
            ok = False
            break
    report(4, "core-schwartz-duggan-inclusions", ok,
           time.perf_counter() - started)
    assert ok


def test_criterion_5_duggan_pair_decomposition(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    for p in digraphs + tournaments:
        if p.n > 8:
            continue
        strict_cols = asymmetric_part(p.rel).columns()
        undominated = from_members(x for x in range(p.n)
                                   if strict_cols[x] == 0)
        if duggan_set(p) != undominated | top_pairgenerators(p):
            ok = False
            break
    report(5, "duggan-pair-decomposition", ok, time.perf_counter() - started)
    assert ok


def test_criterion_6_acyclicity(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    for p in digraphs + tournaments:
        if not (is_acyclic(equipotence_classes(p).cond)
                and is_acyclic(trap_relation(p))
                and is_acyclic(extended_dominance(p))):
            ok = False
            break
    report(6, "derived-relation-acyclicity", ok, time.perf_counter() - started)
    assert ok


def test_criterion_7_topology_replay(digraphs, tournaments):
    started = time.perf_counter()
    ok = True
    for p in digraphs + tournaments:
        strict = asymmetric_part(transitive_closure(asymmetric_part(p.rel)))
        w_member = next(iter(w_stable_sets(p)), 0)
        if w_member:
            top = excluded_set_topology(p.n, w_member)
            if not weak_t1_separation(top, strict):
                ok = False
                break
        m_member = schwartz_set(p)
        if m_member:
            top = excluded_set_topology(p.n, m_member)
            if not weak_t1_separation(top, strict):
                ok = False
                break
        top = excluded_set_topology(p.n, duggan_set(p))
        if not weak_t1_separation(top, transitive_closure(trap_relation(p))):
            ok = False
            break
    report(7, "separation-replay", ok, time.perf_counter() - started)
    assert ok


def test_criterion_8_order_lab_sanity():
    started = time.perf_counter()
    ok = True
    counterexample = None
    for seed in range(300):
        p = random_problem(1 + seed % 6, (0.2, 0.5, 0.8)[seed % 3], seed)
        poset = Poset(strict_poset_order(p))
        for a in subsets(poset.all_mask):
            ca = delta_closure(poset, a)
            if a & ~ca or delta_closure(poset, ca) != ca:
                ok = False
                counterexample = ("closure-law", seed, a)
                break
        cuts = set(dm_completion(poset).cuts)
        if poset.all_mask not in cuts or any(a & b not in cuts
                                             for a in cuts for b in cuts):
            ok = False
            counterexample = ("lattice", seed)
        if not is_precontinuous(poset):
            ok = False
            counterexample = ("precontinuity", seed)
        if not ok:
            break
    if counterexample is not None:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        (ARTIFACT_DIR / "order_lab_counterexample.txt").write_text(
            repr(counterexample) + "\n")
    report(8, "order-lab-sanity", ok, time.perf_counter() - started)
    assert ok, counterexample


def test_criterion_9_socially_dual_interpretation():
    started = time.perf_counter()
    rc = [members(v) for v in enumerate_solutions(
        CYCLE_WITH_TAIL, Concept.SOCIALLY,
        interp=SociallyInterp.RESTRICT_CLOSURE)]
    cr = [members(v) for v in enumerate_solutions(
        CYCLE_WITH_TAIL, Concept.SOCIALLY,
        interp=SociallyInterp.CLOSURE_OF_RESTRICTION)]
    ok = rc == [(0, 1), (0, 2), (0, 1, 2)] and cr == [(0, 1, 2)]
    print(f"note: socially-stable interpretations diverge on the 3-cycle"
          f"-with-tail instance: restrict-closure {rc} vs "
          f"closure-of-restriction {cr} (documented, not a failure)",
          file=sys.stderr)
    report(9, "socially-dual-interpretation", ok,
           time.perf_counter() - started)
    assert ok
