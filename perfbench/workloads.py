"""The three workloads: seeded corpora written as instance files (set-up),
and one pass of CLI operations over them with the expected answers.

Every instance comes from `stableset.oracle.random_problem`, seeded from the
workload seed; the CLI sees only the written files.  The mix within a pass
is weighted so that the median and the tail latency land inside a class of
similar operations rather than in a gap between two classes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("large-graphs", "subset-search", "small-verify")
SET_CONCEPTS = ("core", "schwartz", "duggan")
GRAPH_CONCEPTS = SET_CONCEPTS + ("gss", "ess")
FAMILY_CONCEPTS = ("vnm", "gss", "sss", "mss", "wss", "ess")
TOPOLOGY_CHECKS = ("dm", "frink", "precont", "excluded", "t1", "nachbin")
INTERPS = ("restrict_closure", "closure_of_restriction")
# Seconds one pass takes at reference speed, measured on the code the
# benchmark was defined on.  A run makes --seconds / PASS_SECONDS passes
# (at least one), a count that later changes to the program do not move:
# at 15 s, 1 pass of large-graphs, 2 of subset-search, 83 of small-verify.
PASS_SECONDS = {"large-graphs": 12.8, "subset-search": 6.0,
                "small-verify": 0.18}


@dataclass(frozen=True)
class Instance:
    name: str
    path: str
    problem: object  # stableset.relations.DecisionProblem


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], Optional[str]]


def _kinds(n: int):
    """Sparse (mean out-degree 4), dense (density 0.5) and tournaments."""
    return (("sparse", 4 / (n - 1), False), ("dense", 0.5, False),
            ("tournament", 0.5, True))


def _specs(workload: str, seed: int):
    """(name, n, density, instance seed, tournament, must be cyclic)."""
    base = seed * 100
    if workload == "large-graphs":
        # Four instances per kind at n=200, so that those operations
        # outnumber the n=1000 ones and the median falls among them.
        return [(f"{kind}-{n}-{copy}", n, d, base + copy, t, False)
                for n, copies in ((200, 4), (1000, 1))
                for kind, d, t in _kinds(n) for copy in range(copies)]
    if workload == "subset-search":
        # Two instances per kind and size, so that the median rests on
        # more than one draw of each.
        return ([(f"{kind}-{n}-{copy}", n, d, base + copy, t, True)
                 for n in (10, 11, 12)
                 for kind, d, t in (("cyclic-0.2", 0.2, False),
                                    ("cyclic-0.5", 0.5, False),
                                    ("tournament", 0.5, True))
                 for copy in range(2)]
                + [(f"edgeless-{n}", n, 0.0, base, False, False)
                   for n in (14, 16)])
    if workload == "small-verify":
        return ([(f"poset-{n}", n, 0.3, base, False, False) for n in (6, 8)]
                + [(f"{kind}-50", 50, d, base, t, False)
                   for kind, d, t in _kinds(50)])
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """Generate the corpus and write one JSON instance file per problem."""
    from stableset.io import serialize_instance
    from stableset.oracle import random_problem

    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, n, density, inst_seed, tournament, cyclic in _specs(workload, seed):
        p = random_problem(n, density, inst_seed, tournament=tournament)
        while cyclic and not ref.is_cyclic(p.rel.rows):
            inst_seed += 1
            p = random_problem(n, density, inst_seed, tournament=tournament)
        path = workdir / f"{name}.json"
        path.write_text(serialize_instance(p))
        out.append(Instance(name, str(path), p))
    return out


def operations(workload: str, seed: int, corpus: list[Instance]) -> list[Op]:
    """One pass of operations, each with its expected answer attached."""
    return {"large-graphs": _large_graphs,
            "subset-search": _subset_search,
            "small-verify": _small_verify}[workload](seed, corpus)


def _solve(inst: Instance, concept: str, *extra: str) -> tuple[str, ...]:
    return ("solve", "--concept", concept, *extra, "--input", inst.path)


def _graph_ops(inst: Instance, with_contract: bool) -> list[Op]:
    comps = ref.components(inst.problem.rel.rows)
    expected_sets = {"core": comps.core(), "schwartz": comps.schwartz(),
                     "duggan": comps.duggan()}
    ops = []
    for concept in GRAPH_CONCEPTS:
        if concept in expected_sets:
            check = functools.partial(ref.check_set,
                                      expected=expected_sets[concept])
        else:
            check = functools.partial(ref.check_family,
                                      ref=comps.family(concept))
        ops.append(Op(f"solve {concept} {inst.name}", _solve(inst, concept),
                      check))
    if with_contract:
        ops.append(Op(f"contract {inst.name}",
                      ("contract", "--input", inst.path),
                      functools.partial(ref.check_contract, ref=comps)))
    return ops


def _large_graphs(seed: int, corpus: list[Instance]) -> list[Op]:
    return [op for inst in corpus for op in _graph_ops(inst, True)]


def _subset_search(seed: int, corpus: list[Instance]) -> list[Op]:
    from stableset.oracle import enumerate_solutions, gocha_bruteforce
    from stableset.solutions import Concept, SociallyInterp

    def oracle_family(inst, concept, tag, interp=INTERPS[0], comps=None):
        sets = frozenset(enumerate_solutions(
            inst.problem, concept, interp=SociallyInterp(interp),
            max_n=inst.problem.n))
        if comps is not None and len(sets) != comps.count:
            raise RuntimeError(f"oracle and component reference disagree on "
                               f"{tag} {inst.name}")
        family = ref.FamilyRef(tag, len(sets),
                               comps.comps if comps else None, sets)
        return functools.partial(ref.check_family, ref=family)

    ops = []
    for inst in corpus:
        if inst.name.startswith("edgeless"):
            comps = ref.components(inst.problem.rel.rows)
            # The n=16 emission calls are repeated so that the tail latency
            # lands among them rather than below them.
            repeat = 4 if inst.problem.n == 16 else 1
            for tag, concept, times in (("gss", Concept.GENERALIZED, 1),
                                        ("mss", Concept.M_STABLE, repeat),
                                        ("wss", Concept.W_STABLE, repeat)):
                check = oracle_family(inst, concept, tag,
                                      comps=comps.family(tag))
                ops += [Op(f"solve {tag} {inst.name}", _solve(inst, tag),
                           check)] * times
            continue
        ops.append(Op(f"solve vnm {inst.name}", _solve(inst, "vnm"),
                      oracle_family(inst, Concept.VNM, "vnm")))
        for interp in INTERPS:
            ops.append(Op(f"solve sss {interp} {inst.name}",
                          _solve(inst, "sss", "--interp", interp),
                          oracle_family(inst, Concept.SOCIALLY, "sss", interp)))
        ops.append(Op(f"solve schwartz brute {inst.name}",
                      _solve(inst, "schwartz", "--method", "brute"),
                      functools.partial(ref.check_set,
                                        expected=gocha_bruteforce(inst.problem))))
    return ops


def _small_verify(seed: int, corpus: list[Instance]) -> list[Op]:
    # 48 trials visit each n in 1..8 six times.  That makes `verify` the
    # slowest calls here, so the tail rests on them and not on the single
    # n=8 poset, whose cost swings with its shape from seed to seed; and
    # the many trials even out the cost of the random problems they draw.
    ops = [Op(f"verify {concept}",
              ("verify", "--concept", concept, "--max-n", "8", "--trials", "48",
               "--seed", str(seed)),
              ref.check_verify)
           for concept in FAMILY_CONCEPTS]
    for inst in corpus:
        if inst.name.startswith("poset"):
            for check in TOPOLOGY_CHECKS:
                expected = json.loads(json.dumps(topology_doc(inst.problem,
                                                              check)))
                ops.append(Op(f"topology {check} {inst.name}",
                              ("topology", "--check", check, "--input",
                               inst.path),
                              functools.partial(ref.check_equal,
                                                expected=expected)))
        else:
            ops += _graph_ops(inst, False)
    return ops


def topology_doc(p, check: str) -> dict:
    """What `stableset topology --check <check>` must print for p, from the
    Python API (the Schwartz set generates the excluded-set topology)."""
    from stableset import (Poset, asymmetric_part, dm_completion,
                           excluded_set_topology, frink_ideals,
                           is_precontinuous, nachbin_closed, schwartz_set,
                           strict_poset_order, transitive_closure,
                           weak_t1_separation)
    from stableset.bitset import full_mask, members

    doc: dict = {"check": check}
    if check in ("dm", "frink", "precont"):
        poset = Poset(strict_poset_order(p))
        if check == "dm":
            doc["cuts"] = [list(members(c)) for c in dm_completion(poset).cuts]
        elif check == "frink":
            doc["ideals"] = [list(members(i)) for i in frink_ideals(poset)]
        else:
            doc["precontinuous"] = is_precontinuous(poset)
        return doc
    excluded = schwartz_set(p)
    top = excluded_set_topology(p.n, excluded)
    if check == "excluded":
        doc["excluded"] = list(members(excluded))
        doc["open_count"] = len(top.opens)
        doc["compact_subcover"] = [list(members(full_mask(p.n)))]
    elif check == "t1":
        strict = asymmetric_part(transitive_closure(asymmetric_part(p.rel)))
        doc["generator"] = "schwartz"
        doc["separated"] = weak_t1_separation(top, strict)
    else:
        doc["nachbin_closed"] = nachbin_closed(top, strict_poset_order(p))
    return doc
