"""Command-line surface.

Subcommands: solve, verify, contract, topology, random.  Results go to
stdout as JSON.  Exit codes: 0 success, 1 solver error, 2 oracle mismatch,
64 usage error.  Timings are opt-in (--timings) so default output stays
byte-stable.  `verify --max-n` is the largest trial size, at most the
oracle's ceiling.  The argument parser is built once per process, on the
first call; each call still parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import io as sio
from .bitset import from_members, members
from .contraction import equipotence_classes, extended_dominance
from .errors import LimitExceeded, ParseError, StablesetError, check_size
from .oracle import cross_verify, gocha_bruteforce, random_problem
from .order_topology import (Poset, dm_completion, excluded_set_topology,
                             frink_ideals, nachbin_closed, weak_t1_separation)
from .relations import DecisionProblem, strict_poset_order, trap_relation
from .solutions import (SUBSET_LIMIT, Concept, SchwartzMethod, SociallyInterp,
                        core, duggan_set, m_stable_sets, schwartz_set, solve,
                        w_stable_sets)

EXIT_OK = 0
EXIT_SOLVER_ERROR = 1
EXIT_VERIFY_MISMATCH = 2
EXIT_USAGE = 64

_FAMILY_CONCEPTS = {
    "vnm": Concept.VNM,
    "gss": Concept.GENERALIZED,
    "sss": Concept.SOCIALLY,
    "mss": Concept.M_STABLE,
    "wss": Concept.W_STABLE,
    "ess": Concept.EXTENDED,
}
_SET_CONCEPTS = ("core", "schwartz", "duggan")
# The brute-force Schwartz route is the oracle's; the others are the library's.
_BRUTE = "brute"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _bounded(text: str, limit: int, what: str) -> int:
    """A positive integer within a size ceiling."""
    value = _positive_int(text)
    try:
        check_size(value, limit, what)
    except LimitExceeded as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _alternative_count(text: str) -> int:
    return _bounded(text, sio.PARSE_LIMIT, "parse")


def _trial_size(text: str) -> int:
    return _bounded(text, SUBSET_LIMIT, "oracle")


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text}")
    return value


def _indices(text: str) -> list[int]:
    """Comma-separated alternative indices; the mask is built once n is
    known to bound them."""
    try:
        idx = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated indices, got {text!r}") from None
    if min(idx) < 0:
        raise argparse.ArgumentTypeError(f"negative index in {text!r}")
    return idx


class _Parser(argparse.ArgumentParser):
    """Raises every usage error, including missing and unrecognized
    arguments, so that `run_cli` reports it in one line; argparse itself
    would print the usage block and exit."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stableset")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve")
    p_solve.add_argument("--concept", required=True,
                         choices=list(_SET_CONCEPTS) + list(_FAMILY_CONCEPTS))
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--interp", choices=[i.value for i in SociallyInterp],
                         default=SociallyInterp.RESTRICT_CLOSURE.value)
    p_solve.add_argument("--method",
                         choices=[m.value for m in SchwartzMethod] + [_BRUTE],
                         default=SchwartzMethod.CONDENSATION.value)
    p_solve.add_argument("--timings", action="store_true")

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--concept", required=True,
                          choices=list(_FAMILY_CONCEPTS))
    p_verify.add_argument("--trials", type=_count, default=100)
    p_verify.add_argument("--max-n", type=_trial_size, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--interp", choices=[i.value for i in SociallyInterp],
                          default=SociallyInterp.RESTRICT_CLOSURE.value)
    p_verify.add_argument("--timings", action="store_true")

    p_contract = sub.add_parser("contract")
    p_contract.add_argument("--input", required=True)
    p_contract.add_argument("--dot", action="store_true")

    p_topo = sub.add_parser("topology")
    p_topo.add_argument("--check", required=True,
                        choices=["dm", "frink", "precont", "excluded", "t1",
                                 "nachbin"])
    p_topo.add_argument("--input", required=True)
    generating = p_topo.add_mutually_exclusive_group()
    generating.add_argument("--excluded", type=_indices,
                            help="comma-separated excluded indices")
    generating.add_argument("--generator", help="default: schwartz",
                            choices=["schwartz", "duggan", "wss", "mss"])

    p_random = sub.add_parser("random")
    p_random.add_argument("--n", type=_alternative_count, required=True)
    p_random.add_argument("--density", type=_unit_float, default=0.5)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--tournament", action="store_true")

    return parser


def _load(path: str) -> DecisionProblem:
    return sio.parse_instance(_read_text(path))


def _read_text(path: str) -> str:
    """The UTF-8 document at path, less any byte-order mark, read up to one
    byte past the limit; its bytes are freed before it is parsed."""
    with open(path, "rb") as f:
        data = f.read(sio.BYTE_LIMIT + 1)
    if len(data) > sio.BYTE_LIMIT:
        raise ParseError(f"document exceeds {sio.BYTE_LIMIT} bytes")
    try:
        # Not the utf-8-sig codec: its error offsets skip the mark's 3 bytes.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    p = _load(args.input)
    doc: dict = {"concept": args.concept}
    family = None
    if args.concept == "core":
        doc["set"] = list(members(core(p)))
    elif args.concept == "schwartz":
        if args.method == _BRUTE:
            found = gocha_bruteforce(p)
        else:
            found = schwartz_set(p, SchwartzMethod(args.method))
        doc["set"] = list(members(found))
        doc["method"] = args.method
    elif args.concept == "duggan":
        doc["set"] = list(members(duggan_set(p)))
    else:
        concept = _FAMILY_CONCEPTS[args.concept]
        family = solve(p, concept, interp=SociallyInterp(args.interp))
        if concept is Concept.SOCIALLY:
            doc["interp"] = args.interp
        if family.count() == 0:
            doc["note"] = "no stable set"
    if args.timings:
        doc["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    sio.write_document(sys.stdout, doc, family)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    concept = _FAMILY_CONCEPTS[args.concept]
    interp = SociallyInterp(args.interp)
    failures = []
    for trial in range(args.trials):
        seed = args.seed + trial
        n = 1 + (seed % args.max_n)
        density = (0.2, 0.5, 0.8)[seed % 3]
        p = random_problem(n, density, seed)
        report = cross_verify(p, concept, interp=interp)
        if not report.passed:
            failures.append({
                "seed": seed, "n": n, "density": density,
                "only_constructive": [list(members(v))
                                      for v in report.only_constructive],
                "only_oracle": [list(members(v)) for v in report.only_oracle],
            })
    doc = {"concept": args.concept, "trials": args.trials,
           "status": "PASS" if not failures else "FAIL",
           "failures": failures}
    if args.timings:
        doc["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    sio.write_document(sys.stdout, doc)
    return EXIT_OK if not failures else EXIT_VERIFY_MISMATCH


def _cmd_contract(args) -> int:
    p = _load(args.input)
    c = equipotence_classes(p)
    if args.dot:
        sys.stdout.write(sio.export_dot(p, c))
        return EXIT_OK
    doc = {
        "classes": [list(members(cls)) for cls in c.classes],
        "condensation_edges": sorted([i, j] for i, j in c.cond.pairs()),
    }
    sio.write_document(sys.stdout, doc)
    return EXIT_OK


def _generator_set(p: DecisionProblem, generator: str) -> int:
    if generator == "schwartz":
        return schwartz_set(p)
    if generator == "duggan":
        return duggan_set(p)
    family = w_stable_sets(p) if generator == "wss" else m_stable_sets(p)
    return next(iter(family), 0)


# The options each topology check reads; giving it another is a usage error.
_TOPOLOGY_OPTIONS = {"excluded": ("excluded", "generator"),
                     "t1": ("generator",), "nachbin": ("excluded", "generator")}


def _cmd_topology(args) -> int:
    for option in ("excluded", "generator"):
        if (getattr(args, option) is not None
                and option not in _TOPOLOGY_OPTIONS.get(args.check, ())):
            sys.stderr.write(f"usage error: --{option} does not apply to "
                             f"--check {args.check}\n")
            return EXIT_USAGE
    generator = args.generator or "schwartz"
    p = _load(args.input)
    if args.excluded is not None and max(args.excluded) >= p.n:
        sys.stderr.write(f"usage error: --excluded: index out of range "
                         f"for n={p.n}\n")
        return EXIT_USAGE
    doc: dict = {"check": args.check}
    if args.check in ("dm", "frink", "nachbin"):
        poset = Poset(strict_poset_order(p))
    if args.check in ("excluded", "t1", "nachbin"):
        excluded = (_generator_set(p, generator) if args.excluded is None
                    else from_members(args.excluded))
        top = excluded_set_topology(p.n, excluded)
    if args.check == "dm":
        doc["cuts"] = [list(members(c)) for c in dm_completion(poset).cuts]
    elif args.check == "frink":
        doc["ideals"] = [list(members(i)) for i in frink_ideals(poset)]
    elif args.check == "precont":
        # Every finite poset is precontinuous (`is_precontinuous`), so the
        # order is neither derived nor validated.
        doc["precontinuous"] = True
    elif args.check == "excluded":
        doc["excluded"] = list(members(excluded))
        doc["open_count"] = top.open_count
        # A finite space is compact: the full set covers any open cover.
        doc["compact_subcover"] = [list(range(p.n))]
    elif args.check == "t1":
        doc["generator"] = generator
        # The check reads only which points the relation dominates, and a
        # relation dominates the same points as its transitive closure, so
        # these one-step relations stand in for the closures.
        dominance = (trap_relation(p) if generator == "duggan"
                     else extended_dominance(p))
        doc["separated"] = weak_t1_separation(top, dominance)
    else:  # nachbin
        doc["nachbin_closed"] = nachbin_closed(top, poset.leq)
    sio.write_document(sys.stdout, doc)
    return EXIT_OK


def _cmd_random(args) -> int:
    p = random_problem(args.n, args.density, args.seed,
                       tournament=args.tournament)
    sys.stdout.write(sio.serialize_instance(p) + "\n")
    return EXIT_OK


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "contract": _cmd_contract,
        "topology": _cmd_topology,
        "random": _cmd_random,
    }
    try:
        return handlers[args.command](args)
    except (StablesetError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER_ERROR


def main():  # console entry point
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
