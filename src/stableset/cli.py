"""Command-line surface.

Subcommands: solve, verify, contract, topology, random.  Results go to
`sys.stdout.writelines` as JSON, so any `io.TextIOBase` may be stdout.
Exit codes: 0 success, 1 solver error, 2 oracle mismatch, 64 usage error.
Timings are opt-in (--timings) so default output stays byte-stable; their
`total_s` covers reading, parsing and solving, but not writing the answer,
which for a large product-form family is most of the call.
`verify --max-n` is the largest trial size, at most the oracle's ceiling.
The argument parsers are built once per process, on the first call; a call
that starts with its subcommand is parsed by that subcommand's parser
alone, and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Sequence

from . import io as sio
from .bitset import from_members, members
from .contraction import equipotence_classes
from .errors import LimitExceeded, ParseError, StablesetError, check_size
from .oracle import cross_verify, gocha_bruteforce, random_problem
from .order_topology import (Poset, dm_completion, excluded_set_topology,
                             frink_ideals)
from .relations import DecisionProblem, strict_poset_order
from .solutions import (SUBSET_LIMIT, Concept, SchwartzMethod, SociallyInterp,
                        core, duggan_set, m_stable_sets, schwartz_set, solve)

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


def _number(kind, text: str, low, high, expected: str):
    """kind(text) if it reads and lies in [low, high]; else a usage error
    that says what was expected, whatever kind(text) raised."""
    try:
        value = kind(text)
    except ValueError:
        pass
    else:
        if low <= value <= high:
            return value
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")


def _positive_int(text: str) -> int:
    return _number(int, text, 1, float("inf"), "a positive integer")


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
    return _number(int, text, 0, float("inf"), "a count >= 0")


def _unit_float(text: str) -> float:
    return _number(float, text, 0.0, 1.0, "a number in [0, 1]")


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

    # The top-level parser's subcommand parsers, by name.
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="stableset")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    generating.add_argument(
        "--generator", choices=["schwartz", "duggan", "wss", "mss"],
        help="default: schwartz. Each generator's set is undominated by the "
             "relation t1 checks it against, so t1 always separates it")

    p_random = sub.add_parser("random")
    p_random.add_argument("--n", type=_alternative_count, required=True)
    p_random.add_argument("--density", type=_unit_float, default=0.5)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--tournament", action="store_true")

    return parser


def _load(path: str) -> DecisionProblem:
    return sio.parse_instance(_read_text(path))


def _read_text(path: str) -> bytes:
    """The bytes of the document at path, read up to one byte past the
    limit; `io.parse_instance` decodes only what it must.

    The first read asks for one byte past the file's size, so that a small
    document needs no buffer of the limit's size.  Only a read that fills,
    from a FIFO (size 0) or a growing file, reads on.
    """
    with open(path, "rb") as f:
        want = min(os.fstat(f.fileno()).st_size + 1, sio.BYTE_LIMIT + 1)
        data = f.read(want)
        if len(data) == want:
            data += f.read(sio.BYTE_LIMIT + 1 - want)
    if len(data) > sio.BYTE_LIMIT:
        raise ParseError(f"document exceeds {sio.BYTE_LIMIT} bytes")
    return data


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    p = _load(args.input)
    doc: dict = {"concept": args.concept}
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
        doc["family"] = sio.listed_family(family)
        if concept is Concept.SOCIALLY:
            doc["interp"] = args.interp
        if doc["family"]["count"] == 0:
            doc["note"] = "no stable set"
    if args.timings:
        doc["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    sio.write_document(sys.stdout, doc)
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
        sys.stdout.writelines(sio.export_dot(p, c))
        return EXIT_OK
    doc = {
        "classes": sio.member_lists(c.classes),
        "condensation_edges": sio.pair_list(c.cond.rows),
    }
    sio.write_document(sys.stdout, doc)
    return EXIT_OK


def _generator_set(p: DecisionProblem, generator: str) -> int:
    """The generator's set; for wss and mss, the first member of the family,
    the least Schwartz alternative or the least undominated component."""
    if generator == "duggan":
        return duggan_set(p)
    if generator == "mss":
        return min(m_stable_sets(p).components)
    top = schwartz_set(p)
    return top if generator == "schwartz" else top & -top


# The checks that read --excluded and --generator; giving either option to
# another check is a usage error.
_TOPOLOGY_OPTIONS = ("excluded", "t1", "nachbin")


def _cmd_topology(args) -> int:
    for option in ("excluded", "generator"):
        if (getattr(args, option) is not None
                and args.check not in _TOPOLOGY_OPTIONS):
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
    if args.check == "dm":
        poset = Poset(strict_poset_order(p))
        doc["cuts"] = sio.member_lists(dm_completion(poset).cuts)
    elif args.check == "frink":
        ideals = frink_ideals(Poset(strict_poset_order(p)))
        doc["ideals"] = sio.member_lists(ideals)
    elif args.check == "precont":
        # Every finite poset is precontinuous (`is_precontinuous`), so the
        # order is neither derived nor validated.
        doc["precontinuous"] = True
    elif args.check == "excluded":
        excluded = (_generator_set(p, generator) if args.excluded is None
                    else from_members(args.excluded))
        doc["excluded"] = list(members(excluded))
        doc["open_count"] = excluded_set_topology(p.n, excluded).open_count
        # A finite space is compact: the full set covers any open cover.
        doc["compact_subcover"] = [list(range(p.n))]
    elif args.check == "nachbin":
        # n >= 2 fails: no generator or --excluded set is empty (`nachbin_closed`).
        doc["nachbin_closed"] = p.n == 1
    elif args.excluded is not None:  # t1
        # Only points outside the Schwartz set are dominated (`weak_t1_separation`).
        excluded = from_members(args.excluded)
        doc["excluded"] = list(members(excluded))
        doc["separated"] = excluded & ~schwartz_set(p) == 0
    else:  # t1 with a generator
        # Schwartz, wss and mss sets lie in undominated components, and the
        # Duggan set is undominated by the asymmetric trap relation: each
        # separates, so none is built.
        doc["generator"] = generator
        doc["separated"] = True
    sio.write_document(sys.stdout, doc)
    return EXIT_OK


def _cmd_random(args) -> int:
    p = random_problem(args.n, args.density, args.seed,
                       tournament=args.tournament)
    sys.stdout.writelines(sio.instance_pieces(p))
    sys.stdout.write("\n")
    return EXIT_OK


def _parse(argv: Sequence[str]) -> tuple[str, argparse.Namespace]:
    """The command and its arguments.

    A call that names a subcommand first is parsed by that subcommand's
    own parser, which raises the errors the top-level parser would pass
    on from it; the top-level parser reads no command, an unknown one,
    and any call that may ask for help.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None or any(a.startswith(("-h", "--h")) for a in argv):
        args = parser.parse_args(argv)
        return args.command, args
    return argv[0], command.parse_args(argv[1:])


def run_cli(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
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
        return handlers[command](args)
    except (StablesetError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER_ERROR


def main():  # console entry point
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
