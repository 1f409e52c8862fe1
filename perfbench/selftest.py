"""Self-test of the benchmark: its references, its failure accounting and its
tracer.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def corpus(count=300, max_n=10):
    """Seeded mixed-density digraphs and tournaments, n cycling 1..max_n."""
    from stableset.oracle import random_problem
    out = []
    for seed in range(count):
        n = 1 + seed % max_n
        out.append(random_problem(n, (0.2, 0.5, 0.8)[seed % 3], seed))
        out.append(random_problem(n, 0.5, seed, tournament=True))
    return out


class ComponentReference(unittest.TestCase):
    """The strong-component reference agrees with the library and the
    oracle at n <= 10."""

    def test_sets(self):
        from stableset import core, duggan_set, gocha_bruteforce, schwartz_set
        for p in corpus():
            comps = ref.components(p.rel.rows)
            self.assertEqual(comps.core(), core(p))
            self.assertEqual(comps.schwartz(), schwartz_set(p))
            self.assertEqual(comps.schwartz(), gocha_bruteforce(p))
            self.assertEqual(comps.duggan(), duggan_set(p))

    def test_families(self):
        from stableset import Concept, enumerate_solutions, solve
        from stableset.io import family_document
        concepts = {"gss": Concept.GENERALIZED, "ess": Concept.EXTENDED,
                    "mss": Concept.M_STABLE, "wss": Concept.W_STABLE}
        for p in corpus(count=120):
            comps = ref.components(p.rel.rows)
            for tag, concept in concepts.items():
                family = comps.family(tag)
                sets = frozenset(enumerate_solutions(p, concept))
                self.assertEqual(family.count, len(sets))
                doc = {"family": json.loads(json.dumps(
                    family_document(solve(p, concept))))}
                self.assertIsNone(ref.check_family(doc, family))
                oracle = ref.FamilyRef(tag, len(sets), family.comps, sets)
                self.assertIsNone(ref.check_family(doc, oracle))

    def test_contraction(self):
        from stableset import equipotence_classes
        from stableset.bitset import members
        for p in corpus(count=120):
            c = equipotence_classes(p)
            doc = {"classes": [list(members(m)) for m in c.classes],
                   "condensation_edges": sorted([i, j] for i, j in c.cond.pairs())}
            self.assertIsNone(ref.check_contract(doc, ref.components(p.rel.rows)))


class FamilyCheck(unittest.TestCase):
    """Meaning, not bytes: a bounded listing passes, a wrong set fails."""

    family = ref.FamilyRef("mss", 3, frozenset({0b01, 0b10}),
                           frozenset({0b01, 0b10, 0b11}))

    def doc(self, sets, count=3):
        return {"family": {"count": count, "components": [[0], [1]],
                           "sets": sets}}

    def test_bounded_listing_passes(self):
        self.assertIsNone(ref.check_family(self.doc([[0], [1]]), self.family))

    def test_wrong_answers_fail(self):
        self.assertIsNotNone(ref.check_family(self.doc([[0], [2]]), self.family))
        self.assertIsNotNone(ref.check_family(self.doc([[0], [0]]), self.family))
        self.assertIsNotNone(ref.check_family(self.doc([[0]], 2), self.family))


class FailureAccounting(unittest.TestCase):
    """A planted wrong answer, exit code or exception is a failed operation."""

    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(dir=self._scratch()))
        corpus_ = workloads.setup("small-verify", 3, self.workdir)
        self.ops = [op for op in workloads.operations("small-verify", 3, corpus_)
                    if op.label.startswith("solve core")]
        self.assertTrue(self.ops)
        import stableset.cli
        self.cli = stableset.cli
        self.saved = self.cli.core

    def tearDown(self):
        self.cli.core = self.saved
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _scratch() -> Path:
        path = ROOT / ".perfbench"
        path.mkdir(exist_ok=True)
        return path

    def outcome(self):
        out = run.Outcome()
        probe = run.SpeedProbe()
        for op in self.ops:
            run._execute(op, out, probe)
        return out

    def test_right_answers_pass(self):
        self.assertEqual(self.outcome().failed, 0)

    def test_planted_wrong_set(self):
        self.cli.core = lambda p: self.saved(p) ^ 1
        out = self.outcome()
        self.assertEqual(out.failed, len(self.ops))
        self.assertEqual(out.attempted, len(self.ops))

    def test_planted_exception_and_exit_code(self):
        def boom(p):
            raise RuntimeError("planted")
        self.cli.core = boom
        self.assertEqual(self.outcome().failed, len(self.ops))
        from stableset.errors import StablesetError

        def refuse(p):
            raise StablesetError("planted")
        self.cli.core = refuse
        self.assertEqual(self.outcome().failed, len(self.ops))


class Tracing(unittest.TestCase):
    def test_self_times_add_up_and_uninstall_restores(self):
        import stableset.cli
        import stableset.relations
        originals = (stableset.cli.core, stableset.relations.Relation.columns,
                     stableset.relations.DecisionProblem.__dict__["from_edges"])
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_op("ops", 0)
            with redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = stableset.cli.run_cli(["verify", "--concept", "ess",
                                              "--max-n", "6", "--trials", "6"])
                elapsed = perf_counter() - start
            root = tracer.end_op(elapsed)
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertGreater(root, 0)
        self.assertAlmostEqual(tracer.op_s, root)
        self.assertEqual(tracer.total("ops", "cli.run_cli")[0], 1)
        self.assertGreater(tracer.total("ops", "oracle.enumerate_solutions")[0], 0)
        self.assertGreater(tracer.counts["solutions.SolutionFamily.iter.sets"], 0)
        self.assertEqual(originals,
                         (stableset.cli.core, stableset.relations.Relation.columns,
                          stableset.relations.DecisionProblem.__dict__["from_edges"]))

    def test_lost_span_is_detected(self):
        tracer = Tracer()
        tracer.begin_op("ops", 0)
        span = tracer._open("x")
        tracer._close(span)
        # The operation took 10 ms longer than its spans account for.
        with self.assertRaises(RuntimeError):
            tracer.end_op(span.dur + 0.01)

    def test_per_subset_calls_are_counted_not_spanned(self):
        import stableset.cli
        from stableset.oracle import random_problem
        from stableset.io import serialize_instance
        workdir = Path(tempfile.mkdtemp(dir=FailureAccounting._scratch()))
        try:
            path = workdir / "p.json"
            path.write_text(serialize_instance(random_problem(8, 0.4, 7)))
            tracer = Tracer()
            tracer.install()
            try:
                tracer.begin_op("ops", 0)
                with redirect_stdout(io.StringIO()):
                    for argv in (["solve", "--concept", "sss", "--interp",
                                  "closure_of_restriction"],
                                 ["solve", "--concept", "ess"],
                                 ["topology", "--check", "frink"]):
                        self.assertEqual(stableset.cli.run_cli(
                            argv + ["--input", str(path)]), 0)
                tracer.end_op()
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        # 255 subsets each restrict and close once; the spans see only the
        # calls made once per operation.
        self.assertLessEqual(tracer.total("ops", "relations.restrict")[0], 1)
        self.assertGreaterEqual(
            tracer.counts["relations.restrict.per_subset_calls"], 255)
        self.assertLess(tracer.total("ops", "relations.transitive_closure")[0],
                        20)
        self.assertLess(tracer.total("ops", "relations.Relation.columns")[0],
                        20)
        self.assertGreater(
            tracer.counts["relations.Relation.columns.per_subset_calls"], 0)


class Contract(unittest.TestCase):
    """Metric names and units match BENCHMARK.json; without the sources the
    benchmark fails without printing a result."""

    def test_metric_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workdir = Path(tempfile.mkdtemp(dir=FailureAccounting._scratch()))
        try:
            plain = run.run_untraced("small-verify", 5, 0, workdir)
            traced = run.run_traced("small-verify", 5, 0, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(result["outcome"].failed, 0)
            got = {name: unit for name, (_, unit) in result["metrics"].items()}
            self.assertEqual(got, {m["name"]: m["unit"] for m in spec[key]})

    def test_fails_without_sources(self):
        bare = Path(tempfile.mkdtemp(dir=FailureAccounting._scratch()))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "small-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
