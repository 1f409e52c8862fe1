"""The JSON writer and reader: every document the CLI prints is the text
of `json.dumps(doc, indent=2, sort_keys=True)` plus a newline, where a
solved family's document is `family_document(family)`; an instance is
written as `json.dumps` writes it and read without a collector pass."""

import gc
import json
import random
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace

import pytest

from conftest import kernel_corpus, product_partitions
from stableset import io as sio
from stableset.cli import run_cli
from stableset.errors import ParseError
from stableset.io import family_document, parse_instance, serialize_instance
from stableset.oracle import random_problem
from stableset.relations import DecisionProblem, Relation
from stableset.solutions import (Concept, FamilyForm, SociallyInterp,
                                 SolutionFamily, solve)

CONCEPTS = {"vnm": Concept.VNM, "gss": Concept.GENERALIZED,
            "sss": Concept.SOCIALLY, "mss": Concept.M_STABLE,
            "wss": Concept.W_STABLE, "ess": Concept.EXTENDED}


def expected_stdout(text, concept, interp="restrict_closure", timings=None):
    """The CLI's stdout built as it was before families were streamed: the
    whole document through the encoder in one call."""
    p = parse_instance(text)
    family = solve(p, CONCEPTS[concept], interp=SociallyInterp(interp))
    doc = {"concept": concept, "family": family_document(family)}
    if CONCEPTS[concept] is Concept.SOCIALLY:
        doc["interp"] = interp
    if family.count() == 0:
        doc["note"] = "no stable set"
    if timings is not None:
        doc["timings"] = timings
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", family


def solve_stdout(capsys, path, concept, *extra):
    code = run_cli(["solve", "--concept", concept, "--input", str(path)]
                   + list(extra))
    assert code == 0
    return capsys.readouterr().out


def spanning(n, cyclic=True):
    """An instance whose undominated alternatives lie on both sides of each
    byte boundary below n; every other alternative is dominated by 0.  With
    `cyclic`, the strict 3-cycles (0, 1, 2), (7, 8, 9) and (15, 16, n - 1),
    where they fit, make undominated components of three alternatives."""
    top = {0, 1, 2, 6, 7, 8, 9, 14, 15, 16, n - 1} & set(range(n))
    edges = [(0, x) for x in range(n) if x not in top]
    if cyclic:
        for cycle in ((0, 1, 2), (7, 8, 9), (15, 16, n - 1)):
            if len(set(cycle)) == 3 and max(cycle) < n:
                edges += zip(cycle, cycle[1:] + cycle[:1])
    return json.dumps({"n": n, "edges": edges})


FORMS_BY_CONCEPT = {"mss": FamilyForm.UNIONS_OF_COMPONENTS,
                    "wss": FamilyForm.SUBSET_OF_REPRESENTATIVES,
                    "gss": FamilyForm.ONE_PER_COMPONENT,
                    "ess": FamilyForm.ONE_PER_COMPONENT}


class TestFamilyDocuments:
    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 200])
    @pytest.mark.parametrize("concept", ["mss", "wss", "gss", "ess"])
    def test_product_forms_across_byte_boundaries(self, concept, n, tmp_path,
                                                  capsys):
        path = tmp_path / "doc.json"
        path.write_text(spanning(n))
        expected, family = expected_stdout(path.read_text(), concept)
        assert family.form is FORMS_BY_CONCEPT[concept]
        assert family.count() > 1
        assert solve_stdout(capsys, path, concept) == expected

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 200])
    def test_explicit_form_across_byte_boundaries(self, n, tmp_path, capsys):
        # Acyclic instances take the VNM route without a size ceiling.
        path = tmp_path / "doc.json"
        path.write_text(spanning(n, cyclic=False))
        expected, family = expected_stdout(path.read_text(), "vnm")
        assert family.form is FamilyForm.EXPLICIT and family.count() == 1
        assert solve_stdout(capsys, path, "vnm") == expected

    @pytest.mark.parametrize("concept", ["vnm", "sss"])
    @pytest.mark.parametrize("interp", ["restrict_closure",
                                        "closure_of_restriction"])
    def test_explicit_families_with_several_sets(self, concept, interp,
                                                 tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(spanning(9))
        expected, family = expected_stdout(path.read_text(), concept, interp)
        assert family.form is FamilyForm.EXPLICIT
        assert solve_stdout(capsys, path, concept, "--interp",
                            interp) == expected

    def test_empty_family_has_a_note(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        expected, family = expected_stdout(path.read_text(), "vnm")
        assert family.count() == 0
        out = solve_stdout(capsys, path, "vnm")
        assert out == expected and '"sets": []' in out
        assert json.loads(out)["note"] == "no stable set"

    @pytest.mark.parametrize("concept", ["mss", "sss"])
    def test_timings_come_after_the_family(self, concept, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(spanning(9))
        out = solve_stdout(capsys, path, concept, "--timings")
        timings = json.loads(out)["timings"]
        expected, _ = expected_stdout(path.read_text(), concept,
                                      timings=timings)
        assert out == expected
        assert out.index('"family"') < out.index('"timings"')

    def test_family_larger_than_one_write_batch(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 13, "edges": []}')
        expected, family = expected_stdout(path.read_text(), "mss")
        assert family.count() == 8191 > sio.SET_BATCH
        assert solve_stdout(capsys, path, "mss") == expected

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_every_batch_boundary(self, batch, monkeypatch, tmp_path, capsys):
        # The w-stable family of spanning(17): components {0, 1, 2},
        # {7, 8, 9} and four singletons give 4 * 4 * 2 ** 4 - 1 sets.
        monkeypatch.setattr(sio, "SET_BATCH", batch)
        path = tmp_path / "doc.json"
        path.write_text(spanning(17))
        expected, family = expected_stdout(path.read_text(), "wss")
        assert family.count() == 255
        assert solve_stdout(capsys, path, "wss") == expected

    def test_writes_are_batched(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 13, "edges": []}')
        family = solve(parse_instance(path.read_text()), Concept.M_STABLE)
        writes = []
        sio.write_document(SimpleNamespace(write=writes.append),
                           {"concept": "mss"}, family)
        expected = json.dumps({"concept": "mss",
                               "family": family_document(family)},
                              indent=2, sort_keys=True) + "\n"
        assert "".join(writes) == expected
        # The head, then writes of whole blocks holding at least SET_BATCH
        # sets each but the last, which closes the document.
        assert writes[0].endswith('"sets": [\n')
        sizes = [w.count("      [\n") for w in writes[1:]]
        assert sum(sizes) == 8191 and len(sizes) > 1
        assert all(size >= sio.SET_BATCH for size in sizes[:-1])
        ends = set(accumulate(len(lows) for _, lows in family.blocks()))
        assert set(accumulate(sizes)) <= ends
        assert all(w.startswith("      [\n") for w in writes[1:])

    def test_seeded_partitions(self):
        # A tenth of the property-test partitions, each as three product
        # forms and as an explicit family of every third member.
        for n, comps in product_partitions()[::10]:
            for form in (FamilyForm.UNIONS_OF_COMPONENTS,
                         FamilyForm.SUBSET_OF_REPRESENTATIVES,
                         FamilyForm.ONE_PER_COMPONENT):
                family = SolutionFamily(form, components=comps)
                if family.count() > 5000:
                    continue
                self.check_bytes(family)
                self.check_bytes(SolutionFamily(
                    FamilyForm.EXPLICIT, explicit=tuple(family)[::3]))

    @staticmethod
    def check_bytes(family):
        writes = []
        sio.write_document(SimpleNamespace(write=writes.append),
                           {"concept": "x"}, family)
        expected = json.dumps({"concept": "x",
                               "family": family_document(family)},
                              indent=2, sort_keys=True) + "\n"
        assert "".join(writes) == expected


class TestOtherDocuments:
    def test_one_write_per_document(self, tmp_path):
        writes = []
        doc = {"classes": [[0, 1, 2], [3]], "condensation_edges": [[0, 1]]}
        sio.write_document(SimpleNamespace(write=writes.append), doc)
        assert writes == [json.dumps(doc, indent=2, sort_keys=True) + "\n"]


def reference_instance_text(p):
    """An instance document as the encoder writes it from a sorted list of
    every [u, v] edge."""
    doc = {"n": p.n, "labels": list(p.labels),
           "edges": sorted([x, y] for x, y in p.rel.pairs())}
    return json.dumps(doc, sort_keys=True)


class TestInstanceDocuments:
    def test_corpus(self):
        for p in kernel_corpus():
            assert serialize_instance(p) == reference_instance_text(p)

    def test_labels_the_encoder_escapes(self):
        labels = ['say "hi"', "back\\slash", "caf\u00e9 \u2603", "bell\x07",
                  "-1", "tab\there"]
        p = DecisionProblem.from_edges(6, [(0, 5), (3, 1), (5, 4)], labels)
        text = serialize_instance(p)
        assert text == reference_instance_text(p)
        assert parse_instance(text).labels == tuple(labels)

    @pytest.mark.parametrize("p", [
        DecisionProblem(Relation.empty(1)),
        DecisionProblem(Relation.empty(16)),
        DecisionProblem(Relation(200, tuple((1 << 200) - 1 - (1 << x)
                                            for x in range(200)))),
    ], ids=["n1", "edgeless-n16", "complete-n200"])
    def test_extremes(self, p):
        assert serialize_instance(p) == reference_instance_text(p)


DENSE_TEXT = serialize_instance(random_problem(400, 1.0, 1))  # 159,600 edges


class TestPiecewiseDecode:
    def test_dense_document_peaks_under_three_times_its_text(self):
        """The edges are decoded a piece at a time: whole, a dense n = 1000
        document's edge lists took about 12 times its text."""
        rng = random.Random(1)
        rows = tuple(rng.getrandbits(1000) & ~(1 << x) for x in range(1000))
        text = serialize_instance(DecisionProblem(Relation(1000, rows)))
        tracemalloc.start()
        try:
            p = parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.rel.rows == rows
        assert peak < 3 * len(text)


class TestCollectorScope:
    """A JSON parse runs no collection: the decoded document holds one list
    per edge and no cycles, and the collector stays off until it is freed."""

    def test_no_collection_starts_inside_a_parse(self):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            p = parse_instance(DENSE_TEXT)
        finally:
            gc.callbacks.remove(hook)
        assert starts == []
        assert p.n == 400 and sum(r.bit_count() for r in p.rel.rows) == 159_600

    @pytest.mark.parametrize("text,bad", [
        (DENSE_TEXT, False),
        ('{"n": 3, "edges": [[0, 1], [1, 3]]}', True),
        ('{"n": 3, "edges": [[0, 1], [1, 1]]}', True),
        ('{"n": 3, "edges": [[0, 1], [1, 2]', True),
        ('{"n": 0}', True),
    ], ids=["good", "out-of-range", "loop", "invalid-json", "bad-n"])
    def test_collector_state_is_restored(self, text, bad):
        def parse():
            if bad:
                with pytest.raises(ParseError):
                    parse_instance(text)
            else:
                parse_instance(text)

        assert gc.isenabled()
        parse()
        assert gc.isenabled()
        gc.disable()
        try:
            parse()
            assert not gc.isenabled()
        finally:
            gc.enable()
