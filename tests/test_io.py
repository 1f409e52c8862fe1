"""The JSON writer and reader: every document the CLI prints is the text
of `json.dumps(doc, indent=2, sort_keys=True)` plus a newline, where a
solved family's document is `family_document(family)`; an instance is
written as `json.dumps` writes it and read without a collector pass."""

import gc
import io
import json
import random
import sys
import tracemalloc
from itertools import zip_longest

import pytest

from conftest import assert_same_text, kernel_corpus, product_partitions
from stableset import cli
from stableset import io as sio
from stableset.bitset import members
from stableset.cli import run_cli
from stableset.contraction import equipotence_classes
from stableset.errors import LimitExceeded, ParseError
from stableset.io import family_document, parse_instance, serialize_instance
from stableset.oracle import random_problem
from stableset.order_topology import Poset, dm_completion
from stableset.relations import DecisionProblem, Relation, strict_poset_order
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
        assert_same_text(solve_stdout(capsys, path, concept), expected)

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 200])
    def test_explicit_form_across_byte_boundaries(self, n, tmp_path, capsys):
        # Acyclic instances take the VNM route without a size ceiling.
        path = tmp_path / "doc.json"
        path.write_text(spanning(n, cyclic=False))
        expected, family = expected_stdout(path.read_text(), "vnm")
        assert family.form is FamilyForm.EXPLICIT and family.count() == 1
        assert_same_text(solve_stdout(capsys, path, "vnm"), expected)

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
        assert_same_text(out, expected)
        assert out.index('"family"') < out.index('"timings"')

    def test_family_of_8191_sets(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 13, "edges": []}')
        expected, family = expected_stdout(path.read_text(), "mss")
        assert family.count() == 8191
        assert_same_text(solve_stdout(capsys, path, "mss"), expected)

    @pytest.mark.parametrize("text,concept", [
        ('{"n": 13, "edges": []}', "mss"), ('{"n": 13, "edges": []}', "wss"),
        (spanning(17), "mss"), (spanning(17), "wss")],
        ids=["edgeless-13-mss", "edgeless-13-wss", "spanning-17-mss",
             "spanning-17-wss"])
    def test_shared_lows_after_a_block_without_high_part(self, text,
                                                         concept):
        # The first block has no high part; its lows are a table's tuple
        # less the empty pick.  Later blocks hold that table's tuple itself,
        # one object for a run of blocks, whose lines they share.
        family = solve(parse_instance(text), CONCEPTS[concept])
        blocks = list(family.blocks())
        assert blocks[0][0] == 0
        first = [lows for high, lows in blocks[1:]
                 if lows[1:] == blocks[0][1]]
        assert first and all(lows is first[0] for lows in first)
        self.check_bytes(family)

    def test_every_form_rendered_by_turns(self):
        # A product family, an explicit family of half its members and the
        # one-per-component family of its components, their blocks made by
        # turns in one process: each document still reads byte for byte as
        # the encoder writes it.
        for n, comps in product_partitions()[::25]:
            mss = SolutionFamily(FamilyForm.UNIONS_OF_COMPONENTS,
                                 components=comps)
            if mss.count() > 5000:
                continue
            families = [mss, SolutionFamily(FamilyForm.EXPLICIT,
                                            explicit=tuple(mss)[::2]),
                        SolutionFamily(FamilyForm.ONE_PER_COMPONENT,
                                       components=comps)]
            docs = [sio.listed_family(family) for family in families]
            made = [[] for _ in docs]
            for texts in zip_longest(*(doc["sets"].items for doc in docs)):
                for out, text in zip(made, texts):
                    if text is not None:
                        out.append(text)
            for family, doc, texts in zip(families, docs, made):
                self.check_bytes(family, {**doc, "sets": sio.Listed(texts)})

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

    def test_members_beyond_the_second_byte(self):
        # Seeded families over alternatives 16 to 1,999 (byte offsets 2 to
        # 249), each as three product forms and as an explicit family of
        # every third member; 1,999 and one more of the last byte's
        # alternatives are always among them.
        rng = random.Random(2026)
        for _ in range(30):
            used = rng.sample(range(16, 1992), rng.randint(1, 8))
            comps = [0] * rng.randint(1, len(used))
            for x in sorted({*used, 1992 + rng.randrange(8), 1999}):
                comps[rng.randrange(len(comps))] |= 1 << x
            comps = tuple(comp for comp in comps if comp)
            for form in (FamilyForm.UNIONS_OF_COMPONENTS,
                         FamilyForm.SUBSET_OF_REPRESENTATIVES,
                         FamilyForm.ONE_PER_COMPONENT):
                family = SolutionFamily(form, components=comps)
                self.check_bytes(family)
                self.check_bytes(SolutionFamily(
                    FamilyForm.EXPLICIT, explicit=tuple(family)[::3]))

    def test_one_component_family_of_2000_sets(self):
        # The generalized family of the 2,000-cycle is its 2,000 single
        # alternatives, with high parts at every byte offset 1 to 249.
        p = DecisionProblem(Relation.from_pairs(
            2000, [(x, (x + 1) % 2000) for x in range(2000)]))
        family = solve(p, Concept.GENERALIZED)
        assert family.count() == 2000 and len(family.components) == 1
        self.check_bytes(family)

    def test_runs_of_one_alternative_sets(self):
        # Blocks of one set of one alternative above the low byte are
        # joined while their alternatives ascend.  Here the components
        # come in no order, around one below the low byte and one of two
        # alternatives, and an explicit family mixes such sets with others.
        comps = (1 << 300, 1 << 260, 1 << 270, 0b101, 3 << 8, 1 << 1999,
                 1 << 1000, 1 << 999, 1 << 1001)
        for form in (FamilyForm.UNIONS_OF_COMPONENTS,
                     FamilyForm.SUBSET_OF_REPRESENTATIVES,
                     FamilyForm.ONE_PER_COMPONENT):
            self.check_bytes(SolutionFamily(form, components=comps))
        self.check_bytes(SolutionFamily(FamilyForm.EXPLICIT, explicit=(
            1 << 8, 1 << 9, 1 << 9 | 1, 1 << 10, 1 << 11, 3 << 12, 1 << 300,
            1 << 301, 5, 1 << 302)))

    @pytest.mark.parametrize("order", [1, -1])
    def test_member_lines_match_the_per_member_join(self, order):
        # A low byte's lines come from `_LOW_LINES`, and `_picked` takes a
        # high byte's from a list of texts by index; both are plain
        # lookups, so either order of bytes reads the same.
        assert len(sio._LOW_LINES) == 256
        texts = [f"        {x},\n" for x in range(8 * 250)]
        for offset in (0, 1, 249):
            base = 8 * offset
            for byte in range(256)[::order]:
                expected = "".join(f"        {base + x},\n"
                                   for x in members(byte))
                if offset == 0:
                    assert sio._LOW_LINES[byte] == expected
                elif byte:
                    assert "".join(
                        sio._picked(byte << base, texts)) == expected

    @staticmethod
    def check_bytes(family, listed=None):
        out = io.StringIO()
        sio.write_document(out, {"concept": "x",
                                 "family": listed or sio.listed_family(family)})
        expected = json.dumps({"concept": "x",
                               "family": family_document(family)},
                              indent=2, sort_keys=True) + "\n"
        assert_same_text(out.getvalue(), expected)


class TestOtherDocuments:
    def test_values_the_encoder_cannot_write(self):
        out = io.StringIO()
        with pytest.raises(TypeError,
                           match="Object of type set is not JSON serializable"):
            sio.write_document(out, {"a": sio.member_lists([1]),
                                     "b": {1, 2}})
        assert out.getvalue() == ""

    def test_members_beyond_the_parse_limit(self):
        # The index texts grow to the widest mask written, so a library
        # caller's masks may be wider than any document the CLI parses.
        masks = [1 << 3 | 1 << sio.PARSE_LIMIT + 5, 1 << 7]
        out = io.StringIO()
        sio.write_document(out, {"classes": sio.member_lists(masks)})
        assert out.getvalue() == json.dumps(
            {"classes": [list(members(m)) for m in masks]}, indent=2) + "\n"


def transitive_tournament(n, short_rows_first=False):
    """Row x beats every y > x, or with `short_rows_first` every y < x."""
    full = (1 << n) - 1
    return DecisionProblem(Relation(n, tuple(
        (1 << x) - 1 if short_rows_first else full >> x + 1 << x + 1
        for x in range(n))))


def complete_bipartite(n):
    """Each of the first n // 2 alternatives beats each of the others."""
    tops = (1 << n) - 1 >> n // 2 << n // 2
    return DecisionProblem(Relation(n, (tops,) * (n // 2)
                                    + (0,) * (n - n // 2)))


def listed_documents(p):
    """`contract`'s, `dm`'s and `frink`'s documents as lists of lists; a
    check whose cuts exceed their limit has none."""
    c = equipotence_classes(p)
    docs = {("contract",): {
        "classes": [list(members(m)) for m in c.classes],
        "condensation_edges": [[i, j] for i, j in c.cond.pairs()]}}
    try:
        cuts = [list(members(m))
                for m in dm_completion(Poset(strict_poset_order(p))).cuts]
    except LimitExceeded:
        return docs
    docs["topology", "--check", "dm"] = {"check": "dm", "cuts": cuts}
    docs["topology", "--check", "frink"] = {"check": "frink", "ideals": cuts}
    return docs


class TestListedDocuments:
    """`contract`, `dm` and `frink` write their lists from masks and rows,
    in the bytes the encoder writes for the lists."""

    def check(self, p, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(serialize_instance(p))
        docs = listed_documents(p)
        for args in (("contract",), ("topology", "--check", "dm"),
                     ("topology", "--check", "frink")):
            code = run_cli([*args, "--input", str(path)])
            out = capsys.readouterr().out
            if args in docs:
                assert code == 0
                assert_same_text(out, json.dumps(docs[args], indent=2,
                                                 sort_keys=True) + "\n")
            else:
                assert code == 1 and out == ""

    def test_corpus(self, tmp_path, capsys):
        for p in kernel_corpus():
            self.check(p, tmp_path, capsys)

    @pytest.mark.parametrize("p", [
        DecisionProblem(Relation.empty(1)),
        DecisionProblem(Relation.empty(3)),
        DecisionProblem.from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        *(shape(n) for shape in (transitive_tournament, complete_bipartite)
          for n in (64, 65)),
        transitive_tournament(65, short_rows_first=True),
    ], ids=["n1", "edgeless", "one-class", "tournament-64", "tournament-65",
            "bipartite-64", "bipartite-65", "short-rows-first-65"])
    def test_extremes(self, p, tmp_path, capsys):
        self.check(p, tmp_path, capsys)


class PieceStream(io.StringIO):
    """A text stream that keeps each piece its `writelines` takes, as it
    takes it from the iterator it is given."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def writelines(self, lines):
        assert iter(lines) is lines  # made as taken, not listed first
        for piece in lines:
            self.pieces.append(piece)
            self.write(piece)


class TestStreamedDocuments:
    def test_no_piece_holds_the_document(self, tmp_path, monkeypatch):
        # The m-stable family of the edgeless n = 13 document (8,191 sets)
        # and the contraction of the n = 300 transitive tournament (44,850
        # condensation pairs) reach stdout a block or row at a time.
        edgeless = tmp_path / "edgeless.json"
        edgeless.write_text('{"n": 13, "edges": []}')
        p = transitive_tournament(300)
        tournament = tmp_path / "tournament.json"
        tournament.write_text(serialize_instance(p))
        for argv, expected in [
                (["solve", "--concept", "mss", "--input", str(edgeless)],
                 expected_stdout(edgeless.read_text(), "mss")[0]),
                (["contract", "--input", str(tournament)],
                 json.dumps(listed_documents(p)[("contract",)], indent=2,
                            sort_keys=True) + "\n")]:
            out = PieceStream()
            monkeypatch.setattr(sys, "stdout", out)
            assert run_cli(argv) == 0
            assert_same_text("".join(out.pieces), expected)
            assert max(map(len, out.pieces)) < len(expected) / 4


def reference_instance_text(p):
    """An instance document as the encoder writes it from a sorted list of
    every [u, v] edge."""
    doc = {"n": p.n, "labels": list(p.labels),
           "edges": sorted([x, y] for x, y in p.rel.pairs())}
    return json.dumps(doc, sort_keys=True)


class TestInstanceDocuments:
    def test_corpus(self):
        for p in kernel_corpus():
            assert_same_text(serialize_instance(p), reference_instance_text(p))

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
        transitive_tournament(300),
        transitive_tournament(300, short_rows_first=True),
    ], ids=["n1", "edgeless-n16", "complete-n200", "tournament-n300",
            "short-rows-first-n300"])
    def test_extremes(self, p):
        assert_same_text(serialize_instance(p), reference_instance_text(p))

    def test_pieces_join_to_the_document(self):
        p = random_problem(50, 0.3, 1)
        pieces = list(sio.instance_pieces(p))
        assert "".join(pieces) == reference_instance_text(p)
        # The head, one piece per row with edges, and the tail.
        assert len(pieces) == 2 + sum(1 for row in p.rel.rows if row)


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

    def test_dense_document_read_from_a_file_peaks_near_its_size(self,
                                                                tmp_path):
        """The CLI's read keeps the document as bytes, which the piecewise
        route reads as they are: decoded as well, a dense n = 1000
        document peaked at twice its size."""
        rng = random.Random(1)
        rows = tuple(rng.getrandbits(1000) & ~(1 << x) for x in range(1000))
        path = tmp_path / "dense.json"
        path.write_text(serialize_instance(DecisionProblem(Relation(1000,
                                                                    rows))))
        tracemalloc.start()
        try:
            p = parse_instance(cli._read_text(str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.rel.rows == rows
        assert peak < 1.25 * path.stat().st_size

    def test_dense_edge_list_peaks_under_twelve_times_its_text(self):
        """An edge list's rows are built as its lines are read: with one
        tuple kept per edge, a dense n = 400 list took about 20 times its
        text."""
        p = parse_instance(DENSE_TEXT)
        text = f"{p.n}\n" + "".join(f"{x} {y}\n" for x, y in p.rel.pairs())
        tracemalloc.start()
        try:
            q = parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.rel.rows == p.rel.rows
        assert peak < 12 * len(text)


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
