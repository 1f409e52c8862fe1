import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import stableset
from conftest import CYCLE_WITH_TAIL, kernel_corpus
from stableset import cli, relations
from stableset import io as sio
from stableset.bitset import image
from stableset.cli import _build_parser, _generator_set, run_cli
from stableset.errors import LoopEdge, ParseError
from stableset.io import (BYTE_LIMIT, PARSE_LIMIT, export_dot,
                          parse_instance, serialize_instance)
from stableset.order_topology import (CUT_LIMIT, excluded_set_topology,
                                      weak_t1_separation)
from stableset.relations import (DecisionProblem, Relation, asymmetric_part,
                                 transitive_closure, trap_relation)
from stableset.oracle import random_problem
from stableset.contraction import equipotence_classes, extended_dominance

TAIL_EDGES = "4\n0 1\n1 2\n2 0\n0 3\n"


@pytest.fixture
def tail_file(tmp_path):
    path = tmp_path / "tail.txt"
    path.write_text(TAIL_EDGES)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


GENERATORS = ("schwartz", "duggan", "wss", "mss")


def closure_strict_for_generator(p, generator):
    """The closure-based relation `topology --check t1` once passed: the
    closure of the trap relation for duggan, else the strict part of the
    closure."""
    if generator == "duggan":
        return transitive_closure(trap_relation(p))
    return asymmetric_part(p.closure)


class TestParsing:
    def test_edge_list(self):
        p = parse_instance(TAIL_EDGES)
        assert p.rel == CYCLE_WITH_TAIL.rel

    def test_comments_and_blanks(self):
        text = "# instance\n3\n\n0 1  # edge\n1 2\n"
        assert sorted(parse_instance(text).rel.pairs()) == [(0, 1), (1, 2)]

    def test_json(self):
        p = parse_instance('{"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}')
        assert p.labels == ("a", "b")
        assert list(p.rel.pairs()) == [(0, 1)]

    def test_loop_rejected_both_formats(self):
        with pytest.raises(LoopEdge):
            parse_instance("2\n1 1\n")
        with pytest.raises(LoopEdge):
            parse_instance('{"n": 2, "edges": [[0, 0]]}')

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("2\n0 1\nbroken line here\n")
        assert exc.value.line == 3
        with pytest.raises(ParseError):
            parse_instance("")
        with pytest.raises(ParseError):
            parse_instance("2\n0 5\n")
        with pytest.raises(ParseError):
            parse_instance('{"edges": []}')
        with pytest.raises(ParseError,
                           match=r"^line 3: edge \(1,7\) out of range for n=3$"):
            parse_instance("3\n0 1\n1 7\n")
        with pytest.raises(LoopEdge) as exc:
            parse_instance("3\n0 1\n\n1 1\n")
        assert exc.value.line == 4 and exc.value.index == 1
        assert str(exc.value) == "line 4: loop edge at alternative 1"

    def test_round_trip_fuzz(self):
        for seed in range(100):
            p = random_problem(1 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed)
            again = parse_instance(serialize_instance(p))
            assert again.rel == p.rel and again.labels == p.labels

    def test_boolean_endpoints_rejected(self):
        for edge in ("[true, false]", "[0, true]", "[false, 1]"):
            with pytest.raises(ParseError, match="malformed edge"):
                parse_instance('{"n": 2, "edges": [%s]}' % edge)

    def test_dot_export(self):
        dot = export_dot(CYCLE_WITH_TAIL, equipotence_classes(CYCLE_WITH_TAIL))
        assert dot.startswith("digraph")
        assert "subgraph cluster_0" in dot
        assert "style=bold" in dot

    def test_dot_labels_escaped(self):
        p = DecisionProblem.from_edges(4, [(0, 1), (1, 2), (2, 0)],
                                       labels=['a"b', "c\\d", "e", 'f\\"'])
        quoted = ['"a\\"b"', '"c\\\\d"', '"e"', '"f\\\\\\""']
        dot = export_dot(p, equipotence_classes(p))
        for x, label in enumerate(quoted):
            assert f"a{x} [label={label}];" in dot

    def test_alternative_count_ceiling(self):
        for template in ('{"n": %d, "edges": []}', "# header\n%d\n"):
            assert parse_instance(template % PARSE_LIMIT).n == PARSE_LIMIT
            with pytest.raises(ParseError,
                               match=f"n={PARSE_LIMIT + 1} exceeds parse "
                                     f"ceiling {PARSE_LIMIT}"):
                parse_instance(template % (PARSE_LIMIT + 1))

    def test_unconvertible_documents(self):
        """Numbers too long for int(), nesting too deep for the decoder and
        non-decimal digits end as parse errors."""
        for text in ('{"n": %s}' % ("1" * 5000), '{"n": %s}' % ("[" * 100000),
                     '{"n": 2, "edges": [[0, %s]]}' % ("1" * 5000),
                     "1" * 5000 + "\n", "\u00b2\n", "2\n0 \u00b2\n"):
            with pytest.raises(ParseError):
                parse_instance(text)


def per_edge_parse(text):
    """JSON instance edges checked one at a time, in order: the first edge
    that is not a list of two ints (booleans excluded), is out of range or
    is a loop names the error."""
    doc = json.loads(text)
    n = doc["n"]
    rows = [0] * n
    for e in doc["edges"]:
        if (not isinstance(e, list) or len(e) != 2
                or not all(type(v) is int for v in e)):
            raise ParseError(f"malformed edge {e!r}")
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise LoopEdge(u)
        rows[u] |= 1 << v
    return Relation(n, tuple(rows))


BAD_EDGES = (5, "01", None, {"u": 0}, [], [0], [0, 1, 2], [0, 1.0], [0.5, 1],
             [0, "1"], [True, False], [0, True], [-1, 0], [0, -2], "n", "n+",
             "loop", [0, 10 ** 12])
# Label words whose presence in the text makes the parser rescan endpoints
# for booleans and negative ints.
RESCAN_WORDS = ("-", "true", "false")


class TestJsonParserEquivalence:
    """The C-level fast path raises what the per-edge check raises."""

    def documents(self, seed, word=None):
        """Seeded valid edge lists with one to three bad edges planted; with
        a word, every label holds it."""
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        edges = [[u, v] for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.3]
        rng.shuffle(edges)
        for _ in range(rng.randint(1, 3)):
            bad = rng.choice(BAD_EDGES)
            if bad == "n":
                bad = [rng.randrange(n), n]
            elif bad == "n+":
                bad = [n + rng.randrange(5), 0]
            elif bad == "loop":
                x = rng.randrange(n)
                bad = [x, x]
            edges.insert(rng.randint(0, len(edges)), bad)
        return labelled({"n": n, "edges": edges}, word)

    def test_bad_documents_raise_like_per_edge_check(self):
        for seed in range(400):
            assert_raises_like_per_edge_check(self.documents(seed))

    @pytest.mark.parametrize("word", RESCAN_WORDS)
    def test_bad_documents_with_rescan_labels(self, word):
        for seed in range(100):
            assert_raises_like_per_edge_check(self.documents(seed, word))

    def test_bad_edge_after_many_good_ones(self):
        good = [[u, v] for u in range(60) for v in range(60) if u != v]
        concrete = {"n": [3, 60], "n+": [61, 0], "loop": [7, 7]}
        for bad in BAD_EDGES:
            if isinstance(bad, str):
                bad = concrete.get(bad, bad)
            assert_raises_like_per_edge_check(
                json.dumps({"n": 60, "edges": good + [bad]}))

    def test_valid_documents_round_trip(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            edges = [[u, v] for u in range(n) for v in range(n)
                     if u != v and rng.random() < rng.random()]
            edges += rng.sample(edges, len(edges) // 4)  # duplicates collapse
            rng.shuffle(edges)
            p = parse_instance(json.dumps({"n": n, "edges": edges}))
            assert p.rel == per_edge_parse(json.dumps({"n": n, "edges": edges}))
            assert parse_instance(serialize_instance(p)).rel == p.rel

    @pytest.mark.parametrize("word", RESCAN_WORDS)
    def test_valid_documents_with_rescan_labels(self, word):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            edges = [[u, v] for u in range(n) for v in range(n)
                     if u != v and rng.random() < rng.random()]
            text = labelled({"n": n, "edges": edges}, word)
            p = parse_instance(text)
            assert p.rel == per_edge_parse(text)
            assert p.labels == tuple(f"{word}{x}" for x in range(n))

    @pytest.mark.parametrize("labels", [
        [f"]]{x}" for x in range(300)],
        ["edges"] + [f'"edges"{x}' for x in range(1, 300)],
        [f"a-{x}" for x in range(300)],
    ], ids=["brackets", "edges", "minus"])
    def test_piecewise_route_reads_labels_like_the_whole_document(self,
                                                                 labels):
        assert_parses_like_whole_document(
            piecewise_document(labels=tuple(labels)), piecewise=True)

    def test_piecewise_route_reads_several_pieces(self):
        text = piecewise_document(n=600)
        end = text.index("]]") + 1
        pieces = list(sio._edge_pieces(text, 11, end))
        # Each piece is a list of whole edges, all but the last at least
        # EDGE_PIECE characters long, and they list the edges in order.
        assert len(pieces) == 8
        assert all(sio.EDGE_PIECE < len(piece) < sio.EDGE_PIECE + 16
                   for piece in pieces[:-1])
        assert ", ".join(piece[1:-1] for piece in pieces) == text[11:end]
        assert_parses_like_whole_document(text, piecewise=True)

    # Edits of the end of `piecewise_document()`, which is
    # '"labels": [...], "n": 300}'.
    HEAD_EDITS = {
        "edges-again-empty": ('"n": 300}', '"n": 300, "edges": []}'),
        "edges-again": ('"n": 300}', '"n": 300, "edges": [[1, 0]]}'),
        "edges-escaped-again": ('"n": 300}', '"n": 300, "\\u0065dges": []}'),
        "n-again": ('"n": 300}', '"n": 300, "n": 300}'),
        "trailing-comma": ('"n": 300}', '"n": 300, }'),
        "trailing-comma-line-3": (', "n": 300}', ',\n"n": 300,\n}'),
        "n-over-ceiling": ('"n": 300}', '"n": 2001}'),
        "n-boolean": ('"n": 300}', '"n": true}'),
        "n-missing": (', "n": 300}', '}'),
        "labels-short": ('"0", ', ''),
        "labels-empty": ('"labels": [', '"labels": [], "x": ['),
        "labels-string": ('"labels": [', '"labels": "0", "x": ['),
    }

    @pytest.mark.parametrize("edit", HEAD_EDITS.values(), ids=HEAD_EDITS.keys())
    def test_repeated_or_bad_head_fields_take_the_whole_route(self, edit):
        good = piecewise_document()
        old, new = edit
        assert good.count(old) == 1
        assert_parses_like_whole_document(good.replace(old, new),
                                          piecewise=False)

    def test_n_over_the_ceiling_takes_the_whole_route(self):
        good = piecewise_document()
        text = good[:good.index(', "labels"')] + ', "n": %d}' % (PARSE_LIMIT + 1)
        assert_parses_like_whole_document(text, piecewise=False)

    def test_empty_edges_take_the_whole_route(self):
        text = json.dumps({"edges": [], "labels": [f"{x:0>200}"
                                                   for x in range(2000)],
                           "n": 2000}, sort_keys=True)
        assert len(text) > sio.EDGE_PIECE
        assert_parses_like_whole_document(text, piecewise=False)

    def test_non_canonical_layout(self):
        text = piecewise_document()
        # No "], [" to cut at: one piece.
        assert_parses_like_whole_document(text.replace("], [", "],["),
                                          piecewise=True)
        assert_parses_like_whole_document(text.replace("], [", "],\n["),
                                          piecewise=True)
        assert_parses_like_whole_document(" " + text, piecewise=False)
        # Shorter than one piece: the whole route, as before.
        assert_parses_like_whole_document(piecewise_document(n=40),
                                          piecewise=False)
        assert_parses_like_whole_document(
            '{"n": 300, ' + text[1:].replace(', "n": 300', ""),
            piecewise=False)

    BAD_PIECE_EDGES = {
        "float": "[0, 1.0]", "exponent": "[1e0, 0]", "triple": "[0, 1, 2]",
        "nested-end": "[0, [1]]", "nested-start": "[[0], 1]", "loop": "[7, 7]",
        "out-of-range": "[0, 300]", "null": "[0, null]", "negative": "[0, -1]",
        "boolean": "[true, 0]", "string": '[0, "1"]', "empty": "[]",
        "5001-digits": "[0, 1" + "0" * 5000 + "]",
        "deep": "[" * 5000 + "]" * 5000}

    @pytest.mark.parametrize("edge", BAD_PIECE_EDGES.values(),
                             ids=BAD_PIECE_EDGES.keys())
    def test_bad_edge_at_a_piece_boundary(self, edge):
        good = piecewise_document()
        cut = good.index("], [", 11 + sio.EDGE_PIECE)
        # The last edge of the first piece, the first of the second.
        for at in (good.rindex("[", 0, cut), cut + 3):
            text, planted = plant(good, at, edge)
            pieces = list(sio._edge_pieces(text, 11, text.index("]]") + 1))
            if "]]" not in edge and "[[" not in edge:
                assert len(pieces) == 2
                assert (pieces[0].endswith(planted + "]") if at < cut
                        else pieces[1].startswith("[" + planted))
            assert_parses_like_whole_document(text, piecewise=False)

    def test_seeded_bad_documents_in_small_pieces(self, monkeypatch):
        """With pieces of a few edges, the piecewise route refuses every
        document of planted bad edges and reads valid ones as whole."""
        monkeypatch.setattr(sio, "EDGE_PIECE", 12)
        for seed in range(400):
            doc = json.loads(self.documents(seed))
            text = json.dumps({"edges": doc["edges"], "n": doc["n"]})
            assert_parses_like_whole_document(text, piecewise=False)
            assert_raises_like_per_edge_check(text)
        for seed in range(100):
            text = piecewise_document(n=40, seed=seed)
            assert_parses_like_whole_document(text, piecewise=True)

    def test_negative_zero_endpoint(self):
        text = '{"n": 3, "edges": [[-0, 1], [2, -0]]}'
        assert parse_instance(text).rel == per_edge_parse(text) == \
            Relation.from_pairs(3, [(0, 1), (2, 0)])

    def test_huge_endpoint_fails_before_any_shift(self):
        """A shift by 10**12 would ask for 125 GB; the range check comes
        first."""
        text = json.dumps({"n": 3, "edges": [[0, 1], [0, 10 ** 12]]})
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"^edge \(0,1000000000000\) "
                                                 r"out of range for n=3$"):
                parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def piecewise_document(n=300, seed=0, labels=()):
    """`serialize_instance`'s text of a seeded instance with about half of
    all edges: some 450 KB at n = 300, two pieces on the piecewise route."""
    rng = random.Random(seed)
    rows = tuple(rng.getrandbits(n) & ~(1 << x) for x in range(n))
    return serialize_instance(DecisionProblem(Relation(n, rows), labels))


def assert_parses_like_whole_document(text, piecewise):
    """`parse_instance` answers as `io._json_problem` does: the same rows
    and labels, or a ParseError of the same class, text and line.  The
    piecewise route takes the document iff `piecewise`."""
    assert (sio._json_problem_in_pieces(text) is not None) == piecewise
    try:
        expected = sio._json_problem(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as actual:
            parse_instance(text)
        assert type(actual.value) is type(exc)
        assert (str(actual.value), actual.value.line) == (str(exc), exc.line)
        return
    p = parse_instance(text)
    assert (p.rel, p.labels) == (expected.rel, expected.labels)


def plant(text, at, edge):
    """text with the edge that starts at index `at` replaced by `edge`,
    padded after its opening bracket to at least the old edge's width, and
    the padded edge."""
    stop = text.index("]", at) + 1
    edge = "[" + edge[1:].rjust(stop - at - 1)
    return text[:at] + edge + text[stop:], edge


def assert_raises_like_per_edge_check(text):
    with pytest.raises(ParseError) as expected:
        per_edge_parse(text)
    with pytest.raises(ParseError) as actual:
        parse_instance(text)
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


def labelled(doc, word):
    """The JSON text of an instance document, with labels holding word."""
    if word is not None:
        doc = {**doc, "labels": [f"{word}{x}" for x in range(doc["n"])]}
    return json.dumps(doc)


class TestSolveCommand:
    def test_set_concepts(self, capsys, tail_file):
        code, out = run(capsys, "solve", "--concept", "schwartz",
                        "--input", tail_file)
        assert code == 0
        assert json.loads(out)["set"] == [0, 1, 2]

    def test_family_concept(self, capsys, tail_file):
        code, out = run(capsys, "solve", "--concept", "mss",
                        "--input", tail_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["family"]["sets"] == [[0, 1, 2]]

    def test_empty_family_notes(self, capsys, tmp_path):
        path = tmp_path / "cyc.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        code, out = run(capsys, "solve", "--concept", "vnm",
                        "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["note"] == "no stable set"

    def test_interp_switch(self, capsys, tail_file):
        _, rc = run(capsys, "solve", "--concept", "sss", "--input", tail_file)
        _, cr = run(capsys, "solve", "--concept", "sss", "--input", tail_file,
                    "--interp", "closure_of_restriction")
        assert json.loads(rc)["family"]["sets"] == [[0, 1], [0, 2], [0, 1, 2]]
        assert json.loads(cr)["family"]["sets"] == [[0, 1, 2]]

    def test_byte_stable_output(self, capsys, tail_file):
        outs = {run(capsys, "solve", "--concept", "ess",
                    "--input", tail_file)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_timings_opt_in(self, capsys, tail_file):
        _, plain = run(capsys, "solve", "--concept", "core",
                       "--input", tail_file)
        _, timed = run(capsys, "solve", "--concept", "core",
                       "--input", tail_file, "--timings")
        assert "timings" not in json.loads(plain)
        assert "timings" in json.loads(timed)


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out = run(capsys, "verify", "--concept", "gss",
                        "--trials", "40", "--max-n", "6")
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_trial_size_up_to_the_oracle_ceiling(self, capsys):
        # Seed 11 draws n = 1 + 11 % 12 = 12, the largest accepted size.
        code, out = run(capsys, "verify", "--concept", "gss", "--max-n", "12",
                        "--trials", "1", "--seed", "11")
        assert code == 0 and json.loads(out)["status"] == "PASS"
        assert run_cli(["verify", "--concept", "gss", "--max-n", "13"]) == 64


class TestContractCommand:
    def test_json(self, capsys, tail_file):
        code, out = run(capsys, "contract", "--input", tail_file)
        doc = json.loads(out)
        assert code == 0
        assert [0, 1, 2] in doc["classes"] and [3] in doc["classes"]

    def test_dot(self, capsys, tail_file):
        code, out = run(capsys, "contract", "--input", tail_file, "--dot")
        assert code == 0 and out.startswith("digraph")


class TestTopologyCommand:
    def test_t1_generators(self, capsys, tail_file):
        for generator in ("schwartz", "duggan", "wss", "mss"):
            code, out = run(capsys, "topology", "--check", "t1",
                            "--input", tail_file, "--generator", generator)
            assert code == 0
            assert json.loads(out)["separated"] is True

    def test_t1_one_step_relations_answer_as_their_closures(self):
        # Each generator's own set always separates, so seeded excluded
        # sets are checked too, to see both answers.
        rng = random.Random(15)
        answers = set()
        for p in kernel_corpus():
            for generator in GENERATORS:
                one_step = (trap_relation(p) if generator == "duggan"
                            else extended_dominance(p))
                closed = closure_strict_for_generator(p, generator)
                assert (image(p.all_mask, one_step.rows)
                        == image(p.all_mask, closed.rows))
                for excluded in (_generator_set(p, generator),
                                 rng.getrandbits(p.n)):
                    top = excluded_set_topology(p.n, excluded)
                    answer = weak_t1_separation(top, one_step)
                    assert answer == weak_t1_separation(top, closed)
                    answers.add(answer)
        assert answers == {False, True}

    def test_t1_builds_no_closure(self, capsys, monkeypatch, tmp_path):
        def refuse(r):
            raise AssertionError("t1 built a transitive closure")

        path = tmp_path / "p.json"
        path.write_text(serialize_instance(random_problem(40, 0.1, 3)))
        monkeypatch.setattr(relations, "transitive_closure", refuse)
        # Also the CLI's own name for it, should it ever import one again.
        monkeypatch.setattr(cli, "transitive_closure", refuse, raising=False)
        for generator in GENERATORS:
            code, out = run(capsys, "topology", "--check", "t1",
                            "--input", str(path), "--generator", generator)
            assert code == 0 and json.loads(out)["separated"] is True

    def test_excluded_explicit(self, capsys, tail_file):
        code, out = run(capsys, "topology", "--check", "excluded",
                        "--input", tail_file, "--excluded", "0,1,2")
        doc = json.loads(out)
        assert code == 0
        assert doc["excluded"] == [0, 1, 2]
        assert doc["open_count"] == 3  # {}, {3}, X
        assert doc["compact_subcover"] == [[0, 1, 2, 3]]

    def test_dm_and_frink_and_precont(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        code, out = run(capsys, "topology", "--check", "dm",
                        "--input", str(path))
        assert code == 0 and json.loads(out)["cuts"] == \
            [[0], [0, 1], [0, 1, 2]]
        code, out = run(capsys, "topology", "--check", "frink",
                        "--input", str(path))
        assert code == 0 and json.loads(out)["ideals"] == \
            [[0], [0, 1], [0, 1, 2]]
        code, out = run(capsys, "topology", "--check", "precont",
                        "--input", str(path))
        assert code == 0 and json.loads(out)["precontinuous"] is True

    def test_precont_builds_no_order(self, capsys, monkeypatch, tmp_path):
        """Every finite poset is precontinuous, so `precont` derives no
        order and closes no relation."""
        def refuse(*args):
            raise AssertionError("precont built an order")

        path = tmp_path / "p.json"
        path.write_text(serialize_instance(random_problem(40, 0.1, 3)))
        monkeypatch.setattr(relations, "transitive_closure", refuse)
        monkeypatch.setattr(cli, "strict_poset_order", refuse)
        monkeypatch.setattr(cli, "Poset", refuse)
        code, out = run(capsys, "topology", "--check", "precont",
                        "--input", str(path))
        assert code == 0 and out == \
            '{\n  "check": "precont",\n  "precontinuous": true\n}\n'


class TestRandomCommand:
    def test_round_trip(self, capsys):
        code, out = run(capsys, "random", "--n", "6", "--seed", "5")
        assert code == 0
        p = parse_instance(out)
        assert p.rel == random_problem(6, 0.5, 5).rel

    def test_deterministic(self, capsys):
        a = run(capsys, "random", "--n", "5", "--seed", "9")[1]
        b = run(capsys, "random", "--n", "5", "--seed", "9")[1]
        assert a == b

    def test_runs_as_a_module(self):
        done = run_module("random", "--n", "3", "--seed", "1")
        assert done.returncode == 0 and done.stderr == ""
        assert parse_instance(done.stdout).rel == random_problem(3, 0.5, 1).rel


def run_module(*argv, **env):
    """`python -m stableset.cli argv` in a fresh process."""
    src = str(Path(stableset.__file__).parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "stableset.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestParserReuse:
    """The parser is built once per process; no call sees another's
    arguments or defaults."""

    def test_each_call_answers_as_it_does_alone(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the width
        path = tmp_path / "tail.txt"
        path.write_text(TAIL_EDGES)
        calls = [
            ["topology", "--check", "nachbin", "--input", str(path),
             "--excluded", "0"],
            ["topology", "--check", "t1", "--input", str(path)],
            ["solve", "--concept", "core"],
            ["--help"],
            ["--help"],
            ["solve", "--concept", "gss", "--input", str(path)],
        ]
        codes = []
        for argv in calls:
            codes.append(run_cli(argv))
            captured = capsys.readouterr()
            alone = run_module(*argv, COLUMNS="80")
            assert (codes[-1], captured.out, captured.err) == \
                (alone.returncode, alone.stdout, alone.stderr), argv
        assert codes == [0, 0, 64, 0, 0, 0]

    def test_no_value_carries_over(self):
        parser = _build_parser()
        first = parser.parse_args(["topology", "--check", "nachbin",
                                   "--input", "x", "--excluded", "0"])
        second = parser.parse_args(["topology", "--check", "t1",
                                    "--input", "x"])
        assert _build_parser() is parser
        assert first.excluded == [0]
        assert second.excluded is None and second.generator is None


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(["solve", "--concept", "nonsense", "--input", "x"]) == 64
        assert run_cli([]) == 64

    def test_missing_file(self, capsys):
        assert run_cli(["solve", "--concept", "core",
                        "--input", "/no/such/file"]) == 1

    def test_bad_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n")
        assert run_cli(["solve", "--concept", "core",
                        "--input", str(path)]) == 1

    def test_oracle_ceiling(self, capsys, tmp_path):
        """The brute-force Schwartz route answers a 12-cycle and refuses a
        13-cycle at the fixed oracle ceiling."""
        path = tmp_path / "cyc.txt"
        argv = ["solve", "--concept", "schwartz", "--method", "brute",
                "--input", str(path)]
        path.write_text(cycle_document(12))
        assert run_cli(argv) == 0
        assert json.loads(capsys.readouterr().out)["set"] == list(range(12))
        path.write_text(cycle_document(13))
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == \
            "error: n=13 exceeds oracle ceiling 12\n"

    @pytest.mark.parametrize("extra", [["--concept", "vnm"],
                                       ["--concept", "sss"],
                                       ["--concept", "schwartz",
                                        "--method", "brute"],
                                       ["--concept", "sss", "--interp",
                                        "closure_of_restriction"]])
    def test_max_n_moves_the_subset_ceiling(self, extra, capsys, tmp_path):
        path = tmp_path / "cyc13.txt"
        path.write_text(cycle_document(13))
        argv = ["solve", "--input", str(path)] + extra
        assert run_cli(argv) == 1
        assert "exceeds" in capsys.readouterr().err


def cycle_document(n):
    """An edge-list document of the directed n-cycle."""
    return f"{n}\n" + "".join(f"{x} {(x + 1) % n}\n" for x in range(n))


INPUT = "{input}"
CYCLE = "3\n0 1\n1 2\n2 0\n"
# Topology options a check does not read, or that contradict each other.
UNREAD_TOPOLOGY_OPTIONS = [
    (check, options)
    for check in ("dm", "frink", "precont")
    for options in (["--excluded", "0"], ["--generator", "duggan"])
] + [
    ("t1", ["--excluded", "0"]),
    ("excluded", ["--excluded", "0", "--generator", "duggan"]),
    ("nachbin", ["--excluded", "0", "--generator", "schwartz"]),
    ("t1", ["--excluded", "0", "--generator", "wss"]),
]
BAD_ARGUMENTS = [
    pytest.param(["solve", "--concept", "core", "--input", INPUT], {},
                 '{"n": true, "edges": []}', id="json-n-boolean"),
    pytest.param(["verify", "--concept", "gss", "--max-n", "0"], {}, CYCLE,
                 id="verify-max-n-0"),
    pytest.param(["verify", "--concept", "gss", "--trials", "-1"], {}, CYCLE,
                 id="verify-trials-negative"),
    pytest.param(["random", "--n", "0"], {}, CYCLE, id="random-n-0"),
    pytest.param(["random", "--n", "3", "--density", "2"], {}, CYCLE,
                 id="random-density-2"),
    pytest.param(["topology", "--check", "excluded", "--input", INPUT,
                  "--excluded", "x"], {}, CYCLE, id="excluded-not-an-index"),
    pytest.param(["topology", "--check", "excluded", "--input", INPUT,
                  "--excluded", "7"], {}, CYCLE, id="excluded-out-of-range"),
    pytest.param(["verify", "--concept", "gss", "--max-n", "40",
                  "--trials", "40"], {}, CYCLE, id="verify-max-n-40"),
    pytest.param(["solve", "--concept", "core", "--input", INPUT], {},
                 '{"n": %d, "edges": []}' % (PARSE_LIMIT + 1),
                 id="json-n-over-parse-ceiling"),
    pytest.param(["contract", "--input", INPUT], {}, "%d\n" % (PARSE_LIMIT + 1),
                 id="edge-list-n-over-parse-ceiling"),
    pytest.param(["random", "--n", str(PARSE_LIMIT + 1)], {}, CYCLE,
                 id="random-n-over-parse-ceiling"),
    pytest.param(["topology", "--check", "excluded", "--input", INPUT,
                  "--excluded", "100000000000"], {}, CYCLE,
                 id="excluded-index-1e11"),
    pytest.param(["solve", "--concept", "core"], {}, CYCLE,
                 id="missing-required-argument"),
    pytest.param(["contract", "--input", INPUT, "--bogus"], {}, CYCLE,
                 id="unrecognized-argument"),
    # No option moves a size ceiling, so no document can ask for 2^40 steps.
    pytest.param(["solve", "--concept", "schwartz", "--method", "brute",
                  "--input", INPUT, "--max-n", "40"], {}, cycle_document(40),
                 id="solve-max-n-40"),
] + [
    pytest.param(["topology", "--check", check, "--input", INPUT] + options,
                 {}, CYCLE, id="-".join(["topology", check]
                                        + [o.lstrip("-") for o in options]))
    for check, options in UNREAD_TOPOLOGY_OPTIONS
]


class TestInputContract:
    """Bad arguments, settings and documents end in exit 1 or 64 with a
    one-line message, never in a traceback or a silently accepted value."""

    @pytest.mark.parametrize("argv, env, text", BAD_ARGUMENTS)
    def test_rejected_with_one_line_message(self, argv, env, text, tmp_path,
                                            monkeypatch, capsys):
        path = tmp_path / "instance.txt"
        path.write_text(text)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code = run_cli([str(path) if a == INPUT else a for a in argv])
        captured = capsys.readouterr()
        assert code in (1, 64)
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1, captured.err

    def test_topology_options_a_check_does_not_read(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text(CYCLE)
        for check, options in UNREAD_TOPOLOGY_OPTIONS:
            code = run_cli(["topology", "--check", check, "--input",
                            str(path)] + options)
            captured = capsys.readouterr()
            assert code == 64 and captured.out == "", (check, options)
            assert captured.err.startswith("usage error: ")

    @pytest.mark.skipif(not Path("/dev/zero").exists(),
                        reason="no /dev/zero")
    def test_endless_input_is_cut_at_the_byte_limit(self, capsys):
        started = time.perf_counter()
        code = run_cli(["solve", "--concept", "core", "--input", "/dev/zero"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 5
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: document exceeds {BYTE_LIMIT} bytes\n"

    def test_byte_limit_boundary(self, tmp_path, capsys):
        # Sparse files: the limit is checked before the document is parsed.
        path = tmp_path / "big.json"
        path.write_bytes(b"{")
        os.truncate(path, BYTE_LIMIT)
        assert run_cli(["solve", "--concept", "core", "--input", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
        os.truncate(path, BYTE_LIMIT + 1)
        assert run_cli(["solve", "--concept", "core", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: document exceeds")

    def test_excluded_set_topology_at_the_parse_ceiling(self, tmp_path,
                                                         capsys):
        # Every alternative of an edgeless document is undominated, and the
        # w-stable generator excludes only alternative 0; the check reads
        # no open sets, so n = PARSE_LIMIT costs no more than a small n.
        path = tmp_path / "edgeless.json"
        path.write_text('{"n": %d, "edges": []}' % PARSE_LIMIT)
        started = time.perf_counter()
        code = run_cli(["topology", "--check", "t1", "--input", str(path),
                        "--generator", "wss"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 1
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["separated"] is True

    def test_cut_budget_boundary(self, tmp_path, capsys):
        # The crown a_i < b_j (i != j, i, j < 10) completes to the 2^10
        # subsets of its indices, and each isolated alternative adds one
        # cut, so the crown beside m isolated alternatives has 2^10 + m
        # cuts.  An edgeless document (n + 2 cuts) cannot reach CUT_LIMIT
        # under the parse ceiling.
        def crown(isolated):
            edges = [(i, 10 + j) for i in range(10) for j in range(10)
                     if i != j]
            path = tmp_path / "crown.json"
            path.write_text(serialize_instance(DecisionProblem.from_edges(
                20 + isolated, edges)))
            return str(path)

        path = crown(CUT_LIMIT - 2 ** 10)
        assert run_cli(["topology", "--check", "dm", "--input", path]) == 0
        assert len(json.loads(capsys.readouterr().out)["cuts"]) == CUT_LIMIT
        path = crown(CUT_LIMIT - 2 ** 10 + 1)
        for check in ("dm", "frink"):
            started = time.perf_counter()
            code = run_cli(["topology", "--check", check, "--input", path])
            captured = capsys.readouterr()
            assert time.perf_counter() - started < 1
            assert code == 1 and captured.out == ""
            assert captured.err == (f"error: cuts={CUT_LIMIT + 1} exceeds "
                                    f"cut-completion ceiling {CUT_LIMIT}\n")
        # Precontinuity holds on every finite poset and lists no cuts, so
        # the cut budget does not apply to it.
        started = time.perf_counter()
        code = run_cli(["topology", "--check", "precont", "--input", path])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 1
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["precontinuous"] is True

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        for text in ('{"n": 2, "edges": [[0, 1]]}', "2\n0 1\n"):
            path.write_bytes(b"\xef\xbb\xbf" + text.encode())
            code = run_cli(["solve", "--concept", "core", "--input",
                            str(path)])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            assert json.loads(captured.out)["set"] == [0]
        # Byte offsets count the mark.
        path.write_bytes(b"\xef\xbb\xbf2\n0 \xff1\n")
        assert run_cli(["solve", "--concept", "core", "--input",
                        str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: not UTF-8 text: invalid start byte at byte 7\n")

    def test_non_utf8_document(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_bytes(b"\xff\xfe")
        code = run_cli(["solve", "--concept", "core", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: not UTF-8 text")
        assert captured.err.count("\n") == 1, captured.err


# Commands whose output is exponential in n by design (product-form
# families are written out member by member).  The fuzz gives them only
# documents with n <= FUZZ_SMALL_N.
EXPONENTIAL = {("solve", "mss"), ("solve", "wss")}
FUZZ_SMALL_N = 8
SOLVE_CONCEPTS = ("core", "schwartz", "duggan", "vnm", "gss", "sss", "mss",
                  "wss", "ess")
TOPOLOGY_CHECKS = ("dm", "frink", "precont", "excluded", "t1", "nachbin")
BAD_COUNTS = ["-1", "0", "1.5", "x", "", str(PARSE_LIMIT + 1), "10" * 10,
              "9" * 5000]


class TestCliFuzz:
    """Seeded malformed documents and arguments: every run ends with exit 0,
    1, 2 or 64, never a traceback, and one stderr line when it fails."""

    def document(self, rng) -> bytes:
        n = rng.randint(1, 6)
        p = random_problem(n, rng.choice((0.0, 0.3, 0.8)), rng.randrange(99))
        valid = (serialize_instance(p) if rng.random() < 0.5 else
                 f"{n}\n" + "".join(f"{x} {y}\n" for x, y in p.rel.pairs()))
        kind = rng.randrange(8)
        if kind == 0:
            return valid.encode()
        if kind == 1:  # truncated
            return valid[:rng.randrange(len(valid))].encode()
        if kind == 2:  # corrupted bytes, often not UTF-8
            data = bytearray(valid.encode())
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            return bytes(data)
        if kind == 3:  # non-UTF-8 bytes spliced in
            cut = rng.randrange(len(valid) + 1)
            return (valid[:cut].encode() + rng.choice((b"\xff\xfe", b"\xc3",
                                                       b"\x80\x80"))
                    + valid[cut:].encode())
        if kind == 4:  # wrong types
            doc = {"n": rng.choice((n, -1, 0, 1.5, "3", None, True, [], {}))}
            if rng.random() < 0.7:
                doc["edges"] = rng.choice(("x", {}, 5, None, [[0]], [[0, "1"]],
                                           [[0, 1, 2]], [[0, 1]], [[1, 0]]))
            if rng.random() < 0.5:
                doc["labels"] = rng.choice((5, ["a"], "ab", None,
                                            [str(x) for x in range(n)]))
            return json.dumps(rng.choice((doc, [doc], n))).encode()
        if kind == 5:  # n over the parse ceiling
            big = rng.choice((PARSE_LIMIT + 1, 10 ** 6, 10 ** 30))
            return rng.choice(('{"n": %d, "edges": []}' % big,
                               "%d\n0 1\n" % big)).encode()
        if kind == 6:  # nesting, digits and junk the decoders refuse
            return rng.choice(('{"n": %s}' % ("[" * 50000), '{"n": 1%s}' % (
                "0" * 5000), "²\n", "0\n", "", " \n# only\n", "{",
                "3\n0 1 2\n", "3\n0 5\n", "3\n1 1\n")).encode()
        return b"\x00" * rng.randint(1, 8)

    def argv(self, rng, path, n):
        """Arguments for one run; n is the document's size, or None when it
        does not parse."""
        command = rng.choice(("solve", "contract", "topology", "verify",
                              "random", "junk"))
        small = n is None or n <= FUZZ_SMALL_N
        if command == "solve":
            concept = rng.choice([c for c in SOLVE_CONCEPTS
                                  if small or ("solve", c) not in EXPONENTIAL
                                  and c not in ("vnm", "sss")])
            argv = ["solve", "--concept", concept, "--input", path]
            if rng.random() < 0.3 and small:
                argv += ["--method", rng.choice(("deb", "brute", "nope"))]
            if rng.random() < 0.2:
                argv += ["--interp", "closure_of_restriction"]
            return argv
        if command == "contract":
            return ["contract", "--input", path] + (["--dot"] if rng.random()
                                                    < 0.5 else [])
        if command == "topology":
            check = rng.choice(TOPOLOGY_CHECKS)
            argv = ["topology", "--check", check, "--input", path]
            # Only the options the check reads, never both: the refusals of
            # the others are pinned in BAD_ARGUMENTS.
            draw = rng.random()
            if draw < 0.6 and check in ("excluded", "nachbin"):
                argv += ["--excluded", rng.choice((
                    "0", "1,2", "100000000000", str(10 ** 20), "-1", "", "x",
                    "0,,1", f"{10 ** 23},0", "1" * 5000))]
            elif draw >= 0.7 and check in ("excluded", "t1", "nachbin"):
                argv += ["--generator", rng.choice(("duggan", "wss", "x"))]
            return argv
        if command == "verify":
            # Seeds below 4 keep every trial at n <= 4.
            max_n = rng.choice(["1", "2", "6", "12", "13", "40"] + BAD_COUNTS)
            return ["verify", "--concept", rng.choice(("gss", "vnm", "sss",
                                                       "ess", "bad")),
                    "--max-n", max_n, "--trials", rng.choice(("0", "2", "-1")),
                    "--seed", str(rng.randrange(4))]
        if command == "random":
            return ["random", "--n", rng.choice(["1", "7", "30"] + BAD_COUNTS),
                    "--density", rng.choice(("0", "0.5", "1", "2", "nan",
                                             "x")),
                    "--seed", str(rng.randrange(99))]
        return rng.choice(([], ["bogus"], ["solve"], ["--bogus"],
                           ["solve", "--concept", "core"],
                           ["random", "--n"], ["contract", "--input"],
                           ["contract", "--input", path, "--bogus"],
                           ["contract", "--input", path + ".missing"],
                           ["contract", "--input", str(Path(path).parent)]))

    def test_exit_codes_and_one_line_errors(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        rng = random.Random(20261018)
        for case in range(300):
            data = self.document(rng)
            path.write_bytes(data)
            try:
                n = parse_instance(data.decode()).n
            except (UnicodeDecodeError, ParseError):
                n = None
            argv = self.argv(rng, str(path), n)
            code = run_cli(argv)
            captured = capsys.readouterr()
            where = f"case {case}: {argv} on {data[:80]!r}"
            assert code in (0, 1, 2, 64), where
            assert "Traceback" not in captured.err, where
            if code:
                assert captured.err.endswith("\n"), where
                assert captured.err.count("\n") == 1, where
