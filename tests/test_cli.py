import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import stableset
from conftest import CYCLE_WITH_TAIL, assert_same_text, kernel_corpus
from stableset import cli, contraction, order_topology, relations
from stableset import io as sio
from stableset.bitset import full_mask, image, members
from stableset.cli import _build_parser, _generator_set, run_cli
from stableset.errors import LoopEdge, ParseError
from stableset.io import (BYTE_LIMIT, PARSE_LIMIT, export_dot,
                          parse_instance, serialize_instance)
from stableset.order_topology import (CUT_LIMIT, excluded_set_topology,
                                      nachbin_closed, weak_t1_separation)
from stableset.relations import (DecisionProblem, Relation, asymmetric_part,
                                 strict_poset_order, transitive_closure,
                                 trap_relation)
from stableset.oracle import random_problem
from stableset.contraction import equipotence_classes, extended_dominance
from stableset.solutions import (Concept, duggan_set, m_stable_sets,
                                 schwartz_set, solve, w_stable_sets)

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


def reference_dot(p, c):
    """`export_dot`'s text written one line per node, relation pair and
    condensation pair: the reference its row joins must reproduce."""
    labels = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
              for label in p.labels]
    lines = ["digraph decision_problem {\n"]
    for i, cls in enumerate(c.classes):
        xs = members(cls)
        if len(xs) == 1:
            lines.append(f"  a{xs[0]} [label={labels[xs[0]]}];\n")
        else:
            lines.append(f"  subgraph cluster_{i} {{\n")
            lines.append(f'    label="component {i}";\n')
            lines += [f"    a{x} [label={labels[x]}];\n" for x in xs]
            lines.append("  }\n")
    lines += [f"  a{x} -> a{y};\n" for x, y in p.rel.pairs()]
    for i, j in c.cond.pairs():
        src = members(c.classes[i])[0]
        dst = members(c.classes[j])[0]
        lines.append(f"  a{src} -> a{dst} [style=bold, color=red, "
                     f"ltail=cluster_{i}, lhead=cluster_{j}];\n")
    lines.append("}\n")
    return "".join(lines)


class TestParsing:
    def test_edge_list(self):
        p = parse_instance(TAIL_EDGES)
        assert p.rel == CYCLE_WITH_TAIL.rel

    def test_comments_and_blanks(self):
        text = "# instance\n3\n\n0 1  # edge\n1 2\n"
        assert sorted(parse_instance(text).rel.pairs()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("text, line, message", [
        ("2\n0 +1\n", 2, "non-integer edge '0 +1'"),
        ("11\n0 1_0\n", 2, "non-integer edge '0 1_0'"),
        ("3\n\u0660 1\n", 2, "non-integer edge '\u0660 1'"),
        ("3\n0\u00a01\n", 2, "non-integer edge '0\\xa01'"),
        ("3\n-0 2\n0 +1 # ok\n", 3, "non-integer edge '0 +1'"),
        ("\u0663\n0 1\n", 1, "header must be the alternative count"),
        ("# n\n+3\n0 1\n", 2, "header must be the alternative count"),
        ("1_0\n0 1\n", 1, "header must be the alternative count"),
        ("3\n-1 1\n", 2, "edge (-1,1) out of range for n=3")])
    def test_edge_list_integers_are_ascii_digits(self, text, line, message):
        # int() also reads a '+' sign, '_' between digits and the digits of
        # other scripts; the JSON route refuses them, and so does this one.
        for document in (text, text.encode()):
            with pytest.raises(ParseError) as exc:
                parse_instance(document)
            assert (exc.value.line, str(exc.value)) == \
                (line, f"line {line}: {message}")

    def test_edge_list_comments_hold_any_text(self):
        text = "3 # \u0663 +1 1_0\n-0 1 # \u00fc\n0 2#+\n"
        for document in (text, text.encode()):
            assert sorted(parse_instance(document).rel.pairs()) == \
                [(0, 1), (0, 2)]

    # `str.splitlines` also ends a line at each of these characters.
    @pytest.mark.parametrize("char", [
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=ascii)
    def test_edge_list_lines_end_only_at_newlines(self, char):
        text = f"3\n0 1 # note{char} 0 2\n"
        for document in (text, text.encode()):
            assert list(parse_instance(document).rel.pairs()) == [(0, 1)]
        text = f"3\n0 1{char}1 2\n"
        for document in (text, text.encode()):
            with pytest.raises(ParseError) as exc:
                parse_instance(document)
            assert str(exc.value) == f"line 2: expected 'u v', got {text[2:-1]!r}"

    def test_edge_list_line_breaks(self):
        text = "3\r\n0 1 # a\r1 2\n\r\n2 2\r"
        with pytest.raises(LoopEdge) as exc:
            parse_instance(text)
        assert str(exc.value) == "line 5: loop edge at alternative 2"
        assert sorted(parse_instance(text[:-4]).rel.pairs()) == \
            [(0, 1), (1, 2)]

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
        dot = "".join(export_dot(CYCLE_WITH_TAIL,
                                 equipotence_classes(CYCLE_WITH_TAIL)))
        assert dot.startswith("digraph")
        assert "subgraph cluster_0" in dot
        assert "style=bold" in dot

    def test_dot_matches_the_per_pair_reference(self):
        # The transitive tournaments at n = 300, in both orientations, give
        # one class per alternative and 44,850 condensation pairs; the
        # complete bipartite 40 x 40 order gives rows of 40 pairs between
        # singleton classes; the last problem has quoted and backslashed
        # labels on a cycle beside two tails.
        n = 300
        forward = Relation(n, tuple(full_mask(n) >> x + 1 << x + 1
                                    for x in range(n)))
        tops = full_mask(80) >> 40 << 40
        problems = kernel_corpus() + (
            DecisionProblem(forward),
            DecisionProblem(Relation(n, forward.columns())),
            DecisionProblem(Relation(80, (tops,) * 40 + (0,) * 40)),
            DecisionProblem.from_edges(
                5, [(0, 1), (1, 2), (2, 0), (0, 3), (4, 1)],
                labels=['a"b', "c\\d", "e", 'f\\"', "\\"]))
        for p in problems:
            c = equipotence_classes(p)
            assert_same_text("".join(export_dot(p, c)), reference_dot(p, c))

    def test_dot_labels_escaped(self):
        p = DecisionProblem.from_edges(4, [(0, 1), (1, 2), (2, 0)],
                                       labels=['a"b', "c\\d", "e", 'f\\"'])
        quoted = ['"a\\"b"', '"c\\\\d"', '"e"', '"f\\\\\\""']
        dot = "".join(export_dot(p, equipotence_classes(p)))
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
# Label words whose presence in the text sends a whole document past the
# table loop to the checked loop, which refuses booleans and negative ints.
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
            text = json.dumps({"n": n, "edges": edges})
            p = parse_instance(text)
            assert p.rel == per_edge_parse(text)
            assert parse_instance(text.encode()).rel == p.rel
            assert parse_instance(serialize_instance(p)).rel == p.rel
            assert parse_instance(serialize_instance(p).encode()).rel == p.rel

    @pytest.mark.parametrize("word", RESCAN_WORDS)
    def test_valid_documents_with_rescan_labels(self, word):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            edges = [[u, v] for u in range(n) for v in range(n)
                     if u != v and rng.random() < rng.random()]
            text = labelled({"n": n, "edges": edges}, word)
            for document in (text, text.encode()):
                p = parse_instance(document)
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

    def test_layout_with_text_that_is_not_ascii(self):
        # Labels written as raw UTF-8, which `serialize_instance` escapes,
        # take the piecewise route.  A byte that is not UTF-8, in the
        # labels or among the edges, is refused by the route and named by
        # the decode.
        escaped = piecewise_document(labels=tuple(f"caf\u00e9{x}"
                                                  for x in range(300)))
        text = escaped.replace("\\u00e9", "\u00e9")
        assert not text.isascii() and text.startswith('{"edges": [[')
        assert_parses_like_whole_document(text, piecewise=True)
        assert_parses_like_whole_document(
            text.replace("], [7, ", "], [7, \u00e9", 1), piecewise=False)
        good = text.encode()
        for data in (good.replace("\u00e9".encode(), b"\xe9", 1),
                     good.replace(b"], [7, ", b"], [7\xe9, ", 1)):
            assert sio._json_problem_in_pieces(data) is None
            at = data.index(b"\xe9")
            with pytest.raises(ParseError) as raised:
                parse_instance(data)
            assert str(raised.value) == (
                f"not UTF-8 text: invalid continuation byte at byte {at}")

    def test_text_with_a_lone_surrogate(self):
        # Text in the layout that holds a lone surrogate has no UTF-8
        # bytes: the route refuses the bytes it is encoded to, and the
        # text is read whole.
        text = piecewise_document(labels=("\ud800",) * 300).replace(
            "\\ud800", "\ud800")
        assert "\ud800" in text
        assert sio._json_problem_in_pieces(
            text.encode("utf-8", "surrogatepass")) is None
        p = parse_instance(text)
        expected = sio._json_problem(text)
        assert (p.rel, p.labels) == (expected.rel, expected.labels)

    def test_piecewise_route_reads_several_pieces(self):
        text = piecewise_document(n=600)
        end = text.index("]]") + 1
        pieces = edge_pieces(text, 11, end)
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
        # Shorter than one piece: the piecewise route all the same.
        assert_parses_like_whole_document(piecewise_document(n=40),
                                          piecewise=True)
        assert_parses_like_whole_document(
            '{"n": 300, ' + text[1:].replace(', "n": 300', ""),
            piecewise=False)

    BAD_PIECE_EDGES = {
        "float": "[0, 1.0]", "exponent": "[1e0, 0]", "triple": "[0, 1, 2]",
        "nested-end": "[0, [1]]", "nested-start": "[[0], 1]", "loop": "[7, 7]",
        "out-of-range": "[0, 300]", "null": "[0, null]", "negative": "[0, -1]",
        "boolean": "[true, 0]", "string": '[0, "1"]', "empty": "[]",
        "5001-digits": "[0, 1" + "0" * 5000 + "]",
        "deep": "[" * 5000 + "]" * 5000, "nan": "[0, NaN]",
        "infinity": "[Infinity, 0]", "upper-exponent": "[1E0, 0]"}

    @pytest.mark.parametrize("edge", BAD_PIECE_EDGES.values(),
                             ids=BAD_PIECE_EDGES.keys())
    def test_bad_edge_at_a_piece_boundary(self, edge):
        good = piecewise_document()
        cut = good.index("], [", 11 + sio.EDGE_PIECE)
        # The last edge of the first piece, the first of the second.
        for at in (good.rindex("[", 0, cut), cut + 3):
            text, planted = plant(good, at, edge)
            pieces = edge_pieces(text, 11, text.index("]]") + 1)
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


class TestSourceRuns:
    """The piecewise route decodes each long run of edges that share a
    source by table lookup, and where it cannot take a run, decodes one
    piece of edges with `io._edge_piece` and tries runs again after it.
    `EDGE_PIECE` is shortened so that documents of n = 120 span several
    pieces."""

    N = 120
    BAD_PIECE_EDGES = TestJsonParserEquivalence.BAD_PIECE_EDGES

    @pytest.fixture(autouse=True)
    def log(self, monkeypatch):
        """Records, in order, each run `io._source_run` finds as ("run",
        start, source text) and each piece decoded as ("piece", start,
        stop)."""
        monkeypatch.setattr(sio, "EDGE_PIECE", 1 << 12)
        log = []
        source_run, edge_piece = sio._source_run, sio._edge_piece

        def run_found(text, at, stop, width):
            found = source_run(text, at, stop, width)
            if found[1]:
                log.append(("run", at, found[0]))
            return found

        def piece_decoded(text, start, stop):
            piece = edge_piece(text, start, stop)
            log.append(("piece", start, start + len(piece) - 2))
            return piece

        monkeypatch.setattr(sio, "_source_run", run_found)
        monkeypatch.setattr(sio, "_edge_piece", piece_decoded)
        return log

    def rows(self, seed=0):
        """Seeded rows of about 95 targets each."""
        rng = random.Random(seed)
        return [[y for y in range(self.N) if y != x and rng.random() < 0.8]
                for x in range(self.N)]

    def document(self, edges, sep=", "):
        tail = json.dumps({"labels": [str(x) for x in range(self.N)],
                           "n": self.N}, sort_keys=True)
        return '{"edges": [' + sep.join(edges) + "], " + tail[1:]

    def taken(self, text, log):
        """The sources of the runs the piecewise route took, in order, and
        the (start, stop) of each piece it decoded instead.  A run found
        is taken unless a piece that starts where it does comes next."""
        assert sio._json_problem_in_pieces(text.encode()) is not None
        runs, pieces = [], []
        for (kind, at, what), after in zip(log, log[1:] + [None]):
            if kind == "piece":
                pieces.append((at, what))
            elif after is None or after[:2] != ("piece", at):
                runs.append(int(what))
        return runs, pieces

    def assert_all_runs(self, runs, log):
        text = self.document(edges_of(runs))
        assert self.taken(text, log) == ([x for x, _ in runs], [])
        assert_parses_like_whole_document(text, piecewise=True)

    def test_rows_longer_than_the_search_window(self, log):
        # Each full row follows one of RUN_EDGES + 5 targets, more than
        # twice as short: the search for its end widens past the window.
        short = sio.RUN_EDGES + 5
        rows = [[y for y in range(self.N) if y != x][:short if x % 2 else None]
                for x in range(self.N)]
        self.assert_all_runs(list(enumerate(rows)), log)

    def test_a_run_longer_than_a_piece_is_cut(self, log):
        # Row 7 lists each target 100 times, some 86,000 characters: the
        # window stops widening once it reaches EDGE_PIECE (4,096 here),
        # so the row is taken as several runs, none longer than four
        # pieces.
        runs = list(enumerate(self.rows()))
        runs[7] = (7, [y for y in runs[7][1] for _ in range(100)])
        text = self.document(edges_of(runs))
        taken, pieces = self.taken(text, log)
        parts = len(taken) - self.N + 1
        assert taken == [*range(7), *[7] * parts, *range(8, self.N)]
        assert pieces == []
        self.assert_runs_at_most_four_pieces(text, log)
        assert_parses_like_whole_document(text, piecewise=True)
        # At n = 2 the first window, twice the text per alternative, would
        # span the whole text; it is cut to EDGE_PIECE too.
        del log[:]
        text = '{"edges": [' + ", ".join(["[0, 1]"] * 20000) + '], "n": 2}'
        runs, pieces = self.taken(text, log)
        assert set(runs) == {0} and len(pieces) <= 1  # a short last run
        self.assert_runs_at_most_four_pieces(text, log)
        assert_parses_like_whole_document(text, piecewise=True)

    def assert_runs_at_most_four_pieces(self, text, log):
        starts = [at for _, at, _ in log] + [text.index("]]") + 3]
        assert max(b - a for a, b in zip(starts, starts[1:])) \
            <= 4 * sio.EDGE_PIECE

    def test_duplicate_edges_and_a_source_over_non_adjacent_runs(self, log):
        rows = self.rows()
        runs = list(enumerate(rows))
        runs[5] = (5, [y for y in rows[5] for _ in (0, 1)])
        # Row 9 in two runs, far apart, that share ten targets.
        runs[9] = (9, rows[9][:50])
        runs.append((9, rows[9][40:]))
        self.assert_all_runs(runs, log)

    def test_sources_whose_text_prefixes_or_suffixes_another(self, log):
        rows = self.rows()
        # Row 1 in two runs that share targets, between sources whose text
        # starts or ends with its own.
        order = (11, 111, 21, 1, 12, 112, 2, 119)
        runs = [(1, rows[1][:60])] + [(x, rows[x]) for x in order]
        runs[4] = (1, rows[1][-60:])
        runs += [(x, row) for x, row in enumerate(rows) if x not in order]
        self.assert_all_runs(runs, log)

    @pytest.mark.parametrize("last", [True, False],
                             ids=["last-row", "no-last-row"])
    def test_empty_rows_between_runs(self, log, last):
        rows = self.rows()
        for x in (0, 1, 2, 50, 51, 52, 53, self.N - 2):
            rows[x] = []
        if not last:
            rows[-1] = []
        self.assert_all_runs([(x, row) for x, row in enumerate(rows) if row],
                             log)

    @pytest.mark.parametrize("edge", BAD_PIECE_EDGES.values(),
                             ids=BAD_PIECE_EDGES.keys())
    def test_bad_edge_in_a_run_or_at_its_ends(self, edge):
        self.assert_planted_in_a_run(bad_in_both_positions(edge, 60), False)

    # Index text the lookup table lacks: leading zeros, a sign, a digit
    # that passes str.isdigit but is not ASCII, and n itself.
    UNLISTED_ENDS = {"leading-zero": "[0, 07]", "zero-five": "[0, 05]",
                     "plus": "[0, +7]", "arabic-indic": "[0, \u0663]",
                     "n": "[0, 120]"}

    @pytest.mark.parametrize("edge", UNLISTED_ENDS.values(),
                             ids=UNLISTED_ENDS.keys())
    def test_index_text_the_table_lacks(self, edge):
        assert "\u0663".isdigit()
        self.assert_planted_in_a_run(bad_in_both_positions(edge, 60), False)

    def test_edges_the_table_lacks_that_decode_whole(self):
        # Valid JSON whose ends are not the canonical text: the pieces
        # read them, and the rows are the whole document's.
        self.assert_planted_in_a_run(
            ["[60,  7]", "[60, 7 ]", "[60,\n7]", "[ 60, 7]", "[60 , 7]",
             "[5,  7]"], True)

    def test_index_n_minus_one(self):
        # A run that lists its own source is the "loop" case above.
        self.assert_planted_in_a_run(["[60, 119]", "[119, 60]", "[0, 119]"],
                                     True)

    def assert_planted_in_a_run(self, edges, piecewise):
        """Each edge in turn replaces the first, a middle and the last edge
        of row 60, a long run, and the document parses as it does whole."""
        rows = self.rows()
        good = edges_of(enumerate(rows))
        s = 60
        first = sum(map(len, rows[:s]))
        for at in (first, first + len(rows[s]) // 2, first + len(rows[s]) - 1):
            for edge in edges:
                text = self.document(good[:at] + [edge] + good[at + 1:])
                assert_parses_like_whole_document(text, piecewise)

    @pytest.mark.parametrize("n, edges, loop", [
        (1, [], False), (2, [(0, 1)], True), (2, [(1, 0)], True),
        (3, [], False), (3, [(2, 0), (2, 1)], True), (5, [(4, 3)], True)])
    def test_small_documents(self, n, edges, loop):
        # Their edge text cannot hold RUN_EDGES edges, so they are decoded
        # whole, also with a loop after their edges.
        text = serialize_instance(DecisionProblem(Relation.from_pairs(n,
                                                                      edges)))
        assert_parses_like_whole_document(text, piecewise=False)
        if loop:
            assert_parses_like_whole_document(
                text.replace("]]", "], [0, 0]]"), piecewise=False)

    @pytest.mark.parametrize("count", [sio.RUN_EDGES - 1, sio.RUN_EDGES])
    def test_edge_text_that_could_hold_a_run(self, count):
        # The shortest edges, one digit at each end: the route takes the
        # document iff its edge text is as long as RUN_EDGES of them.
        pairs = [(x, y) for x in range(10) for y in range(10) if x != y]
        p = DecisionProblem(Relation.from_pairs(10, pairs[:count]))
        text = serialize_instance(p)
        assert_parses_like_whole_document(
            text, piecewise=count == sio.RUN_EDGES)
        assert parse_instance(text).rel == p.rel

    def test_a_source_holding_a_bracket_is_no_run(self):
        # Were "0]" a source, each "], [0], " here would pass for the
        # separator of its run, and the text for a run of pairs.
        rows = self.rows()
        bad = "[0" + "".join(f"], [0], {y}" for y in rows[0]) + ", 1]"
        text = self.document([bad] + edges_of(
            (x, rows[x]) for x in range(1, self.N)))
        assert_parses_like_whole_document(text, piecewise=False)

    @pytest.mark.parametrize("sep", ["],[", "],\n["], ids=["tight", "newline"])
    def test_other_separators_are_handed_back_whole(self, log, sep):
        text = self.document(edges_of(enumerate(self.rows())))
        text = text.replace("], [", sep)
        stop = text.index("]]") + 1
        assert self.taken(text, log) == (
            [], [(len(sio._CANONICAL_HEAD) - 1, stop)])

    @pytest.mark.parametrize("sep", ["],[", "],\n[", "] , ["],
                             ids=["tight", "newline", "spaced"])
    def test_a_run_before_another_separator_is_handed_back(self, log, sep):
        text = self.document(edges_of(enumerate(self.rows())))
        cut = text.index("], [31, ")
        text = text[:cut] + sep + text[cut + 4:]
        runs, pieces = self.taken(text, log)
        # Rows 0 to 29 are taken as runs; one piece from row 30 on ends at
        # the first edge boundary EDGE_PIECE characters on, and the runs
        # after it reach the last row.
        start = text.index("[30, ")
        assert runs[:30] == list(range(30))
        assert pieces[0] == (start, text.index("], [", start + sio.EDGE_PIECE)
                             + 1)
        assert runs[-1] == self.N - 1
        assert_parses_like_whole_document(text, piecewise=True)

    def test_runs_resume_after_short_rows(self, log):
        # Rows 0 to 59 hold 2 targets, fewer than RUN_EDGES, the rest
        # about 95: a piece from the start, then runs.
        rows = self.rows()
        rows[:60] = [row[:2] for row in rows[:60]]
        text = self.document(edges_of(enumerate(rows)))
        runs, pieces = self.taken(text, log)
        assert pieces[0][0] == len(sio._CANONICAL_HEAD) - 1
        assert len(pieces) == 1
        assert runs[1:] == list(range(runs[0] + 1, self.N))
        assert_parses_like_whole_document(text, piecewise=True)

    def test_column_major_order_is_handed_back_at_once(self, log):
        rows = self.rows()
        edges = [f"[{x}, {y}]" for y in range(self.N)
                 for x in range(self.N) if y in rows[x]]
        text = self.document(edges)
        assert self.taken(text, log) == ([], self.piece_spans(text, log))
        assert_parses_like_whole_document(text, piecewise=True)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_sparse_rows_decode_no_more_often_than_in_pieces(
            self, log, monkeypatch, degree):
        rng = random.Random(degree)
        rows = [sorted(rng.sample([y for y in range(self.N) if y != x],
                                  rng.randint(1, degree)))
                for x in range(self.N)]
        text = self.document(edges_of(enumerate(rows)))
        monkeypatch.setattr(sio, "EDGE_PIECE", 1 << 9)
        # Every run is short, so the pieces are those of the text alone.
        spans = self.piece_spans(text, log)
        assert len(spans) > 1
        assert self.taken(text, log) == ([], spans)
        assert_parses_like_whole_document(text, piecewise=True)

    def piece_spans(self, text, log):
        """The (start, stop) of each piece of the edge text alone."""
        start = len(sio._CANONICAL_HEAD) - 1
        spans = []
        for piece in edge_pieces(text, start, text.index("]]") + 1):
            spans.append((start, start + len(piece) - 2))
            start += len(piece)
        del log[:]
        return spans


def edges_of(runs):
    """Edge texts of (source, targets) runs, in order."""
    return [f"[{x}, {y}]" for x, ys in runs for y in ys]


def bad_in_both_positions(edge, s):
    """`edge`, and for an edge "[a, b]", its bad end beside source `s` as
    target and as source; a loop becomes [s, s]."""
    found = re.fullmatch(r"\[(\[0\]|[^,\[]*), (.*)\]", edge, re.S)
    if found is None:
        return [edge]
    a, b = found.groups()
    if a == b:
        return [edge, f"[{s}, {s}]"]
    bad = b if a == "0" else a
    return [edge, f"[{s}, {bad}]", f"[{bad}, {s}]"]


def edge_pieces(text, start, stop):
    """The pieces `io._edge_piece` cuts an ASCII text[start:stop] into, in
    order, as text."""
    data = text.encode()
    pieces = []
    while start < stop:
        pieces.append(sio._edge_piece(data, start, stop).decode())
        start += len(pieces[-1])
    return pieces


def piecewise_document(n=300, seed=0, labels=()):
    """`serialize_instance`'s text of a seeded instance with about half of
    all edges: some 450 KB at n = 300, two pieces on the piecewise route."""
    rng = random.Random(seed)
    rows = tuple(rng.getrandbits(n) & ~(1 << x) for x in range(n))
    return serialize_instance(DecisionProblem(Relation(n, rows), labels))


def assert_parses_like_whole_document(text, piecewise):
    """`parse_instance` answers as `io._json_problem` does, given the text
    or its UTF-8 bytes: the same rows and labels, or a ParseError of the
    same class, text and line.  The piecewise route takes the document iff
    `piecewise`, given the bytes."""
    data = text.encode()
    assert (sio._json_problem_in_pieces(data) is not None) == piecewise
    try:
        expected = sio._json_problem(text)
    except ParseError as exc:
        for document in (text, data):
            with pytest.raises(ParseError) as actual:
                parse_instance(document)
            assert type(actual.value) is type(exc)
            assert ((str(actual.value), actual.value.line)
                    == (str(exc), exc.line))
        return
    for document in (text, data):
        p = parse_instance(document)
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
    for document in (text, text.encode()):
        with pytest.raises(ParseError) as actual:
            parse_instance(document)
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

    def test_duggan(self, capsys, tail_file):
        code, out = run(capsys, "solve", "--concept", "duggan",
                        "--input", tail_file)
        expected = duggan_set(parse_instance(TAIL_EDGES))
        assert code == 0
        assert json.loads(out) == {"concept": "duggan",
                                   "set": list(members(expected))}


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

    def test_fail_names_each_trial_that_differs(self, capsys, monkeypatch):
        # A constructive side that drops its last member differs from the
        # oracle on every trial with a non-empty family.
        def short_by_one(p, concept, interp):
            return list(solve(p, concept, interp=interp))[:-1]

        monkeypatch.setattr("stableset.oracle.solve", short_by_one)
        code, out = run(capsys, "verify", "--concept", "mss", "--trials", "6",
                        "--max-n", "4", "--seed", "3")
        expected = []
        for seed in range(3, 9):
            n, density = 1 + seed % 4, (0.2, 0.5, 0.8)[seed % 3]
            family = list(solve(random_problem(n, density, seed),
                                Concept.M_STABLE))
            if family:
                expected.append({"seed": seed, "n": n, "density": density,
                                 "only_constructive": [],
                                 "only_oracle": [list(members(family[-1]))]})
        assert code == 2 and expected
        assert json.loads(out) == {"concept": "mss", "trials": 6,
                                   "status": "FAIL", "failures": expected}

    def test_timings_opt_in(self, capsys):
        code, out = run(capsys, "verify", "--concept", "gss", "--trials", "3",
                        "--max-n", "4", "--timings")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "PASS"
        assert list(doc["timings"]) == ["total_s"]
        assert isinstance(doc["timings"]["total_s"], float)
        assert doc["timings"]["total_s"] >= 0


class TestContractCommand:
    def test_json(self, capsys, tail_file):
        code, out = run(capsys, "contract", "--input", tail_file)
        doc = json.loads(out)
        assert code == 0
        assert [0, 1, 2] in doc["classes"] and [3] in doc["classes"]

    def test_dot(self, capsys, tail_file):
        code, out = run(capsys, "contract", "--input", tail_file, "--dot")
        p = parse_instance(TAIL_EDGES)
        assert code == 0 and out == reference_dot(p, equipotence_classes(p))


class TestTopologyCommand:
    def test_t1_generators(self, capsys, monkeypatch, tail_file):
        # A theorem settles `t1` with a generator, so no set is built.
        def refuse(*args):
            raise AssertionError("t1 built a generator set")

        monkeypatch.setattr(cli, "_generator_set", refuse)
        for generator in (None,) + GENERATORS:
            options = ["--generator", generator] if generator else []
            code, out = run(capsys, "topology", "--check", "t1",
                            "--input", tail_file, *options)
            assert code == 0 and json.loads(out) == {
                "check": "t1", "generator": generator or "schwartz",
                "separated": True}

    def test_t1_one_step_relations_answer_as_their_closures(self):
        # Each generator's own set separates under the relation the check is
        # defined with, the theorem `t1` answers by; seeded excluded sets
        # are checked too, to see both answers.
        rng = random.Random(15)
        answers = set()
        for p in kernel_corpus():
            for generator in GENERATORS:
                one_step = (trap_relation(p) if generator == "duggan"
                            else extended_dominance(p))
                closed = closure_strict_for_generator(p, generator)
                assert (image(p.all_mask, one_step.rows)
                        == image(p.all_mask, closed.rows))
                own = _generator_set(p, generator)
                assert weak_t1_separation(excluded_set_topology(p.n, own),
                                          closed), generator
                for excluded in (own, rng.getrandbits(p.n)):
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

    def test_t1_excluded_can_fail(self, capsys, tail_file):
        # 0 dominates 3 from outside 3's component, so excluding 3 fails.
        for excluded, separated in (([3], False), ([0, 1, 2], True)):
            code, out = run(capsys, "topology", "--check", "t1",
                            "--input", tail_file, "--excluded",
                            ",".join(map(str, excluded)))
            assert code == 0 and json.loads(out) == {
                "check": "t1", "excluded": excluded, "separated": separated}

    def test_each_route_closes_at_most_once(self, capsys, monkeypatch,
                                           tmp_path):
        """`dm` and `frink` close the dominance relation once to derive the
        order, and validating it closes nothing; the other routes close
        nothing.  No route builds a contraction."""
        closures = []

        def counted(r):
            closures.append(r.n)
            return closure(r)

        def refuse(p):
            raise AssertionError("a topology check built a contraction")

        closure = relations.transitive_closure
        monkeypatch.setattr(relations, "transitive_closure", counted)
        monkeypatch.setattr(order_topology, "transitive_closure", counted)
        monkeypatch.setattr(contraction, "equipotence_classes", refuse)
        monkeypatch.setattr(cli, "equipotence_classes", refuse)
        path = tmp_path / "p.json"
        path.write_text(serialize_instance(random_problem(12, 0.2, 3)))
        for check, options, expected in (
                ("dm", [], 1), ("frink", [], 1), ("nachbin", [], 0),
                ("nachbin", ["--excluded", "0"], 0), ("excluded", [], 0),
                ("precont", [], 0), ("t1", [], 0),
                ("t1", ["--excluded", "0"], 0)):
            closures.clear()
            code, _ = run(capsys, "topology", "--check", check,
                          "--input", str(path), *options)
            assert (code, len(closures)) == (0, expected), (check, options)

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
        """Every finite poset is precontinuous, and `nachbin` is settled by
        n alone, so neither derives an order or closes a relation."""
        def refuse(*args):
            raise AssertionError("precont or nachbin built an order")

        path = tmp_path / "p.json"
        path.write_text(serialize_instance(random_problem(40, 0.1, 3)))
        monkeypatch.setattr(relations, "transitive_closure", refuse)
        monkeypatch.setattr(cli, "strict_poset_order", refuse)
        monkeypatch.setattr(cli, "Poset", refuse)
        code, out = run(capsys, "topology", "--check", "precont",
                        "--input", str(path))
        assert code == 0 and out == \
            '{\n  "check": "precont",\n  "precontinuous": true\n}\n'
        for generating in ([], ["--excluded", "0"], ["--generator", "mss"]):
            code, out = run(capsys, "topology", "--check", "nachbin",
                            "--input", str(path), *generating)
            assert code == 0 and json.loads(out)["nachbin_closed"] is False

    def test_nachbin_and_t1_excluded_answer_by_theorem(self, capsys,
                                                      tmp_path):
        """`nachbin` holds iff n = 1, and `t1 --excluded I` iff I lies in
        the Schwartz set: on every corpus problem, with four non-empty
        excluded sets each, both answers equal the definitions on the
        relations the checks are defined with."""
        rng = random.Random(21)
        path = tmp_path / "p.json"
        cases = 0
        answers = {"nachbin": set(), "t1": set()}
        for p in kernel_corpus():
            path.write_text(serialize_instance(p))
            order = strict_poset_order(p)
            dominance = extended_dominance(p)
            top_set = schwartz_set(p)
            inside = top_set & rng.getrandbits(p.n) or top_set & -top_set
            anywhere = rng.getrandbits(p.n) or 1
            single = 1 << rng.randrange(p.n)
            for excluded in (top_set, inside, anywhere, single):
                top = excluded_set_topology(p.n, excluded)
                option = ",".join(map(str, members(excluded)))
                for check, key, expected in (
                        ("nachbin", "nachbin_closed",
                         nachbin_closed(top, order)),
                        ("t1", "separated",
                         weak_t1_separation(top, dominance))):
                    code, out = run(capsys, "topology", "--check", check,
                                    "--input", str(path),
                                    "--excluded", option)
                    assert (code, json.loads(out)[key]) == (0, expected)
                    answers[check].add(expected)
                cases += 1
        assert cases == 4876
        assert answers == {"nachbin": {False, True}, "t1": {False, True}}

    def test_first_generator_members_match_the_families(self):
        # wss and mss read their first member off the components.
        edgeless = DecisionProblem.from_edges(2000, [])
        for p in kernel_corpus() + (edgeless,):
            assert _generator_set(p, "wss") == next(iter(w_stable_sets(p)))
            assert _generator_set(p, "mss") == next(iter(m_stable_sets(p)))


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


def child_env(**env):
    """The environment with `env` added and the tested package's source
    first on PYTHONPATH."""
    src = str(Path(stableset.__file__).parent.parent)
    return {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_module(*argv, **env):
    """`python -m stableset.cli argv` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "stableset.cli", *argv],
                          capture_output=True, text=True, env=child_env(**env),
                          timeout=60)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["random", "--n", "2000", "--density", "1"],
        ["solve", "--concept", "mss", "--input", "edgeless.json"]],
        ids=["random", "mss"])
    def test_ends_with_one_error_line(self, argv, tmp_path):
        # A reader that stops after a few bytes closes the pipe while the
        # document (17 MB, 7 MB) is still being written.
        (tmp_path / "edgeless.json").write_text('{"n": 16, "edges": []}')
        child = subprocess.Popen(
            [sys.executable, "-m", "stableset.cli", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert child.stdout.read(16)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
        assert err.decode() == "error: [Errno 32] Broken pipe\n"


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
            ["topology", "--check", "t1", "--input", str(path),
             "--excluded", "3"],
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
        assert codes == [0, 0, 0, 64, 0, 0, 0]

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

    @pytest.mark.parametrize("argv, expected", [
        (["random", "--n", "abc"], "--n: expected a positive integer, got abc"),
        (["random", "--n", "3", "--density", "abc"],
         "--density: expected a number in [0, 1], got abc"),
        (["verify", "--concept", "gss", "--max-n", "abc"],
         "--max-n: expected a positive integer, got abc"),
        (["verify", "--concept", "gss", "--trials", "abc"],
         "--trials: expected a count >= 0, got abc")])
    def test_non_numeric_values(self, argv, expected, capsys):
        assert run_cli(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: argument {expected}\n"

    def test_missing_file(self, capsys):
        assert run_cli(["solve", "--concept", "core",
                        "--input", "/no/such/file"]) == 1

    def test_bad_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n")
        assert run_cli(["solve", "--concept", "core",
                        "--input", str(path)]) == 1

    @pytest.mark.parametrize("edges", ["5", "{}"])
    def test_edges_that_are_not_a_list(self, edges, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": %s}' % edges)
        assert run_cli(["solve", "--concept", "core",
                        "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: 'edges' must be a list of [u, v] pairs\n"

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

    @staticmethod
    def _write_fifo(path, chunks):
        """Make a FIFO at path and a writer thread that feeds it chunks."""
        os.mkfifo(path)

        def write():
            with open(path, "wb") as out:
                for chunk in chunks:
                    out.write(chunk)
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        return writer

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_document_reads_as_the_regular_file(self, tmp_path, capsys):
        # 219 KB, several times a pipe's buffer, so the read goes on.
        doc = serialize_instance(random_problem(200, 0.5, 1)).encode()
        regular = tmp_path / "doc.json"
        regular.write_bytes(doc)
        argv = ["solve", "--concept", "core", "--input"]
        assert run_cli(argv + [str(regular)]) == 0
        expected = capsys.readouterr()
        writer = self._write_fifo(tmp_path / "doc.fifo",
                                  [doc[at:at + 50_000]
                                   for at in range(0, len(doc), 50_000)])
        assert run_cli(argv + [str(tmp_path / "doc.fifo")]) == 0
        writer.join(5)
        assert not writer.is_alive()
        assert capsys.readouterr() == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_past_the_byte_limit(self, tmp_path, capsys):
        chunk = b" " * 2**20
        whole, part = divmod(BYTE_LIMIT + 1, len(chunk))
        writer = self._write_fifo(tmp_path / "big.fifo",
                                  [b"{", *[chunk] * whole, chunk[:part - 1]])
        code = run_cli(["solve", "--concept", "core", "--input",
                        str(tmp_path / "big.fifo")])
        writer.join(5)
        assert not writer.is_alive()
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: document exceeds {BYTE_LIMIT} bytes\n"

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
            if check not in ("excluded", "t1", "nachbin"):
                return argv
            if draw < 0.6:
                argv += ["--excluded", rng.choice((
                    "0", "1,2", "100000000000", str(10 ** 20), "-1", "", "x",
                    "0,,1", f"{10 ** 23},0", "1" * 5000))]
            elif draw >= 0.7:
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
