import json
import random

import pytest

from stableset.cli import run_cli
from stableset.errors import LoopEdge, ParseError
from stableset.fixtures import CYCLE_WITH_TAIL
from stableset.io import export_dot, parse_instance, serialize_instance
from stableset.relations import Relation
from stableset.oracle import random_problem
from stableset.contraction import equipotence_classes

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
             "loop")


class TestJsonParserEquivalence:
    """The C-level fast path raises what the per-edge check raises."""

    def documents(self, seed):
        """Seeded valid edge lists with one to three bad edges planted."""
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
        return json.dumps({"n": n, "edges": edges})

    def test_bad_documents_raise_like_per_edge_check(self):
        for seed in range(400):
            text = self.documents(seed)
            with pytest.raises(ParseError) as expected:
                per_edge_parse(text)
            with pytest.raises(ParseError) as actual:
                parse_instance(text)
            assert type(actual.value) is type(expected.value)
            assert str(actual.value) == str(expected.value)

    def test_bad_edge_after_many_good_ones(self):
        good = [[u, v] for u in range(60) for v in range(60) if u != v]
        concrete = {"n": [3, 60], "n+": [61, 0], "loop": [7, 7]}
        for bad in BAD_EDGES:
            if isinstance(bad, str):
                bad = concrete.get(bad, bad)
            text = json.dumps({"n": 60, "edges": good + [bad]})
            with pytest.raises(ParseError) as expected:
                per_edge_parse(text)
            with pytest.raises(ParseError) as actual:
                parse_instance(text)
            assert type(actual.value) is type(expected.value)
            assert str(actual.value) == str(expected.value)

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
        path = tmp_path / "cyc.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        assert run_cli(["solve", "--concept", "vnm", "--input", str(path),
                        "--max-n", "2"]) == 1


INPUT = "{input}"
CYCLE = "3\n0 1\n1 2\n2 0\n"
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
    pytest.param(["solve", "--concept", "vnm", "--input", INPUT],
                 {"STABLESET_MAX_N": "abc"}, CYCLE, id="max-n-env-not-int"),
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
