"""Instance parsing and result serialization.

Two instance formats are accepted: a JSON object {"n": ..., "labels": ...,
"edges": [[u, v], ...]} and a whitespace edge list whose first line is the
alternative count.  Loops are rejected; duplicate edges collapse.  The
alternative count may not exceed `PARSE_LIMIT`: relation work grows with
n^2, so a few bytes of document must not ask for unbounded time or memory.

A JSON document takes one of two routes.  One in the layout
`serialize_instance` writes, longer than `EDGE_PIECE` characters and with
no string, sign, boolean or exponent among its edges, is decoded in pieces
(`_json_problem_in_pieces`), so no more than one piece's edge lists are
alive at once.  Every other document, and every document that route
refuses, is decoded whole by `_json_problem`, which gives every error
message.
"""

from __future__ import annotations

import gc
import json
from itertools import chain
from operator import add
from typing import Optional, TextIO

from .bitset import Mask, iter_bits, members
from .contraction import Contraction
from .errors import LimitExceeded, LoopEdge, ParseError, check_size
from .relations import DecisionProblem, Relation, has_index_ends
from .solutions import SolutionFamily, FamilyForm

PARSE_LIMIT = 2000
# Bytes read from one document.  The largest document the CLI writes,
# `random --n PARSE_LIMIT --density 1`, lists every ordered pair as
# "[u, v], " with indices of at most len(str(PARSE_LIMIT)) digits; two more
# bytes a pair cover its labels and header.
BYTE_LIMIT = (2 * len(str(PARSE_LIMIT)) + 8) * PARSE_LIMIT ** 2
# Fewest sets in one write when a family's members are streamed.  Writes
# carry whole blocks of up to 256 sets, so a write holds 512 to 767 sets,
# 55 to 80 KB at n = 16.  Batches of 1,024 or 4,096 sets raised the peak
# RSS of the benchmark's subset-search workload by 7 % at some seeds; one
# write per block was 0.3 MiB above this value.
SET_BATCH = 512
# Characters of JSON edge text decoded at once on the piecewise route.
# Its lists take about 150 bytes an edge, some 4 MB at n = 1,000.
EDGE_PIECE = 1 << 18


def parse_instance(text: str) -> DecisionProblem:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_edge_list(text)


def _parse_json(text: str) -> DecisionProblem:
    # A decoded document holds one list per edge and no reference cycles.
    # The collector's allocation count keeps rising while it is off, so
    # turning it back on while those lists live would start a collection
    # over all of them at the next allocation.  So it stays off until
    # `_json_problem`, whose frame owns the document, has returned.
    collecting = gc.isenabled()
    gc.disable()
    try:
        p = _json_problem_in_pieces(text)
        return _json_problem(text) if p is None else p
    finally:
        if collecting:
            gc.enable()


# How `serialize_instance` opens a document; the first edge starts at the
# last bracket.
_CANONICAL_HEAD = '{"edges": [['
# Edge text without '"' or these holds no string, negative number, boolean,
# float with an exponent, NaN or Infinity.
_NOT_IN_INDEX_EDGES = "-eENI"


def _json_problem_in_pieces(text: str) -> DecisionProblem | None:
    """The problem a long document in `serialize_instance`'s layout states,
    or None for any other document, a bad one included.

    The edge slice runs from the first edge to the last "]]" before the
    first '"', the next key's.  Cut out, it leaves a head document whose
    "edges" is [], and which must decode with no repeated key.  The slice
    is decoded in pieces cut at "], [".  If the head and every piece
    decode, so does the whole document, to the head with the pieces'
    elements as its edges, wherever the cuts fell.  With no '-' or 'e' in
    the slice, no end is negative or a boolean, so the row loop refuses
    every bad edge but a loop, and `DecisionProblem` a loop.
    """
    if len(text) <= EDGE_PIECE or not text.startswith(_CANONICAL_HEAD):
        return None
    start = len(_CANONICAL_HEAD) - 1
    end = text.rfind("]]", start, text.find('"', start)) + 1
    if end < start or any(text.find(c, start, end) >= 0
                          for c in _NOT_IN_INDEX_EDGES):
        return None
    try:
        doc = json.loads(text[:start] + text[end:],
                         object_pairs_hook=_dict_of_unique_keys)
        n, labels = doc.get("n"), doc.get("labels")
        if (type(n) is not int or not 0 < n <= PARSE_LIMIT
                or labels is not None
                and (not isinstance(labels, list) or len(labels) != n)):
            return None
        rel = Relation.from_checked_pairs(n, chain.from_iterable(
            map(json.loads, _edge_pieces(text, start, end))))
        return DecisionProblem(rel, tuple(map(str, labels)) if labels else ())
    except (TypeError, ValueError, IndexError, RecursionError):
        return None


def _dict_of_unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("repeated key")
    return doc


def _edge_pieces(text: str, start: int, stop: int):
    """text[start:stop], a run of edges, as JSON lists of whole edges, each
    cut at the first "], [" at least `EDGE_PIECE` characters on."""
    while (cut := text.find("], [", start + EDGE_PIECE, stop)) >= 0:
        yield "[" + text[start:cut + 1] + "]"
        start = cut + 3
    yield "[" + text[start:stop] + "]"


def _json_problem(text: str) -> DecisionProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # huge number, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("instance object needs an 'n' field")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ParseError("'n' must be a positive integer")
    _check_count(n)
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise ParseError("'labels' must list one name per alternative")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    rel = _edge_relation(edges, n, text)
    if rel is None:
        # Only reached on a bad document: find and name the first bad edge.
        for e in edges:
            if (not isinstance(e, (list, tuple)) or len(e) != 2
                    or not all(type(v) is int for v in e)):
                raise ParseError(f"malformed edge {e!r}")
            _check_edge(e[0], e[1], n)
    return DecisionProblem(rel, tuple(str(x) for x in labels) if labels else ())


def _edge_relation(edges: list, n: int, text: str) -> Relation | None:
    """The relation the edges list, or None unless every edge is a pair of
    distinct ints in range(n).

    `Relation.from_checked_pairs` builds the rows, rejecting floats,
    strings, lists, edges that are not pairs and endpoints >= n before any
    shift.  It lets through only booleans and negative ints, and a decoded
    document can hold those only if its text contains "-", "true" or
    "false"; only then are the endpoints rescanned for their type and
    sign by `relations.has_index_ends`, which adds about a third to a
    dense n = 1000 document's parse.  Loops show up afterwards as diagonal
    bits.
    """
    try:
        rel = Relation.from_checked_pairs(n, edges)
    except (TypeError, ValueError, IndexError):
        return None
    if ("-" in text or "true" in text or "false" in text) \
            and not has_index_ends(edges):
        return None
    return rel if rel.is_irreflexive() else None


def _parse_edge_list(text: str) -> DecisionProblem:
    lines = text.splitlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 1 or not fields[0].isdigit():
                raise ParseError("header must be the alternative count", line=lineno)
            try:
                header = int(fields[0])
            except ValueError:  # '²' passes isdigit(); int() caps digits
                raise ParseError("header must be the alternative count",
                                 line=lineno) from None
            if header < 1:
                raise ParseError("alternative count must be positive", line=lineno)
            _check_count(header, lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer edge {line!r}", line=lineno) from None
        _check_edge(u, v, header, lineno)
        edges.append((u, v))
    if header is None:
        raise ParseError("empty instance document")
    return DecisionProblem(Relation.from_checked_pairs(header, edges))


def _check_count(n: int, line: int | None = None):
    try:
        check_size(n, PARSE_LIMIT, "parse")
    except LimitExceeded as exc:
        raise ParseError(str(exc), line=line) from None


def _check_edge(u: int, v: int, n: int, line: int | None = None):
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"edge ({u},{v}) out of range for n={n}", line=line)
    if u == v:
        raise LoopEdge(u, line=line)


def serialize_instance(p: DecisionProblem) -> str:
    """`json.dumps({"n", "labels", "edges"}, sort_keys=True)` with the edges
    as ascending [u, v] pairs, written row by row: a row lists its targets
    in ascending order, and "edges" is the first key."""
    rows = (", ".join(map(f"[{x}, {{}}]".format, iter_bits(row)))
            for x, row in enumerate(p.rel.rows) if row)
    rest = json.dumps({"labels": list(p.labels), "n": p.n}, sort_keys=True)
    return '{"edges": [' + ", ".join(rows) + "], " + rest[1:]


def family_document(family: SolutionFamily) -> dict:
    doc = _family_head(family)
    doc["sets"] = [list(members(v)) for v in family]
    return doc


def _family_head(family: SolutionFamily) -> dict:
    """Every field of a family's document but its member sets."""
    doc: dict = {"form": family.form.value, "count": family.count()}
    if family.form is not FamilyForm.EXPLICIT:
        doc["components"] = [list(members(c)) for c in family.components]
    return doc


def write_document(out: TextIO, doc: dict,
                   family: Optional[SolutionFamily] = None) -> None:
    """Write `json.dumps(doc, indent=2, sort_keys=True)` and a newline.

    Given a family, the document gains a "family" key holding
    `family_document(family)`.  Its member sets are rendered straight from
    the family's blocks, in the bytes the encoder would write for the
    whole list; each write but the last holds whole blocks and at least
    `SET_BATCH` sets.
    """
    if family is not None:
        # An empty "sets" is the right text for a family with no members.
        doc = {**doc, "family": {**_family_head(family), "sets": []}}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    blocks = iter(() if family is None else family.blocks())
    first = next(blocks, None)
    if first is None:
        out.write(text)
        return
    # No other key of the document is "sets", so its first empty "sets" is
    # the family's.
    head, _, tail = text.partition('"sets": []')
    out.write(head + '"sets": [\n')
    lines = _MemberLines()
    pending, sets = [], 0
    for high, lows in chain((first,), blocks):
        if sets >= SET_BATCH:
            out.write("".join(pending))
            pending, sets = [], 0
        pending.append(lines.render(high, lows))
        sets += len(lows)
    # The last set takes the list's closing bracket instead of ",\n".
    out.write("".join(pending)[:-2] + "\n    ]" + tail)


# A set's opening and closing lines at depth 3.
_OPEN, _CLOSE = "      [\n", "\n      ],\n"


class _MemberLines(dict):
    """Member lines of sets as `json.dumps(indent=2)` writes them at depth
    3 of a document ("family", "sets", the set), each followed by ",\n".

    The lines of a mask are the join of one piece per byte, keyed by
    256 * byte offset + byte value and built on first use.
    """

    def __missing__(self, key: int) -> str:
        base = 8 * (key >> 8)
        text = "".join(f"        {base + x},\n" for x in iter_bits(key & 255))
        self[key] = text
        return text

    def render(self, high: Mask, lows: tuple[int, ...]) -> str:
        """The sets ``high | low`` for each low, each followed by ",\n".

        One join of the low bytes' lines: between them go the high part's
        lines, less the last member's comma, and the brackets that close
        one set and open the next.  With no high part, each low byte's lines
        lose their own last comma instead.  The empty set is never a member.
        """
        if high:
            data = high.to_bytes((high.bit_length() + 7) // 8, "little")
            close = "".join(map(self.__getitem__,
                                map(add, range(0, 256 * len(data), 256),
                                    data)))[:-2] + _CLOSE
            pieces = map(self.__getitem__, lows)
        else:
            close = _CLOSE
            pieces = [self[low][:-2] for low in lows]
        return _OPEN + (close + _OPEN).join(pieces) + close


def export_dot(p: DecisionProblem, c: Contraction) -> str:
    """Graphviz digraph with the contraction's components as clusters and
    condensation edges drawn bold between cluster anchors."""
    lines = ["digraph decision_problem {"]
    labels = [_dot_quote(label) for label in p.labels]
    for i, cls in enumerate(c.classes):
        xs = members(cls)
        if len(xs) == 1:
            lines.append(f'  a{xs[0]} [label={labels[xs[0]]}];')
        else:
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="component {i}";')
            for x in xs:
                lines.append(f'    a{x} [label={labels[x]}];')
            lines.append("  }")
    for x, y in sorted(p.rel.pairs()):
        lines.append(f"  a{x} -> a{y};")
    for i, j in sorted(c.cond.pairs()):
        src = members(c.classes[i])[0]
        dst = members(c.classes[j])[0]
        lines.append(f"  a{src} -> a{dst} [style=bold, color=red, "
                     f"ltail=cluster_{i}, lhead=cluster_{j}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(label: str) -> str:
    """A DOT quoted string: backslash and double quote are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
