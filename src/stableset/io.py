"""Instance parsing and result serialization.

Two instance formats are accepted: a JSON object {"n": ..., "labels": ...,
"edges": [[u, v], ...]} and a whitespace edge list whose first line is the
alternative count.  Loops are rejected; duplicate edges collapse.  The
alternative count may not exceed `PARSE_LIMIT`: relation work grows with
n^2, so a few bytes of document must not ask for unbounded time or memory.

A document may come as text or as the bytes of its UTF-8 text, as the CLI
reads it.  A JSON document takes one of two routes.  One in the layout
`serialize_instance` writes, with edge text long enough to hold a source
run and no string, minus sign or boolean among its edges, is decoded
piecewise from its bytes (`_json_problem_in_pieces`), which decodes only
its head to text.  That layout lists the edges row by row, so each row is
a run of edges that open with the same source.  A run of at least
`RUN_EDGES` edges is split on its separator, and each target's text is
looked up in a table of the exact decimal text of every index, which sets
a flag in a string of n flags read as the row.  Where no such run opens
the text (a short row, another edge order, another separator, text the
table lacks or a bad edge), the route decodes one piece of whole edge
lists and tries runs again after it.  Any other document given as bytes is
decoded to text once (`_decoded`).  Every other JSON document, and every
one that route refuses, is decoded whole (`_json_problem`): the gated
table loop, else one checked loop, which gives every error message.

Every document the CLI prints goes to its stream's `writelines`, a line,
row or block at a time, never whole; the stream buffers short pieces.
A JSON document's long lists are `Listed` values, at any depth, whose
items are made as they are written, with no Python step per index:
`bitset.flags` turns a mask into selectors, and `itertools.compress` picks
the members' texts, from one list grown to the widest mask written, for
one `str.join` (`_picked`).  Family blocks that share one tuple of low
bytes share one list of their lines, and a run of one-alternative sets is
one join (`_block_texts`).
"""

from __future__ import annotations

import gc
import json
from itertools import compress
from typing import Iterable, Iterator, Sequence, TextIO

from .bitset import Mask, flags, members
from .contraction import Contraction
from .errors import LimitExceeded, LoopEdge, ParseError, check_size
from .relations import DecisionProblem, Relation
from .solutions import SolutionFamily, FamilyForm, _runs

PARSE_LIMIT = 2000
# Bytes read from one document.  The largest document the CLI writes,
# `random --n PARSE_LIMIT --density 1`, lists every ordered pair as
# "[u, v], " with indices of at most len(str(PARSE_LIMIT)) digits; two more
# bytes a pair cover its labels and header.
BYTE_LIMIT = (2 * len(str(PARSE_LIMIT)) + 8) * PARSE_LIMIT ** 2
# Characters of JSON edge text decoded at once on the piecewise route.
# Its lists take about 150 bytes an edge, some 4 MB at n = 1,000.  The
# window searched for a source run's end stops widening at this length.
EDGE_PIECE = 1 << 18
# Fewest edges in a source run read by table lookup (`_edge_rows`).  A run
# costs about 4 us more than its edges in pieces at n = 1,000 and 6 us at
# n = 2,000, about half of it reading its n flags as one int, and each edge
# about 0.13 us less.  Rows of 32 edges broke even at n = 1,000 and were 16 %
# slower as runs at n = 2,000; rows of 40 were 9 % faster and 2 % slower,
# rows of 48 16 % and 7 % faster (Python 3.11.7 on a shared 2-CPU x86-64
# machine).
RUN_EDGES = 40


def parse_instance(document: str | bytes) -> DecisionProblem:
    """The problem a JSON or edge-list instance document states.  Bytes
    are UTF-8 text; a document that opens as `serialize_instance` writes
    one goes to the piecewise route as bytes, and any other is decoded once
    (`_decoded`) and read as text.  Text in that layout is encoded for the
    route.  A document the piecewise route refuses is read whole, as the
    text given or decoded from the bytes, which gives every error
    message."""
    text = document if isinstance(document, str) else None
    if text is not None:
        canonical = text.startswith(_CANONICAL_TEXT)
        if canonical:
            # A lone surrogate passes as bytes that the route refuses.
            document = text.encode("utf-8", "surrogatepass")
    else:
        canonical = document.startswith(_CANONICAL_HEAD)
        if not canonical:
            # Rebound here and below, so that the bytes are freed before
            # the text is read, where the caller keeps no reference.
            document = _decoded(document)
    if not canonical and not document.lstrip().startswith("{"):
        return _parse_edge_list(document)
    # A decoded document holds one list per edge and no reference cycles.
    # The collector's allocation count keeps rising while it is off, so
    # turning it back on while those lists live would start a collection
    # over all of them at the next allocation.  So it stays off until
    # `_json_problem`, whose frame owns the document, has returned.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if canonical:
            p = _json_problem_in_pieces(document)
            if p is not None:
                return p
            document = _decoded(document) if text is None else text
        return _json_problem(document)
    finally:
        if collecting:
            gc.enable()


def _decoded(data: bytes) -> str:
    """The UTF-8 text of data, less any byte-order mark."""
    try:
        # Not the utf-8-sig codec: its error offsets skip the mark's 3 bytes.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


# Fewest bytes of `RUN_EDGES` edges, each "[x, y]", and their separators.
# Shorter edge text holds no source run, so no run is sought in it, and a
# document whose edge text is shorter is decoded whole: for it, the
# piecewise route's head decode and piece cost more.
_RUN_CHARS = 8 * RUN_EDGES - 2
# How `serialize_instance` opens a document; the first edge starts at the
# last bracket.
_CANONICAL_HEAD = b'{"edges": [['
_CANONICAL_TEXT = _CANONICAL_HEAD.decode()
# Edge text without '"' or these holds no string, negative number or
# boolean.  A float, NaN or Infinity end misses the runs' table and makes
# the pieces' row loop raise TypeError, so it needs no scan.
_NOT_IN_INDEX_EDGES = (b"-", b"e")


def _json_problem_in_pieces(data: bytes) -> DecisionProblem | None:
    """The problem the UTF-8 bytes of a document in `serialize_instance`'s
    layout state, or None for any other document, a bad one included.

    The edge slice runs from the first edge to the last "]]" before the
    first '"', the next key's.  Cut out, it leaves a head document whose
    "edges" is [], and which must decode with no repeated key; only the
    head is decoded to text.  The slice is decoded by `_edge_rows`, in
    source runs and pieces.  If the head, every run and every piece
    decode, so does the whole document, to the head with their edges as
    its edges.  With no '-' or 'e' in the slice, no end is negative or a
    boolean, so the runs' table and the pieces' row loop refuse every bad
    edge but a loop, and `DecisionProblem` a loop.  Each byte of the
    slice is read by the table, as a separator or in a piece decoded
    strictly, and the head is decoded strictly, so bytes that are not
    UTF-8 are refused too.  No byte of a multi-byte character is '"' or
    ']', so the slice is the one the decoded text would give.
    """
    if not data.startswith(_CANONICAL_HEAD):
        return None
    start = len(_CANONICAL_HEAD) - 1
    end = data.rfind(b"]]", start, data.find(b'"', start)) + 1
    if end - start < _RUN_CHARS or any(data.find(c, start, end) >= 0
                                       for c in _NOT_IN_INDEX_EDGES):
        return None
    try:
        n, labels = _head(_HEAD_DECODER.decode(
            (data[:start] + data[end:]).decode()))
        return DecisionProblem(Relation(n, _edge_rows(data, start, end, n)),
                               labels)
    except (ParseError, TypeError, ValueError, IndexError, RecursionError):
        return None


def _dict_of_unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("repeated key")
    return doc


# Built once: `json.loads` with a hook builds a decoder on every call.
_HEAD_DECODER = json.JSONDecoder(object_pairs_hook=_dict_of_unique_keys)


def _edge_rows(data: bytes, start: int, stop: int, n: int
               ) -> tuple[Mask, ...]:
    """The rows of the edges data[start:stop] lists; raises TypeError,
    ValueError, IndexError or RecursionError unless it lists pairs of ints
    in range(n), loops aside.

    The bytes are read as source runs (`_source_run`) and, where none of
    at least `RUN_EDGES` edges opens them, one piece of whole edges at a
    time (`_edge_piece`); after each piece, runs are tried again.  A run's
    source and each target must be the exact decimal text of an index in
    range(n), which a table maps to its flag in a string of n "0"s, read
    as one int; a run with any other text is decoded as a piece instead.
    """
    place: dict[bytes, int] = {}  # filled at the first run taken
    bits = [1 << y for y in range(n)]
    rows = [0] * n
    at = start
    width = 2 * (stop - start) // n + 16  # no shorter than a separator
    while at < stop:
        head, targets, end = _source_run(data, at, stop, width)
        if len(targets) >= RUN_EDGES:
            if not place:
                # ~y is y's flag counted from the end, its least significant.
                place.update((b"%d" % y, ~y) for y in range(n))
            flags = bytearray(b"0" * n)
            try:
                x = ~place[head]
                for i in map(place.__getitem__, targets):
                    flags[i] = 49  # "1"
            except KeyError:
                pass
            else:
                rows[x] |= int(flags, 2)
                width = 2 * (end - at)
                at = end + 3
                continue
        piece = _edge_piece(data, at, stop)
        # Decoded here: `json.loads` finds the encoding of bytes first.
        for x, y in json.loads(piece.decode()):
            rows[x] |= bits[y]
        at += len(piece)
    return tuple(rows)


def _source_run(data: bytes, at: int, stop: int,
                width: int) -> tuple[bytes, list[bytes], int]:
    """The source text, target texts and closing bracket of the run of
    edges "[x, y1], [x, y2], ..., [x, yk]" that data[at:stop] opens with,
    if the run is followed by ", [" or ends at stop; else no targets, as
    also when data[at:stop] is too short to hold `RUN_EDGES` edges.

    Split on "], [x, ", the text after "[x, " and before the last "]"
    leaves y1, ..., yk.  The run's end is searched back from at + width,
    width at most `EDGE_PIECE`, and the window doubled while the run goes
    on and the window is shorter than `EDGE_PIECE`; a run that outruns it
    is cut at its last separator in the window.
    """
    width = min(width, EDGE_PIECE)
    comma = data.find(b", ", at, at + 8)
    if comma < 0 or stop - at < _RUN_CHARS:
        return b"", [], at
    head = data[at + 1:comma]
    sep = b"], [" + head + b", "
    k = data.rfind(sep, at, min(at + width, stop))
    end = data.find(b"]", comma if k < 0 else k + len(sep), stop)
    while width < EDGE_PIECE and data.startswith(sep, end, stop):
        width *= 2
        k = data.rfind(sep, end, min(end + width, stop))
        end = data.find(b"]", k + len(sep), stop)
    if end + 1 < stop and not data.startswith(b", [", end + 1):
        return b"", [], at
    return head, data[comma + 2:end].split(sep), end


def _edge_piece(data: bytes, start: int, stop: int) -> bytes:
    """The edges of data[start:stop] up to the first "], [" at least
    `EDGE_PIECE` bytes on, or all of them, as a JSON list; the next piece
    starts len(piece) bytes on."""
    cut = data.find(b"], [", start + EDGE_PIECE, stop)
    return b"[" + data[start:stop if cut < 0 else cut + 1] + b"]"


def _json_problem(text: str) -> DecisionProblem:
    """The problem a JSON document states, decoded whole.

    With no "-", "true" or "false" in the text, no end is a negative int or
    a boolean, so a loop over a table of bits, testing nothing, raises on
    every other bad edge, and `DecisionProblem` on a loop.  Otherwise, or
    if either raises, one checked loop builds the rows, and raises
    ParseError on the first edge that is not a list of two ints (booleans
    excluded), lies out of range or is a loop.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # huge number, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    n, labels = _head(doc)
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    bits = [1 << y for y in range(n)]
    rows = [0] * n
    if "-" not in text and "true" not in text and "false" not in text:
        try:
            for x, y in edges:
                rows[x] |= bits[y]
            return DecisionProblem(Relation(n, tuple(rows)), labels)
        except (TypeError, ValueError, IndexError):
            rows = [0] * n
    for e in edges:
        if type(e) is list and len(e) == 2:
            x, y = e
            if type(x) is int and type(y) is int:
                if 0 <= x < n and 0 <= y < n and x != y:
                    rows[x] |= bits[y]
                    continue
                _check_edge(x, y, n)  # raises
        raise ParseError(f"malformed edge {e!r}")
    return DecisionProblem(Relation(n, tuple(rows)), labels)


def _head(doc) -> tuple[int, tuple[str, ...]]:
    """The alternative count and labels of a decoded instance document;
    raises ParseError unless it is an object whose "n" is an int in
    1..PARSE_LIMIT and whose "labels", if given, list n names."""
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("instance object needs an 'n' field")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ParseError("'n' must be a positive integer")
    _check_count(n)
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise ParseError("'labels' must list one name per alternative")
    return n, tuple(map(str, labels)) if labels else ()


def _parse_edge_list(text: str) -> DecisionProblem:
    # int() also reads '+1', '1_0' and other scripts' digits: a line whose
    # text before '#' holds '+' or '_' or is not ASCII is refused.
    plain = _plain(text)  # then no line needs a check of its own
    # A line ends at "\n", "\r\n" or "\r" alone: `str.splitlines` would
    # also end one, a comment's too, at "\x0b", "\x0c", "\x1c"-"\x1e",
    # "\x85", U+2028 and U+2029.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        bad = not (plain or _plain(line))
        line = line.strip()
        if header is None:
            if bad or len(fields) != 1 or not fields[0].isdigit():
                raise ParseError("header must be the alternative count", line=lineno)
            try:
                header = int(fields[0])
            except ValueError:  # int() caps digits
                raise ParseError("header must be the alternative count",
                                 line=lineno) from None
            if header < 1:
                raise ParseError("alternative count must be positive", line=lineno)
            _check_count(header, lineno)
            bits = [1 << y for y in range(header)]
            rows = [0] * header
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            if bad:
                raise ValueError
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer edge {line!r}", line=lineno) from None
        _check_edge(u, v, header, lineno)
        rows[u] |= bits[v]
    if header is None:
        raise ParseError("empty instance document")
    return DecisionProblem(Relation(header, tuple(rows)))


def _plain(text: str) -> bool:
    return text.isascii() and "+" not in text and "_" not in text


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
    return "".join(instance_pieces(p))


def instance_pieces(p: DecisionProblem) -> Iterator[str]:
    """`serialize_instance(p)` in pieces: the head, one piece per row with
    edges, and the tail.  A row's edges are one join of its targets' texts,
    each "[x, " after the first preceded by "], "."""
    yield '{"edges": ['
    sep = ""
    for x, row in enumerate(p.rel.rows):
        if row:
            yield f"{sep}[{x}, " + f"], [{x}, ".join(_picked(row)) + "]"
            sep = ", "
    rest = json.dumps({"labels": list(p.labels), "n": p.n}, sort_keys=True)
    yield "], " + rest[1:]


# Index texts up to the widest mask read; replaced when grown, never changed.
_decimals: list[str] = []


def _picked(mask: Mask, texts: Sequence[str] | None = None) -> Iterator[str]:
    """texts[x], by default x's decimal text, for each member x of a
    non-empty mask, ascending, via `bitset.flags` over its span alone."""
    global _decimals
    low = (mask & -mask).bit_length() - 1
    high = mask.bit_length()
    if texts is None:
        texts = _decimals
        if len(texts) < high:
            texts = _decimals = texts + [*map(str, range(len(texts), high))]
    return compress(texts[low:high], flags(mask >> low, high - low))


def family_document(family: SolutionFamily) -> dict:
    return {**_family_head(family, [list(members(c))
                                    for c in family.components]),
            "sets": [list(members(v)) for v in family]}


def listed_family(family: SolutionFamily) -> dict:
    """`family_document(family)` as the value of a document's top-level
    "family" key, its components and member sets `Listed` values made by
    `_block_texts`, the sets from `family.blocks()`."""
    return {**_family_head(family,
                           Listed(_block_texts(_runs(family.components)))),
            "sets": Listed(_block_texts(family.blocks()))}


def _family_head(family: SolutionFamily, components) -> dict:
    """Every field of a family's document but its member sets, with
    `components` as its components' list."""
    doc: dict = {"form": family.form.value, "count": family.count()}
    if family.form is not FamilyForm.EXPLICIT:
        doc["components"] = components
    return doc


class Listed:
    """A list of a document, held as the texts of its items as
    `json.dumps(indent=2)` writes them at the list's depth, a text holding
    one item or several joined by ",\n".  Each text is made as it is
    written, so a `Listed` value is written once."""

    def __init__(self, items: Iterable[str]):
        self.items = items


def member_lists(masks: Iterable[Mask]) -> Listed:
    """`[list(members(m)) for m in masks]` at depth 2; a mask's member
    lines are one join of its members' texts."""
    return Listed("    [\n      " + ",\n      ".join(_picked(m)) + "\n    ]"
                  if m else "    []" for m in masks)


def pair_list(rows: Sequence[Mask]) -> Listed:
    """`[[i, j] for i, row in enumerate(rows) for j in members(row)]` at
    depth 2, the pairs of a relation on range(len(rows)) in ascending
    order; a row's pairs are one join of its targets' texts."""
    return Listed(f"    [\n      {i},\n      "
                  + f"\n    ],\n    [\n      {i},\n      ".join(
                      _picked(row)) + "\n    ]"
                  for i, row in enumerate(rows) if row)


def write_document(out: TextIO, doc: dict) -> None:
    """Write `json.dumps(doc, indent=2, sort_keys=True)` and a newline to
    `out.writelines`, a `Listed` value at any depth as the list it is.

    The encoder's `default` hook records each `Listed` value in text order
    and has the string of one NUL character written in its place; no other
    string of a document the CLI writes holds that character.  The value's
    items, made as they are written, take the placeholder's place.
    """
    listed = []

    def hold(value):
        if not isinstance(value, Listed):
            raise TypeError(f"Object of type {type(value).__name__} "
                            f"is not JSON serializable")
        listed.append(value)
        return "\0"

    parts = (json.dumps(doc, indent=2, sort_keys=True, default=hold)
             + "\n").split('"\\u0000"')
    if len(parts) != len(listed) + 1:
        raise ValueError("a string of the document holds a NUL character")
    out.writelines(_filled(parts, listed))


def _filled(parts: list[str], listed: list[Listed]) -> Iterator[str]:
    """The parts with each `Listed` value's items in a list between them,
    closed at the indent of the line that holds its placeholder."""
    yield parts[0]
    for head, value, tail in zip(parts, listed, parts[1:]):
        sep = "[\n"
        for item in value.items:
            yield sep
            yield item
            sep = ",\n"
        line = head[head.rfind("\n") + 1:]
        yield ("[]" if sep == "[\n" else
               "\n" + " " * (len(line) - len(line.lstrip())) + "]") + tail


# A set's opening and closing lines at depth 3.
_OPEN, _CLOSE = "      [\n", "\n      ]"
# Each low byte's member lines as `json.dumps(indent=2)` writes them at
# depth 3 ("family", "sets", the set), each followed by ",\n".  A list:
# `list.__getitem__` is called faster than a tuple's through `map`.
_LOW_LINES = ["".join(f"        {x},\n" for x in members(byte))
              for byte in range(256)]


def _block_texts(blocks: Iterable[tuple[Mask, tuple[int, ...]]]
                 ) -> Iterator[str]:
    """Each block ``(high, lows)`` as its sets ``high | low``, joined by ",\n".

    A block is one join of its low bytes' lines: between them go the high
    part's lines (one `_picked` join), with no comma after the last, and
    the brackets that close one set and open the next.  The list of low
    lines is kept while the next block's lows are the same tuple object,
    as `solutions._ascending_blocks` gives every block whose undecided low
    bits match.  With no high part, each low byte's lines lose their own
    last comma instead, in a list of that block's own.  A run of blocks
    that each hold one set of one alternative above the low byte, in
    ascending order, is one `_picked` join of those alternatives, as a
    wide component's single alternatives come.  The empty set is never a
    member.
    """
    shared, lines = None, []  # the lows whose lines `lines` holds
    singles = 0  # the alternatives of a run of one-alternative blocks
    for high, lows in blocks:
        single = lows == (0,) and not high & high - 1
        if singles and not (single and high > singles):
            yield _one_alternative_sets(singles)
            singles = 0
        if single:
            singles |= high
        elif high:
            if lows is not shared:
                shared, lines = lows, list(map(_LOW_LINES.__getitem__, lows))
            close = "        " + ",\n        ".join(_picked(high)) + _CLOSE
            yield _OPEN + (close + ",\n" + _OPEN).join(lines) + close
        else:
            yield (_OPEN + (_CLOSE + ",\n" + _OPEN).join(
                [_LOW_LINES[low][:-2] for low in lows]) + _CLOSE)
    if singles:
        yield _one_alternative_sets(singles)


def _one_alternative_sets(mask: Mask) -> str:
    """The sets {x} for each member x of mask, ascending, joined by ",\n"."""
    return (_OPEN + "        " + (_CLOSE + ",\n" + _OPEN + "        ").join(
        _picked(mask)) + _CLOSE)


def export_dot(p: DecisionProblem, c: Contraction) -> Iterator[str]:
    """Graphviz digraph with the contraction's components as clusters and
    condensation edges drawn bold between cluster anchors (least members),
    one line, and its newline, at a time, but for the edge lines of a
    relation or condensation row, which come as one join of its targets'
    texts.  Condensation target j's text is its anchor, a NUL and "j]",
    and one `str.replace` puts the edge's attributes at each NUL of the
    row, which holds no label and so no other NUL."""
    yield "digraph decision_problem {\n"
    labels = [_dot_quote(label) for label in p.labels]
    for i, cls in enumerate(c.classes):
        xs = members(cls)
        if len(xs) == 1:
            yield f'  a{xs[0]} [label={labels[xs[0]]}];\n'
        else:
            yield f"  subgraph cluster_{i} {{\n"
            yield f'    label="component {i}";\n'
            for x in xs:
                yield f'    a{x} [label={labels[x]}];\n'
            yield "  }\n"
    for x, row in enumerate(p.rel.rows):
        if row:
            yield (f"  a{x} -> a" + f";\n  a{x} -> a".join(_picked(row))
                   + ";\n")
    anchors = [(cls & -cls).bit_length() - 1 for cls in c.classes]
    heads = [f"{a}\0{j}]" for j, a in enumerate(anchors)]
    for i, row in enumerate(c.cond.rows):
        if row:
            yield (f"  a{anchors[i]} -> a" + f";\n  a{anchors[i]} -> a".join(
                _picked(row, heads)) + ";\n").replace(
                    "\0", f" [style=bold, color=red, ltail=cluster_{i}, "
                          f"lhead=cluster_")
    yield "}\n"


def _dot_quote(label: str) -> str:
    """A DOT quoted string: backslash and double quote are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
