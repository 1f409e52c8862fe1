"""Expected answers for benchmark operations, and the checks that compare
the CLI's JSON output with them by meaning rather than by bytes.

Sets at any size come from the strong components of the strict digraph,
computed here from the raw adjacency rows with Kosaraju's algorithm and
without calling the library's relation or contraction code:

- core: alternatives with no strict in-edge;
- schwartz: the union of source components;
- duggan: alternatives whose strict dominators all lie in their own component;
- gss, mss, wss: families over the source components;
- ess: one alternative per component of the condensation's stable set;
- contract: the components and the condensation edges between them.

Families at n <= 16 are checked against the library's brute-force oracle,
which transcribes each definition over all subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def to_mask(indices) -> int:
    m = 0
    for x in indices:
        m |= 1 << x
    return m


@dataclass(frozen=True)
class Components:
    """Strong components of the strict digraph, sources first."""

    n: int
    strict_in: tuple[tuple[int, ...], ...]
    comps: tuple[int, ...]          # member masks, in topological order
    comp_of: tuple[int, ...]
    cond: frozenset[tuple[int, int]]  # edges between component indices

    def sources(self) -> list[int]:
        has_in = {j for _, j in self.cond}
        return [i for i in range(len(self.comps)) if i not in has_in]

    def core(self) -> int:
        return to_mask(x for x in range(self.n) if not self.strict_in[x])

    def schwartz(self) -> int:
        return to_mask(x for i in self.sources() for x in bits(self.comps[i]))

    def duggan(self) -> int:
        return to_mask(x for x in range(self.n)
                       if all(self.comp_of[y] == self.comp_of[x]
                              for y in self.strict_in[x]))

    def stable_components(self) -> list[int]:
        """Iterated-maximal stable set of the acyclic condensation."""
        out_edges: dict[int, set[int]] = {}
        for i, j in self.cond:
            out_edges.setdefault(i, set()).add(j)
        remaining = set(range(len(self.comps)))
        chosen = []
        while remaining:
            dominated_inside = {j for i in remaining
                                for j in out_edges.get(i, ()) if j in remaining}
            layer = remaining - dominated_inside
            chosen.extend(layer)
            beaten = {j for i in layer for j in out_edges.get(i, ())}
            remaining -= layer | beaten
        return sorted(chosen)

    def family(self, concept: str) -> "FamilyRef":
        """Components and member count of a product-form family."""
        idx = self.stable_components() if concept == "ess" else self.sources()
        comps = frozenset(self.comps[i] for i in idx)
        sizes = [c.bit_count() for c in comps]
        if concept in ("gss", "ess"):
            count = math.prod(sizes)
        elif concept == "mss":
            count = (1 << len(sizes)) - 1
        else:  # wss
            count = math.prod(s + 1 for s in sizes) - 1
        return FamilyRef(concept, count, comps)


def components(rows) -> Components:
    """Kosaraju on the strict part of the relation given by bitmask rows."""
    n = len(rows)
    out = [bits(r) for r in rows]
    strict_out: list[list[int]] = [[] for _ in range(n)]
    strict_in: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        for y in out[x]:
            if not rows[y] >> x & 1:
                strict_out[x].append(y)
                strict_in[y].append(x)

    # First pass: vertices by DFS finishing time on the strict digraph.
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(strict_out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(strict_out[w])))
                    break
            else:
                stack.pop()
                finished.append(v)

    # Second pass on the reverse digraph, latest finisher first: components
    # come out in topological order of the condensation.
    comp_of = [-1] * n
    comps: list[int] = []
    for root in reversed(finished):
        if comp_of[root] >= 0:
            continue
        k = len(comps)
        comp_of[root] = k
        mask = 0
        stack = [root]
        while stack:
            v = stack.pop()
            mask |= 1 << v
            for w in strict_in[v]:
                if comp_of[w] < 0:
                    comp_of[w] = k
                    stack.append(w)
        comps.append(mask)
    cond = frozenset((comp_of[x], comp_of[y]) for x in range(n)
                     for y in strict_out[x] if comp_of[x] != comp_of[y])
    return Components(n, tuple(tuple(v) for v in strict_in), tuple(comps),
                      tuple(comp_of), cond)


def is_cyclic(rows) -> bool:
    """True when the strict digraph has a cycle (a component of size > 1)."""
    return any(c.bit_count() > 1 for c in components(rows).comps)


@dataclass(frozen=True)
class FamilyRef:
    """What a family answer must mean: its size, its product components
    (product forms only) and, at oracle sizes, every member set."""

    concept: str
    count: int
    comps: frozenset[int] | None = None
    sets: frozenset[int] | None = None


# --- checks: each returns None when the answer is right, else a reason ---

def check_set(doc: dict, expected: int) -> str | None:
    got = to_mask(doc["set"])
    if got != expected:
        return f"set {bits(got)} != expected {bits(expected)}"
    return None


def check_family(doc: dict, ref: FamilyRef) -> str | None:
    fam = doc["family"]
    if fam["count"] != ref.count:
        return f"count {fam['count']} != expected {ref.count}"
    if ref.comps is not None:
        comps = frozenset(to_mask(c) for c in fam.get("components", ()))
        if comps != ref.comps:
            return "components differ from the strong-component reference"
    emitted = [to_mask(v) for v in fam["sets"]]
    if len(set(emitted)) != len(emitted):
        return "a set is emitted twice"
    if len(emitted) > ref.count:
        return f"{len(emitted)} sets emitted for a family of {ref.count}"
    for v in emitted:
        if v == 0 or (ref.sets is not None and v not in ref.sets):
            return f"emitted set {bits(v)} is not in the reference family"
        if ref.sets is None and not _in_product(v, ref):
            return f"emitted set {bits(v)} does not fit the components"
    return None


def _in_product(v: int, ref: FamilyRef) -> bool:
    carrier = 0
    for c in ref.comps:
        carrier |= c
    if v & ~carrier:
        return False
    parts = [(v & c, c) for c in ref.comps]
    if ref.concept in ("gss", "ess"):
        return all(p.bit_count() == 1 for p, _ in parts)
    if ref.concept == "wss":
        return all(p.bit_count() <= 1 for p, _ in parts)
    return all(p in (0, c) for p, c in parts)


def check_contract(doc: dict, ref: Components) -> str | None:
    classes = [to_mask(c) for c in doc["classes"]]
    if sorted(classes) != sorted(ref.comps):
        return "classes differ from the strong components"
    for i, j in doc["condensation_edges"]:
        if not i < j:
            return f"condensation edge {i}->{j} breaks topological order"
    got = {(classes[i], classes[j]) for i, j in doc["condensation_edges"]}
    want = {(ref.comps[i], ref.comps[j]) for i, j in ref.cond}
    if got != want:
        return "condensation edges differ from the reference"
    return None


def check_verify(doc: dict) -> str | None:
    if doc.get("status") != "PASS":
        return f"verify status {doc.get('status')!r}"
    return None


def check_equal(doc: dict, expected: dict) -> str | None:
    """Equal up to the order of lists of sets (cuts, ideals, covers)."""
    if _canon(doc) != _canon(expected):
        return "output differs from the Python API result"
    return None


def _canon(value):
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, list) and value and all(isinstance(v, list)
                                                 for v in value):
        return sorted(_canon(v) for v in value)
    return value
