"""Span tracing of the stableset layers from outside the library.

`Tracer.install` replaces each public function of the layer modules with a
wrapper, in every `stableset` module namespace that binds it, and
`Tracer.uninstall` puts the originals back, so untraced passes run the
library unchanged.  A span records its name, operation id, parent, start and
duration; a layer's self time is its duration minus the time its child spans
cover.  Spans are kept in memory for one operation, checked (the self times
of an operation add up to its measured time) and folded into per-layer
totals.

Functions called once per subset or per subset pair get a call counter but
no span, because timing them would distort what they measure; their time
stays in the caller's self time.  `bitset` is not wrapped for that reason.
The same holds for a spanned function called from inside such a function
or from a per-subset helper (PER_SUBSET): that call is counted under
`<name>.per_subset_calls`, and its time stays in the caller's self time, so
`<name>.calls` and `<name>.self_s` cover only the calls made once per
operation or per relation.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "relations", "contraction", "solutions", "oracle",
          "order_topology")
COUNT_ONLY = frozenset({
    "solutions.is_stable_set",
    "order_topology.delta_closure",
    "order_topology.upper_bounds",
    "order_topology.lower_bounds",
})
# Private helpers run once per subset; the relation functions they call
# (restrict, transitive_closure, Relation.columns) are counted, not spanned.
PER_SUBSET = frozenset({
    "solutions._socially_internal_ok",
    "oracle._passes",
})
# Slack allowed between the sum of an operation's self times and its
# measured time: the entry and exit of the root wrapper lie outside it.
OP_SLACK_S = 2e-4
OP_SLACK_SHARE = 0.01
# Methods to span, as (layer, class, attribute); the family iterator is
# timed while it is consumed, not when it is created.
METHODS = (
    ("relations", "Relation", "columns"),
    ("relations", "DecisionProblem", "from_edges"),
)
FAMILY_ITER = ("solutions", "SolutionFamily", "__iter__")
ITER_NAME = "solutions.SolutionFamily.iter"


class Span:
    __slots__ = ("name", "op", "parent", "start", "dur", "child")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.dur = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.dur - self.child


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op = None
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_s = 0.0
        self.quiet = 0  # > 0 while inside a per-subset function
        self._undo: list = []

    # --- operations -------------------------------------------------------

    def begin_op(self, phase: str, op) -> None:
        self.phase, self.op = phase, op
        self.spans = []

    def end_op(self, elapsed: float | None = None) -> float:
        """Fold the operation's spans into the totals; return its root time.

        Given the operation's measured time, raises if the self times do
        not add up to it, which would mean a span was lost or double
        counted.
        """
        if self.stack:
            raise RuntimeError(f"spans left open: {[s.name for s in self.stack]}")
        root = sum(s.dur for s in self.spans if s.parent is None)
        total_self = 0.0
        for s in self.spans:
            key = (self.phase, s.name)
            self.calls[key] += 1
            self.self_s[key] += s.self_s
            total_self += s.self_s
        if elapsed is not None:
            gap = elapsed - total_self
            if not -1e-6 <= gap <= OP_SLACK_S + OP_SLACK_SHARE * elapsed:
                raise RuntimeError(f"self times {total_self:.6f} s do not add "
                                   f"up to the operation's {elapsed:.6f} s")
        if self.phase == "ops":
            self.op_s += root
        self.spans = []
        return root

    def total(self, phase: str, name: str) -> tuple[int, float]:
        key = (phase, name)
        return self.calls[key], self.self_s[key]

    def table(self) -> list[dict]:
        """Every traced name with its calls and self time, per phase."""
        return [{"phase": phase, "name": name, "calls": self.calls[(phase, name)],
                 "self_s": self.self_s[(phase, name)]}
                for phase, name in sorted(self.calls)]

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self.op, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.dur = perf_counter() - span.start
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.dur

    def _span_wrapper(self, fn, name, on_return=None):
        per_subset = name + ".per_subset_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.quiet:
                self.counts[per_subset] += 1
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(result, args)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        calls = name + ".calls"
        # Subsets checked by the VNM scan are the stability checks it makes.
        scans_vnm = name == "solutions.is_stable_set"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[calls] += 1
            if scans_vnm and self.stack \
                    and self.stack[-1].name == "solutions.vnm_stable_sets":
                self.counts["solutions.vnm.scanned"] += 1
            self.quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.quiet -= 1
        return counted

    def _quiet_wrapper(self, fn):
        @functools.wraps(fn)
        def quiet(*args, **kwargs):
            self.quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.quiet -= 1
        return quiet

    def _iter_wrapper(self, fn):
        @functools.wraps(fn)
        def traced_iter(family):
            gen = fn(family)
            span = None
            while True:
                stack = self.stack
                if span is None:
                    span = Span(ITER_NAME, self.op,
                                stack[-1] if stack else None)
                    self.spans.append(span)
                stack.append(span)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    span.dur += elapsed
                    if stack:
                        stack[-1].child += elapsed
                self.counts[ITER_NAME + ".sets"] += 1
                yield item
        return traced_iter

    # --- installation -----------------------------------------------------

    def _hooks(self):
        def vnm_found(family, args):
            self.counts["solutions.vnm.found"] += family.count()

        def enum_found(found, args):
            self.counts["oracle.enumerate_solutions.found"] += len(found)
            self.counts["oracle.enumerate_solutions.scanned"] += \
                (1 << args[0].n) - 1
        return {"solutions.vnm_stable_sets": vnm_found,
                "oracle.enumerate_solutions": enum_found}

    def install(self) -> None:
        """Wrap every public layer function in every namespace binding it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "stableset" or name.startswith("stableset.")}
        hooks = self._hooks()
        replace = {}
        for layer in LAYERS:
            mod = mods[f"stableset.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") and name not in PER_SUBSET):
                    continue
                if name in PER_SUBSET:
                    wrapper = self._quiet_wrapper(fn)
                elif name in COUNT_ONLY:
                    wrapper = self._count_wrapper(fn, name)
                else:
                    wrapper = self._span_wrapper(fn, name, hooks.get(name))
                replace[id(fn)] = (fn, wrapper)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[f"stableset.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._span_wrapper(raw.__func__, name))
            else:
                new = self._span_wrapper(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
        layer, cls_name, attr = FAMILY_ITER
        cls = getattr(mods[f"stableset.{layer}"], cls_name)
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, self._iter_wrapper(raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
