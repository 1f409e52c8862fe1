"""Condensing a cyclic dominance relation into an acyclic class relation.

Run with `python3 demos/demo_contraction.py`.
"""

from stableset import DecisionProblem
from stableset.bitset import members
from stableset.contraction import (condensation_stable_set,
                                   equipotence_classes, extended_dominance)
from stableset.io import export_dot
from stableset.relations import is_acyclic
from stableset.solutions import generalized_stable_sets

# Two interlocking cycles feeding a chain of two losers.
p = DecisionProblem.from_edges(
    6, [(0, 1), (1, 2), (2, 0),        # top cycle
        (2, 3), (3, 4), (4, 3),        # symmetric pair fed by the cycle;
        (3, 5), (4, 5)])               # both dominate a common bottom

c = equipotence_classes(p)
print("equipotence classes:", [set(members(cls)) for cls in c.classes])
print("condensation edges:", sorted(c.cond.pairs()))
print("condensation acyclic:", is_acyclic(c.cond))
print()

# The undominated components survive every challenge; the condensation's
# unique stable set may reach deeper than that.
top = [set(members(comp)) for comp in generalized_stable_sets(p).components]
print("maximal components:", top)
kernel = condensation_stable_set(c)
print("condensation stable set (class indices):", set(members(kernel)))
print()

# Extended dominance lifts the strict relation to class level and is
# always acyclic, even though the input is not.
omega = extended_dominance(p)
print("extended dominance:", sorted(omega.pairs()))
print("extended dominance acyclic:", is_acyclic(omega))
print()

# Graphviz output clusters each non-trivial class.
print("".join(export_dot(p, c)))
