"""The finite order-topology lab: completions, ideals and separation.

Run with `python3 demos/demo_order_topology.py`.
"""

from stableset import DecisionProblem, schwartz_set
from stableset.bitset import full_mask, members
from stableset.order_topology import (Poset, delta_closure, dm_completion,
                                      excluded_set_topology, frink_ideals,
                                      is_precontinuous, nachbin_closed,
                                      way_below_e, weak_t1_separation)
from stableset.relations import (asymmetric_part, strict_poset_order,
                                 transitive_closure)


def show(mask):
    return set(members(mask)) or "{}"


# A diamond: bottom 0, incomparable middle 1 and 2, top 3.
diamond = Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

print("delta-closure of {1,2}:", show(delta_closure(diamond, 0b0110)))
print("cut lattice:", [show(c) for c in dm_completion(diamond).cuts])
print("frink ideals:", [show(i) for i in frink_ideals(diamond)])
print("0 way-below 3:", way_below_e(diamond, 0, 3))
print("1 way-below 3:", way_below_e(diamond, 1, 3))
print("precontinuous:", is_precontinuous(diamond))
print()

# Dominance relations induce posets through their closure; the excluded-set
# topology built from a solution set then separates losers from winners.
p = DecisionProblem.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
strict = asymmetric_part(transitive_closure(asymmetric_part(p.rel)))
winners = schwartz_set(p)
top = excluded_set_topology(p.n, winners)

print("winners (excluded set):", show(winners))
# The opens are listed here only to show them; the checks never list them.
opens = sorted(top.opens, key=lambda u: (u.bit_count(), u))
print("open sets:", [show(u) for u in opens])
print("compact subcover:", [show(full_mask(p.n))])
print("weak T1 separation vs strict closure:",
      weak_t1_separation(top, strict))
print("nachbin closed vs induced poset:",
      nachbin_closed(top, strict_poset_order(p)))
