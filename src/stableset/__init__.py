"""Solution concepts for finite abstract decision problems, with a
brute-force oracle and a finite order-topology lab."""

from .bitset import from_members, full_mask, members
from .contraction import (Contraction, condensation_stable_set,
                          equipotence_classes, extended_dominance)
from .errors import (EmptyGround, LimitExceeded, LoopEdge, ParseError,
                     PosetViolation, StablesetError)
from .io import export_dot, parse_instance, serialize_instance
from .oracle import (VerificationReport, cross_verify, enumerate_solutions,
                     gocha_bruteforce, random_problem)
from .order_topology import (CutLattice, ExcludedSetTopology, Poset,
                             delta_closure, dm_completion,
                             excluded_set_topology, frink_ideals,
                             is_precontinuous, lower_bounds, nachbin_closed,
                             upper_bounds, way_below_e, weak_t1_separation)
from .relations import (DecisionProblem, Relation, asymmetric_part,
                        is_acyclic, maximal_set, strict_poset_order,
                        strong_components, transitive_closure, trap_relation)
from .solutions import (Concept, FamilyForm, SchwartzMethod, SociallyInterp,
                        SolutionFamily, core, duggan_set, extended_stable_sets,
                        generalized_stable_sets, m_stable_sets, schwartz_set,
                        socially_stable_sets, solve, top_pairgenerators,
                        undominated_pairs, vnm_stable_sets, w_stable_sets)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
