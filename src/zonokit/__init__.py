"""zonokit: zonotope and constrained-zonotope set operations.

Set types plus the operations used in set-based control: halfspace
intersections, redundancy removal, inner approximations, convex hulls,
robust positively invariant sets, Pontryagin differences, and
backward-reachable waysets.  A brute-force oracle for desk-scale
verification lives in :mod:`zonokit.oracle` (test tooling, not part of
this namespace).
"""

from .sets import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    HPolytope,
    Zonotope,
    contains_point,
    generalized_intersection,
    is_empty,
    linear_map,
    minkowski_sum,
    support,
    translate,
)
from .numerics import LinearProgram, LpOutcome, NumericalError, solve_lp
from .halfspaces import (
    IntervalVector,
    conzono_halfspace_intersection,
    conzono_hyperplane_range,
    conzono_in_halfspace,
    hpolytope_to_conzono,
    intersect_hpolytope,
    interval_refine,
    zonotope_halfspace_intersection,
    zonotope_hyperplane_intersects,
)
from .reduction import (
    merge_parallel_generators,
    reduce_fully,
    remove_redundant_pair,
)
from .containment import (
    AhPolytope,
    ContainmentCertificate,
    ScalingResult,
    ah_contains,
    conzono_to_ah,
    inner_reduce_zonotope,
    inner_scale,
    make_template,
    zonotope_contains,
)
from .hull import convex_hull
from .invariance import (
    AutonomousSystem,
    f_s,
    lqr_closed_loop,
    mrpi_iterative,
    rpi_onestep,
)
from .pontryagin import pontryagin_iterative, pontryagin_onestep
from .reach import LinearSystem, wayset, wayset_inner_box, wayset_reduce

__version__ = "0.1.0"

__all__ = [
    "AhPolytope",
    "AutonomousSystem",
    "ConstrainedZonotope",
    "ContainmentCertificate",
    "EmptySetError",
    "Halfspace",
    "HPolytope",
    "IntervalVector",
    "LinearProgram",
    "LinearSystem",
    "LpOutcome",
    "NumericalError",
    "ScalingResult",
    "Zonotope",
    "ah_contains",
    "contains_point",
    "conzono_halfspace_intersection",
    "conzono_hyperplane_range",
    "conzono_in_halfspace",
    "conzono_to_ah",
    "convex_hull",
    "f_s",
    "generalized_intersection",
    "hpolytope_to_conzono",
    "inner_reduce_zonotope",
    "inner_scale",
    "intersect_hpolytope",
    "interval_refine",
    "is_empty",
    "linear_map",
    "lqr_closed_loop",
    "make_template",
    "merge_parallel_generators",
    "minkowski_sum",
    "mrpi_iterative",
    "pontryagin_iterative",
    "pontryagin_onestep",
    "reduce_fully",
    "remove_redundant_pair",
    "rpi_onestep",
    "solve_lp",
    "support",
    "translate",
    "wayset",
    "wayset_inner_box",
    "wayset_reduce",
    "zonotope_contains",
    "zonotope_halfspace_intersection",
    "zonotope_hyperplane_intersects",
]
