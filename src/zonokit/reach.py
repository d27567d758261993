"""Backward-reachable waysets for constrained linear systems.

A wayset collects every initial state from which a target state is
reachable in exactly N steps while respecting state and input
constraints.  It is built by walking the dynamics backward from the
target: each step preimages the running set through A, adds the input
preimage (-A^{-1} B) U, and intersects the state constraints.  Because
all three operations are closed-form on constrained zonotopes, the
result is exact; the intersection strategy only changes how large the
representation gets.
"""

import numpy as np

from .containment import inner_scale, make_template
from .halfspaces import (
    conzono_halfspace_intersection,
    conzono_in_halfspace,
    hpolytope_to_conzono,
)
from .reduction import _strip_pairs
from .sets import (
    HPolytope,
    Zonotope,
    _plain_zonotope,
    generalized_intersection,
    linear_map,
    minkowski_sum,
)

WAYSET_STRATEGIES = ("ZH", "GI", "LP", "IA")

# Condition numbers beyond this are treated as singular.
CONDITION_LIMIT = 1e12


class LinearSystem:
    """Discrete-time controlled dynamics x+ = A x + B u, u in U, x in X.

    A must be invertible -- backward steps need its inverse; the
    condition number is kept on the instance for diagnostics.  X is an
    H-Rep polytope of state constraints, U a zonotopic input set.
    """

    def __init__(self, A, B, X, U):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or not np.isfinite(self.A).all():
            raise ValueError("A must be a finite square matrix")
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(n, 1)
        if B.ndim != 2 or B.shape[0] != n or not np.isfinite(B).all():
            raise ValueError(f"B must have {n} rows")
        if not isinstance(X, HPolytope):
            raise TypeError("X must be an HPolytope")
        if X.n != n:
            raise ValueError("X dimension differs from A")
        self.U = _plain_zonotope(U, "U")
        if self.U.n != B.shape[1]:
            raise ValueError("U dimension differs from B's column count")
        self.condition_number = float(np.linalg.cond(self.A))
        if not np.isfinite(self.condition_number) or \
                self.condition_number > CONDITION_LIMIT:
            raise ValueError(
                f"A must be invertible; condition number "
                f"{self.condition_number:.3g}")
        self.B = B
        self.X = X
        self.A_inv = np.linalg.inv(self.A)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    def __repr__(self):
        return (f"LinearSystem(n={self.n}, m={self.n_inputs}, "
                f"cond(A)={self.condition_number:.3g})")


def wayset(sys, x_star, N, strategy="LP", keep_trace=False):
    """States that reach ``x_star`` in exactly N steps under constraints.

    The strategy chooses how each state-constraint halfspace is
    skipped-or-folded after a backward step:

    * ``ZH`` -- the parent zonotope's window read at ``FEAS_TOL`` (cheap;
      conservative once constraints exist),
    * ``LP`` -- exact support LP per halfspace,
    * ``IA`` -- interval-refinement certificate per halfspace (cheap,
      weaker than LP, and not stronger than ZH in general: on the
      bundled scenario it folds nine cuts that ZH skips),
    * ``GI`` -- no per-halfspace tests: one generalized intersection
      per step with X pre-converted to a constrained zonotope (no LPs,
      largest representation).

    All four produce the same set, only the representation differs.
    Returns ``(wayset, trace)``; the trace holds each backward step's
    set (ending with the wayset itself) and stays empty unless
    ``keep_trace`` -- long horizons otherwise pile up large
    representations.  The wayset may come back empty (target not
    reachable); test with is_empty.
    """
    strategy = str(strategy).upper()
    if strategy not in WAYSET_STRATEGIES:
        raise ValueError(f"strategy must be one of {WAYSET_STRATEGIES}")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_star.size != sys.n:
        raise ValueError("target dimension differs from the system")
    N = int(N)
    if N < 1:
        raise ValueError("N must be at least 1")

    input_pre = linear_map(-sys.A_inv @ sys.B, sys.U)
    x_conzono = hpolytope_to_conzono(sys.X) if strategy == "GI" else None

    Z = Zonotope.singleton(x_star)
    trace = []
    for _ in range(N):
        Z = minkowski_sum(linear_map(sys.A_inv, Z), input_pre)
        if strategy == "GI":
            Z = generalized_intersection(Z, x_conzono)
        else:
            for hs in sys.X.halfspaces():
                if conzono_in_halfspace(Z, hs, strategy):
                    continue
                Z = conzono_halfspace_intersection(Z, hs)
        if keep_trace:
            trace.append(Z)
    return Z, trace


def wayset_reduce(Z_c):
    """Strip redundant constraints from a wayset without changing the set.

    Exact (constraint, generator) pair elimination runs on one reduced
    row-echelon form, which every elimination keeps, until no coefficient
    range stays inside [-1, 1].  Generator merging is deliberately left
    out: the conventional complexity count for waysets tracks constraint
    redundancy only, so this keeps e.g. parallel input generators from
    different steps distinct.  Use reduce_fully for maximum compression.
    """
    return _strip_pairs(Z_c)


def wayset_inner_box(Z_c, anchor=None):
    """Axis-aligned inner approximation of a wayset.

    Fits a box inside Z_c by scaling the identity template (per-axis
    widths maximized, center free).  With ``anchor`` the box must also
    contain that point -- e.g. a state on a known-feasible trajectory
    -- which raises ValueError if the anchor is not inside Z_c.
    """
    template = make_template(Z_c, "box")
    pts = None if anchor is None else [np.asarray(anchor, dtype=float).reshape(-1)]
    box, _ = inner_scale(Z_c, template, norm="inf", must_contain=pts)
    return box
