"""Halfspace and hyperplane intersections for (constrained) zonotopes.

Three detection strategies decide whether a set already lies inside a
halfspace before a cut is folded into the representation:

* ``ZH`` -- the parent zonotope's window on the cut, read at
  ``FEAS_TOL`` (exact for zonotopes, conservative for constrained ones),
* ``LP`` -- one support LP over the constrained coefficients (exact),
* ``IA`` -- interval refinement of the coefficient constraints of the
  raw cut by the complement halfspace (:func:`_raw_cut`, which is not a
  valid set when its window width d_m < 0); a sufficient emptiness
  certificate only.  Plain zonotopes are judged by their window.
"""

import numpy as np

from .numerics import (
    FEAS_TOL, INFEASIBLE, UNBOUNDED, ZERO_ENTRY, LinearProgram, solve_lp)
from .sets import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    Zonotope,
    _lp_support,
    support,
)

STRATEGIES = ("ZH", "LP", "IA")


class IntervalVector:
    """Per-coordinate closed intervals [lo_i, hi_i].

    A coordinate with lo_i > hi_i is empty; entries may be +-inf.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.asarray(hi, dtype=float).reshape(-1)
        if self.lo.size != self.hi.size:
            raise ValueError("interval bound lengths differ")

    @classmethod
    def unit(cls, m):
        return cls(-np.ones(m), np.ones(m))

    @classmethod
    def reals(cls, m):
        return cls(np.full(m, -np.inf), np.full(m, np.inf))

    @property
    def any_empty(self):
        return bool((self.lo > self.hi).any())

    def __repr__(self):
        pairs = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lo, self.hi))
        return f"IntervalVector({pairs})"


def zonotope_hyperplane_intersects(Z, hs):
    """Whether a zonotope touches the hyperplane h @ x = f.

    Algebraic test: |f - h @ c| <= sum_i |h @ g_i|.
    """
    if not isinstance(hs, Halfspace):
        raise TypeError("hs must be a Halfspace")
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")
    reach = np.abs(hs.h @ Z.G).sum()
    return bool(abs(hs.f - hs.h @ Z.c) <= reach)


def _append_row(Z, row, rhs):
    """Z with one extra (zero) generator and the constraint row @ xi = rhs."""
    G = np.hstack([Z.G, np.zeros((Z.n, 1))])
    A = np.zeros((Z.n_c + 1, Z.n_g + 1))
    A[:Z.n_c, :Z.n_g] = Z.A
    A[Z.n_c] = row
    b = np.concatenate([Z.b, [rhs]])
    return ConstrainedZonotope(Z.c, G, A, b)


def _empty_cut(Z):
    """Z with one extra generator and the unsatisfiable constraint
    xi_new = 2: the empty set, with the size bump of one folded cut."""
    return _append_row(Z, np.concatenate([np.zeros(Z.n_g), [1.0]]), 2.0)


def _window(Z, hs):
    """The parent zonotope's window on the cut h @ x <= f: the offset
    f - h @ c and the half-width sum_i |h @ g_i|."""
    return hs.f - hs.h @ Z.c, np.abs(hs.h @ Z.G).sum()


def _fold(Z, hs):
    """Append the halfspace cut: one extra generator and one constraint.

    With d_m = f - h @ c + sum|h @ g_i| (the slack between the cut and
    the far face), the new row reads  [h @ G, d_m / 2] xi = f - h @ c - d_m/2.

    d_m < -``FEAS_TOL`` means even the parent lies beyond the cut by more
    than a feasible offset, so the intersection is empty and the naive
    row would describe the wrong window: the cut is replaced by an
    unsatisfiable constraint (xi_new = 2) with the same size bump.
    """
    offset, width = _window(Z, hs)
    if offset + width < -FEAS_TOL:
        return _empty_cut(Z)
    return _raw_cut(Z, hs)


def _raw_cut(Z, hs):
    """Like :func:`_fold` but keeps the window row at any width: the IA
    strategy's probe on a constrained set, judged by interval arithmetic
    alone, which the unsatisfiable marker would turn into the ZH test.
    Not a valid set construction on its own."""
    offset, width = _window(Z, hs)
    half = (offset + width) / 2.0
    return _append_row(Z, np.concatenate([hs.h @ Z.G, [half]]), offset - half)


def zonotope_halfspace_intersection(Z, hs):
    """Intersection of a zonotope with a halfspace as a constrained zonotope.

    Requires the hyperplane to actually cross the zonotope (otherwise
    the intersection is Z itself or empty and no cut is warranted); the
    caller decides those cases by the sign of f - h @ c.
    """
    if Z.n_c != 0:
        raise ValueError("zonotope_halfspace_intersection needs a zonotope; "
                         "use conzono_halfspace_intersection")
    if not zonotope_hyperplane_intersects(Z, hs):
        raise ValueError("hyperplane does not cross the zonotope; the "
                         "intersection is trivial (Z or empty)")
    return _fold(Z, hs)


def conzono_halfspace_intersection(Z, hs):
    """Halfspace cut for a constrained zonotope.

    Always folds the cut; combine with a containment strategy
    (:func:`conzono_in_halfspace`) to skip vacuous cuts.
    """
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")
    return _fold(Z, hs)


def conzono_hyperplane_range(Z, hs):
    """Range (f_min, f_max) of h @ x over Z: its supports in -h and h.

    The set crosses the hyperplane h @ x = f iff f_min <= f <= f_max.
    Raises EmptySetError for an empty set.
    """
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")
    return -support(Z, -hs.h), support(Z, hs.h)


def _solved_ranges(a, rhs, lo, hi):
    """Per row of ``a`` and per entry j, (rhs - sum_{k != j} a_k [lo_k, hi_k])
    / a_j as arrays (lo, hi) shaped like ``a``; inf or nan where a_j = 0.

    ``a`` is one row (m,) with a scalar ``rhs``, or a stack (p, m) with one
    rhs per row; ``lo`` and ``hi`` broadcast against it.  Leave-one-out
    sums are each row's own sum minus one term, so the entries passed in
    fix the rounding, and a row of a stack rounds exactly as it does alone.
    """
    t1 = a * lo
    t2 = a * hi
    plo = np.minimum(t1, t2)
    phi = np.maximum(t1, t2)
    s_lo = np.add.reduce(plo, -1)
    s_hi = np.add.reduce(phi, -1)
    if a.ndim == 2:  # one rhs and one sum per row
        rhs, s_lo, s_hi = rhs[:, None], s_lo[:, None], s_hi[:, None]
    r_lo = (rhs - (s_hi - phi)) / a
    r_hi = (rhs - (s_lo - plo)) / a
    neg = a < 0.0
    return np.where(neg, r_hi, r_lo), np.where(neg, r_lo, r_hi)


def interval_refine(Z, iterations=2):
    """Interval refinement of the coefficient constraints of Z.

    Starting from the unit box E_j = [-1, 1] and R_j = (-inf, inf), each
    constraint row i and each entry |a_ij| > ``ZERO_ENTRY`` tightens

        R_j <- R_j  intersect  (b_i - sum_{k != j} a_ik E_k) / a_ij
        E_j <- E_j  intersect  R_j.

    Two sweeps usually suffice; more can help heavily coupled systems.
    Computed intervals are padded outward by ``FEAS_TOL``, the slack the
    LPs allow a row, so neither rounding nor an offset the LPs read as
    feasible can manufacture an emptiness certificate.  If
    any E_j becomes empty the set is certifiably empty.

    Each row's nonzero columns and entries are gathered once.  The first
    sweep runs every row; after it, a row runs again only when E has
    moved on one of its columns since the row last read E.  A re-run on
    an unmoved E recomputes the same ranges and moves nothing, so E and
    R are bit-identical to running every row in every sweep.

    Returns the pair (E, R) of IntervalVectors.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    m = Z.n_g
    E = IntervalVector.unit(m)
    R = IntervalVector.reals(m)
    rows = []
    for row, keep, rhs in zip(Z.A, np.abs(Z.A) > ZERO_ENTRY, Z.b):
        nz = keep.nonzero()[0]
        if nz.size:
            rows.append((nz, row[nz], rhs))
    # Row runs are numbered in order: moved[j] is the run that last moved
    # E_j, read[i] the run in which row i last read E.
    moved = np.full(m, -1)
    read = [0] * len(rows)
    run = 0
    for sweep in range(iterations):
        for i, (nz, a, rhs) in enumerate(rows):
            if sweep and moved[nz].max() < read[i]:
                continue
            read[i] = run
            # Each entry is solved against E as it was before this row.
            e_lo, e_hi = E.lo[nz], E.hi[nz]
            lo, hi = _solved_ranges(a, rhs, e_lo, e_hi)
            r_lo = np.maximum(R.lo[nz], lo - FEAS_TOL)
            r_hi = np.minimum(R.hi[nz], hi + FEAS_TOL)
            R.lo[nz], R.hi[nz] = r_lo, r_hi
            new_lo = np.maximum(e_lo, r_lo)
            new_hi = np.minimum(e_hi, r_hi)
            E.lo[nz], E.hi[nz] = new_lo, new_hi
            # Only this row's columns moved, and only they can turn empty.
            cols = nz[(new_lo != e_lo) | (new_hi != e_hi)]
            if cols.size:
                moved[cols] = run
                if (new_lo > new_hi).any():
                    return E, R
            run += 1
    return E, R


def refine_certifies_empty(Z, iterations=2):
    """Sufficient emptiness certificate from interval refinement."""
    E, _ = interval_refine(Z, iterations=iterations)
    return E.any_empty


def conzono_in_halfspace(Z, hs, strategy="LP"):
    """Whether Z provably lies inside the halfspace h @ x <= f.

    A True answer always guarantees containment.  LP is exact and solves
    one LP, the support max h @ x; ZH reads the parent zonotope's window
    at ``FEAS_TOL``, h @ c + sum|h @ g_i| <= f + FEAS_TOL (the LP's
    reading, exact for plain zonotopes); IA is a sufficient certificate
    that may return False for contained sets.
    """
    strategy = str(strategy).upper()
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")

    if strategy == "LP":
        try:
            return _lp_support(Z, hs.h) <= hs.f + FEAS_TOL
        except EmptySetError:
            return True  # the empty set is inside everything

    if strategy == "ZH" or Z.n_c == 0:  # the window decides a plain set
        offset, width = _window(Z, hs)
        return bool(width <= offset + FEAS_TOL)

    # IA: Z inside H- iff Z cut with the complement H+ is empty, judged by
    # refining the raw cut's coefficient constraints alone.  Sound: a
    # nonempty complement has nonnegative window width, hence a feasible
    # raw system that refinement cannot reject.
    return refine_certifies_empty(_raw_cut(Z, Halfspace(-hs.h, -hs.f)))


def intersect_hpolytope(Z, P, strategy="LP"):
    """Intersect Z with an H-Rep polytope, folding one cut per halfspace
    whose containment cannot be proven under the chosen strategy.

    ``strategy="GI"`` never checks and always folds every halfspace.
    The result may be empty; check with :func:`zonokit.sets.is_empty`.
    """
    strategy = str(strategy).upper()
    if strategy not in STRATEGIES + ("GI",):
        raise ValueError(f"strategy must be one of {STRATEGIES + ('GI',)}")
    if P.n != Z.n:
        raise ValueError("polytope dimension mismatch")
    out = Z
    for hs in P.halfspaces():
        if strategy != "GI" and conzono_in_halfspace(out, hs, strategy):
            continue
        out = _fold(out, hs)
    return out


def hpolytope_to_conzono(P):
    """Convert an H-Rep polytope to a constrained zonotope.

    The interval hull (2n support LPs) seeds a box zonotope; halfspaces
    that actually cut the box are folded in, supporting ones are
    skipped.  A box polytope therefore converts to a pure box zonotope
    with no constraints.  Unbounded or empty input is rejected.
    """
    n = P.n
    lo = np.empty(n)
    hi = np.empty(n)
    for d in range(n):
        obj = np.zeros(n)
        obj[d] = 1.0
        out_min = solve_lp(LinearProgram(obj, a_ub=P.H, b_ub=P.f))
        out_max = solve_lp(LinearProgram(obj, a_ub=P.H, b_ub=P.f, maximize=True))
        if INFEASIBLE in (out_min.status, out_max.status):
            raise EmptySetError("polytope is empty")
        if UNBOUNDED in (out_min.status, out_max.status):
            raise ValueError("polytope is unbounded; cannot convert")
        lo[d], hi[d] = out_min.value, out_max.value
    Z = Zonotope.box(lo, hi)
    out = Z
    for hs in P.halfspaces():
        # Support of the current intersection in the row direction; skip
        # halfspaces that do not strictly cut.
        reach = support(out, hs.h)
        if reach <= hs.f + FEAS_TOL:
            continue
        out = _fold(out, hs)
    return out
