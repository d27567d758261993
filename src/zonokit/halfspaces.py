"""Halfspace and hyperplane intersections for (constrained) zonotopes.

Three detection strategies decide whether a set already lies inside a
halfspace before a cut is folded into the representation:

* ``ZH`` -- algebraic hyperplane-crossing test on the parent zonotope
  (exact for zonotopes, conservative for constrained zonotopes),
* ``LP`` -- two support LPs over the constrained coefficients (exact),
* ``IA`` -- interval refinement of the coefficient constraints of the
  raw cut by the complement halfspace (:func:`_raw_cut`, which is not a
  valid set when its window width d_m < 0; plain zonotopes use the
  canonical fold); a sufficient emptiness certificate only.
"""

import numpy as np

from .numerics import (LinearProgram, solve_lp, OPTIMAL, INFEASIBLE,
                       UNBOUNDED, NumericalError)
from .sets import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    Zonotope,
    support,
    TOL,
)

STRATEGIES = ("ZH", "LP", "IA")

# Entries of A smaller than this are treated as structural zeros when
# dividing in the refinement loop.
DIV_TOL = 1e-12


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
    def empty_mask(self):
        return self.lo > self.hi

    @property
    def any_empty(self):
        return bool(self.empty_mask.any())

    def intersect(self, other):
        return IntervalVector(np.maximum(self.lo, other.lo),
                              np.minimum(self.hi, other.hi))

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())

    def __len__(self):
        return self.lo.size

    def __getitem__(self, j):
        return (self.lo[j], self.hi[j])

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


def _fold(Z, hs):
    """Append the halfspace cut: one extra generator and one constraint.

    With d_m = f - h @ c + sum|h @ g_i| (the slack between the cut and
    the far face), the new row reads  [h @ G, d_m / 2] xi = f - h @ c - d_m/2.

    A negative d_m means even the parent zonotope lies strictly beyond
    the cut, so the intersection is empty; the naive row would then
    describe the wrong window, so the cut is replaced by an
    unsatisfiable constraint (xi_new = 2) with the same size bump.
    """
    if hs.f - hs.h @ Z.c + np.abs(hs.h @ Z.G).sum() < 0.0:
        return _append_row(Z, np.concatenate([np.zeros(Z.n_g), [1.0]]), 2.0)
    return _raw_cut(Z, hs)


def _raw_cut(Z, hs):
    """Like :func:`_fold` but keeps the window row even at negative width.

    Only used as a refinement probe by the IA containment strategy,
    which is defined to judge from interval arithmetic alone: replacing
    a negative-width row with the unsatisfiable marker would smuggle the
    parent-support test (the ZH strategy) into its verdict.  Not a valid
    set construction on its own.
    """
    d_m = hs.f - hs.h @ Z.c + np.abs(hs.h @ Z.G).sum()
    return _append_row(Z, np.concatenate([hs.h @ Z.G, [d_m / 2.0]]),
                       hs.f - hs.h @ Z.c - d_m / 2.0)


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
    """Range (f_min, f_max) of h @ x over a constrained zonotope via two LPs.

    The set crosses the hyperplane h @ x = f iff f_min <= f <= f_max.
    Raises EmptySetError for an empty set.
    """
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")
    if Z.n_g == 0:
        if Z.n_c and not (np.abs(Z.b) <= TOL).all():
            raise EmptySetError("set is empty")
        v = float(hs.h @ Z.c)
        return v, v
    obj = hs.h @ Z.G
    lo, hi = -np.ones(Z.n_g), np.ones(Z.n_g)
    a_eq = Z.A if Z.n_c else None
    b_eq = Z.b if Z.n_c else None
    out_min = solve_lp(LinearProgram(obj, a_eq=a_eq, b_eq=b_eq, lo=lo, hi=hi))
    out_max = solve_lp(LinearProgram(obj, a_eq=a_eq, b_eq=b_eq, lo=lo, hi=hi,
                                     maximize=True))
    if INFEASIBLE in (out_min.status, out_max.status):
        raise EmptySetError("set is empty")
    if not (out_min.ok and out_max.ok):
        raise NumericalError("support LP failed")
    base = float(hs.h @ Z.c)
    return base + out_min.value, base + out_max.value


def conzono_halfspace_feasible(Z, hs):
    """Whether Z intersects the halfspace h @ x <= f (single LP feasibility)."""
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")
    if Z.n_g == 0:
        return (np.abs(Z.b) <= TOL).all() and float(hs.h @ Z.c) <= hs.f + TOL
    a_ub = (hs.h @ Z.G).reshape(1, -1)
    b_ub = np.array([hs.f - hs.h @ Z.c])
    out = solve_lp(LinearProgram(np.zeros(Z.n_g), a_ub=a_ub, b_ub=b_ub,
                                 a_eq=Z.A if Z.n_c else None,
                                 b_eq=Z.b if Z.n_c else None,
                                 lo=-np.ones(Z.n_g), hi=np.ones(Z.n_g)))
    if out.status == OPTIMAL:
        return True
    if out.status == INFEASIBLE:
        return False
    raise NumericalError(f"halfspace feasibility LP failed: {out.status}")


def _solved_ranges(a, rhs, lo, hi):
    """Per j, (rhs - sum_{k != j} a_k [lo_k, hi_k]) / a_j as arrays (lo, hi);
    inf or nan where a_j = 0.  Leave-one-out sums are whole-array sums
    minus one term, so the entries passed in fix the rounding."""
    t1 = a * lo
    t2 = a * hi
    plo = np.minimum(t1, t2)
    phi = np.maximum(t1, t2)
    r_lo = (rhs - (phi.sum() - phi)) / a
    r_hi = (rhs - (plo.sum() - plo)) / a
    neg = a < 0.0
    return np.where(neg, r_hi, r_lo), np.where(neg, r_lo, r_hi)


def interval_refine(Z, iterations=2, pad=1e-12):
    """Interval refinement of the coefficient constraints of Z.

    Starting from the unit box E_j = [-1, 1] and R_j = (-inf, inf), each
    constraint row i and each entry a_ij != 0 tightens

        R_j <- R_j  intersect  (b_i - sum_{k != j} a_ik E_k) / a_ij
        E_j <- E_j  intersect  R_j.

    Two sweeps usually suffice; more can help heavily coupled systems.
    Computed intervals are padded outward by ``pad`` so floating-point
    rounding cannot manufacture a spurious emptiness certificate.  If
    any E_j becomes empty the set is certifiably empty.

    Returns the pair (E, R) of IntervalVectors.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    m = Z.n_g
    E = IntervalVector.unit(m)
    R = IntervalVector.reals(m)
    for _ in range(iterations):
        for i in range(Z.n_c):
            row = Z.A[i]
            nz = np.flatnonzero(np.abs(row) > DIV_TOL)
            if nz.size == 0:
                continue
            # Each entry is solved against E as it was before this row.
            lo, hi = _solved_ranges(row[nz], Z.b[i], E.lo[nz], E.hi[nz])
            R.lo[nz] = np.maximum(R.lo[nz], lo - pad)
            R.hi[nz] = np.minimum(R.hi[nz], hi + pad)
            E.lo[nz] = np.maximum(E.lo[nz], R.lo[nz])
            E.hi[nz] = np.minimum(E.hi[nz], R.hi[nz])
            if E.any_empty:
                return E, R
    return E, R


def refine_certifies_empty(Z, iterations=2):
    """Sufficient emptiness certificate from interval refinement."""
    E, _ = interval_refine(Z, iterations=iterations)
    return E.any_empty


def conzono_in_halfspace(Z, hs, strategy="LP", passes=2):
    """Whether Z provably lies inside the halfspace h @ x <= f.

    A True answer always guarantees containment.  The LP strategy is
    exact; ZH is exact only for plain zonotopes (it tests the parent
    zonotope); IA is a sufficient certificate that may return False for
    contained sets.
    """
    strategy = str(strategy).upper()
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if hs.h.size != Z.n:
        raise ValueError("halfspace dimension mismatch")

    if strategy == "ZH":
        if zonotope_hyperplane_intersects(Z.parent_zonotope(), hs):
            return False
        return float(hs.f - hs.h @ Z.c) > 0.0

    if strategy == "LP":
        try:
            _, f_max = conzono_hyperplane_range(Z, hs)
        except EmptySetError:
            return True  # the empty set is inside everything
        return f_max <= hs.f + TOL

    # IA: Z inside H- iff Z cut with the complement H+ is empty.  For a
    # plain zonotope the window width of that cut decides exactly, so the
    # canonical fold is fine; for a constrained set the verdict must come
    # from refining the coefficient constraints themselves (the raw cut),
    # otherwise the check degenerates into the parent-support test.
    # Sound either way: a nonempty complement has nonnegative window
    # width, hence a feasible raw system that refinement cannot reject.
    complement = Halfspace(-hs.h, -hs.f)
    if Z.n_c == 0:
        return refine_certifies_empty(_fold(Z, complement), iterations=passes)
    return refine_certifies_empty(_raw_cut(Z, complement), iterations=passes)


def intersect_hpolytope(Z, P, strategy="LP", passes=2):
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
        if strategy != "GI" and conzono_in_halfspace(out, hs, strategy, passes):
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
        if not (out_min.ok and out_max.ok):
            raise NumericalError("interval hull LP failed")
        lo[d], hi[d] = out_min.value, out_max.value
    Z = Zonotope.box(lo, hi)
    out = Z
    for hs in P.halfspaces():
        # Support of the current intersection in the row direction; skip
        # halfspaces that do not strictly cut.
        if out.n_c == 0:
            reach = support(out, hs.h)
        else:
            _, reach = conzono_hyperplane_range(out, hs)
        if reach <= hs.f + TOL:
            continue
        out = _fold(out, hs)
    return out
