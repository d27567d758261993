"""Redundancy detection and removal for (constrained) zonotopes.

Two mechanisms:

* merging generator columns that are parallel within a tolerance --
  for constrained zonotopes the test runs on the columns of [G; A]
  so that constraint structure is respected.  The columns' unit
  vectors must lie within EPS_PARALLEL of each other (or of each
  other's negation), which admits only rounding-level angles; on a
  plain zonotope, merging h and g moves the set by at most about
  2 EPS_PARALLEL min(|h|, |g|);
* eliminating a (constraint, generator) pair when interval refinement
  proves the generator's coefficient is already pinned inside [-1, 1]
  by the remaining constraints, via the closed-form transformation
  that zeroes out one column and one row; this is exact.
"""

import numpy as np

from .halfspaces import _solved_ranges, interval_refine
from .numerics import FEAS_TOL, ZERO_ENTRY, gauss_jordan_full_pivot
from .sets import _make

# Parallelism tolerance: || g_i / |g_i| -+ g_j / |g_j| || <= EPS_PARALLEL,
# about the angle between the columns.  A cosine test would lose it to
# cancellation in 1 - cos.
EPS_PARALLEL = 1e-10


def merge_parallel_generators(Z):
    """Merge generators that are parallel as columns of [G; A].

    One pass over the columns: zero columns are dropped, and each other
    column g joins the first kept column h whose unit vector is within
    EPS_PARALLEL of g's, as h + g, or of -g's, as h - g; else it is
    kept.  Stacking A under G makes the test respect the constraints (a
    plain zonotope has no A rows).  Returns Z itself when nothing
    merges.
    """
    kept = []
    # contiguous columns: BLAS may sum a strided vector in another order
    for g in np.vstack([Z.G, Z.A]).T.copy():
        if not g.any():
            continue
        u = g / np.linalg.norm(g)
        for k, h in enumerate(kept):
            v = h / np.linalg.norm(h)
            sign = 1.0 if v @ u >= 0.0 else -1.0
            if np.linalg.norm(v - sign * u) <= EPS_PARALLEL:
                kept[k] = h + sign * g
                break
        else:
            kept.append(g)
    if len(kept) == Z.n_g:
        return Z
    M = np.column_stack(kept) if kept else np.zeros((Z.n + Z.n_c, 0))
    return _make(Z.c, M[:Z.n], M[Z.n:], Z.b)


def eliminate_pair(Z, r, c):
    """Apply the exact pair-elimination transform at indices (r, c) and
    delete the zeroed column and row.

    The transform is G <- G - Lg A, c <- c + Lg b, A <- A - La A,
    b <- b - La b with Lg = G e_c e_r^T / a_rc and La = A e_c e_r^T
    / a_rc; it leaves column c of G and A and row r of A and b
    identically zero.  The caller is responsible for the
    coefficient-range condition that makes this set-preserving.
    """
    a_rc = Z.A[r, c]
    if a_rc == 0.0:
        raise ValueError("pivot entry is zero")
    G = Z.G - np.outer(Z.G[:, c] / a_rc, Z.A[r])
    cen = Z.c + Z.G[:, c] * (Z.b[r] / a_rc)
    A = Z.A - np.outer(Z.A[:, c] / a_rc, Z.A[r])
    b = Z.b - Z.A[:, c] * (Z.b[r] / a_rc)
    keep_g = [j for j in range(Z.n_g) if j != c]
    keep_c = [i for i in range(Z.n_c) if i != r]
    return _make(cen, G[:, keep_g], A[np.ix_(keep_c, keep_g)], b[keep_c])


def _canonical(Z):
    """Z with its constraints in full-pivot reduced row-echelon form
    (generators permuted alike, vacuous rows dropped), or None when they
    are inconsistent.  Every kept row has a unit pivot column."""
    if Z.n_c == 0:
        return Z
    R, d, info = gauss_jordan_full_pivot(Z.A, Z.b)
    if info["inconsistent_rows"]:
        return None
    rank = info["rank"]
    return _make(Z.c, Z.G[:, info["col_perm"]], R[:rank], d[:rank])


def _redundant_pair(work, E):
    """Eliminate one removable pair of a canonical system whose all-rows
    refinement is E: (reduced set, its refinement), or None; see
    :func:`remove_redundant_pair` for the test."""
    if E.any_empty:
        return None
    A, bb = work.A, work.b
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = _solved_ranges(A, bb, E.lo, E.hi)
    # (r, c) whose solved range R_rc lies in [-1, 1] up to FEAS_TOL (the
    # cheap necessary test), largest |a_rc| first, ties in descending (r, c)
    rs, cs = np.nonzero((np.abs(A) > ZERO_ENTRY)
                        & (lo >= -1.0 - FEAS_TOL) & (hi <= 1.0 + FEAS_TOL))
    order = np.argsort(np.abs(A[rs, cs]), kind="stable")[::-1]
    for r, c in zip(rs[order], cs[order]):
        out = eliminate_pair(work, r, c)
        E_out, _ = interval_refine(out)
        if E_out.any_empty:
            continue
        # Column c is gone from out; put it back unrefined.
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = _solved_ranges(A[r], bb[r], np.insert(E_out.lo, c, -1.0),
                                    np.insert(E_out.hi, c, 1.0))
        if lo[c] >= -1.0 - FEAS_TOL and hi[c] <= 1.0 + FEAS_TOL:
            return out, E_out
    return None


def remove_redundant_pair(Z):
    """Try to eliminate one (constraint, generator) pair exactly.

    The constraints are brought to reduced row-echelon form by
    full-pivot Gauss-Jordan elimination (generators permuted alike) and
    interval refinement bounds each coefficient.  If solving row r for
    generator c gives a range R_rc = (b_r - sum_{k != c} a_rk E_k) / a_rc
    inside [-1, 1], that coefficient never binds and the pair is folded
    away with :func:`eliminate_pair`.

    Row r must not vouch for its own redundancy: the solved coefficient
    has to stay in [-1, 1] for everything the *remaining* system allows.
    So the all-rows refinement (a necessary condition, since tighter
    domains only shrink R_rc) prunes the grid cheaply, and each survivor
    is verified on the set eliminate_pair returns for it (the other rows
    with column c's solved expression folded in), refined with xi_c back
    at [-1, 1].  Among verified pairs the largest |a_rc| wins (numerical
    stability; set equality holds either way).

    Returns (Z', removed).  When nothing qualifies the input object is
    returned unchanged, unless canonicalization dropped all-zero rows.
    """
    work = _canonical(Z)
    if work is None:
        return Z, False
    E, _ = interval_refine(work)
    if (step := _redundant_pair(work, E)) is not None:
        return step[0], True
    return (Z if work.n_c == Z.n_c else work), False


def _strip_pairs(Z):
    """Eliminate redundant pairs from one canonical form until none is
    left; the input object comes back when nothing changed.  Each
    candidate is verified on the set eliminate_pair returns, whose
    refinement opens the next search.  Row r is zero in every other
    row's pivot column, so eliminate_pair keeps those columns exactly
    unit: no second Gauss-Jordan pass is needed."""
    work = _canonical(Z)
    if work is None:
        return Z
    E, _ = interval_refine(work)
    while (step := _redundant_pair(work, E)) is not None:
        work, E = step
    return Z if work.n_c == Z.n_c else work


def reduce_fully(Z):
    """Fixed point of parallel merging and pair elimination.

    Iterates until neither operation changes the representation.  The
    output can still contain redundancy the interval test cannot see;
    only set equality and the fixed point are guaranteed.
    """
    while True:
        reduced = _strip_pairs(merge_parallel_generators(Z))
        if reduced is Z:
            return Z
        Z = reduced
