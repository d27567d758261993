"""Redundancy detection and removal for (constrained) zonotopes.

Two mechanisms, both exact (set equality is always preserved):

* merging generator columns that are parallel within a tolerance --
  for constrained zonotopes the test runs on the lifted zonotope
  [G; A] so that constraint structure is respected;
* eliminating a (constraint, generator) pair when interval refinement
  proves the generator's coefficient is already pinned inside [-1, 1]
  by the remaining constraints, via the closed-form transformation
  that zeroes out one column and one row.
"""

import numpy as np

from .halfspaces import DIV_TOL, _solved_ranges, interval_refine
from .numerics import gauss_jordan_full_pivot
from .sets import Zonotope, _make

# Default parallelism tolerance: |g_i @ g_j| / (|g_i| |g_j|) >= 1 - EPS.
EPS_PARALLEL = 1e-9

# Slack allowed when testing R_{r,c} inside [-1, 1]; keeps exactly-tight
# eliminations (interval touching +-1) from being rejected for roundoff.
CONTAIN_TOL = 1e-9


def _merge_columns(G, eps):
    """Merge near-parallel columns of G; returns (G_merged, changed)."""
    cols = [G[:, j].copy() for j in range(G.shape[1])]
    # Zero columns contribute nothing to the set; drop them outright.
    kept = [g for g in cols if np.abs(g).max(initial=0.0) > 0.0]
    changed = len(kept) != len(cols)
    i = 0
    while i < len(kept):
        j = i + 1
        while j < len(kept):
            gi, gj = kept[i], kept[j]
            denom = np.linalg.norm(gi) * np.linalg.norm(gj)
            dot = float(gi @ gj)
            if abs(dot) >= (1.0 - eps) * denom:
                kept[i] = gi + gj if dot >= 0.0 else gi - gj
                kept.pop(j)
                changed = True
                # Restart the inner scan: the merged column changed.
                j = i + 1
            else:
                j += 1
        i += 1
    if not changed:
        return G, False
    if kept:
        return np.column_stack(kept), True
    return np.zeros((G.shape[0], 0)), True


def merge_parallel_generators(Z, eps=EPS_PARALLEL):
    """Merge parallel generators of a zonotope.

    Columns with |g_i @ g_j| >= (1 - eps) |g_i| |g_j| collapse into
    g_i + g_j (or g_i - g_j when anti-parallel).  Exact for truly
    parallel columns; zero columns are dropped.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if Z.n_c != 0:
        raise ValueError("merge_parallel_generators needs a zonotope; "
                         "use merge_parallel_lifted")
    G, changed = _merge_columns(Z.G, eps)
    return Zonotope(Z.c, G) if changed else Z


def lift(Z):
    """Lifted zonotope: stack the constraints into extra dimensions,
    {[G; A], [c; -b]}.  The original set is the slice of the lifted one
    where the last n_c coordinates vanish."""
    if Z.n_c == 0:
        return Zonotope(Z.c, Z.G)
    return Zonotope(np.concatenate([Z.c, -Z.b]), np.vstack([Z.G, Z.A]))


def _unlift(Zlift, n, n_c):
    c = Zlift.c[:n]
    b = -Zlift.c[n:]
    G = Zlift.G[:n]
    A = Zlift.G[n:]
    return _make(c, G, A, b)


def merge_parallel_lifted(Z, eps=EPS_PARALLEL):
    """Merge generators of a constrained zonotope that are parallel in
    the lifted [G; A] sense, preserving the represented set exactly."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if Z.n_c == 0:
        return merge_parallel_generators(Z, eps)
    lifted = lift(Z)
    merged = merge_parallel_generators(lifted, eps)
    if merged is lifted:
        return Z
    return _unlift(merged, Z.n, Z.n_c)


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


def _redundant_pair(work, passes):
    """A removable (constraint, generator) pair (r, c) of a canonical
    system, or None; see :func:`remove_redundant_pair` for the test."""
    if work.n_c == 0:
        return None
    A, bb, G = work.A, work.b, work.G
    E, _ = interval_refine(work, iterations=passes)
    if E.any_empty:
        return None

    def unit_cols(r, E):
        """Columns c of row r whose solved range R_rc lies in [-1, 1]."""
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = _solved_ranges(A[r], bb[r], E.lo, E.hi)
        return np.flatnonzero((np.abs(A[r]) > DIV_TOL)
                              & (lo >= -1.0 - CONTAIN_TOL)
                              & (hi <= 1.0 + CONTAIN_TOL))

    candidates = []  # (|a_rc|, r, c) passing the cheap necessary test
    for r in range(A.shape[0]):
        candidates += [(abs(A[r, cc]), r, cc) for cc in unit_cols(r, E)]
    for _, r, cc in sorted(candidates, reverse=True):
        a = A[r, cc]
        others = [i for i in range(A.shape[0]) if i != r]
        A_sub = A[others] - np.outer(A[others, cc] / a, A[r])
        b_sub = bb[others] - A[others, cc] * (bb[r] / a)
        E_sub, _ = interval_refine(_make(work.c, G, A_sub, b_sub),
                                   iterations=passes)
        if E_sub.any_empty:
            continue
        if cc in unit_cols(r, E_sub):
            return r, cc
    return None


def remove_redundant_pair(Z, passes=2):
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
    is verified with E refined on the substituted system -- the other
    rows with column c's solved expression folded in, exactly the
    constraints the reduced set will carry.  Among verified pairs the
    largest |a_rc| wins (numerical stability; set equality holds either
    way).

    Returns (Z', removed).  When nothing qualifies the input object is
    returned unchanged, unless canonicalization dropped all-zero rows.
    """
    work = _canonical(Z)
    if work is None:
        return Z, False
    pair = _redundant_pair(work, passes)
    if pair is not None:
        return eliminate_pair(work, *pair), True
    return (Z if work.n_c == Z.n_c else work), False


def _strip_pairs(Z, passes=2):
    """Eliminate redundant pairs from one canonical form until none is
    left; the input object comes back when nothing changed.  Row r is
    zero in every other row's pivot column, so eliminate_pair keeps
    those columns exactly unit: no second Gauss-Jordan pass is needed."""
    work = _canonical(Z)
    if work is None:
        return Z
    while (pair := _redundant_pair(work, passes)) is not None:
        work = eliminate_pair(work, *pair)
    return Z if work.n_c == Z.n_c else work


def reduce_fully(Z, eps=EPS_PARALLEL, passes=2):
    """Fixed point of lifted parallel merging and pair elimination.

    Iterates until neither operation changes the representation.  The
    output can still contain redundancy the interval test cannot see;
    only set equality and the fixed point are guaranteed.
    """
    while True:
        reduced = _strip_pairs(merge_parallel_lifted(Z, eps), passes)
        if reduced is Z:
            return Z
        Z = reduced
