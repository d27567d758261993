"""Brute-force geometric ground truth at desk scale.

Everything here recomputes set predicates from the raw (c, G, A, b)
data using scipy's linprog and Qhull directly -- deliberately not the
library's own LP wrapper or closed-form shortcuts -- so the fast paths
can be checked against an independently coded route.  Three shortcuts
skip an LP: the checked least-squares witness of
:func:`horizon_feasible`, the maximizer a sweep row takes from its two
parent rows (:func:`_support_points`), and :class:`_SetProbe`, which
settles the points its set's sweep decides, so :func:`sets_equal`,
:func:`pontryagin_oracle` and :func:`volume` solve distance LPs only
for a thin band.  Budgets are sized for n <= 4 and a few dozen
generators: this module is test tooling, kept out of the supported API
surface.

Sweeps are batched, since most of a small linprog call is scipy's
overhead (about 2 ms; the HiGHS solve itself is small): LP_BLOCKS
directions or points go to one block-diagonal support
(:func:`_support_points`) or distance (:func:`_sup_distances`) LP.
The blocks are assembled sparse (:func:`_block_diagonal`), so a
program's memory is linear in its block count.
"""

import functools
import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array, vstack
from scipy.spatial import ConvexHull, QhullError

from .sets import EmptySetError, as_conzono

DEFAULT_SEED = 42
MEMBERSHIP_TOL = 1e-9
# HiGHS primal feasibility tolerance of the support, emptiness and
# distance LPs: its default of 1e-7 reads points, or sets, up to 1e-7
# from feasible as feasible, far beyond MEMBERSHIP_TOL.
PRIMAL_TOL = 1e-10
SUPPORT_TOL = 1e-6
GENERATOR_BUDGET = 128
# Blocks per support or distance program.  Its sparse matrices grow
# linearly with it, and peak memory still grows: the verify
# benchmark's peak RSS (seed 0) was 85.6 MiB at 16 blocks, 87.2 at 64,
# 94.2 at 256 and 111.4 at 720 (a whole 2-D sweep in one program).
# A seed-0 verify pass makes 38 linprog calls at 16 blocks and 26 at 64
# or 256.  The batching tests need a sweep of 100 points to span two
# programs.
LP_BLOCKS = 64

_DEDUPE_DECIMALS = 9


def directions(n, seed=DEFAULT_SEED):
    """Dense unit-direction sweep used by every oracle routine.

    n = 2 walks 720 angles, n = 3 uses a 4x-subdivided icosahedron
    (2562 directions), higher dimensions fall back to seeded Gaussian
    samples -- enough to resolve every face of the desk-scale examples.

    The 2-D and 3-D sweeps come in levels (:func:`_levels`): every 16th
    angle, then four halvings that add the bisectors; the icosahedron,
    then four subdivisions that add edge midpoints (42, 162, 642 and
    2562 rows, each a prefix of the next).  Each row past the base is
    the normalised sum of two coarser rows, its parents.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        return _icosphere(4)[0].copy()
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((4096, n))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _levels(n, rows):
    """Levels of the first `rows` rows of directions(n), coarse to fine:
    (index, parents) pairs, parents None at the base, else each indexed
    row's two coarser rows."""
    if n == 2:
        levels = [(np.arange(0, 720, 16), None)]
        for step in (8, 4, 2, 1):
            index = np.arange(step, 720, 2 * step)
            levels.append((index, np.c_[index - step, (index + step) % 720]))
    elif n == 3:
        levels = _icosphere(4)[1]
    else:
        levels = [(np.arange(rows), None)]
    return [(i[i < rows], p if p is None else p[i < rows]) for i, p in levels]


@functools.cache
def _icosphere(subdivisions):
    """Icosphere vertices and their levels (see :func:`_levels`)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.asarray(v, dtype=float) for v in verts]
    verts = [v / np.linalg.norm(v) for v in verts]
    levels = [(np.arange(len(verts)), None)]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
        levels.append((np.array(list(cache.values())), np.array(list(cache))))
    return np.array(verts), levels


def _support_points(Z, D, levels=None):
    """Support values and maximizing points for every row of D.  By
    levels (:func:`_levels`), a row whose parents got the same point
    takes it, and the other rows go to :func:`_maximizers`.  This is
    exact: the support function is sublinear, so d = a d_a + b d_b
    (a, b >= 0) with parents d_a, d_b maximized at p has support(d) <=
    a support(d_a) + b support(d_b) = d . p <= support(d)."""
    Z = as_conzono(Z)
    D = np.atleast_2d(np.asarray(D, dtype=float))
    dc = _rowwise(Z.c[None], D)[:, 0]
    if Z.n_g == 0:
        if _empty_point(Z):
            raise EmptySetError("empty set has no support")
        return dc, np.tile(Z.c, (len(D), 1))
    Q = _rowwise(Z.G.T, D)
    if Z.n_c == 0:
        signs = np.sign(Q)
        signs[signs == 0] = 1.0
        return dc + np.abs(Q).sum(axis=1), Z.c + _rowwise(Z.G, signs)
    X, P = np.empty_like(Q), np.empty_like(D)
    for rows, parents in levels or [(np.arange(len(D)), None)]:
        if parents is not None:
            shared = np.all(P[parents[:, 0]] == P[parents[:, 1]], axis=1)
            X[rows[shared]] = X[parents[shared, 0]]
            P[rows[shared]] = P[parents[shared, 0]]
            rows = rows[~shared]
        X[rows] = _maximizers(Z.A, Z.b, Q[rows])
        P[rows] = Z.c + _rowwise(Z.G, X[rows])
    return dc + np.sum(Q * X, axis=1), P


def _empty_point(Z):
    """Whether a set with no generators is empty: its constraints read
    0 = b."""
    return bool(Z.n_c) and np.max(np.abs(Z.b)) > MEMBERSHIP_TOL


def _solve(cost, what, **program):
    """min cost . x over the linprog program, solved by HiGHS at
    PRIMAL_TOL: the solution, or None if the program is infeasible.
    Any other outcome raises RuntimeError naming the program."""
    res = linprog(cost, method="highs",
                  options={"primal_feasibility_tolerance": PRIMAL_TOL},
                  **program)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"{what} LP failed: {res.message}")
    return res.x


def _rowwise(M, V):
    """M @ v for every row v of V, stacked so that each row rounds as a
    lone product does (V @ M.T groups the sums differently)."""
    return (M @ V[:, :, None])[:, :, 0]


def _block_diagonal(M, m, width):
    """kron(I_m, M) as a CSR array with width >= m * M.shape[1] columns,
    those past the blocks zero, built from M's nonzeros by index
    arithmetic."""
    rows, cols = M.shape
    i, j = np.nonzero(M)
    per_row = np.bincount(i, minlength=rows)
    indptr = np.concatenate([[0], np.cumsum(np.tile(per_row, m))])
    indices = (j + cols * np.arange(m)[:, None]).ravel()
    return csr_array((np.tile(M[i, j], m), indices, indptr),
                     shape=(m * rows, width))


def _maximizers(A, b, Q):
    """A maximizer of q . xi over A xi = b, |xi| <= 1 for every row q of
    Q, LP_BLOCKS rows to a program: the blocks share no variable, so
    maximizing the sum maximizes each."""
    X = np.empty_like(Q)
    for start in range(0, len(Q), LP_BLOCKS):
        q = Q[start:start + LP_BLOCKS]
        x = _solve(-q.ravel(), "support",
                   A_eq=_block_diagonal(A, len(q), q.size),
                   b_eq=np.tile(b, len(q)), bounds=(-1.0, 1.0))
        if x is None:
            raise EmptySetError("empty set has no support")
        X[start:start + len(q)] = x.reshape(q.shape)
    return X


def _sweep(Z):
    """_support_points of a coerced set over directions(n), by levels."""
    D = directions(Z.n)
    return _support_points(Z, D, _levels(Z.n, len(D)))


def _support_point(Z, d):
    """Support value and a maximizing point: one row of _support_points."""
    (value,), (point,) = _support_points(Z, np.reshape(d, (1, -1)))
    return float(value), point


def support_lp(Z, d):
    """Support value max over the set of d . x (LP route)."""
    return _support_point(Z, d)[0]


def membership(Z, point, tol=MEMBERSHIP_TOL):
    """Whether the point is within tol (sup-norm) of the set, i.e. in
    the tol-inflated set: one block of :func:`_sup_distances`."""
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.size != as_conzono(Z).n:
        raise ValueError("point dimension mismatch")
    return bool(_sup_distances(Z, p[None])[0] <= tol)


def _sup_distances(Z, points):
    """Sup-norm distance from each row of points to the set; inf if empty.

    Solves min t s.t. |p - c - G xi| <= t, A xi = b, |xi| <= 1 for one
    point per block, LP_BLOCKS blocks to a program: the blocks
    share no variable, so minimizing the sum of the t_j minimizes each.
    """
    Z = as_conzono(Z)
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if Z.n_g == 0:
        if _empty_point(Z):
            return np.full(len(P), np.inf)
        return np.max(np.abs(P - Z.c), axis=1, initial=0.0)
    n_g, n = Z.n_g, Z.n
    out = np.empty(len(P))
    for start in range(0, len(P), LP_BLOCKS):
        gaps = P[start:start + LP_BLOCKS] - Z.c
        m = len(gaps)
        width = m * (n_g + 1)
        xi = _block_diagonal(Z.G, m, width)
        # -t_j in every row of block j
        minus_t = csr_array((np.full(m * n, -1.0),
                             np.repeat(np.arange(m * n_g, width), n),
                             np.arange(m * n + 1)), shape=(m * n, width))
        A_ub = vstack([xi + minus_t, -xi + minus_t], format="csr")
        b_ub = np.concatenate([gaps.ravel(), -gaps.ravel()])
        A_eq = b_eq = None
        if Z.n_c:
            A_eq = _block_diagonal(Z.A, m, width)
            b_eq = np.tile(Z.b, m)
        cost = np.concatenate([np.zeros(m * n_g), np.ones(m)])
        bounds = [(-1.0, 1.0)] * (m * n_g) + [(0.0, None)] * m
        x = _solve(cost, "membership", A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                   b_eq=b_eq, bounds=bounds)
        if x is None:
            return np.full(len(P), np.inf)
        out[start:start + m] = x[m * n_g:]
    return out


def _dedupe(points):
    rounded = np.round(points, _DEDUPE_DECIMALS)
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return points[np.sort(keep)]


def enumerate_vertices(Z):
    """Vertices of a set with n <= 3, by direction-sweep LPs.

    Returns an array of vertex rows; 2-D output is ordered
    counterclockwise starting from the lexicographically smallest
    vertex, 3-D output is unordered.  Degenerate (flat) sets come back
    as the vertices of the lower-dimensional hull.
    """
    Z = as_conzono(Z)
    if Z.n > 3:
        raise ValueError("vertex enumeration supports n <= 3 only")
    if Z.n_g > GENERATOR_BUDGET:
        raise ValueError(
            f"generator budget exceeded ({Z.n_g} > {GENERATOR_BUDGET})")
    pts = _dedupe(_sweep(Z)[1])  # EmptySetError propagates
    if len(pts) == 1:
        return pts
    mean = pts.mean(axis=0)
    centered = pts - mean
    U, s, Vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    if rank == 0:
        return mean.reshape(1, -1)
    if rank == 1:
        along = centered @ Vt[0]
        return _dedupe(np.array([pts[np.argmin(along)], pts[np.argmax(along)]]))
    if rank == 2 and Z.n == 3:
        plane = centered @ Vt[:2].T
        order = _hull_2d(plane)
        return pts[order]
    if Z.n == 2:
        return pts[_hull_2d(pts)]
    hull = ConvexHull(pts)
    return pts[np.sort(np.unique(hull.vertices))]


def _hull_2d(pts):
    hull = ConvexHull(pts)
    order = list(hull.vertices)  # counterclockwise per Qhull's 2-D contract
    corner = min(range(len(order)), key=lambda i: tuple(pts[order[i]]))
    return np.array(order[corner:] + order[:corner])


def polygon_area(vertices):
    """Shoelace area of an ordered planar polygon."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def zonotope_volume_exact(Z):
    """Exact volume of an unconstrained zonotope: 2^n * sum of |det|
    over all n-subsets of generators.  Combinatorial -- desk scale only.
    """
    Z = as_conzono(Z)
    if Z.n_c != 0:
        raise ValueError("exact formula applies to unconstrained zonotopes")
    n, n_g = Z.n, Z.n_g
    if n_g < n:
        return 0.0
    if math.comb(n_g, n) > 400_000:
        raise ValueError("generator budget exceeded for exact volume")
    total = 0.0
    for idx in itertools.combinations(range(n_g), n):
        total += abs(np.linalg.det(Z.G[:, idx]))
    return (2.0 ** n) * total


class _SetProbe:
    """Bulk classifier for "within MEMBERSHIP_TOL (sup-norm) of the set".
    The support sweep's rows, scaled to unit 1-norm (the sup norm's
    dual), reject a point past a scaled support value by more than
    MEMBERSHIP_TOL; the hull of the support points (points of the set)
    accepts one within MEMBERSHIP_TOL of its facet planes; the band
    between, all that a flat set (no hull) keeps, gets distance LPs.

    Rejection runs in two stages: the first COARSE_ROWS sweep rows (the
    coarse icosphere levels in 3-D, random directions in 4-D, so spread
    over the sphere) reject most outside points, and only the points
    they keep meet the other rows and then the inner hull.
    """

    COARSE_ROWS = 64

    def __init__(self, Z):
        self.Z = as_conzono(Z)
        self.f, pts = _sweep(self.Z)
        D = directions(self.Z.n)
        scale = np.abs(D).sum(axis=1)
        self.H, self.h = D / scale[:, None], self.f / scale
        try:
            self.inner = ConvexHull(_dedupe(pts)).equations
        except (QhullError, ValueError):
            self.inner = None  # flat set: fall through to LPs

    def classify(self, points):
        points = np.asarray(points, dtype=float)
        k = self.COARSE_ROWS
        keep = np.flatnonzero(_below(points, self.H[:k], self.h[:k]))
        keep = keep[_below(points[keep], self.H[k:], self.h[k:])]
        result = np.zeros(len(points), dtype=bool)
        band = keep
        if self.inner is not None:
            inside = _below(points[keep], self.inner[:, :-1],
                            -self.inner[:, -1])
            result[keep[inside]] = True
            band = keep[~inside]
        result[band] = _sup_distances(self.Z, points[band]) <= MEMBERSHIP_TOL
        return result


def _below(points, H, f):
    """Whether max_i (H_i . p - f_i) <= MEMBERSHIP_TOL for every row p of
    points, in chunks that bound each temporary at 2**16 entries."""
    out = np.empty(len(points), dtype=bool)
    step = max(1, 2**16 // max(1, len(H)))
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        out[start:start + step] = np.max(
            chunk @ H.T - f, axis=1, initial=-np.inf) <= MEMBERSHIP_TOL
    return out


def volume(Z, samples=200_000, seed=DEFAULT_SEED):
    """Volume estimate with standard error, for n <= 4.

    n <= 2 is exact (support interval / shoelace polygon, stderr 0);
    n = 3, 4 is a Monte Carlo hit ratio over the bounding box of the
    parent zonotope, deterministic for a given seed.
    """
    Z = as_conzono(Z)
    n = Z.n
    if n > 4:
        raise ValueError("volume oracle supports n <= 4 only")
    # each sweep raises EmptySetError at its base level on an empty set
    try:
        if n == 1:
            return float(_support_points(Z, [[1.0], [-1.0]])[0].sum()), 0.0
        if n == 2:
            return polygon_area(enumerate_vertices(Z)), 0.0
        lo, hi = Z.parent_zonotope().interval_hull()
        widths = hi - lo
        box_volume = float(np.prod(widths))
        if box_volume <= 0.0:
            return 0.0, 0.0
        probe = _SetProbe(Z)
    except EmptySetError:
        return 0.0, 0.0
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, 65536):
        pts = lo + rng.random((min(65536, samples - start), n)) * widths
        hits += int(probe.classify(pts).sum())
    p = hits / samples
    estimate = box_volume * p
    stderr = box_volume * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return estimate, stderr


def volume_ratio(X, Y, samples=200_000, seed=DEFAULT_SEED):
    """Scale-linear size comparison (V(X)/V(Y))^(1/n)."""
    X, Y = as_conzono(X), as_conzono(Y)
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    vol_x, _ = volume(X, samples, seed)
    vol_y, _ = volume(Y, samples, seed + 1)
    if vol_y <= 0.0:
        raise ValueError("reference set has zero volume")
    return (vol_x / vol_y) ** (1.0 / X.n)


def _grid(lo, hi, density):
    axes = [np.linspace(lo[i], hi[i], density) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def sets_equal(X, Y, grid=15):
    """Set equality by support sweep plus bidirectional grid membership.

    A support mismatch beyond SUPPORT_TOL anywhere on the direction
    sweep, or a grid point inside one set but outside the other inflated
    by SUPPORT_TOL, decides inequality.  n <= 3.  Each set's _SetProbe
    holds its sweep and classifies the grid; only its band and the points
    one set alone accepts get distance LPs.
    """
    X, Y = as_conzono(X), as_conzono(Y)
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    if X.n > 3:
        raise ValueError("equality oracle supports n <= 3 only")
    probes = []
    for Z in (X, Y):
        try:
            probes.append(_SetProbe(Z))
        except EmptySetError:  # raised exactly when the set is empty
            probes.append(None)
    px, py = probes
    if px is None or py is None:
        return px is py
    if np.any(np.abs(px.f - py.f) > SUPPORT_TOL):
        return False
    lo_x, hi_x = X.parent_zonotope().interval_hull()
    lo_y, hi_y = Y.parent_zonotope().interval_hull()
    points = _grid(np.minimum(lo_x, lo_y), np.maximum(hi_x, hi_y), int(grid))
    in_x, in_y = px.classify(points), py.classify(points)
    return not (np.any(_sup_distances(Y, points[in_x & ~in_y]) > SUPPORT_TOL)
                or np.any(_sup_distances(X, points[in_y & ~in_x])
                          > SUPPORT_TOL))


def pontryagin_oracle(Z1, Z2, grid=41):
    """Definitional difference check: grid points z with z + Z2 inside Z1.

    Returns (points, mask).  A point passes iff every vertex v of Z2
    satisfies z + v in Z1 -- sufficient because shifting a polytope
    keeps it the hull of its shifted vertices and Z1 is convex.  The
    shifted vertices are classified by :class:`_SetProbe` of Z1.  n <= 3.
    """
    Z1, Z2 = as_conzono(Z1), as_conzono(Z2)
    if Z1.n != Z2.n:
        raise ValueError("dimension mismatch")
    if Z1.n > 3:
        raise ValueError("difference oracle supports n <= 3 only")
    verts = enumerate_vertices(Z2)
    lo, hi = Z1.parent_zonotope().interval_hull()
    anchor = verts.mean(axis=0)  # in Z2, so the difference fits the shifted box
    points = _grid(lo - anchor, hi - anchor, int(grid))
    shifted = (points[:, None, :] + verts[None, :, :]).reshape(-1, Z1.n)
    try:
        inside = _SetProbe(Z1).classify(shifted)
    except EmptySetError:  # an empty Z1 holds no shift of Z2
        inside = np.zeros(len(shifted), dtype=bool)
    return points, inside.reshape(len(points), len(verts)).all(axis=1)


def horizon_feasible(sys, x0, x_star, N):
    """One-shot LP over the whole control horizon: can x0 reach x_star?

    Stacks the input coefficients of all N steps into a single vector
    eta (one block per step, box bounds), writes every state as an
    affine function of eta, and asks HiGHS for feasibility of

        x(j) = A^j x0 + sum_i A^(j-1-i) B (c_u + G_u eta_i),
        H x(j) <= f  for j = 0..N-1,   x(N) = x_star.

    The terminal condition is an equality up to MEMBERSHIP_TOL
    (two-sided rows), which keeps points produced by float recursions
    from being rejected on roundoff; HiGHS runs at PRIMAL_TOL, below
    it, so MEMBERSHIP_TOL is the tolerance enforced.  Independent of the
    backward recursion: it never calls the set operations whose output
    it is meant to judge.

    Before the LP, the least-squares input sequence for the terminal
    equality is tried as a witness: if it meets every row and bound of
    the LP as written, it is a feasible point of that LP and the answer
    is True without a solve.  Any other point goes to the LP, so only
    the LP ever answers False, unless it has no variables (an input set
    with no generators): then the witness is its one point.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    H, f = np.asarray(sys.X.H, dtype=float), np.asarray(sys.X.f, dtype=float)
    c_u, G_u = np.asarray(sys.U.c, dtype=float), np.asarray(sys.U.G, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    n, m = A.shape[0], G_u.shape[1]
    N = int(N)
    if N < 1:
        raise ValueError("horizon must be at least one step")
    if x0.size != n or x_star.size != n:
        raise ValueError(f"x0 and x_star must have length {n}")

    # coef[j] has shape (n, N*m): x(j) = const[j] + coef[j] @ eta
    const = [x0]
    coef = [np.zeros((n, N * m))]
    for j in range(N):
        const.append(A @ const[j] + B @ c_u)
        step = A @ coef[j]
        step[:, j * m:(j + 1) * m] += B @ G_u
        coef.append(step)

    A_ub = np.vstack([H @ coef[j] for j in range(N)])
    b_ub = np.concatenate([f - H @ const[j] for j in range(N)])
    gap = x_star - const[N]
    A_ub = np.vstack([A_ub, coef[N], -coef[N]])
    b_ub = np.concatenate([b_ub, gap + MEMBERSHIP_TOL,
                           -gap + MEMBERSHIP_TOL])
    eta = np.linalg.lstsq(coef[N], gap, rcond=None)[0]
    witness = bool(np.all(np.abs(eta) <= 1.0) and np.all(A_ub @ eta <= b_ub))
    if witness or m == 0:
        return witness
    return _solve(np.zeros(N * m), "horizon", A_ub=A_ub, b_ub=b_ub,
                  bounds=[(-1.0, 1.0)] * (N * m)) is not None


def sample_coeffs(Z, count, seed=DEFAULT_SEED):
    """Feasible coefficient vectors: uniform for plain zonotopes,
    convex combinations of LP-found coefficient-polytope vertices when
    equality constraints are present.
    """
    Z = as_conzono(Z)
    rng = np.random.default_rng(seed)
    count = int(count)
    if Z.n_g == 0:
        if _empty_point(Z):
            raise EmptySetError("cannot sample an empty set")
        return np.zeros((count, 0))
    if Z.n_c == 0:
        return rng.uniform(-1.0, 1.0, (count, Z.n_g))
    basis = _maximizers(
        Z.A, Z.b, rng.standard_normal((min(max(2 * Z.n_g, 8), 48), Z.n_g)))
    weights = rng.dirichlet(np.ones(len(basis)), size=count)
    return weights @ basis


def sample_inside(Z, count, seed=DEFAULT_SEED):
    """Points guaranteed inside the set (see sample_coeffs)."""
    Z = as_conzono(Z)
    return Z.c + sample_coeffs(Z, count, seed) @ Z.G.T
