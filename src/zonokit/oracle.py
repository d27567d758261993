"""Brute-force geometric ground truth at desk scale.

Everything here recomputes set predicates from the raw (c, G, A, b)
data using scipy's linprog and Qhull directly -- deliberately not the
library's own LP wrapper or closed-form shortcuts -- so the fast paths
can be checked against an independently coded route.  Budgets are
sized for n <= 4 and a few dozen generators: this module is test
tooling, kept out of the supported API surface.

Sweeps are batched, since most of a small linprog call is scipy's
overhead (about 2 ms; the HiGHS solve itself is small): LP_BLOCKS
directions or points go to one block-diagonal support
(:func:`_support_points`) or distance (:func:`_sup_distances`) LP.
The blocks are assembled sparse (:func:`_block_diagonal`), so a
program's memory is linear in its block count.
"""

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
# benchmark's peak RSS (seed 0) is 85.6 MiB at 16 blocks, 87.2 at 64,
# 94.2 at 256 and 111.4 at 720 (a whole 2-D sweep in one program),
# while 64 already cuts its linprog calls from 414 to 189.  The
# batching tests need a sweep of 100 points to span two programs.
LP_BLOCKS = 64

_DEDUPE_DECIMALS = 9


def directions(n, seed=DEFAULT_SEED):
    """Dense unit-direction sweep used by every oracle routine.

    n = 2 walks 720 angles, n = 3 uses a 4x-subdivided icosahedron
    (2562 directions), higher dimensions fall back to seeded Gaussian
    samples -- enough to resolve every face of the desk-scale examples.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        return _icosphere(4)
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((4096, n))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _icosphere(subdivisions):
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
    return np.array(verts)


def _raw(Z):
    Z = as_conzono(Z)
    return Z, Z.c, Z.G, Z.A, Z.b


def _support_points(Z, D):
    """Support values and maximizing points for every row of D."""
    Z, c, G, A, b = _raw(Z)
    D = np.atleast_2d(np.asarray(D, dtype=float))
    dc = _rowwise(c[None], D)[:, 0]
    if Z.n_g == 0:
        if Z.n_c and np.max(np.abs(b)) > MEMBERSHIP_TOL:
            raise EmptySetError("empty set has no support")
        return dc, np.tile(c, (len(D), 1))
    Q = _rowwise(G.T, D)
    if Z.n_c == 0:
        signs = np.sign(Q)
        signs[signs == 0] = 1.0
        return dc + np.abs(Q).sum(axis=1), c + _rowwise(G, signs)
    X = _maximizers(A, b, Q)
    return dc + np.sum(Q * X, axis=1), c + _rowwise(G, X)


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
        res = linprog(-q.ravel(), A_eq=_block_diagonal(A, len(q), q.size),
                      b_eq=np.tile(b, len(q)),
                      bounds=(-1.0, 1.0), method="highs",
                      options={"primal_feasibility_tolerance": PRIMAL_TOL})
        if res.status == 2:
            raise EmptySetError("empty set has no support")
        if res.status != 0:
            raise RuntimeError(f"support LP failed: {res.message}")
        X[start:start + len(q)] = res.x.reshape(q.shape)
    return X


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
    Z, c, G, A, b = _raw(Z)
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if Z.n_g == 0:
        if Z.n_c and np.max(np.abs(b)) > MEMBERSHIP_TOL:
            return np.full(len(P), np.inf)
        return np.max(np.abs(P - c), axis=1, initial=0.0)
    n_g, n = Z.n_g, Z.n
    out = np.empty(len(P))
    for start in range(0, len(P), LP_BLOCKS):
        gaps = P[start:start + LP_BLOCKS] - c
        m = len(gaps)
        width = m * (n_g + 1)
        xi = _block_diagonal(G, m, width)
        # -t_j in every row of block j
        minus_t = csr_array((np.full(m * n, -1.0),
                             np.repeat(np.arange(m * n_g, width), n),
                             np.arange(m * n + 1)), shape=(m * n, width))
        A_ub = vstack([xi + minus_t, -xi + minus_t], format="csr")
        b_ub = np.concatenate([gaps.ravel(), -gaps.ravel()])
        A_eq = b_eq = None
        if Z.n_c:
            A_eq = _block_diagonal(A, m, width)
            b_eq = np.tile(b, m)
        cost = np.concatenate([np.zeros(m * n_g), np.ones(m)])
        bounds = [(-1.0, 1.0)] * (m * n_g) + [(0.0, None)] * m
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs",
                      options={"primal_feasibility_tolerance": PRIMAL_TOL})
        if res.status == 2:
            return np.full(len(P), np.inf)
        if res.status != 0:
            raise RuntimeError(f"membership LP failed: {res.message}")
        out[start:start + m] = res.x[m * n_g:]
    return out


def _empty_lp(Z):
    try:
        _support_points(Z, np.zeros((1, as_conzono(Z).n)))  # a feasibility LP
    except EmptySetError:
        return True
    return False


def _dedupe(points):
    rounded = np.round(points, _DEDUPE_DECIMALS)
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return points[np.sort(keep)]


def enumerate_vertices(Z, max_generators=GENERATOR_BUDGET):
    """Vertices of a set with n <= 3, by direction-sweep LPs.

    Returns an array of vertex rows; 2-D output is ordered
    counterclockwise starting from the lexicographically smallest
    vertex, 3-D output is unordered.  Degenerate (flat) sets come back
    as the vertices of the lower-dimensional hull.
    """
    Z = as_conzono(Z)
    if Z.n > 3:
        raise ValueError("vertex enumeration supports n <= 3 only")
    if Z.n_g > max_generators:
        raise ValueError(
            f"generator budget exceeded ({Z.n_g} > {max_generators})")
    pts = _dedupe(_support_points(Z, directions(Z.n))[1])  # EmptySetError propagates
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
    """Bulk point classifier: a support-sweep outer polytope rejects,
    the hull of the support points accepts, LPs resolve the thin band
    in between.

    Rejection runs in two stages: the first COARSE_ROWS sweep rows (the
    coarse icosphere levels in 3-D, random directions in 4-D, so spread
    over the sphere) reject most outside points, and only the points
    they keep meet the other rows and then the inner hull.
    """

    COARSE_ROWS = 64

    def __init__(self, Z, tol=MEMBERSHIP_TOL):
        self.Z = as_conzono(Z)
        self.tol = tol
        self.D = directions(self.Z.n)
        self.f, pts = _support_points(self.Z, self.D)
        try:
            hull = ConvexHull(_dedupe(pts))
            self.inner = hull.equations
        except (QhullError, ValueError):
            self.inner = None  # flat set: fall through to LPs

    def _below(self, points, H, f):
        """Whether max_i (H_i . p - f_i) <= tol for every row p of points."""
        out = np.empty(len(points), dtype=bool)
        for start in range(0, len(points), 4096):
            chunk = points[start:start + 4096]
            out[start:start + 4096] = np.max(
                chunk @ H.T - f, axis=1, initial=-np.inf) <= self.tol
        return out

    def classify(self, points):
        points = np.asarray(points, dtype=float)
        k = self.COARSE_ROWS
        keep = np.flatnonzero(self._below(points, self.D[:k], self.f[:k]))
        keep = keep[self._below(points[keep], self.D[k:], self.f[k:])]
        result = np.zeros(len(points), dtype=bool)
        band = keep
        if self.inner is not None:
            inside = self._below(points[keep], self.inner[:, :-1],
                                 -self.inner[:, -1])
            result[keep[inside]] = True
            band = keep[~inside]
        result[band] = _sup_distances(self.Z, points[band]) <= self.tol
        return result


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
    if _empty_lp(Z):
        return 0.0, 0.0
    if n == 1:
        return float(_support_points(Z, [[1.0], [-1.0]])[0].sum()), 0.0
    if n == 2:
        verts = enumerate_vertices(Z)
        return polygon_area(verts), 0.0
    lo, hi = Z.parent_zonotope().interval_hull()
    widths = hi - lo
    box_volume = float(np.prod(widths))
    if box_volume <= 0.0:
        return 0.0, 0.0
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be positive")
    probe = _SetProbe(Z)
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(remaining, 65536)
        pts = lo + rng.random((m, n)) * widths
        hits += int(probe.classify(pts).sum())
        remaining -= m
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


def sets_equal(X, Y, grid=15, tol=SUPPORT_TOL):
    """Set equality by support sweep plus bidirectional grid membership.

    A support mismatch beyond tol anywhere on the direction sweep, or
    a grid point inside one set but outside the tol-inflated other,
    decides inequality.  n <= 3.
    """
    X, Y = as_conzono(X), as_conzono(Y)
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    if X.n > 3:
        raise ValueError("equality oracle supports n <= 3 only")
    empty_x, empty_y = _empty_lp(X), _empty_lp(Y)
    if empty_x or empty_y:
        return empty_x and empty_y
    D = directions(X.n)
    if np.any(np.abs(_support_points(X, D)[0] - _support_points(Y, D)[0]) > tol):
        return False
    lo_x, hi_x = X.parent_zonotope().interval_hull()
    lo_y, hi_y = Y.parent_zonotope().interval_hull()
    lo = np.minimum(lo_x, lo_y)
    hi = np.maximum(hi_x, hi_y)
    points = _grid(lo, hi, int(grid))
    dist_x, dist_y = _sup_distances(X, points), _sup_distances(Y, points)
    in_x, in_y = dist_x <= MEMBERSHIP_TOL, dist_y <= MEMBERSHIP_TOL
    return not np.any((in_x & ~in_y & (dist_y > tol))
                      | (in_y & ~in_x & (dist_x > tol)))


def pontryagin_oracle(Z1, Z2, grid=41, tol=MEMBERSHIP_TOL):
    """Definitional difference check: grid points z with z + Z2 inside Z1.

    Returns (points, mask).  A point passes iff every vertex v of Z2
    satisfies z + v in Z1 -- sufficient because shifting a polytope
    keeps it the hull of its shifted vertices and Z1 is convex.  n <= 3.
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
    inside = _sup_distances(Z1, shifted) <= tol
    return points, inside.reshape(len(points), len(verts)).all(axis=1)


def horizon_feasible(sys, x0, x_star, N, tol=MEMBERSHIP_TOL):
    """One-shot LP over the whole control horizon: can x0 reach x_star?

    Stacks the input coefficients of all N steps into a single vector
    eta (one block per step, box bounds), writes every state as an
    affine function of eta, and asks HiGHS for feasibility of

        x(j) = A^j x0 + sum_i A^(j-1-i) B (c_u + G_u eta_i),
        H x(j) <= f  for j = 0..N-1,   x(N) = x_star.

    The terminal condition is an equality up to tol (two-sided rows),
    which keeps points produced by float recursions from being rejected
    on roundoff; HiGHS runs at PRIMAL_TOL, below tol, so tol is the
    tolerance enforced.  Independent of the backward recursion: it never calls
    the set operations whose output it is meant to judge.
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
    b_ub = np.concatenate([b_ub, gap + tol, -gap + tol])
    res = linprog(np.zeros(N * m), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(-1.0, 1.0)] * (N * m), method="highs",
                  options={"primal_feasibility_tolerance": PRIMAL_TOL})
    if res.status == 2:
        return False
    if res.status != 0:
        raise RuntimeError(f"horizon LP failed: {res.message}")
    return True


def sample_coeffs(Z, count, seed=DEFAULT_SEED):
    """Feasible coefficient vectors: uniform for plain zonotopes,
    convex combinations of LP-found coefficient-polytope vertices when
    equality constraints are present.
    """
    Z, c, G, A, b = _raw(Z)
    rng = np.random.default_rng(seed)
    count = int(count)
    if Z.n_g == 0:
        if Z.n_c and np.max(np.abs(b)) > MEMBERSHIP_TOL:
            raise EmptySetError("cannot sample an empty set")
        return np.zeros((count, 0))
    if Z.n_c == 0:
        return rng.uniform(-1.0, 1.0, (count, Z.n_g))
    basis = _maximizers(
        A, b, rng.standard_normal((min(max(2 * Z.n_g, 8), 48), Z.n_g)))
    weights = rng.dirichlet(np.ones(len(basis)), size=count)
    return weights @ basis


def sample_inside(Z, count, seed=DEFAULT_SEED):
    """Points guaranteed inside the set (see sample_coeffs)."""
    Z = as_conzono(Z)
    return Z.c + sample_coeffs(Z, count, seed) @ Z.G.T
