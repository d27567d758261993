"""Robust positively invariant (RPI) outer approximations.

For stable x+ = A x + w with zonotopic disturbance bound W, the minimal
RPI set is the limit of the disturbance-reach sums ⊕ A^i W, which has
no finite representation in general.  Two computable stand-ins are
provided: the classic iterative scaling F = (1-alpha)^{-1} F_s whose
error against the true minimal set is user-bounded, and a one-LP
construction that picks per-generator scales on the reach template so
that invariance holds by a containment certificate.
"""

import itertools
import math

import numpy as np

from .containment import ScalingResult, _zonotope_certificate
from .numerics import (
    InfeasibleProgram,
    LpBuilder,
    NumericalError,
    optimize_scaling,
)
from .sets import (
    HPolytope,
    Zonotope,
    _plain_zonotope,
    contains_point,
    linear_map,
    support,
)

# Stability margin: spectral radius must clear 1 by at least this.
STABILITY_TOL = 1e-9

# Cap on the (n-1)-subsets of W's generators that facet enumeration
# visits; each gives two rows of the support-ratio test.
FACET_BUDGET = 10_000


class AutonomousSystem:
    """Autonomous linear dynamics x+ = A x + w, w in W.

    A must be strictly stable (spectral radius below 1 - 1e-9) and W, a
    zonotope, must contain the origin.  :func:`mrpi_iterative` also
    needs W's facets, which exist when W is full-dimensional or its
    generators are axis-aligned (see :func:`_w_hrep`).
    """

    def __init__(self, A, W):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.W = _plain_zonotope(W, "W")
        n = self.W.n
        if self.A.shape != (n, n):
            raise ValueError(f"A must be {n} x {n} to match W")
        if not np.isfinite(self.A).all():
            raise ValueError("A must be finite")
        rho = float(np.abs(np.linalg.eigvals(self.A)).max(initial=0.0))
        if rho >= 1.0 - STABILITY_TOL:
            raise ValueError(f"A must be strictly stable; spectral radius {rho:.6g}")
        if not contains_point(self.W, np.zeros(n)):
            raise ValueError("W must contain the origin")
        self.spectral_radius = rho

    @property
    def n(self):
        return self.W.n

    def __repr__(self):
        return f"AutonomousSystem(n={self.n}, rho={self.spectral_radius:.4f})"


def f_s(sys, s):
    """Accumulated disturbance reach over s+1 steps: ⊕_{i=0}^{s} A^i W.

    The generator matrix is exactly [G_w, A G_w, ..., A^s G_w] (so
    f_s(sys, s+1) extends f_s(sys, s) in representation, not just as a
    set) and the center is the matching power sum.
    """
    s = int(s)
    if s < 0:
        raise ValueError("s must be nonnegative")
    W, A = sys.W, sys.A
    blocks = []
    center = np.zeros(sys.n)
    P = np.eye(sys.n)
    for _ in range(s + 1):
        blocks.append(P @ W.G)
        center += P @ W.c
        P = A @ P
    return Zonotope(center, np.hstack(blocks))


def _w_hrep(W):
    """H-Rep of the zonotope W for the support-ratio test.

    Axis-aligned generators make W the box c +- sum|G|, flat or not.
    Otherwise W must be full-dimensional, and every facet is spanned by
    n-1 of its generators, so each (n-1)-subset of the nonzero
    generators gives a candidate normal: its cofactor vector, entry k
    being (-1)^k det of the subset with row k deleted (Althoff,
    Stursberg and Buss, Nonlinear Analysis: Hybrid Systems, 2010).
    Each generator is first scaled by a power of two to largest entry
    in [1/2, 1); that is exact, keeps every normal's direction, and
    makes the 1e-12 cutoff on a normal's length measure how close its
    subset comes to dependence, whatever W's size.  Normals under the
    cutoff are dropped (ValueError if none is left); both signs of the
    others are kept, unit length, with offsets h @ c + sum_i |h @ g_i|.
    Repeated rows are harmless to the max the ratio takes.  More than
    ``FACET_BUDGET`` subsets raise ValueError, in 2-D and 3-D too: a
    2-D W with over 10,000 generators or a 3-D W with over 142 is
    rejected.
    """
    if (np.count_nonzero(W.G, axis=0) <= 1).all():
        lo, hi = W.interval_hull()
        eye = np.eye(W.n)
        return HPolytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))
    n = W.n
    if np.linalg.matrix_rank(W.G) < n:
        raise ValueError("W must be full-dimensional unless its generators "
                         "are axis-aligned")
    G = W.G[:, W.G.any(axis=0)]
    n_g = G.shape[1]
    if math.comb(n_g, n - 1) > FACET_BUDGET:
        raise ValueError(f"facet enumeration of W visits C({n_g}, {n - 1}) "
                         f"generator subsets, over FACET_BUDGET = {FACET_BUDGET}")
    G = np.ldexp(G, -np.frexp(np.abs(G).max(axis=0))[1])
    subsets = G[:, list(itertools.combinations(range(n_g), n - 1))]
    S = subsets.transpose(1, 0, 2)
    H = np.stack([(-1) ** k * _det(np.delete(S, k, axis=1))
                  for k in range(n)], axis=1)
    norms = np.array([np.linalg.norm(h) for h in H])
    keep = norms > 1e-12
    if not keep.any():
        raise ValueError("every n-1 of W's generators are nearly dependent; "
                         "no facet normal is reliable")
    H = H[keep] / norms[keep, None]
    H = np.vstack([H, -H])
    return HPolytope(H, H @ W.c + np.abs(H @ W.G).sum(axis=1))


def _det(M):
    """Determinants of stacked square matrices, in closed form up to
    2 x 2: np.linalg.det reads its LU factors through exp(log|x|), which
    rounds even a 1 x 1 determinant."""
    if M.shape[-1] == 1:
        return M[:, 0, 0]
    if M.shape[-1] == 2:
        return M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    return np.linalg.det(M)


def _support_ratio(Z, P):
    """Smallest alpha with Z inside alpha * {x : P.H x <= P.f} (P convex,
    containing the origin); inf when some row makes it impossible.

    The support of Z on every row at once, each row's products stacked
    so that they round as :func:`support`'s lone h @ c and h @ G do."""
    H = P.H[:, None, :]
    reach = (H @ Z.c[:, None])[:, 0, 0] + np.abs(H @ Z.G)[:, 0, :].sum(axis=1)
    slack = P.f > 1e-12
    if np.any(reach[~slack] > 1e-12):
        return np.inf
    return float(np.max(reach[slack] / P.f[slack], initial=0.0))


def mrpi_iterative(sys, eps, s_max=10000):
    """Outer approximation of the minimal RPI set to inf-norm error eps.

    Grows the number of Minkowski terms s of F_s = ⊕_{i=0}^{s-1} A^i W
    until alpha / (1 - alpha) * M(s) <= eps, where alpha is the support
    ratio certifying A^s W ⊆ alpha W (evaluated algebraically on W's
    facet rows from :func:`_w_hrep`, in any dimension) and M(s) bounds
    F_s by a box: the max over the 2n coordinate directions of the
    partial support sums.  Returns (F, alpha, s) with
    F = (1 - alpha)^{-1} F_s, which is RPI and within eps of the true
    minimal RPI set.  A W that is flat but not an axis-aligned box has
    no facet H-Rep and raises ValueError.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    W, A = sys.W, sys.A
    Wh = _w_hrep(W)
    n = sys.n

    eye = np.eye(n)
    dir_sums = np.zeros(2 * n)   # running Σ_i support(W, +-(A^T)^i e_j)
    D = eye.copy()               # columns are (A^T)^i e_j
    As = eye.copy()              # A^s
    for s in range(1, s_max + 1):
        for j in range(n):
            dir_sums[j] += support(W, D[:, j])
            dir_sums[n + j] += support(W, -D[:, j])
        D = A.T @ D
        As = A @ As
        alpha = _support_ratio(linear_map(As, W), Wh)
        if alpha < 1.0 and alpha / (1.0 - alpha) * dir_sums.max() <= eps:
            F = f_s(sys, s - 1)
            scale = 1.0 / (1.0 - alpha)
            return Zonotope(scale * F.c, scale * F.G), float(alpha), s
    raise NumericalError(
        f"no s <= {s_max} met the error bound {eps}; is the spectral "
        f"radius ({sys.spectral_radius:.4f}) too close to 1?")


def rpi_onestep(sys, s, norm="inf"):
    """RPI set from one LP on the disturbance-reach template.

    The template generators are those of f_s(sys, s); the LP finds
    nonnegative per-generator scales phi (minimizing ||phi||_norm) and
    a center c such that the scaled template Z = {G diag(phi), c}
    absorbs one dynamics step: A Z ⊕ W ⊆ Z, enforced through
    generator-matching multipliers

        A G Phi = G Gamma1,   G_w = G Gamma2,
        (I - A) c - c_w = G beta,
        |Gamma1| 1 + |Gamma2| 1 + |beta| <= Phi 1   (row-wise),

    which is an exact transcription of the zonotope containment
    certificate scaled by the template rows.  Mathematical unknowns:
    n_g^2 + n_g (n_w + 2) + n.

    Returns (Z, ScalingResult); the result's certificate stores the raw
    multipliers (gamma = [Gamma1, Gamma2], beta), whose containment
    budgets are relative to phi rather than 1.  Raises ValueError when
    no scaling on this template supports invariance (s too small), and
    for ``norm="2"``: minimizing the 2-norm is a QP, so only norms
    "inf" and 1 are accepted.
    """
    W, A = sys.W, sys.A
    n = sys.n
    G = f_s(sys, s).G

    # Inner set A Z + W = {[A G diag(phi), G_w], A c + c_w} inside
    # Z = {G diag(phi), c}: c - (A c + c_w) = G beta.
    b = LpBuilder()
    b.var("phi", G.shape[1], lo=0.0)
    b.var("c", n)
    read = _zonotope_certificate(b, G, [(A @ G, True), (W.G, False)],
                                 {"c": A - np.eye(n)}, -W.c, phi_budget=True)

    try:
        x = optimize_scaling(b, "phi", norm, maximize=False)
    except InfeasibleProgram:
        raise ValueError(
            f"no invariant scaling exists on the s={s} template; "
            "increase s") from None

    phi = np.maximum(b.value(x, "phi"), 0.0)
    c = b.value(x, "c")
    return Zonotope(c, G * phi), ScalingResult(phi, c, read(x))


def onestep_decision_vars(n_g, n_w, n):
    """Mathematical unknown count of the rpi_onestep program."""
    return n_g * n_g + n_g * (n_w + 2) + n


def lqr_closed_loop(A, B, Q, R, W, tol=1e-12, max_iter=200000):
    """Discrete LQR closed loop A + B K, packaged as an AutonomousSystem.

    Iterates the Riccati recursion to a fixed point (max-norm change
    below ``tol``), takes K = -(R + B'PB)^{-1} B'PA, and pairs the
    closed-loop matrix with the disturbance set W.  Non-stabilizable
    pairs never converge and are reported as NumericalError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if B.shape[0] != n:
        B = B.reshape(n, -1)
    m = B.shape[1]
    if Q.shape != (n, n) or R.shape != (m, m):
        raise ValueError("Q must be n x n and R must be m x m")

    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        with np.errstate(over="ignore", invalid="ignore"):
            K = -np.linalg.solve(R + BtP @ B, BtP @ A)
            Pn = Q + A.T @ P @ (A + B @ K)
        if not np.isfinite(Pn).all():
            raise NumericalError(
                "Riccati recursion diverged; (A, B) may not be stabilizable")
        if np.abs(Pn - P).max(initial=0.0) <= tol * max(1.0, np.abs(Pn).max()):
            P = Pn
            break
        P = Pn
    else:
        raise NumericalError(
            "Riccati recursion did not converge; (A, B) may not be stabilizable")

    BtP = B.T @ P
    K = -np.linalg.solve(R + BtP @ B, BtP @ A)
    return AutonomousSystem(A + B @ K, W)
