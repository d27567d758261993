"""Containment certificates and fixed-shape inner approximations.

Zonotope-in-zonotope and affine-polytope containment are certified by
small LPs whose feasible multipliers double as machine-checkable
proofs.  The same machinery, with the inner set's generator lengths
turned into decision variables, stretches a low-order template inside a
constrained zonotope to build reduced-order inner approximations.
"""

import numpy as np

from .halfspaces import interval_refine
from .reduction import _canonical, eliminate_pair
from .numerics import (
    INFEASIBLE,
    InfeasibleProgram,
    LpBuilder,
    NumericalError,
    lin_coeff,
    nullspace_basis,
    optimize_scaling,
    pinv_solve,
    row_abs_coeff,
    solve_lp,
)
from .sets import (
    EmptySetError,
    HPolytope,
    Zonotope,
    _make,
    _plain_zonotope,
    as_conzono,
    is_empty,
)

# A certificate is considered sound when its worst constraint violation
# is below this.
RESIDUAL_TOL = 1e-6

TEMPLATE_KINDS = ("drop_pair", "zonotope", "box")


def _vec(M):
    return np.asarray(M, dtype=float).reshape(-1, order="F")


def _scaled_columns(G, T):
    """Coefficient matrix C with C @ phi = vec(G diag(phi) T), column-major."""
    cols = T.T[:, None, :] * G[None, :, :]
    return cols.reshape(T.shape[1] * G.shape[0], G.shape[1])


def _coefficient_polytope(A, b):
    """Parametrize {xi : A xi = b, |xi| <= 1} as xi = s + T xi', H xi' <= f.

    s is the least-norm solution, T a null-space basis (A must have full
    row rank), H = [T; -T] and f = [1 - s; 1 + s]; ``live`` marks the
    nonzero rows of H.  Returns ``(s, T, H, f, live)``.
    """
    s = pinv_solve(A, b)
    T = nullspace_basis(A)
    H = np.vstack([T, -T])
    f = np.concatenate([1.0 - s, 1.0 + s])
    return s, T, H, f, np.abs(H).max(axis=1, initial=0.0) > 1e-12


class ContainmentCertificate:
    """Multipliers proving one set sits inside another.

    ``gamma`` rewrites the inner set's generators in terms of the
    outer's, ``beta`` absorbs the center offset, and ``lam`` (present
    only for affine-polytope pairs) maps facet rows.  Soundness is
    rechecked with :func:`zonotope_containment_residual` or
    :func:`ah_containment_residual`.
    """

    def __init__(self, gamma, beta, lam=None):
        self.gamma = np.asarray(gamma, dtype=float)
        self.beta = np.asarray(beta, dtype=float).reshape(-1)
        self.lam = None if lam is None else np.asarray(lam, dtype=float)

    def __repr__(self):
        parts = [f"gamma {self.gamma.shape}", f"beta {self.beta.size}"]
        if self.lam is not None:
            parts.append(f"lam {self.lam.shape}")
        return "ContainmentCertificate(" + ", ".join(parts) + ")"


class ScalingResult:
    """Outcome of :func:`inner_scale`: the per-generator scales, the
    re-chosen center, and the certificate proving the scaled template
    sits inside the target set."""

    def __init__(self, phi, center, certificate):
        self.phi = np.asarray(phi, dtype=float).reshape(-1)
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.certificate = certificate

    def __repr__(self):
        return f"ScalingResult(phi={np.array2string(self.phi, precision=4)})"


def _zonotope_certificate(b, G_y, blocks, center, rhs, phi_budget=False):
    """Load the certificate of {G_x, c_x} inside {G_y, c_y} into builder b.

    Sadraddini and Tedrake's encoding ("Linear encodings for polytope
    containment problems", CDC 2019): G_x = G_y Gamma, c_y - c_x =
    G_y beta and |Gamma| 1 + |beta| <= 1 row-wise, over the splits
    Gamma = P - N, beta = bp - bn.  ``blocks`` are G_x's column blocks
    (G_k, scaled); a scaled one is G_k diag(phi), phi being the builder's
    "phi" block.  The center row is G_y beta + center @ x = rhs.
    ``phi_budget`` scales the outer generators, so the budget is <= phi.
    Returns a reader of the certificate (gamma = [Gamma_1 Gamma_2 ...],
    beta) from a solution vector.
    """
    ngy = G_y.shape[1]
    splits = [(b.var(f"g{k}p", (ngy, G.shape[1]), lo=0.0),
               b.var(f"g{k}n", (ngy, G.shape[1]), lo=0.0))
              for k, (G, _) in enumerate(blocks)]
    b.var("bp", ngy, lo=0.0)
    b.var("bn", ngy, lo=0.0)
    eye = np.eye(ngy)
    budget = {"bp": eye, "bn": eye}
    if phi_budget:
        budget["phi"] = -eye
    for (p, n), (G, scaled) in zip(splits, blocks):
        match = lin_coeff((ngy, G.shape[1]), left=G_y)
        if scaled:
            b.eq({"phi": _scaled_columns(G, np.eye(G.shape[1])),
                  p: -match, n: match}, np.zeros(match.shape[0]))
        else:
            b.eq({p: match, n: -match}, _vec(G))
        budget[p] = budget[n] = row_abs_coeff((ngy, G.shape[1]))
    b.eq({"bp": G_y, "bn": -G_y, **center}, rhs)
    b.le(budget, np.full(ngy, 0.0 if phi_budget else 1.0))
    return lambda x: ContainmentCertificate(
        np.hstack([b.value(x, p) - b.value(x, n) for p, n in splits]),
        b.value(x, "bp") - b.value(x, "bn"))


def _ah_certificate(b, Y, X_x, Hx, fx, center, rhs, T=None):
    """Load the certificate of {x_c + X_x xi : Hx xi <= fx} inside the
    affine polytope Y into builder b.

    Sadraddini and Tedrake's affine-polytope encoding (CDC 2019): gamma,
    beta and lam >= 0 with Y.X gamma = X_x, Y.X beta = Y.xbar - x_c,
    lam Hx = H_y gamma and lam fx <= f_y + H_y beta.  With ``T`` the
    inner map is X_x diag(phi) T, phi being the builder's "phi" block.
    The center row is Y.X beta + center @ x = rhs.  Returns a reader of
    the certificate (gamma, beta, lam) from a solution vector.
    """
    mx, my = Hx.shape[1], Y.X.shape[1]
    Hy, fy = Y.P.H, Y.P.f
    nhx, nhy = Hx.shape[0], Hy.shape[0]
    b.var("gam", (my, mx))
    b.var("beta", my)
    b.var("lam", (nhy, nhx), lo=0.0)
    match = lin_coeff((my, mx), left=Y.X)
    if T is None:
        b.eq({"gam": match}, _vec(X_x))
    else:
        b.eq({"phi": _scaled_columns(X_x, T), "gam": -match},
             np.zeros(match.shape[0]))
    b.eq({"beta": Y.X, **center}, rhs)
    b.eq({"lam": lin_coeff((nhy, nhx), right=Hx),
          "gam": -lin_coeff((my, mx), left=Hy)},
         np.zeros(nhy * mx))
    b.le({"lam": lin_coeff((nhy, nhx), right=fx.reshape(-1, 1)),
          "beta": -Hy},
         fy)
    return lambda x: ContainmentCertificate(
        b.value(x, "gam"), b.value(x, "beta"), b.value(x, "lam"))


def _certify(b, read):
    """Solve a containment program: its certificate, or None if infeasible."""
    out = solve_lp(b.build())
    if out.status == INFEASIBLE:
        return None
    if not out.ok:
        raise NumericalError(f"containment LP failed: {out.status}")
    return read(out.x)


class AhPolytope:
    """Affine image of an H-polytope: {xbar + X @ xi : P.H @ xi <= P.f}."""

    def __init__(self, xbar, X, P):
        self.xbar = np.asarray(xbar, dtype=float).reshape(-1)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a matrix")
        if X.shape[0] != self.xbar.size:
            raise ValueError("X rows must match the length of xbar")
        if not isinstance(P, HPolytope):
            raise TypeError("P must be an HPolytope")
        if X.shape[1] != P.n:
            raise ValueError("X columns must match the dimension of P")
        self.X = X
        self.P = P

    @property
    def n(self):
        return self.xbar.size

    def point(self, xi):
        """Map a coefficient vector into the ambient space."""
        return self.xbar + self.X @ np.asarray(xi, dtype=float).reshape(-1)

    def __repr__(self):
        return f"AhPolytope(n={self.n}, coeff_dim={self.X.shape[1]}, facets={self.P.n_h})"


def zonotope_contains(X, Y):
    """LP certificate for X inside Y, both plain zonotopes.

    Searches for a matrix gamma and offset beta with
    G_x = G_y gamma, c_y - c_x = G_y beta and row-wise
    |gamma| 1 + |beta| <= 1: any feasible pair proves containment.
    Returns the certificate, or None when the LP is infeasible -- a
    sufficient condition only, so None is not a disproof (it is exact
    when Y is a parallelotope).  Solver breakdowns raise instead of
    masquerading as either verdict.
    """
    X = _plain_zonotope(X, "X")
    Y = _plain_zonotope(Y, "Y")
    if X.n != Y.n:
        raise ValueError("sets must share a dimension")

    b = LpBuilder()
    return _certify(
        b, _zonotope_certificate(b, Y.G, [(X.G, False)], {}, Y.c - X.c))


def zonotope_containment_residual(X, Y, cert):
    """Worst violation of the conditions behind :func:`zonotope_contains`.

    Below RESIDUAL_TOL the certificate is sound.
    """
    X = _plain_zonotope(X, "X")
    Y = _plain_zonotope(Y, "Y")
    r1 = np.abs(Y.G @ cert.gamma - X.G).max(initial=0.0)
    r2 = np.abs(Y.G @ cert.beta - (Y.c - X.c)).max(initial=0.0)
    r3 = (np.abs(cert.gamma).sum(axis=1) + np.abs(cert.beta) - 1.0).max(initial=0.0)
    return float(max(r1, r2, r3, 0.0))


def inner_reduce_zonotope(Z, n_r, return_map=False):
    """Reduce a zonotope to n_r generators from the inside.

    Generators are sorted by descending length.  Each trailing
    generator is folded into the retained generator it is most aligned
    with (largest |dot product|, ties to the lowest index), signed so
    the two add constructively.  Every row of the fold matrix T has a
    single +-1 entry, so any coefficient choice for the reduced set
    realizes admissible coefficients of Z -- the result is contained in
    Z by construction.

    With ``return_map`` the fold matrix and sort order come back too,
    as ``(Z_r, T, order)`` with ``Z_r.G == Z.G[:, order] @ T``.
    """
    Z = _plain_zonotope(Z, "Z")
    n_r = int(n_r)
    if not 1 <= n_r < Z.n_g:
        raise ValueError(f"n_r must be in [1, {Z.n_g - 1}], got {n_r}")

    order = np.argsort(-np.linalg.norm(Z.G, axis=0), kind="stable")
    Gs = Z.G[:, order]
    lead = Gs[:, :n_r]
    T = np.zeros((Z.n_g, n_r))
    T[:n_r, :n_r] = np.eye(n_r)
    for j in range(n_r, Z.n_g):
        d = lead.T @ Gs[:, j]
        i = int(np.argmax(np.abs(d)))
        T[j, i] = 1.0 if d[i] >= 0.0 else -1.0

    Zr = Zonotope(Z.c, Gs @ T)
    if return_map:
        return Zr, T, order
    return Zr


def conzono_to_ah(Z):
    """Rewrite a constrained zonotope as an affine image of an H-polytope.

    The coefficient hyperplane A xi = b is parametrized as
    xi = s + T xi' with s the least-norm particular solution and T a
    null-space basis; the box bounds |xi| <= 1 become the H-polytope
    [T; -T] xi' <= [1 - s; 1 + s] (rows where T vanishes are vacuous for
    a nonempty set and are dropped).

    A must have full row rank -- canonicalize with reduce_fully or
    reduction._canonical first -- and empty sets are rejected.
    """
    Z = as_conzono(Z)
    if is_empty(Z):
        raise EmptySetError("cannot convert an empty set")
    s, T, H, f, live = _coefficient_polytope(Z.A, Z.b)
    if (f[~live] < -1e-9).any():
        # A zero direction with a negative offset means some |xi_k| > 1
        # is forced, contradicting the emptiness check above.
        raise NumericalError("inconsistent vacuous facet; set borderline empty")
    return AhPolytope(Z.c + Z.G @ s, Z.G @ T, HPolytope(H[live], f[live]))


def ah_contains(X, Y):
    """LP certificate that affine-polytope X sits inside affine-polytope Y.

    Searches for gamma, beta and a nonnegative lam with

        Y.X gamma = X.X,          Y.X beta = Y.xbar - X.xbar,
        lam H_x = H_y gamma,      lam f_x <= f_y + H_y beta.

    Any feasible triple proves containment (map X's coefficients through
    gamma and shift by -beta; the facet multipliers transport Y's
    inequalities onto X's).  Returns the certificate or None; LP
    breakdowns raise.
    """
    if X.n != Y.n:
        raise ValueError("sets must share a dimension")

    b = LpBuilder()
    return _certify(
        b, _ah_certificate(b, Y, X.X, X.P.H, X.P.f, {}, Y.xbar - X.xbar))


def ah_containment_residual(X, Y, cert):
    """Worst violation of the conditions behind :func:`ah_contains`."""
    gam, beta, lam = cert.gamma, cert.beta, cert.lam
    Hx, fx = X.P.H, X.P.f
    Hy, fy = Y.P.H, Y.P.f
    r1 = np.abs(Y.X @ gam - X.X).max(initial=0.0)
    r2 = np.abs(Y.X @ beta - (Y.xbar - X.xbar)).max(initial=0.0)
    r3 = np.abs(lam @ Hx - Hy @ gam).max(initial=0.0)
    r4 = (lam @ fx - fy - Hy @ beta).max(initial=0.0)
    r5 = (-lam).max(initial=0.0)
    return float(max(r1, r2, r3, r4, r5, 0.0))


def inner_scale(Z_c, template, norm="inf", must_contain=None):
    """Stretch a fixed-shape template inside a constrained zonotope.

    Each template generator g_i is scaled by its own nonnegative phi_i
    and the template center is re-chosen freely; the scales maximize
    ||phi||_norm subject to the scaled template staying inside Z_c
    (enforced through the affine-polytope containment conditions, which
    stay linear because the scaling is diagonal).  norm=1 and the
    default norm="inf" are single LPs -- "inf" drives up the smallest
    scale, which is what keeps the fit full-dimensional -- while norm=2
    climbs repeated linearizations to a local optimum.

    Points in ``must_contain`` are constrained to lie in the scaled
    template (unconstrained templates only).  Returns the scaled set
    and a :class:`ScalingResult`; raises ValueError when no scaling
    fits, which can only happen when must_contain points are outside
    Z_c (phi = 0 with a free center is otherwise always feasible).
    """
    target = as_conzono(Z_c)
    outer = conzono_to_ah(target)  # also rejects an empty target
    t = as_conzono(template)
    if t.n != target.n:
        raise ValueError("template dimension differs from the target set")
    ngr = t.n_g
    if ngr == 0:
        raise ValueError("template needs at least one generator")

    s_r, T_r, Hx, fx, live = _coefficient_polytope(t.A, t.b)
    if t.n_c and np.abs(t.A @ s_r - t.b).max(initial=0.0) > 1e-9 * max(
            1.0, np.abs(t.b).max(initial=0.0)):
        raise ValueError("template constraints are inconsistent")
    n = target.n

    # The scaled template is {center + G diag(phi) (s_r + T_r xi') :
    # Hx xi' <= fx}; its facets do not move with phi.
    b = LpBuilder()
    b.var("phi", ngr, lo=0.0)
    b.var("center", n)
    read = _ah_certificate(b, outer, t.G, Hx[live], fx[live],
                           {"center": np.eye(n), "phi": t.G * s_r},
                           outer.xbar, T=T_r)

    pts = [np.asarray(p, dtype=float).reshape(-1) for p in (must_contain or [])]
    if pts and t.n_c:
        raise ValueError("must_contain requires an unconstrained template")
    eye_g = np.eye(ngr)
    for k, p in enumerate(pts):
        if p.size != n:
            raise ValueError(f"must_contain point {k} has wrong dimension")
        # p = center + G eta with |eta_i| <= phi_i.
        name = f"_pt{k}"
        b.var(name, ngr)
        b.eq({name: t.G, "center": np.eye(n)}, p)
        b.le({name: eye_g, "phi": -eye_g}, np.zeros(ngr))
        b.le({name: -eye_g, "phi": -eye_g}, np.zeros(ngr))

    try:
        x = optimize_scaling(b, "phi", norm, maximize=True)
    except InfeasibleProgram:
        raise ValueError(
            "no scaling of the template fits inside the target set "
            "(are the must_contain points inside it?)") from None

    phi = np.maximum(b.value(x, "phi"), 0.0)
    center = b.value(x, "center")
    scaled = _make(center, t.G * phi, t.A, t.b)
    return scaled, ScalingResult(phi, center, read(x))


def make_template(Z_c, kind):
    """Build a lower-order template for :func:`inner_scale`.

    "drop_pair" removes one constraint/generator pair: the constraints
    are canonicalized by full-pivot elimination, per-coefficient ranges
    are estimated by interval refinement, and the generator whose range
    estimate is tightest (smallest max(|lo|, |hi|)) is eliminated
    against the constraint holding the largest pivot in its column --
    the pair whose removal should lose the least.  Unlike redundancy
    removal, the transformation is applied whether or not it is
    lossless.

    "zonotope" drops all constraints via the null-space change of
    variables; "box" is an axis-aligned unit template at an interior
    point.  Scales are not chosen here -- inner_scale decides them.
    """
    work = _canonical(as_conzono(Z_c))
    if work is None:
        raise EmptySetError("constraints are inconsistent; the set is empty")

    if kind in ("box", "zonotope"):
        s, T, *_ = _coefficient_polytope(work.A, work.b)
        G = np.eye(work.n) if kind == "box" else work.G @ T
        return Zonotope(work.c + work.G @ s, G)
    if kind != "drop_pair":
        raise ValueError(f"unknown template kind {kind!r}; choose from {TEMPLATE_KINDS}")

    if work.n_c == 0:
        raise ValueError("drop_pair needs at least one (non-vacuous) constraint")
    _, ranges = interval_refine(work)
    scores = np.maximum(np.abs(ranges.lo), np.abs(ranges.hi))
    col = int(np.argmin(scores))
    if not np.isfinite(scores[col]):
        raise ValueError("no generator participates in any constraint")
    row = int(np.argmax(np.abs(work.A[:, col])))
    return eliminate_pair(work, row, col)
