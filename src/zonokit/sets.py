"""Set representations and the closed-form elementary operations.

A zonotope is the affine image of a unit hypercube,

    Z = { G xi + c : ||xi||_inf <= 1 },

and a constrained zonotope additionally restricts the coefficients to an
affine subspace A xi = b, which is enough to represent any convex
polytope.  All values are immutable: every operation returns a new set
and the backing arrays are write-protected.
"""

import numpy as np

from .numerics import LinearProgram, _optimum


class EmptySetError(ValueError):
    """An operation received (or would have to return) an empty set where
    a nonempty one is required."""


def _vector(x, name):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _matrix(M, name, rows=None):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1) if rows == 1 else M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if M.size and not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    return M


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


class ConstrainedZonotope:
    """Constrained zonotope {G xi + c : ||xi||_inf <= 1, A xi = b}.

    Attributes
    ----------
    c : (n,) center
    G : (n, n_g) generator matrix, one generator per column
    A : (n_c, n_g) coefficient constraint matrix
    b : (n_c,) constraint offsets
    """

    def __init__(self, c, G, A=None, b=None):
        c = _vector(c, "c")
        G = _matrix(G, "G", rows=c.size)
        if c.size < 1:
            raise ValueError("dimension must be at least 1")
        if G.shape[0] != c.size:
            raise ValueError(f"G has {G.shape[0]} rows but c has length {c.size}")
        if A is None:
            A = np.zeros((0, G.shape[1]))
        A = _matrix(A, "A", rows=None)
        b = np.zeros(0) if b is None else _vector(b, "b")
        if A.shape[1] != G.shape[1]:
            raise ValueError(f"A has {A.shape[1]} columns but G has {G.shape[1]}")
        if A.shape[0] != b.size:
            raise ValueError(f"A has {A.shape[0]} rows but b has length {b.size}")
        self.c = c.copy()
        self.G = G.copy()
        self.A = A.copy()
        self.b = b.copy()
        _freeze(self.c, self.G, self.A, self.b)

    @property
    def n(self):
        """Ambient dimension."""
        return self.c.size

    @property
    def n_g(self):
        """Number of generators."""
        return self.G.shape[1]

    @property
    def n_c(self):
        """Number of coefficient constraints."""
        return self.A.shape[0]

    @property
    def order(self):
        return self.n_g / self.n

    @property
    def dof_order(self):
        """Degrees-of-freedom order (n_g - n_c) / n."""
        return (self.n_g - self.n_c) / self.n

    def parent_zonotope(self):
        """The zonotope obtained by dropping the coefficient constraints
        (always an outer approximation)."""
        return Zonotope(self.c, self.G)

    def __add__(self, other):
        if isinstance(other, ConstrainedZonotope):
            return minkowski_sum(self, other)
        return translate(self, other)

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n}, n_g={self.n_g}, "
                f"n_c={self.n_c})")


class Zonotope(ConstrainedZonotope):
    """Zonotope {G xi + c : ||xi||_inf <= 1} (no coefficient constraints)."""

    def __init__(self, c, G):
        super().__init__(c, G)

    @classmethod
    def singleton(cls, c):
        c = _vector(c, "c")
        return cls(c, np.zeros((c.size, 0)))

    @classmethod
    def box(cls, lo, hi):
        """Axis-aligned box [lo, hi] as a zonotope."""
        lo = _vector(lo, "lo")
        hi = _vector(hi, "hi")
        if lo.size != hi.size or (hi < lo).any():
            raise ValueError("box bounds must satisfy lo <= hi elementwise")
        return cls((lo + hi) / 2.0, np.diag((hi - lo) / 2.0))

    def interval_hull(self):
        """Per-coordinate bounds (lo, hi) of the zonotope."""
        r = np.abs(self.G).sum(axis=1)
        return self.c - r, self.c + r


class Halfspace:
    """Halfspace {x : h @ x <= f}; its boundary hyperplane is h @ x = f."""

    def __init__(self, h, f):
        self.h = _vector(h, "h")
        if not self.h.any():
            raise ValueError("halfspace normal must be nonzero")
        self.f = float(f)
        if not np.isfinite(self.f):
            raise ValueError("halfspace offset f must be finite")
        _freeze(self.h)

    def __repr__(self):
        return f"Halfspace(h={self.h.tolist()}, f={self.f})"


class HPolytope:
    """Polytope in halfspace representation {x : H @ x <= f}."""

    def __init__(self, H, f):
        self.H = _matrix(H, "H")
        self.f = _vector(f, "f")
        if self.H.shape[0] != self.f.size:
            raise ValueError("H rows and f length differ")
        if self.H.shape[0] and not np.abs(self.H).sum(axis=1).all():
            raise ValueError("H must not contain zero rows")
        _freeze(self.H, self.f)

    @property
    def n(self):
        return self.H.shape[1]

    @property
    def n_h(self):
        return self.H.shape[0]

    def halfspaces(self):
        return [Halfspace(self.H[i], self.f[i]) for i in range(self.n_h)]

    def __repr__(self):
        return f"HPolytope(n={self.n}, n_h={self.n_h})"


def _make(c, G, A, b):
    """Wrap raw arrays, degrading to Zonotope when no constraints remain."""
    if A.shape[0] == 0:
        return Zonotope(c, G)
    return ConstrainedZonotope(c, G, A, b)


def _plain_zonotope(Z, name):
    """Z as a Zonotope; a constrained zonotope with constraints is rejected."""
    if isinstance(Z, Zonotope):
        return Z
    if isinstance(Z, ConstrainedZonotope) and Z.n_c == 0:
        return Zonotope(Z.c, Z.G)
    raise ValueError(f"{name} must be an unconstrained zonotope")


def as_conzono(obj):
    """Coerce a set-like object (or a point) to a ConstrainedZonotope."""
    if isinstance(obj, ConstrainedZonotope):
        return obj
    v = _vector(obj, "point")
    return Zonotope.singleton(v)


def translate(Z, t):
    """Shift a set by a vector: Z + t."""
    t = _vector(t, "t")
    if t.size != Z.n:
        raise ValueError("translation vector dimension mismatch")
    return _make(Z.c + t, Z.G, Z.A, Z.b)


def linear_map(R, Z):
    """Image of Z under the linear map R: {R x : x in Z}.

    The generators and center are mapped; coefficient constraints are
    untouched.
    """
    R = _matrix(R, "R")
    if R.shape[1] != Z.n:
        raise ValueError(f"R has {R.shape[1]} columns but Z lives in R^{Z.n}")
    return _make(R @ Z.c, R @ Z.G, Z.A, Z.b)


def minkowski_sum(Z, W):
    """Minkowski sum Z + W: generators concatenate, constraints stack
    block-diagonally, centers add."""
    if Z.n != W.n:
        raise ValueError("operands must share a dimension")
    G = np.hstack([Z.G, W.G])
    A = np.zeros((Z.n_c + W.n_c, Z.n_g + W.n_g))
    A[:Z.n_c, :Z.n_g] = Z.A
    A[Z.n_c:, Z.n_g:] = W.A
    b = np.concatenate([Z.b, W.b])
    return _make(Z.c + W.c, G, A, b)


def generalized_intersection(Z, Y, R=None):
    """Generalized intersection {z in Z : R z in Y}.

    With R = I this is the ordinary intersection.  The result keeps Z's
    generators (padded by zero columns for Y's coefficients) and gains
    the coupling constraints R G_z xi_z - G_y xi_y = c_y - R c_z.
    """
    if R is None:
        if Z.n != Y.n:
            raise ValueError("operands must share a dimension when R is omitted")
        R = np.eye(Z.n)
    R = _matrix(R, "R")
    if R.shape[1] != Z.n or R.shape[0] != Y.n:
        raise ValueError("R must map from Z's space to Y's space")
    n_gz, n_gy = Z.n_g, Y.n_g
    n_cz, n_cy = Z.n_c, Y.n_c
    G = np.hstack([Z.G, np.zeros((Z.n, n_gy))])
    A = np.zeros((n_cz + n_cy + Y.n, n_gz + n_gy))
    A[:n_cz, :n_gz] = Z.A
    A[n_cz:n_cz + n_cy, n_gz:] = Y.A
    A[n_cz + n_cy:, :n_gz] = R @ Z.G
    A[n_cz + n_cy:, n_gz:] = -Y.G
    b = np.concatenate([Z.b, Y.b, Y.c - R @ Z.c])
    return ConstrainedZonotope(Z.c, G, A, b)


def support(Z, h):
    """Support function max_{x in Z} h @ x.

    One direction h of shape (n,) gives a float, a stack of shape
    (k, n) one value per row.  A plain zonotope is evaluated in closed
    form, h @ c + sum_i |h @ g_i|, with each row's products stacked so
    that a row rounds as a lone direction does; a constrained zonotope
    takes one coefficient LP per row.  Raises EmptySetError when Z is
    empty.
    """
    single = np.ndim(h) < 2
    H = _vector(h, "h")[None] if single else _matrix(h, "h")
    if H.shape[1] != Z.n:
        raise ValueError("direction dimension mismatch")
    if Z.n_c == 0:
        S = H[:, None, :]
        values = (S @ Z.c[:, None])[:, 0, 0] + np.abs(S @ Z.G)[:, 0, :].sum(axis=1)
    else:
        values = np.array([_lp_support(Z, row) for row in H])
    return float(values[0]) if single else values


def _lp_support(Z, h):
    """max h @ x over Z by one coefficient LP; EmptySetError when Z is empty."""
    objective = h @ Z.G
    xi = _coefficient_lp(Z, objective)
    if xi is None:
        raise EmptySetError("set is empty")
    return float(h @ Z.c) + float(objective @ xi)


def _coefficient_lp(Z, objective=None):
    """Maximize ``objective @ xi`` over Z's coefficients
    {A xi = b, ||xi||_inf <= 1} (feasibility only when None).

    Returns an optimal xi, or None when Z is empty.
    """
    return _optimum(LinearProgram(
        np.zeros(Z.n_g) if objective is None else objective,
        a_eq=Z.A, b_eq=Z.b, lo=-np.ones(Z.n_g), hi=np.ones(Z.n_g), maximize=True))


def contains_point(Z, x):
    """Membership x in Z, decided by LP feasibility of
    {G xi = x - c, A xi = b, ||xi||_inf <= 1}."""
    x = _vector(x, "x")
    if x.size != Z.n:
        raise ValueError("point dimension mismatch")
    W = ConstrainedZonotope(Z.c, Z.G, np.vstack([Z.G, Z.A]),
                            np.concatenate([x - Z.c, Z.b]))
    return _coefficient_lp(W) is not None


def is_empty(Z):
    """Emptiness of a constrained zonotope: LP feasibility of
    {A xi = b, ||xi||_inf <= 1}.  Zonotopes are never empty."""
    return Z.n_c != 0 and _coefficient_lp(Z) is None
