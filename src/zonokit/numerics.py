"""LP abstraction and linear-algebra utilities.

Every optimization-backed operation in the package funnels through
:func:`solve_lp`, so the solver backend (scipy's HiGHS) is swappable in
exactly one place, and so is what an outcome means: a breakdown raises
:class:`NumericalError` there, and the library reads an infeasible
program as ``None``.  A :class:`LinearProgram` holds its constraint
matrices as given, dense or CSR; :class:`LpBuilder` assembles CSR from
its blocks' nonzeros, so a built program has no dense copy.  Programs
with at least ``SPARSE_ENTRIES`` constraint entries reach HiGHS as CSR;
smaller ones go dense, which costs scipy less per call.  The module
also provides Gauss-Jordan elimination with full pivoting, the dense
kernel that canonicalizes constraints.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class NumericalError(RuntimeError):
    """The LP backend failed; the result would be untrustworthy.

    Raised by :func:`solve_lp`, and for library programs that come back
    unbounded, instead of silently returning a wrong answer.  Distinct
    from an LP being infeasible, which is a legitimate outcome.
    """


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Feasibility tolerance used when sanity-checking solver output.
LP_TOL = 1e-6

# The one reading of a feasible offset, HiGHS's in every library LP (its
# primal_feasibility_tolerance): a row a @ x <= f holds when
# a @ x <= f + FEAS_TOL.  Screens, refinement and pair search read the
# same slack, so their verdicts agree with the LPs'.
FEAS_TOL = 1e-9

# Constraint entries (rows of A_ub and A_eq times variables) from which
# solve_lp hands HiGHS CSR arrays instead of dense ones.
SPARSE_ENTRIES = 2 ** 16


class LinearProgram:
    """minimize (or maximize) objective @ x subject to

        A_ub @ x <= b_ub,    A_eq @ x == b_eq,    lo <= x <= hi

    with lo/hi allowing +-inf entries.  ``A_ub`` and ``A_eq`` are kept as
    given, dense arrays or scipy sparse matrices (stored as CSR).
    """

    def __init__(self, objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 lo=None, hi=None, maximize=False):
        self.objective = np.asarray(objective, dtype=float).reshape(-1)
        n = self.objective.size
        self.A_ub, self.b_ub = _check_rows(a_ub, b_ub, n, "a_ub")
        self.A_eq, self.b_eq = _check_rows(a_eq, b_eq, n, "a_eq")
        self.lo = np.full(n, -np.inf) if lo is None else np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.full(n, np.inf) if hi is None else np.asarray(hi, dtype=float).reshape(-1)
        if self.lo.size != n or self.hi.size != n:
            raise ValueError("bounds length does not match the objective")
        self.maximize = bool(maximize)

    @property
    def n_vars(self):
        return self.objective.size

    a_ub = property(lambda self: _dense(self.A_ub), doc=(
        "Dense copy of A_ub, made on every read.  Only the benchmark's traced "
        "LP counter reads it, until that counter reads A_ub.nnz."))
    a_eq = property(lambda self: _dense(self.A_eq), doc="Dense copy of A_eq; see a_ub.")


def _dense(a):
    return a.toarray() if sparse.issparse(a) else a


def _check_rows(a, b, n, name):
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    a = sparse.csr_array(a, dtype=float) if sparse.issparse(a) else np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"{name} must be a matrix with {n} columns")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != a.shape[0]:
        raise ValueError(f"{name} rows and rhs length differ")
    return a, b


class LpOutcome:
    """Solver verdict: status, solution vector (iff optimal), objective value."""

    def __init__(self, status, x=None, value=None):
        self.status = status
        self.x = x
        self.value = value

    def __repr__(self):
        return f"LpOutcome({self.status}, value={self.value})"


def solve_lp(p):
    """Solve a :class:`LinearProgram` and classify the outcome.

    Returns an optimal, infeasible or unbounded :class:`LpOutcome`.  Any
    other solver status, or an optimum that breaks a constraint by more
    than ``LP_TOL``, raises :class:`NumericalError`.
    """
    n = p.n_vars
    if n == 0:
        # Degenerate but legal: no variables. Feasible iff the constant
        # constraints hold.
        feas = (p.b_ub >= -FEAS_TOL).all() and (np.abs(p.b_eq) <= FEAS_TOL).all()
        return LpOutcome(OPTIMAL, np.zeros(0), 0.0) if feas else LpOutcome(INFEASIBLE)

    c = -p.objective if p.maximize else p.objective
    bounds = list(zip(p.lo, p.hi))
    m_ub, m_eq = p.A_ub.shape[0], p.A_eq.shape[0]
    # Above the cutoff, scipy's dense intake copies the matrix twice
    # before HiGHS sees it in compressed form.
    form = sparse.csr_array if (m_ub + m_eq) * n >= SPARSE_ENTRIES else _dense
    try:
        res = linprog(
            c,
            A_ub=form(p.A_ub) if m_ub else None,
            b_ub=p.b_ub if m_ub else None,
            A_eq=form(p.A_eq) if m_eq else None,
            b_eq=p.b_eq if m_eq else None,
            bounds=bounds,
            method="highs",
            options={"primal_feasibility_tolerance": FEAS_TOL},
        )
    except Exception as exc:  # solver blew up outright
        raise NumericalError(f"LP backend raised: {exc}") from exc

    if res.status == 2:
        return LpOutcome(INFEASIBLE)
    if res.status == 3:
        return LpOutcome(UNBOUNDED)
    if res.status != 0 or res.x is None:
        raise NumericalError(f"LP backend failed (status {res.status}): {res.message}")

    x = np.asarray(res.x, dtype=float)
    broken = _violation(p, x)
    if broken:
        raise NumericalError(f"LP optimum breaks its {broken} by more than {LP_TOL}")
    value = float(p.objective @ x)
    return LpOutcome(OPTIMAL, x, value)


def _violation(p, x):
    """The constraints x breaks by more than LP_TOL, or None."""
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    if (p.A_ub @ x - p.b_ub).max(initial=-np.inf) > LP_TOL * scale:
        return "inequality rows"
    if np.abs(p.A_eq @ x - p.b_eq).max(initial=0.0) > LP_TOL * scale:
        return "equality rows"
    if (x - p.hi).max(initial=-np.inf) > LP_TOL or (p.lo - x).max(initial=-np.inf) > LP_TOL:
        return "variable bounds"
    return None


def _optimum(p):
    """Optimal x of a library program, which has a finite optimum when
    feasible: None when infeasible, NumericalError when unbounded."""
    out = solve_lp(p)
    if out.status == UNBOUNDED:
        raise NumericalError("LP is unbounded; the enclosing set is not "
                             "bounded or the template is degenerate")
    return out.x


# Relative size below which a Gauss-Jordan pivot, or the right-hand side
# of a zero row, counts as zero.
RANK_TOL = 1e-9

# The one reading of a zero constraint entry, HiGHS's (its default
# small_matrix_value): entries of at most this magnitude are zeros.
ZERO_ENTRY = 1e-9


def gauss_jordan_full_pivot(A, b):
    """Reduce [A | b] to reduced row-echelon form with full pivoting.

    Column swaps are recorded as a permutation of the original columns.
    Returns ``(R, d, info)`` where [R | d] spans the same row space as
    [A[:, info["col_perm"]] | b]: every row of either is a combination
    of the rows of the other, so both systems have the same solutions.
    The first ``rank`` rows of R hold an identity block in their first
    ``rank`` columns.

    ``info`` also carries ``rank``, ``zero_rows`` (indices of reduced
    rows with no pivot -- rank deficiency), and ``inconsistent_rows``
    (zero rows whose rhs is nonzero, i.e. an infeasible system).
    Rank deficiency is reported, never raised.  Entries of A of at most
    ``ZERO_ENTRY`` = 1e-9 read as zeros, as in the LP backend, so scale
    rows above that; a pivot exceeds ``ZERO_ENTRY`` and RANK_TOL max|A|.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if b.size != m:
        raise ValueError("row count of A must equal the length of b")

    A[np.abs(A) <= ZERO_ENTRY] *= 0.0  # read as zeros; signed zeros stay
    M = np.column_stack([A, b])
    col_perm = np.arange(n)
    thresh = max(RANK_TOL * np.abs(A).max(initial=0.0), ZERO_ENTRY)

    rank = 0
    for k in range(min(m, n)):
        sub = np.abs(M[k:, k:n])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= thresh:
            break
        pr, pc = k + i, k + j
        M[[k, pr]] = M[[pr, k]]
        M[:, [k, pc]] = M[:, [pc, k]]
        col_perm[[k, pc]] = col_perm[[pc, k]]
        M[k] /= M[k, k]
        # Rows zero in the pivot column are skipped: their signed zeros stay.
        rows = np.flatnonzero(M[:, k])
        rows = rows[rows != k]
        M[rows] -= np.outer(M[rows, k], M[k])
        rank += 1

    R, d = M[:, :n], M[:, n]
    zero_rows = list(range(rank, m))
    rhs_scale = max(np.abs(d).max(initial=0.0), 1.0)
    inconsistent = [r for r in zero_rows if abs(d[r]) > RANK_TOL * rhs_scale]
    info = {
        "rank": rank,
        "col_perm": col_perm,
        "zero_rows": zero_rows,
        "inconsistent_rows": inconsistent,
    }
    return R, d, info


### LP assembly over named variable blocks ##################################
#
# The containment and scaling programs all share a shape: a handful of
# matrix/vector unknowns tied together by linear identities plus
# row-wise absolute-value budgets.  Absolute values are encoded by
# splitting a matrix into nonnegative parts P - N; any feasible split
# certifies the underlying constraint (the row sums of P + N
# over-estimate |P - N| row sums), and every true certificate is
# representable by the canonical split, so feasibility is preserved in
# both directions.

class LpBuilder:
    """Assemble a LinearProgram from named variable blocks.

    Blocks are vectors or matrices; matrices enter the flat variable
    vector in column-major order, so coefficient matrices built with
    :func:`lin_coeff` line up with them.  A row term is a dense array
    or a scipy sparse matrix (duplicate entries add, as in scipy's COO
    format).  :meth:`build` gathers the nonzeros of every term into one
    canonical CSR matrix per constraint kind: sorted indices, no stored
    zeros, and no dense copy on the way.
    """

    def __init__(self):
        self._offset = {}
        self._shape = {}
        self._n = 0
        self._lo = []
        self._hi = []
        self._eq = []
        self._le = []
        self._obj = None
        self._maximize = False

    def var(self, name, shape, lo=-np.inf, hi=np.inf):
        if name in self._offset:
            raise ValueError(f"duplicate variable block {name!r}")
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        size = int(np.prod(shape))
        self._offset[name] = self._n
        self._shape[name] = shape
        self._n += size
        self._lo.append(np.full(size, lo, dtype=float))
        self._hi.append(np.full(size, hi, dtype=float))
        return name

    def size(self, name):
        return int(np.prod(self._shape[name]))

    def eq(self, terms, rhs):
        """Add rows  sum_name terms[name] @ x_name == rhs."""
        self._eq.append((terms, np.asarray(rhs, dtype=float).reshape(-1)))

    def le(self, terms, rhs):
        self._le.append((terms, np.asarray(rhs, dtype=float).reshape(-1)))

    def objective(self, terms, maximize=False):
        self._obj = terms
        self._maximize = maximize

    def _coo(self, name, coeff, k):
        """A k-row term on block ``name`` as COO."""
        if np.ndim(coeff) == 1:
            coeff = np.reshape(coeff, (k, -1))
        coeff = sparse.coo_array(coeff, dtype=float)  # a dense term's nonzeros
        if coeff.shape != (k, self.size(name)):
            raise ValueError(f"term {name!r} is {coeff.shape}, not {(k, self.size(name))}")
        return coeff

    def _assemble(self, rows):
        if not rows:
            return None, None
        rhs = np.concatenate([rhs for _, rhs in rows])
        none = np.zeros(0, dtype=int)
        i, j, v = [none], [none], [np.zeros(0)]
        top = 0
        for terms, group_rhs in rows:
            for name, coeff in terms.items():
                coeff = self._coo(name, coeff, group_rhs.size)
                i.append(top + coeff.row)
                j.append(self._offset[name] + coeff.col)
                v.append(coeff.data)
            top += group_rhs.size
        # int32 indices, as scipy picks for a dense matrix of this size
        i, j = np.concatenate(i, dtype=np.int32), np.concatenate(j, dtype=np.int32)
        M = sparse.csr_array((np.concatenate(v), (i, j)), shape=(rhs.size, self._n))
        M.eliminate_zeros()  # stored zeros of sparse terms
        return M, rhs

    def build(self):
        c = np.zeros(self._n)
        if self._obj:
            for name, coeff in self._obj.items():
                off = self._offset[name]
                c[off:off + self.size(name)] = np.asarray(coeff, dtype=float).reshape(-1)
        a_ub, b_ub = self._assemble(self._le)
        a_eq, b_eq = self._assemble(self._eq)
        return LinearProgram(
            c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            lo=np.concatenate(self._lo) if self._lo else None,
            hi=np.concatenate(self._hi) if self._hi else None,
            maximize=self._maximize,
        )

    def value(self, x, name):
        """Extract a named block from a solution vector."""
        off = self._offset[name]
        shape = self._shape[name]
        block = x[off:off + self.size(name)]
        if len(shape) == 1:
            return block.copy()
        return block.reshape(shape, order="F")


# The norms optimize_scaling accepts; each is one LP.
SCALING_NORMS = ("1", "inf")


def optimize_scaling(builder, norm, maximize, template=None):
    """Optimize the size of ``template diag(phi)`` over the constraint set
    loaded in a builder, phi being its "phi" block, with one LP.

    ``norm`` is one of ``SCALING_NORMS``.  The 1-norm measures the
    entrywise norm of ``template diag(phi)``, weighting each scale by
    its template column's abs-sum; the default identity template gives
    ||phi||_1.  The inf-norm couples every scale with a nonzero template
    column to a fresh shared bound variable.  In both norms the
    template alone decides which scales count: a zero column gives its
    scale zero weight (the front ends fix such scales at 0 through the
    "phi" block's upper bound), a template with no nonzero column
    measures 0, and a weighted scale that the constraints leave
    unbounded makes the program unbounded, which raises
    :class:`NumericalError`.

    Returns the full solution vector, or None when the constraint set
    is empty (callers map this to their own domain errors).
    """
    norm = str(norm).lower()
    if norm not in SCALING_NORMS:
        raise ValueError(f"norm must be one of {SCALING_NORMS}, not {norm!r}")
    m = builder.size("phi")
    T = np.eye(m) if template is None else np.asarray(template, dtype=float)

    if norm == "inf":
        S = np.eye(m)[T.any(axis=0)]
        bound = np.inf if len(S) else 0.0  # no weighted scale: size 0
        builder.var("_phi_bound", 1, lo=-bound, hi=bound)
        tcol, zeros = np.ones((len(S), 1)), np.zeros(len(S))
        if maximize:
            # max t with t <= phi_i for every weighted i.
            builder.le({"_phi_bound": tcol, "phi": -S}, zeros)
        else:
            # min t with phi_i <= t for every weighted i.
            builder.le({"phi": S, "_phi_bound": -tcol}, zeros)
        return _solve_scaling(builder, "_phi_bound", np.ones(1), maximize)

    return _solve_scaling(builder, "phi", np.abs(T).sum(axis=0), maximize)


def _solve_scaling(builder, name, weights, maximize):
    builder.objective({name: weights}, maximize=maximize)
    return _optimum(builder.build())


def lin_coeff(shape, left=None, right=None):
    """Coefficient matrix C with C @ vec(X) = vec(left @ X @ right).

    ``vec`` is column-major; ``shape`` is the shape of X; a missing
    factor defaults to the identity.  C is the sparse COO Kronecker
    product kron(right.T, left): an identity factor makes it mostly
    zeros.
    """
    r, c = shape
    L = sparse.identity(r) if left is None else np.asarray(left, dtype=float)
    # The identity is not transposed: scipy cannot transpose a 0 x 0 one.
    Rt = sparse.identity(c) if right is None else np.asarray(right, dtype=float).T
    return sparse.kron(Rt, L, format="coo")
