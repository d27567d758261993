import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    Zonotope,
    conzono_in_halfspace,
    conzono_to_ah,
    inner_scale,
    interval_refine,
    is_empty,
    make_template,
    numerics,
    pontryagin_onestep,
    support,
)
from zonokit.cli import USAGE_ERROR, main
from zonokit.io import write_set
from zonokit.numerics import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    SCALING_NORMS,
    SPARSE_ENTRIES,
    UNBOUNDED,
    ZERO_ENTRY,
    LinearProgram,
    LpBuilder,
    NumericalError,
    _optimum,
    gauss_jordan_full_pivot,
    lin_coeff,
    optimize_scaling,
    solve_lp,
)
from zonokit.containment import _coefficient_polytope, _zonotope_certificate
from zonokit.halfspaces import refine_certifies_empty

from conftest import borderline_square


class TestSolveLp:
    def test_simple_bounded(self):
        # min x + y over the unit box, optimum at the lower-left corner
        p = LinearProgram([1.0, 1.0], lo=[-1.0, -1.0], hi=[1.0, 1.0])
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(-2.0)
        assert np.allclose(out.x, [-1.0, -1.0])

    def test_maximize_flag(self):
        p = LinearProgram([2.0, -1.0], lo=[0.0, 0.0], hi=[1.0, 1.0],
                          maximize=True)
        out = solve_lp(p)
        assert out.value == pytest.approx(2.0)

    def test_infeasible(self):
        p = LinearProgram([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-2.0, -2.0])
        assert solve_lp(p).status == INFEASIBLE

    def test_unbounded(self):
        p = LinearProgram([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert solve_lp(p).status == UNBOUNDED

    def test_equality_constraints(self):
        p = LinearProgram([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                          lo=[0.0, 0.0], hi=[1.0, 1.0])
        out = solve_lp(p)
        assert out.x[0] + out.x[1] == pytest.approx(1.0)
        assert out.value == pytest.approx(0.0)

    def test_zero_variable_program(self):
        out = solve_lp(LinearProgram(np.zeros(0)))
        assert out.status == OPTIMAL and out.value == 0.0

    # x + y <= 1 on the unit box
    ROW = LinearProgram([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                        lo=[0.0, 0.0], hi=[1.0, 1.0])

    def test_solver_breakdown_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "linprog", lambda *a, **k: OptimizeResult(
            status=4, x=None, message="numerical difficulties"))
        with pytest.raises(NumericalError, match="numerical difficulties"):
            solve_lp(self.ROW)

    def test_optimum_breaking_a_row_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "linprog", lambda *a, **k: OptimizeResult(
            status=0, x=np.array([0.5, 0.501]), message="optimal"))
        with pytest.raises(NumericalError, match="inequality rows"):
            solve_lp(self.ROW)

    def test_optimum_is_none_when_infeasible_and_raises_when_unbounded(self):
        assert _optimum(LinearProgram([1.0], a_ub=[[1.0], [-1.0]],
                                      b_ub=[-2.0, -2.0])) is None
        with pytest.raises(NumericalError, match="unbounded"):
            _optimum(LinearProgram([-1.0], a_ub=[[-1.0]], b_ub=[0.0]))


def _gauss_jordan_per_row(A, b, tol=1e-9):
    """Reference: full-pivot Gauss-Jordan updating one row at a time,
    with the same pivot choice (the largest entry above its own row's
    threshold, first in row-major order) and the same skip of rows that
    are already zero in the pivot column."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    m, n = A.shape
    A[np.abs(A) <= ZERO_ENTRY] *= 0.0
    col_perm = np.arange(n)
    row_tol = [max(tol * np.abs(row).max(initial=0.0), ZERO_ENTRY) for row in A]
    rank = 0
    for k in range(min(m, n)):
        pr, pc, best = k, k, 0.0
        for r in range(k, m):
            for c in range(k, n):
                if row_tol[r] < abs(A[r, c]) > best:
                    pr, pc, best = r, c, abs(A[r, c])
        if best == 0.0:
            break
        if pr != k:
            A[[k, pr]] = A[[pr, k]]
            b[[k, pr]] = b[[pr, k]]
            row_tol[k], row_tol[pr] = row_tol[pr], row_tol[k]
        if pc != k:
            A[:, [k, pc]] = A[:, [pc, k]]
            col_perm[[k, pc]] = col_perm[[pc, k]]
        piv = A[k, k]
        A[k] /= piv
        b[k] /= piv
        for r in range(m):
            f = A[r, k]
            if r != k and f != 0.0:
                A[r] -= f * A[k]
                b[r] -= f * b[k]
        rank += 1
    zero_rows = list(range(rank, m))
    inconsistent = [r for r in zero_rows if abs(b[r]) > FEAS_TOL]
    return A, b, {"rank": rank, "col_perm": col_perm, "zero_rows": zero_rows,
                  "inconsistent_rows": inconsistent}


def _gauss_jordan_inputs(rng, count):
    """Random [A | b] systems, m = 0 to 8 rows: dense, integer, sparse
    and rank-deficient A, every third one with its rows scaled by
    10^U(-4, 6); every other b consistent with A."""
    for t in range(count):
        m, n = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        kind = t % 4
        if kind == 0:
            A = rng.normal(size=(m, n))
        elif kind == 1:
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
        elif kind == 2:
            A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
        else:
            k = int(rng.integers(0, min(m, n) + 1))
            A = (rng.integers(-2, 3, size=(m, k))
                 @ rng.integers(-2, 3, size=(k, n))).astype(float)
        if t % 3 == 2:  # rows at disparate scales
            A = A * 10.0 ** rng.uniform(-4, 6, size=(m, 1))
        b = A @ rng.normal(size=n) if t % 2 else rng.normal(size=m)
        yield A, b


def _spans(X, Y):
    """Largest residual of fitting every row of Y by the rows of X."""
    if Y.shape[0] == 0:
        return 0.0
    coef = np.linalg.lstsq(X.T, Y.T, rcond=None)[0]
    return np.abs(X.T @ coef - Y.T).max()


def _equilibrated(M):
    """M with every nonzero row divided by its largest |entry|."""
    scale = np.abs(M).max(axis=1, initial=0.0, keepdims=True)
    return M / np.where(scale > 0.0, scale, 1.0)


def test_gauss_jordan_reconstruction():
    rng = np.random.default_rng(0)
    for A, b in _gauss_jordan_inputs(rng, 200):
        R, d, info = gauss_jordan_full_pivot(A, b)
        # [R | d] and the column-permuted [A | b] span the same rows; each
        # row of [A | b] is compared at its own scale
        before = _equilibrated(np.column_stack([A[:, info["col_perm"]], b]))
        after = np.column_stack([R, d])
        assert _spans(after, before) <= 1e-9
        assert _spans(before, after) <= 1e-9
        assert info["rank"] == np.linalg.matrix_rank(A, tol=1e-9)
        # pivot block of the reduced matrix is the identity
        r = info["rank"]
        assert np.allclose(R[:r, :r], np.eye(r), atol=1e-9)


def test_gauss_jordan_matches_the_per_row_loop():
    rng = np.random.default_rng(1)
    for A, b in _gauss_jordan_inputs(rng, 400):
        R, d, info = gauss_jordan_full_pivot(A, b)
        R0, d0, info0 = _gauss_jordan_per_row(A, b)
        for got, want in ((R, R0), (d, d0)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert info.keys() == info0.keys()
        assert np.array_equal(info["col_perm"], info0["col_perm"])
        for key in ("rank", "zero_rows", "inconsistent_rows"):
            assert info[key] == info0[key]


def test_gauss_jordan_flags_inconsistency():
    A = [[1.0, 1.0], [2.0, 2.0]]
    R, d, info = gauss_jordan_full_pivot(A, [1.0, 3.0])
    assert info["inconsistent_rows"]
    _, _, ok = gauss_jordan_full_pivot(A, [1.0, 2.0])
    assert not ok["inconsistent_rows"]
    assert ok["zero_rows"]


def _planted_twins(rng):
    """A random constrained set with exact zeros in A, and its twin whose
    zeros are replaced by entries of magnitude at most ZERO_ENTRY.  Some
    twins gain a row of such entries (b = 0 there); some sets are empty."""
    n_g = int(rng.integers(3, 8))
    n_c = int(rng.integers(1, n_g))
    A = rng.normal(size=(n_c, n_g)) * (rng.random((n_c, n_g)) < 0.6)
    b = A @ rng.uniform(-0.8, 0.8, n_g) + (2.0 * rng.normal(size=n_c)
                                           if rng.random() < 0.2 else 0.0)
    if rng.random() < 0.4:
        A, b = np.vstack([A, np.zeros(n_g)]), np.append(b, 0.0)
    tiny = ZERO_ENTRY * rng.uniform(-1.0, 1.0, A.shape)
    tiny[rng.random(A.shape) < 0.2] = ZERO_ENTRY  # the edge itself
    planted = np.where(A == 0.0, tiny, A)
    G, c = rng.normal(size=(2, n_g)), rng.normal(size=2)
    return ConstrainedZonotope(c, G, A, b), ConstrainedZonotope(c, G, planted, b)


def test_entries_up_to_zero_entry_read_as_zeros_in_every_layer():
    """Gauss-Jordan, interval refinement and the LP layer read a planted
    entry of at most ZERO_ENTRY as the zero it replaced."""
    rng = np.random.default_rng(30)
    empty = 0
    for _ in range(60):
        Z, P = _planted_twins(rng)
        _, _, info = gauss_jordan_full_pivot(Z.A, Z.b)
        _, _, got = gauss_jordan_full_pivot(P.A, P.b)
        assert got["rank"] == info["rank"]
        assert np.array_equal(got["col_perm"], info["col_perm"])
        assert got["inconsistent_rows"] == info["inconsistent_rows"]
        for I, J in zip(interval_refine(Z), interval_refine(P)):
            assert np.array_equal(I.lo, J.lo) and np.array_equal(I.hi, J.hi)
        assert is_empty(P) == is_empty(Z)
        if is_empty(Z):
            empty += 1
            continue
        D = rng.normal(size=(4, 2))
        assert np.array_equal(support(P, D), support(Z, D))
    assert 5 <= empty <= 55


def test_rounding_level_rows_and_residues_read_as_zeros():
    """Eliminating [1, -1] grows [t, t] to [0, 2t], above ZERO_ENTRY for
    t > 5e-10: the row must be read as zeros before elimination, as the
    LP backend reads it, or xi = 0 would be imposed.  A residue of at
    most ZERO_ENTRY is a zero as well, also where every |a_ij| < 1."""
    for t in (6e-10, ZERO_ENTRY):
        _, _, info = gauss_jordan_full_pivot([[1.0, -1.0], [t, t]], [0.0, 0.0])
        assert info["rank"] == 1
    _, _, info = gauss_jordan_full_pivot([[1e-3, 1e-3], [1e-3, 1e-3 + 5e-10]],
                                         [0.0, 0.0])
    assert info["rank"] == 1


@pytest.mark.parametrize("delta", [5e-10, 2e-9, 5e-9, 5e-8])
def test_feasible_offsets_read_alike_in_every_layer(delta):
    """An offset beyond the unit box by delta is feasible in the LPs, the
    screens, refinement and the containment programs exactly when
    delta <= FEAS_TOL."""
    Z = borderline_square(delta)
    empty = delta > FEAS_TOL
    assert is_empty(Z) == empty
    assert refine_certifies_empty(Z) == empty
    for strategy in ("IA", "LP"):
        assert conzono_in_halfspace(Z, Halfspace([1.0, 0.0], 0.0), strategy) == empty
    for convert in (conzono_to_ah, lambda Z: inner_scale(Z, make_template(Z, "box"))):
        if empty:
            with pytest.raises(EmptySetError):
                convert(Z)
        else:
            convert(Z)


# Full row rank (wide and square), rank deficient (consistent), no
# constraints at all, and a pinned coefficient (xi_0 = 0.3).
COEFFICIENT_SYSTEMS = [
    (np.array([[1.0, 2.0, 3.0]]), np.array([0.5])),
    (np.eye(3), np.array([0.1, 0.2, 0.3])),
    (np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), np.array([0.5, 1.0])),
    (np.zeros((0, 3)), np.zeros(0)),
    (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([0.3, 0.2])),
]


def test_nullspace_basis():
    # T spans the null space and holds an identity block on the free
    # coefficients: each free coefficient is one of T's unit rows.
    for A, b in COEFFICIENT_SYSTEMS:
        _, T, H, _, _ = _coefficient_polytope(A, b)
        rank = np.linalg.matrix_rank(A) if A.size else 0
        assert T.shape == (A.shape[1], A.shape[1] - rank)
        assert np.allclose(A @ T, 0.0, atol=1e-12)
        assert all((T == e).all(axis=1).any() for e in np.eye(T.shape[1]))
        assert np.array_equal(H, np.vstack([T, -T]))
    # The pinned coefficient's row of T is zero, so its facets are vacuous.
    _, T, _, _, live = _coefficient_polytope(*COEFFICIENT_SYSTEMS[-1])
    assert not T[0].any() and not live[0] and not live[3]
    # So are the facets of a row of T with no entry above ZERO_ENTRY.
    _, T, _, _, live = _coefficient_polytope(np.array([[2.0, 1.5e-9, 0.0]]),
                                             np.zeros(1))
    assert 0.0 < np.abs(T[0]).max() <= ZERO_ENTRY
    assert not live[0] and not live[3] and live[1:3].all()


def test_particular_solution():
    for A, b in COEFFICIENT_SYSTEMS:
        s, _, _, f, _ = _coefficient_polytope(A, b)
        assert np.allclose(A @ s, b, atol=1e-12)
        assert np.array_equal(f, np.concatenate([1.0 - s, 1.0 + s]))
    assert _coefficient_polytope(*COEFFICIENT_SYSTEMS[-1])[0][0] == 0.3
    # Inconsistent rows have no solution, and inner_scale refuses a
    # template built on them.
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.1, 0.2, 0.5])
    template = ConstrainedZonotope([0.0, 0.0], np.eye(2), A, b)
    with pytest.raises(ValueError, match="template constraints are inconsistent"):
        inner_scale(Zonotope.box([-1.0, -1.0], [1.0, 1.0]), template)


def scaling_builder():
    # phi_0 = phi_1 - phi_2 + s with phi_0 + phi_1 <= 1 and phi_2 <= 1;
    # no constraint bounds phi_3 from above.
    b = LpBuilder()
    b.var("phi", 4, lo=0.0)
    b.var("s", 1)
    b.eq({"phi": [[1.0, -1.0, 1.0, 0.0]], "s": [[-1.0]]}, [0.0])
    b.le({"phi": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}, [1.0, 1.0])
    return b


def bounded_scaling_builder():
    """scaling_builder with phi_3 <= 2."""
    b = scaling_builder()
    b.le({"phi": [[0.0, 0.0, 0.0, 1.0]]}, [2.0])
    return b


# Weights phi_0 to phi_2 and leaves out phi_3, which nothing bounds.
FIRST_THREE = np.eye(4)[:3]


class TestOptimizeScaling:
    @pytest.mark.parametrize("norm, maximize", [
        ("1", True), ("1", False), ("inf", False), ("inf", True)])
    def test_identity_template_is_the_default(self, norm, maximize):
        b0, b1 = bounded_scaling_builder(), bounded_scaling_builder()
        x0 = optimize_scaling(b0, norm, maximize)
        x1 = optimize_scaling(b1, norm, maximize, template=np.eye(4))
        assert np.array_equal(x0, x1)

    @pytest.mark.parametrize("norm", ["1"])
    def test_untouched_entry_gets_zero_weight(self, norm):
        # A zero template column leaves out phi_3, which would make the
        # maximization unbounded.
        for template in (FIRST_THREE, np.array([[1.0, 1.0, 1.0, 0.0]] * 2)):
            b = scaling_builder()
            x = optimize_scaling(b, norm, True, template=template)
            phi = b.value(x, "phi")
            assert phi[0] + phi[1] == pytest.approx(1.0)
            assert phi[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("norm", ["1"])
    def test_weighting_an_unbounded_scale_raises(self, norm):
        with pytest.raises(NumericalError, match="unbounded"):
            optimize_scaling(scaling_builder(), norm, True)

    @pytest.mark.parametrize("norm", ["1"])
    def test_template_weights_pick_the_longer_column(self, norm):
        b = scaling_builder()
        template = np.array([[3.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        phi = b.value(optimize_scaling(b, norm, True,
                                       template=template), "phi")
        assert phi[:3] == pytest.approx([1.0, 0.0, 1.0])

    @pytest.mark.parametrize("norm", SCALING_NORMS)
    def test_empty_constraint_set_gives_none(self, norm):
        b = scaling_builder()
        b.le({"phi": [[-1.0, 0.0, 0.0, 0.0]]}, [-2.0])  # phi_0 >= 2 > 1
        assert optimize_scaling(b, norm, True) is None

    def test_minimizing_the_2_norm_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape(str(SCALING_NORMS))):
            optimize_scaling(bounded_scaling_builder(), "2", False)


def test_every_scaling_front_end_rejects_norm_2(tmp_path):
    # Each accepted norm is one LP; no front end takes another.
    Z = Zonotope([0.0, 0.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.5]])
    small = Zonotope([0.0, 0.0], 0.1 * np.eye(2))
    calls = [
        lambda: optimize_scaling(bounded_scaling_builder(), "2", True),
        lambda: inner_scale(Z, small, norm="2"),
        lambda: pontryagin_onestep(Z, small, norm="2"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(str(SCALING_NORMS))):
            call()
    z, out = tmp_path / "z.json", tmp_path / "out.json"
    write_set(z, Z)
    assert main(["inner", str(z), "--template", "box", "--norm", "2",
                 "-o", str(out)]) == USAGE_ERROR
    assert not out.exists()


@pytest.mark.parametrize("left, right", [
    (True, False), (False, True), (True, True), (False, False)])
def test_lin_coeff_is_the_dense_kronecker_product(left, right):
    rng = np.random.default_rng(0)
    L = rng.normal(size=(4, 3)) if left else None
    R = rng.normal(size=(5, 2)) if right else None
    C = lin_coeff((3, 5), left=L, right=R)
    assert sparse.issparse(C)
    dense = np.kron(np.eye(5) if R is None else R.T,
                    np.eye(3) if L is None else L)
    assert np.array_equal(C.toarray(), dense)
    # C @ vec(X) = vec(L X R), column-major vec
    X = rng.normal(size=(3, 5))
    LXR = (np.eye(3) if L is None else L) @ X @ (np.eye(5) if R is None else R)
    assert np.allclose(C @ X.reshape(-1, order="F"), LXR.reshape(-1, order="F"))


def test_builder_assembles_dense_flat_and_sparse_terms():
    b = LpBuilder()
    b.var("M", (2, 3))
    b.var("v", 2, lo=0.0)
    b.var("s", 1, hi=4.0)
    L = np.array([[1.0, -2.0], [0.5, 3.0]])
    S = lin_coeff((2, 3), left=L)
    V = np.array([[1.0, 2.0], [-1.0, 0.0], [0.0, 5.0], [2.0, 2.0],
                  [1.0, 1.0], [0.0, -3.0]])
    b.eq({"M": S, "v": V}, np.arange(6.0))
    b.eq({"s": [7.0], "v": [[1.0, -1.0]]}, [1.0])
    b.le({"v": [1.0, 2.0], "M": sparse.csr_array(np.eye(1, 6, 4))}, [3.0])
    b.objective({"s": [1.0]})
    p = b.build()

    a_eq = np.zeros((7, 9))
    a_eq[:6, :6] = np.kron(np.eye(3), L)
    a_eq[:6, 6:8] = V
    a_eq[6, 6:9] = [1.0, -1.0, 7.0]
    a_ub = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 0.0]])
    for got, want in ((p.A_eq, a_eq), (p.A_ub, a_ub)):
        assert sparse.issparse(got) and got.format == "csr"
        assert np.array_equal(got.toarray(), want)
        assert got.has_canonical_format
        assert (got.data != 0).all()
    assert np.array_equal(p.b_eq, np.append(np.arange(6.0), 1.0))
    assert np.array_equal(p.b_ub, [3.0])
    assert np.array_equal(p.objective, np.eye(1, 9, 8)[0])
    assert np.array_equal(p.lo, [-np.inf] * 6 + [0.0, 0.0, -np.inf])
    assert np.array_equal(p.hi, [np.inf] * 8 + [4.0])


def containment_builder(n, n_gy, n_gx, seed=0):
    """Builder loaded with the certificate of a random zonotope with
    n_gx generators inside one with n_gy, both in R^n."""
    rng = np.random.default_rng(seed)
    G_y = rng.normal(size=(n, n_gy))
    Gamma = rng.uniform(-1.0, 1.0, size=(n_gy, n_gx)) / (2 * n_gx)
    b = LpBuilder()
    _zonotope_certificate(b, G_y, [(G_y @ Gamma, False)], {},
                          0.1 * G_y[:, 0])
    b.objective({"g0p": np.ones(n_gy * n_gx), "g0n": np.ones(n_gy * n_gx)})
    return b


def test_build_allocates_little_beyond_the_program():
    # The program's dense arrays would be 2.2 MiB; its CSR is 0.1 MiB.
    b = containment_builder(4, 30, 30)
    tracemalloc.start()
    try:
        p = b.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                 for a in (p.A_ub, p.A_eq))
    dense = (p.b_ub.size + p.b_eq.size) * p.n_vars * 8
    assert dense > 2 * 2**20 > 10 * stored
    assert peak <= 4 * stored


def dense_twin(p):
    """The same program with dense constraint arrays."""
    return LinearProgram(p.objective, a_ub=p.a_ub, b_ub=p.b_ub,
                         a_eq=p.a_eq, b_eq=p.b_eq, lo=p.lo,
                         hi=p.hi, maximize=p.maximize)


@pytest.mark.parametrize("n_g, goes_sparse", [(20, False), (22, True)])
def test_large_programs_reach_highs_as_csr(monkeypatch, n_g, goes_sparse):
    p = containment_builder(2, n_g, n_g).build()
    # the builder stores CSR at any size
    assert p.A_ub.format == "csr" and p.A_eq.format == "csr"
    entries = (p.b_ub.size + p.b_eq.size) * p.n_vars
    assert (entries >= SPARSE_ENTRIES) == goes_sparse
    assert 0.75 * SPARSE_ENTRIES < entries < 1.1 * SPARSE_ENTRIES

    handed = []

    def recording_linprog(*args, **kwargs):
        handed.append([sparse.issparse(kwargs["A_ub"]),
                       sparse.issparse(kwargs["A_eq"])])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(numerics, "linprog", recording_linprog)
    out = solve_lp(p)
    # a direct caller's dense program takes the same route
    twin = solve_lp(dense_twin(p))
    assert handed == [[goes_sparse] * 2] * 2
    assert out.status == OPTIMAL
    ref = linprog(p.objective, A_ub=p.A_ub.toarray(), b_ub=p.b_ub,
                  A_eq=p.A_eq.toarray(), b_eq=p.b_eq,
                  bounds=list(zip(p.lo, p.hi)), method="highs")
    assert np.array_equal(out.x, ref.x)
    assert np.array_equal(twin.x, ref.x)


def edge_case_programs():
    """Builders for the corners of assembly: an all-zero term, a row
    group whose terms all vanish, a zero-size block, a sparse term with a
    stored zero, and a program with no variables."""
    def zero_term():
        b = LpBuilder()
        b.var("x", 2, lo=-1.0, hi=1.0)
        b.var("y", 3, lo=-1.0, hi=1.0)
        b.le({"x": np.zeros((1, 2)), "y": [[1.0, 2.0, 0.0]]}, [0.5])
        b.objective({"y": [-1.0, -1.0, 1.0]})
        return b

    def vanishing_group(rhs):
        b = LpBuilder()
        b.var("x", 2, lo=0.0, hi=1.0)
        b.eq({"x": np.zeros((2, 2))}, rhs)
        b.le({"x": [[1.0, 1.0]]}, [1.5])
        b.objective({"x": [1.0, 2.0]}, maximize=True)
        return b

    def empty_block():
        b = LpBuilder()
        b.var("x", 2, lo=-1.0, hi=1.0)
        b.var("nothing", (3, 0))
        b.eq({"x": [[1.0, -1.0]], "nothing": np.zeros((1, 0))}, [0.5])
        b.le({"nothing": sparse.csr_array((1, 0)), "x": [[0.0, 1.0]]}, [0.2])
        b.objective({"x": [1.0, 1.0]}, maximize=True)
        return b

    def stored_zero():
        b = LpBuilder()
        b.var("x", 3, lo=0.0)
        b.eq({"x": sparse.coo_array(([1.0, 0.0, 1.0], ([0, 0, 0], [0, 1, 2])),
                                    shape=(1, 3))}, [1.0])
        b.objective({"x": [2.0, 1.0, 3.0]})
        return b

    def no_variables(rhs):
        b = LpBuilder()
        b.le({}, rhs)
        return b

    return {"zero_term": zero_term(), "vanishing_group": vanishing_group([0.0, 0.0]),
            "vanishing_infeasible": vanishing_group([0.0, 1.0]),
            "empty_block": empty_block(), "stored_zero": stored_zero(),
            "no_variables": no_variables([1.0]),
            "no_variables_infeasible": no_variables([-1.0])}


@pytest.mark.parametrize("case", sorted(edge_case_programs()))
def test_edge_case_programs_solve_like_their_dense_twins(case):
    p = edge_case_programs()[case].build()
    for a in (p.A_ub, p.A_eq):
        if sparse.issparse(a):
            assert a.has_canonical_format and (a.data != 0).all()
    got, want = solve_lp(p), solve_lp(dense_twin(p))
    assert got.status == want.status
    if want.status == OPTIMAL:
        assert np.array_equal(got.x, want.x) and got.value == want.value


def test_program_built_from_a_csr_array():
    A = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    kw = dict(b_ub=[1.0, 0.5], lo=[0.0] * 3, hi=[2.0] * 3, maximize=True)
    p = LinearProgram([1.0, 1.0, 1.0], a_ub=sparse.csr_array(A), **kw)
    assert p.A_ub.format == "csr" and np.array_equal(p.a_ub, A)
    got, want = solve_lp(p), solve_lp(LinearProgram([1.0, 1.0, 1.0], a_ub=A, **kw))
    assert got.status == want.status == OPTIMAL
    assert np.array_equal(got.x, want.x)


def test_a_term_of_the_wrong_shape_is_rejected():
    # a term one column short would otherwise spill into the next block
    b = LpBuilder()
    b.var("x", 3)
    b.var("y", 2)
    b.eq({"x": np.ones((1, 2))}, [1.0])
    with pytest.raises(ValueError, match="term 'x'"):
        b.build()
