import numpy as np
import pytest

from zonokit.numerics import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InfeasibleProgram,
    LinearProgram,
    LpBuilder,
    gauss_jordan_full_pivot,
    nullspace_basis,
    optimize_scaling,
    pinv_solve,
    solve_lp,
)


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


def test_gauss_jordan_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, n = rng.integers(1, 5), rng.integers(1, 7)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        R, d, info = gauss_jordan_full_pivot(A, b)
        assert np.allclose(R, info["row_transform"] @ A[:, info["col_perm"]])
        assert np.allclose(d, info["row_transform"] @ b)
        assert info["rank"] == np.linalg.matrix_rank(A, tol=1e-9)
        # pivot block of the reduced matrix is the identity
        r = info["rank"]
        assert np.allclose(R[:r, :r], np.eye(r), atol=1e-9)


def test_gauss_jordan_flags_inconsistency():
    A = [[1.0, 1.0], [2.0, 2.0]]
    R, d, info = gauss_jordan_full_pivot(A, [1.0, 3.0])
    assert info["inconsistent_rows"]
    _, _, ok = gauss_jordan_full_pivot(A, [1.0, 2.0])
    assert not ok["inconsistent_rows"]
    assert ok["zero_rows"]


def test_nullspace_basis():
    A = np.array([[1.0, 2.0, 3.0]])
    N = nullspace_basis(A)
    assert N.shape == (3, 2)
    assert np.allclose(A @ N, 0.0, atol=1e-12)
    full = nullspace_basis(np.eye(3))
    assert full.shape[1] == 0


def test_pinv_solve_least_squares():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    x = pinv_solve(A, b)
    assert np.allclose(x, np.linalg.pinv(A) @ b)


def test_infeasible_program_exception_carries_status():
    try:
        raise InfeasibleProgram(solve_lp(
            LinearProgram([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-2.0, -2.0])))
    except InfeasibleProgram as e:
        assert "infeasible" in str(e)


def scaling_builder():
    # phi_0 = phi_1 - phi_2 + s with phi_0 + phi_1 <= 1 and phi_2 <= 1;
    # phi_3 appears in no equality row and has no upper bound.
    b = LpBuilder()
    b.var("phi", 4, lo=0.0)
    b.var("s", 1)
    b.eq({"phi": [[1.0, -1.0, 1.0, 0.0]], "s": [[-1.0]]}, [0.0])
    b.le({"phi": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}, [1.0, 1.0])
    return b


class TestOptimizeScaling:
    @pytest.mark.parametrize("norm, maximize", [
        ("1", True), ("2", True), ("1", False), ("inf", False), ("inf", True)])
    def test_identity_template_is_the_default(self, norm, maximize):
        b0, b1 = scaling_builder(), scaling_builder()
        x0 = optimize_scaling(b0, "phi", norm, maximize)
        x1 = optimize_scaling(b1, "phi", norm, maximize, template=np.eye(4))
        assert np.array_equal(x0, x1)

    @pytest.mark.parametrize("norm", ["1", "2"])
    def test_untouched_entry_gets_zero_weight(self, norm):
        # Unweighted, phi_3 would make the maximization unbounded.
        for template in (None, np.ones((2, 4))):
            b = scaling_builder()
            x = optimize_scaling(b, "phi", norm, True, template=template)
            phi = b.value(x, "phi")
            assert phi[0] + phi[1] == pytest.approx(1.0)
            assert phi[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("norm", ["1", "2"])
    def test_template_weights_pick_the_longer_column(self, norm):
        b = scaling_builder()
        template = np.array([[3.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        phi = b.value(optimize_scaling(b, "phi", norm, True,
                                       template=template), "phi")
        assert phi[:3] == pytest.approx([1.0, 0.0, 1.0])

    def test_minimizing_the_2_norm_is_rejected(self):
        with pytest.raises(ValueError, match="use norm 1 or 'inf'"):
            optimize_scaling(scaling_builder(), "phi", "2", False)
