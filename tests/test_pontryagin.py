import numpy as np
import pytest

from zonokit import EmptySetError, Zonotope, is_empty, support
from zonokit.pontryagin import pontryagin_iterative, pontryagin_onestep
from zonokit import numerics, oracle, pontryagin

from conftest import make_zonotope, spread_directions


Z1_3D = Zonotope([0, 0, 0], [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
Z2_3D = Zonotope([0, 0, 0], np.array([[-1, 1, 0, 0], [1, 0, 1, 0],
                                      [1, 0, 0, 1]]) / 3.0)


def test_exact_recursion_golden_sizes():
    D = pontryagin_iterative(Z1_3D, Z2_3D)
    assert (D.n_g, D.n_c) == (64, 45)
    assert not is_empty(D)


def test_exact_recursion_size_formula():
    rng = np.random.default_rng(0)
    Z1 = make_zonotope(rng, 2, 5)
    Z2 = Zonotope(np.zeros(2), 0.1 * rng.normal(size=(2, 3)))
    D = pontryagin_iterative(Z1, Z2)
    k = Z2.n_g
    assert D.n_g == 2 ** k * Z1.n_g
    assert D.n_c == 2 ** k * Z1.n_c + 2 * (2 ** k - 1)


def test_onestep_close_to_exact_in_volume():
    D = pontryagin_iterative(Z1_3D, Z2_3D)
    S, result = pontryagin_onestep(Z1_3D, Z2_3D)
    assert S.n_g == Z1_3D.n_g + Z2_3D.n_g
    assert (result.phi >= 0.0).all()
    ratio = oracle.volume_ratio(S, D, samples=60_000, seed=42)
    assert ratio == pytest.approx(0.926, abs=0.02)
    assert ratio <= 1.0 + 0.02  # inner approximation cannot exceed the truth


def assert_onestep_certified(Z1, Z2, norm):
    # [G1 G2] Phi = G1 Gamma_t, G2 = G1 Gamma_s, c1 - (c_d + c2) = G1 beta,
    # |Gamma| 1 + |beta| <= 1, in the returned layout.
    G1, G2 = Z1.G, Z2.G
    Gt = np.hstack([G1, G2])
    nt = Gt.shape[1]
    S, res = pontryagin_onestep(Z1, Z2, norm=norm)
    gamma, beta, phi, cd = (res.certificate.gamma, res.certificate.beta,
                            res.phi, res.center)
    assert gamma.shape == (G1.shape[1], nt + G2.shape[1])
    assert np.array_equal(S.G, Gt * phi) and np.array_equal(S.c, cd)
    assert np.abs(Gt * phi - G1 @ gamma[:, :nt]).max() < 1e-6
    assert np.abs(G2 - G1 @ gamma[:, nt:]).max() < 1e-6
    assert np.abs(Z1.c - (cd + Z2.c) - G1 @ beta).max() < 1e-6
    assert (np.abs(gamma).sum(1) + np.abs(beta) <= 1.0 + 1e-6).all()
    return S


@pytest.mark.parametrize("norm", numerics.SCALING_NORMS)
def test_onestep_certificate_meets_its_equations(norm):
    assert_onestep_certified(Z1_3D, Z2_3D, norm)


@pytest.mark.parametrize("norm", numerics.SCALING_NORMS)
@pytest.mark.parametrize("zero_in", ["Z1", "Z2"])
def test_onestep_with_a_zero_generator(norm, zero_in):
    # A zero template column sizes nothing; its scale must not make the
    # program unbounded.
    G1 = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2]])
    G2 = 0.1 * np.eye(2)
    if zero_in == "Z1":
        G1 = np.hstack([G1, np.zeros((2, 1))])
    else:
        G2 = np.hstack([G2, np.zeros((2, 1))])
    Z1, Z2 = Zonotope([0.0, 0.0], G1), Zonotope([0.0, 0.0], G2)
    S = assert_onestep_certified(Z1, Z2, norm)
    assert np.abs(S.G).sum() > 0.0


@pytest.mark.parametrize("norm", numerics.SCALING_NORMS)
def test_onestep_of_flat_operands_is_exact(norm):
    # Both operands lie on x2 = 0, so the template has a zero row, which
    # sizes nothing; the difference is the segment x1 in [-1.4, 1.2].
    Z1 = Zonotope([0.0, 0.0], [[1.0, 0.5], [0.0, 0.0]])
    Z2 = Zonotope([0.1, 0.0], [[0.2], [0.0]])
    S, _ = pontryagin_onestep(Z1, Z2, norm=norm)
    D = pontryagin_iterative(Z1, Z2)
    dirs = np.vstack([np.eye(2), -np.eye(2)])
    want = [1.2, 0.0, 1.4, 0.0]
    for got in (support(S, dirs), support(D, dirs)):
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)


def test_onestep_inside_iterative_inside_oracle():
    rng = np.random.default_rng(1)
    dirs = spread_directions(2, 30)
    checked = 0
    for _ in range(8):
        Z1 = make_zonotope(rng, 2, 4)
        Z2 = Zonotope(0.2 * rng.normal(size=2), 0.3 * rng.normal(size=(2, 2)))
        D = pontryagin_iterative(Z1, Z2)
        if is_empty(D):
            with pytest.raises(EmptySetError):
                pontryagin_onestep(Z1, Z2)
            continue
        checked += 1
        S, _ = pontryagin_onestep(Z1, Z2)
        for d in dirs:
            assert (oracle.support_lp(S, d)
                    <= oracle.support_lp(D, d) + 1e-7)
        points, mask = oracle.pontryagin_oracle(Z1, Z2, grid=13)
        for z, m in zip(points, mask):
            # skip the thin band just outside the boundary, where the
            # grid verdict and the LP verdict may legitimately differ
            if oracle.membership(D, z, 1e-6) and not oracle.membership(D, z, 1e-12):
                continue
            assert m == oracle.membership(D, z, 1e-9)
    assert checked >= 3  # the suite must exercise nonempty differences


def test_subtracting_a_point_translates():
    Z1 = Zonotope([1.0, 2.0], [[1.0, 0.5], [0.0, 1.0]])
    D = pontryagin_iterative(Z1, Zonotope.singleton([0.25, -0.5]))
    assert oracle.sets_equal(D, Zonotope([0.75, 2.5], Z1.G))


@pytest.mark.parametrize("norm", ["1"])
def test_alternate_norms_still_certify(norm):
    rng = np.random.default_rng(3)
    Z1 = make_zonotope(rng, 2, 4)
    Z2 = Zonotope(np.zeros(2), 0.2 * rng.normal(size=(2, 2)))
    S, result = pontryagin_onestep(Z1, Z2, norm=norm)
    assert (result.phi >= -1e-12).all()
    D = pontryagin_iterative(Z1, Z2)
    for d in spread_directions(2, 20):
        assert oracle.support_lp(S, d) <= oracle.support_lp(D, d) + 1e-7


def test_argument_validation(monkeypatch):
    with pytest.raises(ValueError, match="unconstrained"):
        pontryagin_iterative(Z1_3D, pontryagin_iterative(Z1_3D, Z2_3D))
    with pytest.raises(ValueError, match="dimension"):
        pontryagin_onestep(Z1_3D, Zonotope.box([-1, -1], [1, 1]))
    monkeypatch.setattr(pontryagin, "GENERATOR_CAP", 32)
    with pytest.raises(ValueError, match="cap 32"):
        pontryagin_iterative(Z1_3D, Z2_3D)


def test_decision_var_count(monkeypatch):
    # n_g1^2 + 2 n_g1 n_g2 + 2 n_g1 + n_g2 + n unknowns (Gamma, beta,
    # phi, c_d) at n_g1 = 4, n_g2 = n = 2, with Gamma and beta split into
    # positive and negative parts.
    n_vars = []
    solve = numerics.solve_lp
    monkeypatch.setattr(numerics, "solve_lp",
                        lambda p: n_vars.append(p.n_vars) or solve(p))
    Z1 = Zonotope([0.0, 0.0], [[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, -0.5]])
    pontryagin_onestep(Z1, Zonotope([0.0, 0.0], 0.1 * np.eye(2)), norm="1")
    assert n_vars == [16 + 16 + 8 + 2 + 2 + (16 + 16 + 4)]
