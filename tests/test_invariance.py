import numpy as np
import pytest

from zonokit import (
    AutonomousSystem,
    HPolytope,
    Zonotope,
    f_s,
    linear_map,
    lqr_closed_loop,
    minkowski_sum,
    mrpi_iterative,
    rpi_onestep,
    support,
    zonotope_contains,
)
from zonokit.containment import zonotope_containment_residual
from zonokit import invariance
from zonokit.invariance import _w_hrep, onestep_decision_vars
from zonokit.numerics import NumericalError
from zonokit import oracle

from conftest import make_conzono, make_zonotope


W = Zonotope([0.0, 0.0], 0.1 * np.eye(2))


@pytest.fixture(scope="module")
def closed_loop():
    # double integrator under its LQR feedback, additive box noise
    return lqr_closed_loop([[1, 1], [0, 1]], [0.5, 1], np.eye(2), [[1.0]], W)


def step(sys, Z):
    return minkowski_sum(linear_map(sys.A, Z), sys.W)


def invariant_by_supports(sys, Z, dirs):
    return all(oracle.support_lp(step(sys, Z), d)
               <= oracle.support_lp(Z, d) + 1e-9 for d in dirs)


def test_lqr_stabilizes(closed_loop):
    assert closed_loop.spectral_radius < 1.0
    assert closed_loop.n == 2


def test_lqr_rejects_nonstabilizable():
    # second state is uncontrollable and unstable
    with pytest.raises(NumericalError):
        lqr_closed_loop([[2, 0], [0, 2]], [1.0, 0.0], np.eye(2), [[1.0]], W,
                        max_iter=2000)


class TestSystemValidation:
    def test_unstable_A(self):
        with pytest.raises(ValueError, match="stable"):
            AutonomousSystem([[1.0, 0.0], [0.0, 0.5]], W)

    def test_W_must_hold_origin(self):
        shifted = Zonotope([5.0, 0.0], 0.1 * np.eye(2))
        with pytest.raises(ValueError, match="origin"):
            AutonomousSystem(0.5 * np.eye(2), shifted)

    def test_shape_and_type_checks(self):
        with pytest.raises(ValueError):
            AutonomousSystem(np.zeros((3, 3)), W)


class TestDisturbanceReach:
    def test_prefix_extension(self, closed_loop):
        F2, F3 = f_s(closed_loop, 2), f_s(closed_loop, 3)
        assert F3.n_g == F2.n_g + W.n_g
        assert np.allclose(F3.G[:, :F2.n_g], F2.G)

    def test_zero_steps_is_W(self, closed_loop):
        F0 = f_s(closed_loop, 0)
        assert np.allclose(F0.G, W.G) and np.allclose(F0.c, W.c)

    def test_negative_steps(self, closed_loop):
        with pytest.raises(ValueError):
            f_s(closed_loop, -1)


class TestMrpiIterative:
    def test_meets_bound_and_is_invariant(self, closed_loop):
        dirs = oracle.directions(2, seed=1)[:30]
        F, alpha, s = mrpi_iterative(closed_loop, 1e-2)
        assert 0.0 <= alpha < 1.0 and s >= 1
        assert F.n_g == s * W.n_g
        assert invariant_by_supports(closed_loop, F, dirs)

    def test_tighter_eps_needs_more_terms(self, closed_loop):
        _, _, s_loose = mrpi_iterative(closed_loop, 1e-2)
        F_tight, _, s_tight = mrpi_iterative(closed_loop, 1e-4)
        assert s_tight > s_loose
        assert invariant_by_supports(closed_loop, F_tight,
                                     oracle.directions(2, seed=2)[:30])

    def test_rotated_disturbance_uses_facet_enumeration(self):
        W_rot = Zonotope([0.0, 0.0], [[0.1, 0.05], [0.05, 0.1]])
        sys = AutonomousSystem([[0.6, 0.2], [-0.1, 0.5]], W_rot)
        F, alpha, _ = mrpi_iterative(sys, 1e-3)
        assert alpha < 1.0
        assert invariant_by_supports(sys, F, oracle.directions(2, seed=3)[:30])

    def test_four_dimensional_disturbance(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(4, 4))
        A = 0.5 * A / np.abs(np.linalg.eigvals(A)).max()
        sys = AutonomousSystem(A, Zonotope(np.zeros(4),
                                           0.1 * rng.normal(size=(4, 6))))
        F, alpha, s = mrpi_iterative(sys, 1e-3)
        assert alpha < 1.0 and F.n_g == 6 * s
        assert invariant_by_supports(sys, F, oracle.directions(4, seed=4)[:40])
        # W's size does not decide which facets count: a power-of-two
        # scale leaves every rounding as it was, and 1e-5 moves alpha only
        # in its last bits.
        for scale in (2.0 ** -17, 1e-5):
            tiny = AutonomousSystem(A, Zonotope(np.zeros(4), scale * sys.W.G))
            F_t, alpha_t, s_t = mrpi_iterative(tiny, scale * 1e-3)
            assert s_t == s and alpha_t == pytest.approx(alpha, rel=1e-9)
            assert np.allclose(F_t.G, scale * F.G, rtol=1e-9, atol=0.0)
            if scale == 2.0 ** -17:
                assert alpha_t == alpha
                assert np.array_equal(F_t.G, scale * F.G)
            assert invariant_by_supports(tiny, F_t,
                                         oracle.directions(4, seed=4)[:40])

    def test_eps_validation(self, closed_loop):
        with pytest.raises(ValueError):
            mrpi_iterative(closed_loop, 0.0)


def _support_ratio_per_row(Z, P):
    """The support ratio from one :func:`support` call per row."""
    worst = 0.0
    for h, f in zip(P.H, P.f):
        reach = support(Z, h)
        if f > 1e-12:
            worst = max(worst, reach / f)
        elif reach > 1e-12:
            return np.inf
    return worst


@pytest.mark.parametrize("n", [2, 3, 4])
def test_support_ratio_rounds_as_one_support_per_row(n):
    rng = np.random.default_rng(50 + n)
    e1 = np.eye(n)[0]
    for n_g in (0, 1, 7, 40):
        # centred 100 along e1, so Z reaches past {e1 . x <= 0} and
        # stays behind {-e1 . x <= 0}
        Z = Zonotope(100.0 * e1 + rng.normal(size=n), rng.normal(size=(n, n_g)))
        H = rng.normal(size=(60, n))
        f = np.abs(rng.normal(size=60)) + 0.1
        ratio = invariance._support_ratio(Z, HPolytope(H, f))
        assert 0.0 < ratio == _support_ratio_per_row(Z, HPolytope(H, f))
        behind = HPolytope(np.vstack([H, -e1]), np.r_[f, 0.0])
        assert invariance._support_ratio(Z, behind) == ratio
        past = HPolytope(np.vstack([H, e1]), np.r_[f, 0.0])
        assert invariance._support_ratio(Z, past) == np.inf


class TestZonotopeFacets:
    def test_hrep_equals_the_set(self):
        rng = np.random.default_rng(11)
        for n, n_g in ((2, 4), (3, 5), (4, 6)):
            Z = make_zonotope(rng, n, n_g)
            P = _w_hrep(Z)
            box = rng.uniform(-1.0, 1.0, size=(120, n))
            for x in Z.c + box * np.abs(Z.G).sum(axis=1):
                assert bool((P.H @ x <= P.f + 1e-9).all()) == \
                    oracle.membership(Z, x, tol=1e-9)
            for h, f in zip(P.H, P.f):
                assert oracle.support_lp(Z, h) == pytest.approx(f, abs=1e-9)

    def test_rejects_flat_and_constrained_sets(self):
        with pytest.raises(ValueError, match="full-dimensional"):
            _w_hrep(Zonotope([0.0, 0.0], [[1.0], [1.0]]))
        # A flat box, e.g. a disturbance on one state only, keeps its rows.
        P = _w_hrep(Zonotope([0.5, 0.0], [[1.0], [0.0]]))
        assert np.array_equal(P.H, np.vstack([np.eye(2), -np.eye(2)]))
        assert np.array_equal(P.f, [1.5, 0.0, 0.5, 0.0])
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="unconstrained"):
            AutonomousSystem(0.5 * np.eye(2), make_conzono(rng, 2, 4, 1))

    def test_nearly_dependent_generators(self):
        # Full rank, but every pair of generators spans an area under 1e-12.
        d = 1e-13
        with pytest.raises(ValueError, match="nearly dependent"):
            _w_hrep(Zonotope(np.zeros(3), [[1.0, 1.0, 1.0], [0.0, d, 0.0],
                                           [0.0, 0.0, d]]))
        # Zero generators are skipped, not counted against the budget.
        P = _w_hrep(Zonotope([0.0, 0.0], [[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]))
        assert P.H.shape == (4, 2)

    def test_subset_budget(self, monkeypatch):
        Z = make_zonotope(np.random.default_rng(13), 3, 5)
        monkeypatch.setattr(invariance, "FACET_BUDGET", 9)
        with pytest.raises(ValueError, match="C\\(5, 2\\)"):
            _w_hrep(Z)


class TestRpiOnestep:
    def test_too_small_template(self, closed_loop):
        with pytest.raises(ValueError, match="increase s"):
            rpi_onestep(closed_loop, 0)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_certified_invariant(self, closed_loop, s):
        Z, result = rpi_onestep(closed_loop, s)
        assert (result.phi >= 0.0).all()
        hit = step(closed_loop, Z)
        cert = zonotope_contains(hit, Z)
        assert cert is not None
        assert zonotope_containment_residual(hit, Z, cert) < 1e-6

    @pytest.mark.parametrize("norm", ["inf", "1"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_certificate_meets_its_equations(self, closed_loop, s, norm):
        # A G Phi = G Gamma1, G_w = G Gamma2, (I - A) c - c_w = G beta,
        # |Gamma1| 1 + |Gamma2| 1 + |beta| <= phi, in the returned layout.
        A, W = closed_loop.A, closed_loop.W
        G = f_s(closed_loop, s).G
        n_g = G.shape[1]
        Z, res = rpi_onestep(closed_loop, s, norm=norm)
        gamma, beta, phi, c = (res.certificate.gamma, res.certificate.beta,
                               res.phi, res.center)
        assert gamma.shape == (n_g, n_g + W.n_g) and beta.shape == (n_g,)
        assert np.array_equal(Z.G, G * phi) and np.array_equal(Z.c, c)
        g1, g2 = gamma[:, :n_g], gamma[:, n_g:]
        assert np.abs(A @ G * phi - G @ g1).max() < 1e-6
        assert np.abs(W.G - G @ g2).max() < 1e-6
        assert np.abs((np.eye(2) - A) @ c - W.c - G @ beta).max() < 1e-6
        budget = np.abs(g1).sum(1) + np.abs(g2).sum(1) + np.abs(beta)
        assert (budget <= phi + 1e-6).all()

    def test_norm_2_is_rejected(self, closed_loop):
        with pytest.raises(ValueError, match="use norm 1 or 'inf'"):
            rpi_onestep(closed_loop, 2, norm="2")

    def test_shrinks_toward_iterative_reference(self, closed_loop):
        ref, _, _ = mrpi_iterative(closed_loop, 1e-9)
        ratios = [oracle.volume_ratio(rpi_onestep(closed_loop, s)[0], ref)
                  for s in (2, 3, 4)]
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_decision_var_count(self):
        assert onestep_decision_vars(6, 2, 2) == 36 + 6 * 4 + 2
