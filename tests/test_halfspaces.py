import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    HPolytope,
    IntervalVector,
    Zonotope,
    conzono_halfspace_feasible,
    conzono_halfspace_intersection,
    conzono_hyperplane_range,
    conzono_in_halfspace,
    hpolytope_to_conzono,
    intersect_hpolytope,
    interval_refine,
    is_empty,
    zonotope_halfspace_intersection,
    zonotope_hyperplane_intersects,
)
from zonokit.halfspaces import DIV_TOL, _solved_ranges, refine_certifies_empty
from zonokit import oracle

from conftest import make_conzono, make_zonotope


# Worked 2-D cut used across this file: a two-generator zonotope cut by
# 3 x1 + x2 <= 3, which crosses it.
Z2 = Zonotope([0.0, 0.0], [[1.0, 1.0], [0.0, 2.0]])
CUT = Halfspace([3.0, 1.0], 3.0)


def test_crossing_check_golden():
    # |f - h c| = 3, sum |h g_i| = 8
    assert zonotope_hyperplane_intersects(Z2, CUT)
    assert not zonotope_hyperplane_intersects(Z2, Halfspace([3.0, 1.0], 9.0))
    assert not zonotope_hyperplane_intersects(Z2, Halfspace([3.0, 1.0], -9.0))


def test_zonotope_halfspace_golden_matrices():
    Zh = zonotope_halfspace_intersection(Z2, CUT)
    assert np.allclose(Zh.G, [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    assert np.allclose(Zh.c, [0.0, 0.0])
    assert np.allclose(Zh.A, [[3.0, 5.0, 5.5]])
    assert np.allclose(Zh.b, [-2.5])


def test_zonotope_halfspace_rejects_trivial_cases():
    with pytest.raises(ValueError):
        zonotope_halfspace_intersection(Z2, Halfspace([3.0, 1.0], 9.0))
    Zc = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 0.0]], [0.0])
    with pytest.raises(ValueError):
        zonotope_halfspace_intersection(Zc, CUT)


def test_cut_membership_semantics():
    Zh = zonotope_halfspace_intersection(Z2, CUT)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-3, 3, size=(200, 2)):
        inside = oracle.membership(Z2, x) and CUT.h @ x <= CUT.f + 1e-9
        assert oracle.membership(Zh, x, tol=1e-7) == inside


def test_far_side_cut_is_empty():
    # halfspace strictly beyond the set: canonical unsatisfiable row
    gone = conzono_halfspace_intersection(Z2, Halfspace([3.0, 1.0], -9.0))
    assert gone.n_c == 1 and gone.n_g == Z2.n_g + 1
    assert is_empty(gone)
    assert refine_certifies_empty(gone)  # detected without any LP


def test_hyperplane_range_matches_support_lps():
    rng = np.random.default_rng(1)
    Zc = make_conzono(rng, 2, 6, 2)
    for _ in range(10):
        h = rng.normal(size=2)
        f_min, f_max = conzono_hyperplane_range(Zc, Halfspace(h, 0.0))
        assert f_max == pytest.approx(oracle.support_lp(Zc, h), abs=1e-7)
        assert f_min == pytest.approx(-oracle.support_lp(Zc, -h), abs=1e-7)


def test_hyperplane_range_empty_set():
    bad = ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [2.0])
    with pytest.raises(EmptySetError):
        conzono_hyperplane_range(bad, Halfspace([1.0], 0.0))


def test_halfspace_feasibility():
    assert conzono_halfspace_feasible(Z2, Halfspace([1.0, 0.0], 0.0))
    assert not conzono_halfspace_feasible(Z2, Halfspace([1.0, 0.0], -5.0))


class TestIntervalRefine:
    def test_bounds_enclose_all_feasible_coefficients(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            Zc = make_conzono(rng, 2, 5, 2)
            E, R = interval_refine(Zc)
            assert not E.any_empty
            coeffs = oracle.sample_coeffs(Zc, 25, seed=rng.integers(1 << 31))
            for xi in coeffs:
                assert E.contains(xi, tol=1e-6)
                assert R.contains(xi, tol=1e-6)

    def test_certifies_hand_built_empty(self):
        # single row forces xi_1 = 1.9, beyond the unit box
        bad = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 0.0]], [1.9])
        assert refine_certifies_empty(bad)

    def test_exact_tangency_is_not_certified(self):
        # xi = (1, 1) is the single feasible point; the outward padding
        # must keep the certificate from firing on this boundary case
        tight = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [2.0])
        assert not refine_certifies_empty(tight, iterations=5)
        assert not is_empty(tight)

    def test_more_iterations_never_unlearn(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            Zc = make_conzono(rng, 2, 4, 2)
            # overwrite b with a random rhs so empties occur frequently
            Zc = ConstrainedZonotope(Zc.c, Zc.G, Zc.A, rng.normal(size=2) * 2)
            verdicts = [refine_certifies_empty(Zc, iterations=k) for k in (1, 2, 4)]
            assert verdicts == sorted(verdicts)  # False..True, never back

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError):
            interval_refine(Z2, iterations=0)


def _scalar_refine(Z, iterations=2, pad=1e-12):
    """Entry-by-entry refinement loop, the reference for the array kernel."""
    E = IntervalVector.unit(Z.n_g)
    R = IntervalVector.reals(Z.n_g)
    for _ in range(iterations):
        for i in range(Z.n_c):
            row = Z.A[i]
            nz = np.flatnonzero(np.abs(row) > DIV_TOL)
            if nz.size == 0:
                continue
            t1 = row[nz] * E.lo[nz]
            t2 = row[nz] * E.hi[nz]
            plo = np.minimum(t1, t2)
            phi = np.maximum(t1, t2)
            slo_all = plo.sum()
            shi_all = phi.sum()
            for idx, j in enumerate(nz):
                slo = slo_all - plo[idx]
                shi = shi_all - phi[idx]
                a = row[j]
                lo = (Z.b[i] - shi) / a
                hi = (Z.b[i] - slo) / a
                if a < 0.0:
                    lo, hi = hi, lo
                lo -= pad
                hi += pad
                R.lo[j] = max(R.lo[j], lo)
                R.hi[j] = min(R.hi[j], hi)
                E.lo[j] = max(E.lo[j], R.lo[j])
                E.hi[j] = min(E.hi[j], R.hi[j])
            if E.any_empty:
                return E, R
    return E, R


def _kernel_cases():
    rng = np.random.default_rng(11)
    cases = []
    for k in range(30):
        Zc = make_conzono(rng, 2, 6, 3)
        A = Zc.A.copy()
        A[rng.random(A.shape) < 0.3] = 0.0  # exact zeros
        A[rng.random(A.shape) < 0.1] = 1e-13  # below DIV_TOL
        A[rng.random(A.shape) < 0.3] *= -1.0  # sign flips
        if k % 5 == 0:
            A[k % 3] = 0.0  # all-zero row
        b = rng.normal(size=3) * (2.0 if k % 2 else 0.5)  # some empty
        cases.append(ConstrainedZonotope(Zc.c, Zc.G, A, b))
    cases.append(ConstrainedZonotope([0.0, 0.0], np.zeros((2, 0)),
                                     np.zeros((2, 0)), [0.0, 0.0]))
    return cases


@pytest.mark.parametrize("iterations", [1, 2, 4])
def test_array_kernel_matches_scalar_loop(iterations):
    for Zc in _kernel_cases():
        E, R = interval_refine(Zc, iterations=iterations)
        E_ref, R_ref = _scalar_refine(Zc, iterations=iterations)
        for got, want in ((E, E_ref), (R, R_ref)):
            assert np.array_equal(got.lo, want.lo)
            assert np.array_equal(got.hi, want.hi)


def test_solved_ranges_match_scalar_formula():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=5)
        lo = rng.uniform(-1.0, 0.0, size=5)
        hi = rng.uniform(0.0, 1.0, size=5)
        rhs = rng.normal()
        r_lo, r_hi = _solved_ranges(a, rhs, lo, hi)
        for j in range(5):
            others = [k for k in range(5) if k != j]
            s_lo = sum(min(a[k] * lo[k], a[k] * hi[k]) for k in others)
            s_hi = sum(max(a[k] * lo[k], a[k] * hi[k]) for k in others)
            ends = sorted([(rhs - s_hi) / a[j], (rhs - s_lo) / a[j]])
            assert r_lo[j] == pytest.approx(ends[0], rel=1e-12, abs=1e-12)
            assert r_hi[j] == pytest.approx(ends[1], rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_refinement_never_certifies_a_nonempty_set(seed):
    rng = np.random.default_rng(seed)
    Zc = make_conzono(rng, rng.integers(1, 4), rng.integers(2, 8), rng.integers(1, 4))
    assert not refine_certifies_empty(Zc, iterations=3)


def test_interval_vector_helpers():
    u = IntervalVector.unit(3)
    assert u.contains([1.0, -1.0, 0.0])
    r = IntervalVector.reals(3)
    assert not r.any_empty
    both = u.intersect(IntervalVector([0.5, -2.0, 0.0], [2.0, 2.0, 0.0]))
    assert both.contains([0.75, 0.0, 0.0])
    assert IntervalVector([1.0], [0.0]).any_empty
    with pytest.raises(ValueError):
        IntervalVector([0.0], [1.0, 2.0])


class TestContainmentStrategies:
    def test_lp_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            Zc = make_conzono(rng, 2, 5, 2)
            h = rng.normal(size=2)
            f = float(rng.normal() * 3)
            truth = oracle.support_lp(Zc, h) <= f + 1e-9
            assert conzono_in_halfspace(Zc, Halfspace(h, f), "LP") == truth

    @pytest.mark.parametrize("strategy", ["ZH", "IA"])
    def test_sufficient_strategies_never_lie(self, strategy):
        rng = np.random.default_rng(5)
        for _ in range(40):
            Zc = make_conzono(rng, 2, 5, 2)
            h = rng.normal(size=2)
            f = float(rng.normal() * 3)
            if conzono_in_halfspace(Zc, Halfspace(h, f), strategy):
                assert oracle.support_lp(Zc, h) <= f + 1e-6

    def test_all_strategies_exact_on_plain_zonotopes(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            Z = make_zonotope(rng, 2, 4)
            h = rng.normal(size=2)
            # keep away from the support boundary where ties are allowed
            f = float(rng.normal() * 4)
            if abs(oracle.support_lp(Z, h) - f) < 1e-6:
                continue
            truth = oracle.support_lp(Z, h) <= f
            for strategy in ("ZH", "LP", "IA"):
                assert conzono_in_halfspace(Z, Halfspace(h, f), strategy) == truth

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            conzono_in_halfspace(Z2, CUT, "QP")


def test_intersect_hpolytope_strategies_agree_on_the_set():
    rng = np.random.default_rng(7)
    P = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
                  [1.5, 1.5, 1.5, 1.5, 1.0])
    for _ in range(4):
        Z = make_zonotope(rng, 2, 4)
        cuts = {s: intersect_hpolytope(Z, P, strategy=s)
                for s in ("ZH", "LP", "IA", "GI")}
        if is_empty(cuts["GI"]):
            assert all(is_empty(c) for c in cuts.values())
            continue
        for s in ("ZH", "LP", "IA"):
            assert oracle.sets_equal(cuts[s], cuts["GI"], grid=7)
        # GI folds every halfspace; the checking strategies can only skip
        assert cuts["LP"].n_c <= cuts["GI"].n_c


def test_hpolytope_to_conzono_box_is_exact_grep():
    box = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    [2.0, 1.0, 0.5, 0.5])
    Zc = hpolytope_to_conzono(box)
    assert Zc.n_c == 0 and Zc.n_g == 2     # pure G-Rep box, no cuts folded
    lo, hi = Zc.interval_hull()
    assert np.allclose(lo, [-1.0, -0.5]) and np.allclose(hi, [2.0, 0.5])


def test_hpolytope_to_conzono_triangle_membership():
    tri = HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.5])
    Zc = hpolytope_to_conzono(tri)
    rng = np.random.default_rng(8)
    for x in rng.uniform(-2, 2, size=(150, 2)):
        inside = bool((tri.H @ x <= tri.f + 1e-9).all())
        assert oracle.membership(Zc, x, tol=1e-7) == inside
