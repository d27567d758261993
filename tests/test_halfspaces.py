import functools
import os

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
    conzono_halfspace_intersection,
    conzono_hyperplane_range,
    conzono_in_halfspace,
    hpolytope_to_conzono,
    intersect_hpolytope,
    interval_refine,
    is_empty,
    linear_map,
    minkowski_sum,
    support,
    wayset,
    zonotope_halfspace_intersection,
    zonotope_hyperplane_intersects,
)
from zonokit.halfspaces import (STRATEGIES, _raw_cut, _solved_ranges,
                                refine_certifies_empty)
from zonokit.io import read_scenario
from zonokit.numerics import (FEAS_TOL, INFEASIBLE, OPTIMAL, ZERO_ENTRY, LinearProgram,
                              NumericalError, solve_lp)
from zonokit.reduction import _canonical
from zonokit import halfspaces, numerics, oracle

from conftest import FIXTURES, make_conzono, make_no_generators, make_zonotope


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
    with pytest.raises(ValueError, match="dimension"):
        zonotope_halfspace_intersection(Z2, Halfspace([3.0, 1.0, 0.0], 3.0))


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
    # Z meets h @ x <= f iff its lowest value of h @ x is at most f.
    for f, meets in ((0.0, True), (-5.0, False)):
        hs = Halfspace([1.0, 0.0], f)
        assert (conzono_hyperplane_range(Z2, hs)[0] <= hs.f) == meets


@pytest.mark.parametrize("b, empty", [((0.0, 0.0), False), ((1e-8, 0.0), True)])
def test_zero_generator_cuts_judge_constant_rows_at_tol(b, empty):
    Z = make_no_generators(b)
    h = np.array([1.0, 1.0])  # h @ c = -1
    if empty:
        with pytest.raises(EmptySetError):
            conzono_hyperplane_range(Z, Halfspace(h, 0.0))
    else:
        assert conzono_hyperplane_range(Z, Halfspace(h, 0.0)) == (-1.0, -1.0)


class TestIntervalRefine:
    def test_bounds_enclose_all_feasible_coefficients(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            Zc = make_conzono(rng, 2, 5, 2)
            E, R = interval_refine(Zc)
            assert not E.any_empty
            coeffs = oracle.sample_coeffs(Zc, 25, seed=rng.integers(1 << 31))
            for I in (E, R):
                assert (coeffs >= I.lo - 1e-6).all()
                assert (coeffs <= I.hi + 1e-6).all()

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


def _scalar_refine(Z, iterations=2, pad=FEAS_TOL):
    """Entry-by-entry refinement loop, the reference for the array kernel."""
    E = IntervalVector.unit(Z.n_g)
    R = IntervalVector.reals(Z.n_g)
    for _ in range(iterations):
        for i in range(Z.n_c):
            row = Z.A[i]
            nz = np.flatnonzero(np.abs(row) > ZERO_ENTRY)
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


def _wayset_systems():
    """The systems refinement meets on the bundled scenario at N = 10: the
    raw cut of every IA screen of a constrained set (replaying the IA
    wayset), and the canonical forms wayset_reduce starts from for the IA
    and GI waysets (constraints 16 x 46 and 30 x 60 before reduction)."""
    doc = read_scenario(os.path.join(FIXTURES, "backward_reach_scenario.json"))
    sys_ = doc.system
    input_pre = linear_map(-sys_.A_inv @ sys_.B, sys_.U)
    Z = Zonotope.singleton(doc.x_star)
    probes = []
    for _ in range(doc.N):
        Z = minkowski_sum(linear_map(sys_.A_inv, Z), input_pre)
        for hs in sys_.X.halfspaces():
            if Z.n_c:
                probes.append(_raw_cut(Z, Halfspace(-hs.h, -hs.f)))
            if not conzono_in_halfspace(Z, hs, "IA"):
                Z = conzono_halfspace_intersection(Z, hs)
    forms = [_canonical(wayset(sys_, doc.x_star, doc.N, strategy=s)[0])
             for s in ("IA", "GI")]
    return probes + forms


# Row 0 tightens nothing, so the second sweep skips it; rows 1 and 2
# pin xi_2 and xi_3 to subintervals and run again.
PARTLY_FIXED = ConstrainedZonotope(
    [0.0, 0.0], np.ones((2, 4)),
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]],
    [0.0, 1.2, 0.2])


@functools.cache
def _kernel_cases():
    rng = np.random.default_rng(11)
    cases = []
    for k in range(30):
        Zc = make_conzono(rng, 2, 6, 3)
        A = Zc.A.copy()
        A[rng.random(A.shape) < 0.3] = 0.0  # exact zeros
        A[rng.random(A.shape) < 0.1] = 1e-13  # below ZERO_ENTRY
        A[rng.random(A.shape) < 0.3] *= -1.0  # sign flips
        if k % 5 == 0:
            A[k % 3] = 0.0  # all-zero row
        b = rng.normal(size=3) * (2.0 if k % 2 else 0.5)  # some empty
        cases.append(ConstrainedZonotope(Zc.c, Zc.G, A, b))
    cases.append(ConstrainedZonotope([0.0, 0.0], np.zeros((2, 0)),
                                     np.zeros((2, 0)), [0.0, 0.0]))
    return tuple(cases + _wayset_systems() + [PARTLY_FIXED])


def test_kernel_cases_cover_wayset_systems():
    sizes = [(Z.n_c, Z.n_g) for Z in _kernel_cases()[31:-1]]
    # 18 raw cuts (six screens at each of steps 8 to 10), then the two forms
    assert len(sizes) == 20 and sizes[-2:] == [(16, 46), (30, 60)]


@pytest.mark.parametrize("iterations", [1, 2, 4])
def test_array_kernel_matches_scalar_loop(iterations):
    for Zc in _kernel_cases():
        E, R = interval_refine(Zc, iterations=iterations)
        E_ref, R_ref = _scalar_refine(Zc, iterations=iterations)
        for got, want in ((E, E_ref), (R, R_ref)):
            assert np.array_equal(got.lo, want.lo)
            assert np.array_equal(got.hi, want.hi)


def test_refinement_reruns_only_rows_whose_columns_moved(monkeypatch):
    runs = []
    monkeypatch.setattr(halfspaces, "_solved_ranges",
                        lambda a, *rest: runs.append(a) or _solved_ranges(a, *rest))
    E, _ = interval_refine(PARTLY_FIXED, iterations=2)
    assert [a.size for a in runs] == [2, 2, 2, 2, 2]  # rows 0, 1, 2, 1, 2
    assert E.lo[0] == -1.0 and E.hi[1] == 1.0
    # pad-free ends 0.4 and 0.8; the pads add up to at most 2 FEAS_TOL
    assert 0.4 - 2 * FEAS_TOL <= E.lo[2] and E.hi[3] <= 0.8 + 2 * FEAS_TOL


def test_solved_ranges_of_a_stack_match_row_by_row_calls():
    """Bit for bit, zero entries (inf or nan) included."""
    rng = np.random.default_rng(13)
    checked = 0
    for Zc in _kernel_cases():
        if Zc.n_c < 2:
            continue
        m = Zc.n_g
        for lo, hi in ((-np.ones(m), np.ones(m)),
                       (rng.uniform(-1.0, 0.0, m), rng.uniform(0.0, 1.0, m))):
            with np.errstate(divide="ignore", invalid="ignore"):
                stacked = _solved_ranges(Zc.A, Zc.b, lo, hi)
                rows = [_solved_ranges(a, rhs, lo, hi) for a, rhs in zip(Zc.A, Zc.b)]
            for got, want in zip(stacked, zip(*rows)):
                assert got.shape == Zc.A.shape
                assert got.tobytes() == np.array(want).tobytes()
            checked += 1
    assert checked > 40


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
    assert np.array_equal(u.lo, -np.ones(3)) and np.array_equal(u.hi, np.ones(3))
    r = IntervalVector.reals(3)
    assert not r.any_empty
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


def test_screens_read_a_plain_window_at_feas_tol():
    """ZH, IA and LP give one verdict on a plain zonotope, with generator
    scales from 1e-3 to 1e3, for a cut at its support, one ulp either
    side of it, and 5e-10 and 2e-9 inside it."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        n, n_g = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        G = rng.normal(size=(n, n_g)) * 10.0 ** rng.uniform(-3.0, 3.0, n_g)
        Z = Zonotope(rng.normal(size=n), G)
        h = rng.normal(size=n)
        top = support(Z, h)
        for f, inside in ((top, True), (np.nextafter(top, -np.inf), True),
                          (np.nextafter(top, np.inf), True),
                          (top - 5e-10, True), (top - 2e-9, False)):
            got = {s: conzono_in_halfspace(Z, Halfspace(h, f), s)
                   for s in STRATEGIES}
            assert got == dict.fromkeys(STRATEGIES, inside), (f - top, got)


def test_zh_on_a_constrained_set_is_the_lp_screen_of_its_parent():
    rng = np.random.default_rng(13)
    for k in range(30):
        Zc = make_conzono(rng, 2 + k % 2, 5, 2)
        parent = Zc.parent_zonotope()
        h = rng.normal(size=Zc.n)
        top = support(parent, h)
        for f in (top, top - 5e-10, top - 2e-9, support(Zc, h), float(rng.normal())):
            hs = Halfspace(h, f)
            assert conzono_in_halfspace(Zc, hs, "ZH") == \
                conzono_in_halfspace(parent, hs, "LP")


@pytest.mark.parametrize("delta, empty", [(5e-10, False), (2e-9, True)])
def test_a_cut_beyond_a_zonotope_is_empty_only_beyond_feas_tol(delta, empty):
    """The fold marks a cut empty when the set lies beyond it by more
    than FEAS_TOL; within it, the LP and refinement keep the face."""
    for Z, h in ((Zonotope([0.0, 0.0], np.eye(2)), np.array([1.0, 0.0])),
                 (Z2, CUT.h), (Z2, -CUT.h)):
        cut = conzono_halfspace_intersection(Z, Halfspace(h, -support(Z, -h) - delta))
        assert is_empty(cut) == empty
        assert refine_certifies_empty(cut) == empty


@pytest.mark.parametrize("f, folds", [(-1.0 - 5e-10, True), (-1.0 - 2e-9, False),
                                      (1.0 - 5e-10, False), (1.0, False)])
def test_the_zonotope_cut_refuses_exactly_the_trivial_cuts(f, folds):
    """On the unit square, the public zonotope cut folds the cut that
    touches the square within FEAS_TOL, as conzono_halfspace_intersection
    does, and refuses one that every screen calls contained or that the
    fold marks empty."""
    square, hs = Zonotope([0.0, 0.0], np.eye(2)), Halfspace([1.0, 0.0], f)
    assert zonotope_hyperplane_intersects(square, hs) == (f >= -1.0 - FEAS_TOL)
    cut = conzono_halfspace_intersection(square, hs)
    if folds:
        got = zonotope_halfspace_intersection(square, hs)
        assert np.array_equal(got.A, cut.A) and np.array_equal(got.b, cut.b)
        assert not is_empty(got)
        return
    with pytest.raises(ValueError, match="does not cross"):
        zonotope_halfspace_intersection(square, hs)
    contained = [conzono_in_halfspace(square, hs, s) for s in STRATEGIES]
    assert contained == [f > 0.0] * len(STRATEGIES)
    assert is_empty(cut) == (f < 0.0)


def _two_lp_verdict(Z, hs):
    """Reference LP verdict: min and max of h @ G xi over the coefficient
    box, empty (hence contained) when either program is infeasible."""
    obj = hs.h @ Z.G
    box = dict(a_eq=Z.A, b_eq=Z.b, lo=-np.ones(Z.n_g), hi=np.ones(Z.n_g))
    out_min = solve_lp(LinearProgram(obj, **box))
    out_max = solve_lp(LinearProgram(obj, maximize=True, **box))
    if INFEASIBLE in (out_min.status, out_max.status):
        return True
    if not (out_min.status == out_max.status == OPTIMAL):
        raise NumericalError("support LP failed")
    return float(hs.h @ Z.c) + out_max.value <= hs.f + FEAS_TOL


def test_lp_strategy_solves_one_lp(monkeypatch):
    solved = []
    monkeypatch.setattr(numerics, "solve_lp",
                        lambda p: solved.append(p) or solve_lp(p))
    conzono_in_halfspace(make_conzono(np.random.default_rng(9), 2, 5, 2),
                         CUT, "LP")
    assert len(solved) == 1 and solved[0].maximize


def test_lp_strategy_matches_the_two_lp_verdict():
    rng = np.random.default_rng(10)
    checked = {True: 0, False: 0}
    for k in range(24):
        Zc = make_conzono(rng, 2 + k % 2, 5, 2)
        if k % 4 == 0:  # move b off the coefficient box's image: often empty
            Zc = ConstrainedZonotope(Zc.c, Zc.G, Zc.A, 3.0 * rng.normal(size=2))
        h = rng.normal(size=Zc.n)
        fs = [float(rng.normal())]
        if not is_empty(Zc):
            f_min, f_max = conzono_hyperplane_range(Zc, Halfspace(h, 0.0))
            fs += [f_max, f_min, f_max - 1e-6]  # tangent cuts and near misses
        for f in fs:
            hs = Halfspace(h, f)
            verdict = conzono_in_halfspace(Zc, hs, "LP")
            assert verdict == _two_lp_verdict(Zc, hs)
            checked[verdict] += 1
    assert min(checked.values()) >= 10


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


def test_hpolytope_to_conzono_rejects_empty_and_unbounded_polytopes():
    empty = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, 1.0])
    with pytest.raises(EmptySetError, match="empty"):
        hpolytope_to_conzono(empty)
    open_below = HPolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="unbounded"):
        hpolytope_to_conzono(open_below)
