"""Acceptance gate: one test per shipped guarantee, in a fixed order.

Each test prints a single pass/fail line under ``pytest -v``.  Golden
numbers and required sizes are written inline in each test, as are the
stated tolerances and runtime budgets; the wayset sizes are for the
scenario bundled under tests/fixtures/.  Randomized parts use fixed
seeds so the gate is deterministic.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from zonokit import (
    ConstrainedZonotope,
    Halfspace,
    Zonotope,
    ah_contains,
    conzono_to_ah,
    convex_hull,
    generalized_intersection,
    inner_reduce_zonotope,
    inner_scale,
    is_empty,
    linear_map,
    lqr_closed_loop,
    make_template,
    minkowski_sum,
    mrpi_iterative,
    pontryagin_iterative,
    pontryagin_onestep,
    reduce_fully,
    rpi_onestep,
    support,
    wayset,
    wayset_reduce,
    zonotope_contains,
    zonotope_halfspace_intersection,
    zonotope_hyperplane_intersects,
)
from zonokit.containment import (
    ah_containment_residual,
    zonotope_containment_residual,
)
from zonokit.halfspaces import refine_certifies_empty
from zonokit.io import read_scenario
from zonokit import oracle

from conftest import FIXTURES, make_conzono, make_zonotope, spread_directions


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


def exact(got, want, tol=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol


def test_01_halfspace_fold_golden():
    with budget(1.0):
        Z = Zonotope([0.0, 0.0], [[1.0, 1.0], [0.0, 2.0]])
        cut = Halfspace([3.0, 1.0], 3.0)
        # crossing test: |f - h'c| = 3 against sum |h'g_i| = 8
        assert abs(cut.f - cut.h @ Z.c) == 3.0
        assert np.abs(cut.h @ Z.G).sum() == 8.0
        assert zonotope_hyperplane_intersects(Z, cut)
        Zh = zonotope_halfspace_intersection(Z, cut)
        exact(Zh.G, [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        exact(Zh.c, [0.0, 0.0])
        exact(Zh.A, [[3.0, 5.0, 5.5]])
        exact(Zh.b, [-2.5])


def test_02_redundant_intersection_collapses():
    with budget(1.0):
        diamond = Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]])
        square = Zonotope([0.0, 0.0], np.eye(2))
        Zc = generalized_intersection(diamond, square)
        assert (Zc.n_g, Zc.n_c) == (4, 2)
        Zf = reduce_fully(Zc)
        assert (Zf.n_g, Zf.n_c) == (2, 0)
        assert oracle.sets_equal(Zf, square)


def test_03_zonotope_inner_reduction():
    with budget(30.0):
        Z = Zonotope([0.0, 0.0],
                     [[4, 3, -2, 0.2, 0.5], [0, 2, 3, 0.6, -0.3]])
        Zr, T, _ = inner_reduce_zonotope(Z, 3, return_map=True)
        assert np.array_equal(
            T, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])
        exact(Zr.G, [[4.5, 3.2, -2.0], [-0.3, 2.6, 3.0]])
        # n = 2, so the ratio is computed from exact polygon areas
        assert oracle.volume_ratio(Zr, Z) == pytest.approx(0.97, abs=0.01)

        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(100):
            Zi = Zonotope(np.zeros(2), rng.uniform(0, 1, (2, 5)))
            Zri = inner_reduce_zonotope(Zi, 3)
            assert zonotope_contains(Zri, Zi) is not None
            ratios.append(oracle.volume_ratio(Zri, Zi))
        assert np.mean(ratios) == pytest.approx(0.84, abs=0.05)


def test_04_conzono_inner_approximation():
    with budget(10.0):
        Zc = ConstrainedZonotope(
            [0.0, 0.0],
            [[-1, 3, 4, 0, 0], [4, -2, -5, 0, 0]],
            [[-1, 3, 4, 6.5, 0], [4, -2, -5, 0, 8]],
            [-1.5, -3.0],
        )
        for kind, expect in (("drop_pair", 0.86), ("zonotope", 0.83),
                             ("box", 0.46)):
            scaled, _ = inner_scale(Zc, make_template(Zc, kind))
            X, Y = conzono_to_ah(scaled), conzono_to_ah(Zc)
            cert = ah_contains(X, Y)
            assert cert is not None, kind
            assert ah_containment_residual(X, Y, cert) < 1e-6, kind
            assert oracle.volume_ratio(scaled, Zc) == pytest.approx(
                expect, abs=0.05), kind


def test_05_convex_hull_sizes_and_minimality():
    from scipy.spatial import ConvexHull as QHull

    Z1 = Zonotope([0.0, 0.0], [[0, 1, 0], [1, 1, 2]])
    Z2 = Zonotope([-5.0, 0.0], [[-0.5, 1, -2], [0.5, 0.5, 1.5]])
    H = convex_hull(Z1, Z2)
    assert (H.n_g, H.n_c) == (19, 12)
    Zc1 = zonotope_halfspace_intersection(Z1, Halfspace([1.0, 1.0], 0.0))
    Zc2 = zonotope_halfspace_intersection(Z2, Halfspace([-2.5, 1.0], 9.5))
    Hc = convex_hull(Zc1, Zc2)
    assert (Hc.n_g, Hc.n_c) == (25, 18)

    # minimality at n = 2: hull area equals the polygon hull of the
    # operands' vertices, so nothing beyond the true hull is included
    rng = np.random.default_rng(5)
    pairs = [(Z1, Z2)] + [(make_zonotope(rng, 2, 3), make_zonotope(rng, 2, 3))
                          for _ in range(3)]
    for A, B in pairs:
        want = QHull(np.vstack([oracle.enumerate_vertices(A),
                                oracle.enumerate_vertices(B)])).volume
        got, err = oracle.volume(convex_hull(A, B))
        assert err == 0.0
        assert abs(got - want) < 1e-6


def test_06_rpi_certificates_and_convergence():
    with budget(60.0):
        W = Zonotope([0.0, 0.0], 0.1 * np.eye(2))
        sys_ = lqr_closed_loop([[1, 1], [0, 1]], [0.5, 1], np.eye(2),
                               [[1.0]], W)
        F_ref, _, _ = mrpi_iterative(sys_, 1e-9)
        dirs = oracle.directions(2)[:40]
        ratios = []
        for s in range(1, 6):
            F, _ = rpi_onestep(sys_, s)
            step = minkowski_sum(linear_map(sys_.A, F), sys_.W)
            for d in dirs:
                assert (oracle.support_lp(step, d)
                        <= oracle.support_lp(F, d) + 1e-9), s
            ratios.append(oracle.volume_ratio(F, F_ref))
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))


def test_07_pontryagin_difference():
    with budget(300.0):
        Z1 = Zonotope([0, 0, 0],
                      [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        Z2 = Zonotope([0, 0, 0], np.array([[-1, 1, 0, 0], [1, 0, 1, 0],
                                           [1, 0, 0, 1]]) / 3.0)
        D = pontryagin_iterative(Z1, Z2)
        assert (D.n_g, D.n_c) == (64, 45)
        S, _ = pontryagin_onestep(Z1, Z2)
        ratio = oracle.volume_ratio(S, D, samples=1_000_000, seed=7)
        assert ratio == pytest.approx(0.924, abs=0.02)

        # randomized 2-D chain: one-step inside exact inside the
        # definitional oracle, off a 1e-6 boundary band
        rng = np.random.default_rng(1)
        dirs = spread_directions(2, 30)
        checked = 0
        for _ in range(8):
            A = make_zonotope(rng, 2, 4)
            B = Zonotope(0.2 * rng.normal(size=2),
                         0.3 * rng.normal(size=(2, 2)))
            Dk = pontryagin_iterative(A, B)
            if is_empty(Dk):
                continue
            checked += 1
            Sk, _ = pontryagin_onestep(A, B)
            for d in dirs:
                assert oracle.support_lp(Sk, d) <= oracle.support_lp(Dk, d) + 1e-7
            points, mask = oracle.pontryagin_oracle(A, B, grid=13)
            for z, m in zip(points, mask):
                if (oracle.membership(Dk, z, 1e-6)
                        and not oracle.membership(Dk, z, 1e-12)):
                    continue
                assert m == oracle.membership(Dk, z, 1e-9)
        assert checked >= 3


def test_08_wayset_representation_sizes():
    doc = read_scenario(os.path.join(FIXTURES, "backward_reach_scenario.json"))
    required_raw = {"ZH": (7, 37), "GI": (30, 60), "LP": (7, 37),
                    # 7 + 9 cuts: IA also folds nine cuts LP proves vacuous,
                    # each with an exact point in its refinement probe; see
                    # test_reach.py::test_ia_extra_folds_have_exact_points_in_the_box
                    "IA": (16, 46)}
    problems = []
    results = {}
    for strategy, want in required_raw.items():
        Z, _ = wayset(doc.system, doc.x_star, doc.N, strategy=strategy)
        results[strategy] = Z
        got = (Z.n_c, Z.n_g)
        if got != want:
            problems.append(
                f"{strategy} raw size (n_c, n_g) = {got}, required {want}")
        R = wayset_reduce(Z)
        if (R.n_c, R.n_g) != (7, 37):
            problems.append(
                f"{strategy} reduced to {(R.n_c, R.n_g)}, required (7, 37)")

    # every sampled wayset point must admit a feasible input sequence
    # that reaches the target without leaving the state constraints
    for x0 in oracle.sample_inside(results["LP"], 100, seed=5):
        if not oracle.horizon_feasible(doc.system, x0, doc.x_star, doc.N):
            problems.append(f"wayset point {x0} is not horizon-feasible")
            break
    assert not problems, "\n".join(problems)


def test_09_property_suites():
    rng = np.random.default_rng(2026)
    checks = 0

    # support equivalences of the core operations (algebraic identities)
    for _ in range(85):
        Za = make_zonotope(rng, 2, int(rng.integers(2, 6)))
        Zb = make_zonotope(rng, 2, int(rng.integers(2, 6)))
        S = minkowski_sum(Za, Zb)
        R = rng.normal(size=(2, 2))
        M = linear_map(R, Za)
        rng.integers(1 << 30)  # the suite's later data follow this draw
        for d in spread_directions(2, 60):
            assert support(S, d) == pytest.approx(
                support(Za, d) + support(Zb, d), abs=1e-9)
            assert support(M, d) == pytest.approx(
                support(Za, R.T @ d), abs=1e-9)
            checks += 2

    # membership of constructed interior points
    for k in range(10):
        Zc = make_conzono(rng, 2, 5, 2)
        for x in oracle.sample_inside(Zc, 10, seed=k):
            assert oracle.membership(Zc, x, tol=1e-7)
            checks += 1

    # intersection membership equivalence, off the boundary band
    for _ in range(10):
        Za = make_zonotope(rng, 2, 4)
        Zb = make_zonotope(rng, 2, 4)
        both = generalized_intersection(Za, Zb)
        for p in rng.uniform(-3.0, 3.0, size=(55, 2)):
            if any(oracle.membership(Z, p, 1e-6)
                   and not oracle.membership(Z, p, 1e-12)
                   for Z in (Za, Zb)):
                continue
            want = oracle.membership(Za, p) and oracle.membership(Zb, p)
            assert oracle.membership(both, p) == want
            checks += 1
    assert checks >= 10_000

    # emptiness certification is sound: never calls a nonempty set
    # empty, with an LP cross-check that the set really is nonempty
    for _ in range(1000):
        Zc = make_conzono(rng, 2, int(rng.integers(3, 7)),
                          int(rng.integers(1, 3)))
        assert not is_empty(Zc)
        assert not refine_certifies_empty(Zc)

    # reduction preserves the set
    for _ in range(15):
        Zc = make_conzono(rng, 2, 6, 2)
        Zf = reduce_fully(Zc)
        assert Zf.n_g <= Zc.n_g and Zf.n_c <= Zc.n_c
        assert oracle.sets_equal(Zf, Zc, grid=5)

    # containment certificates come back with tiny residuals
    for _ in range(15):
        Y = make_zonotope(rng, 2, 5)
        X = Zonotope(np.asarray(Y.c) + 0.05 * rng.normal(size=2),
                     0.5 * np.asarray(Y.G))
        cert = zonotope_contains(X, Y)
        assert cert is not None
        assert zonotope_containment_residual(X, Y, cert) < 1e-6
    for k in range(10):
        Zc = make_conzono(rng, 2, 5, 1)
        p = oracle.sample_inside(Zc, 1, seed=k)[0]
        half = ConstrainedZonotope(0.5 * (np.asarray(Zc.c) + p),
                                   0.5 * np.asarray(Zc.G), Zc.A, Zc.b)
        X, Y = conzono_to_ah(half), conzono_to_ah(Zc)
        cert = ah_contains(X, Y)
        assert cert is not None
        assert ah_containment_residual(X, Y, cert) < 1e-6
