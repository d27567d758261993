import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_array

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    HPolytope,
    Zonotope,
    contains_point,
    generalized_intersection,
    is_empty,
    pontryagin_iterative,
    support,
)
from zonokit.reach import LinearSystem
from zonokit.sets import as_conzono
from zonokit import oracle

from conftest import make_conzono, make_no_generators, make_zonotope


def test_directions_are_deterministic_and_unit():
    a = oracle.directions(3, seed=5)
    b = oracle.directions(3, seed=5)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_support_lp_matches_algebraic_support():
    rng = np.random.default_rng(0)
    Z = make_zonotope(rng, 3, 6)
    for d in oracle.directions(3, seed=1)[:25]:
        assert oracle.support_lp(Z, d) == pytest.approx(support(Z, d), abs=1e-8)


def test_vertices_attain_the_support():
    rng = np.random.default_rng(1)
    for _ in range(5):
        Z = make_zonotope(rng, 2, 4)
        verts = oracle.enumerate_vertices(Z)
        for d in oracle.directions(2, seed=2)[:20]:
            assert (verts @ d).max() == pytest.approx(
                oracle.support_lp(Z, d), abs=1e-6)


def test_volume_exact_paths():
    seg = Zonotope([1.0], [[2.0, 0.5]])
    assert oracle.volume(seg) == (5.0, 0.0)
    square = Zonotope.box([-1, -2], [3, 2])
    assert oracle.volume(square) == (16.0, 0.0)


def test_volume_mc_matches_exact_formula_in_3d():
    rng = np.random.default_rng(3)
    Z = make_zonotope(rng, 3, 4)
    want = oracle.zonotope_volume_exact(Z)
    got, err = oracle.volume(Z, samples=150_000, seed=4)
    assert err > 0.0
    assert abs(got - want) < 4 * err


def test_volume_stderr_shrinks_with_samples():
    rng = np.random.default_rng(5)
    Z = make_zonotope(rng, 3, 4)
    _, e1 = oracle.volume(Z, samples=20_000, seed=6)
    _, e2 = oracle.volume(Z, samples=80_000, seed=6)
    assert e2 == pytest.approx(e1 / 2, rel=0.2)


def test_volume_ratio_reciprocity():
    rng = np.random.default_rng(7)
    X, Y = make_zonotope(rng, 2, 4), make_zonotope(rng, 2, 5)
    r = oracle.volume_ratio(X, Y)
    assert r * oracle.volume_ratio(Y, X) == pytest.approx(1.0, abs=1e-9)


def test_membership_agrees_with_contains_point():
    rng = np.random.default_rng(8)
    Z = make_zonotope(rng, 2, 5)
    for x in rng.uniform(-4, 4, size=(80, 2)):
        assert oracle.membership(Z, x) == contains_point(Z, x)


def test_sup_distances_of_a_constrained_square():
    # diamond ∩ unit square is the unit square, written with n_c = 2
    square = generalized_intersection(
        Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]]),
        Zonotope([0.0, 0.0], np.eye(2)))
    rng = np.random.default_rng(13)
    pts = np.vstack([rng.uniform(-2, 2, size=(150, 2)),
                     [[1 + 1e-6, 0.3], [-0.2, -1 - 1e-6], [1 - 1e-6, 1.0]]])
    want = np.maximum(np.max(np.abs(pts), axis=1) - 1.0, 0.0)
    assert np.allclose(oracle._sup_distances(square, pts), want,
                       rtol=0.0, atol=1e-9)
    assert not oracle.membership(square, [1 + 1e-6, 0.3])
    assert oracle.membership(square, [1 + 1e-6, 0.3], tol=1e-5)


def test_distances_resolve_below_the_solver_default_tolerance():
    # HiGHS' default primal feasibility tolerance of 1e-7 read all three
    # points as inside (distance 0)
    square = generalized_intersection(
        Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]]),
        Zonotope([0.0, 0.0], np.eye(2)))
    eps = np.array([1e-7, 1e-8, 1e-9])
    pts = np.column_stack([1.0 + eps, np.full(3, 0.3)])
    assert np.allclose(oracle._sup_distances(square, pts), eps,
                       rtol=0.0, atol=1e-10)
    assert not oracle.membership(square, [1 + 1e-8, 0.3])
    assert oracle.membership(square, [1 + 1e-8, 0.3], tol=2e-8)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_distances_agree_with_membership(n):
    rng = np.random.default_rng(14 + n)
    Z = make_conzono(rng, n, 7, 2)
    D = oracle.directions(n)
    # support points pushed out by eps: sup-norm distance in
    # [eps / sqrt(n), eps], so 1e-10 is within both tolerances and
    # 3e-6 beyond both (the LPs resolve about 1e-7)
    near = [np.array([oracle._support_point(Z, d)[1] + eps * d
                      for d in D[np.linspace(0, len(D) - 1, 30).astype(int)]])
            for eps in (1e-10, 3e-6)]
    pts = np.vstack([rng.uniform(-3, 3, size=(40, n)), *near])
    assert len(pts) > oracle.LP_BLOCKS
    dist = oracle._sup_distances(Z, pts)
    single = [oracle._sup_distances(Z, p[None])[0] for p in pts]
    assert np.allclose(dist, single, rtol=0.0, atol=1e-9)
    for tol in (1e-9, 1e-6):
        got = dist <= tol
        assert got.tolist() == [oracle.membership(Z, p, tol) for p in pts]
        assert got[40:70].all() and not got[70:].any()


def _one_direction_support(Z, d):
    """Support value and point from one LP per direction: the sweep as
    it was solved before directions were batched."""
    Z = as_conzono(Z)
    c, G, A, b = Z.c, Z.G, Z.A, Z.b
    if Z.n_g == 0:
        if Z.n_c and np.max(np.abs(b)) > oracle.MEMBERSHIP_TOL:
            raise EmptySetError("empty set has no support")
        return float(d @ c), c.copy()
    if Z.n_c == 0:
        signs = np.sign(G.T @ d)
        signs[signs == 0] = 1.0
        return float(d @ c + np.abs(G.T @ d).sum()), c + G @ signs
    res = linprog(-(G.T @ d), A_eq=A, b_eq=b, bounds=(-1.0, 1.0),
                  method="highs",
                  options={"primal_feasibility_tolerance": oracle.PRIMAL_TOL})
    if res.status == 2:
        raise EmptySetError("empty set has no support")
    assert res.status == 0, res.message
    return float(d @ c - res.fun), c + G @ res.x


def _one_direction_support_points(Z, D):
    values, points = zip(*(_one_direction_support(Z, d) for d in D))
    return np.array(values), np.array(points)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_support_matches_one_lp_per_direction(n, monkeypatch):
    rng = np.random.default_rng(20 + n)
    D = rng.standard_normal((2 * oracle.LP_BLOCKS + 7, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    sets = {"constrained": make_conzono(rng, n, 7, 2),
            "plain": make_zonotope(rng, n, 5),
            "no generators": Zonotope(rng.normal(size=n), np.zeros((n, 0)))}
    for kind, Z in sets.items():
        values, points = oracle._support_points(Z, D)
        want_values, _ = _one_direction_support_points(Z, D)
        assert np.max(np.abs(values - want_values)) <= 1e-12, kind
        assert np.allclose(np.sum(points * D, axis=1), values,
                           rtol=0.0, atol=1e-9), kind
        assert oracle.support_lp(Z, D[5]) == pytest.approx(values[5], abs=1e-12)
        got = oracle.enumerate_vertices(Z)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_support_points",
                          _one_direction_support_points)
            want = oracle.enumerate_vertices(Z)
        assert len(got) == len(want), kind
        assert ({tuple(v) for v in np.round(got, 9)}
                == {tuple(v) for v in np.round(want, 9)}), kind


def test_batched_support_reports_empty_sets():
    D = oracle.directions(2)
    for bad in (ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [3.0]),
                ConstrainedZonotope([0.0, 0.0], np.zeros((2, 0)),
                                    np.zeros((1, 0)), [1.0])):
        with pytest.raises(EmptySetError):
            oracle._support_points(bad, D)
        assert np.isinf(oracle._sup_distances(bad, D)).all()


@pytest.mark.parametrize("m", [1, 4])
def test_block_diagonal_is_the_padded_kron(m):
    # a zero entry, a zero row and a negative zero, which is no nonzero
    M = np.array([[1.5, 0.0, -2.0], [0.0, 0.0, 0.0], [-0.0, 3.0, 0.0]])
    for width in (3 * m, 3 * m + 5):
        B = oracle._block_diagonal(M, m, width)
        assert isinstance(B, csr_array) and B.shape == (3 * m, width)
        assert B.nnz == 3 * m
        want = np.hstack([np.kron(np.eye(m), M), np.zeros((3 * m, width - 3 * m))])
        assert np.array_equal(B.toarray(), want)


def _one_point_distance(Z, p):
    """Sup-norm distance from p to the set from one dense LP: one block
    of the batched distance program."""
    Z = as_conzono(Z)
    c, G, A, b = Z.c, Z.G, Z.A, Z.b
    if Z.n_g == 0:
        return float(np.max(np.abs(p - c)))
    ones = np.ones((Z.n, 1))
    res = linprog(np.r_[np.zeros(Z.n_g), 1.0],
                  A_ub=np.block([[G, -ones], [-G, -ones]]),
                  b_ub=np.r_[p - c, c - p],
                  A_eq=np.hstack([A, np.zeros((Z.n_c, 1))]) if Z.n_c else None,
                  b_eq=b if Z.n_c else None,
                  bounds=[(-1.0, 1.0)] * Z.n_g + [(0.0, None)], method="highs",
                  options={"primal_feasibility_tolerance": oracle.PRIMAL_TOL})
    if res.status == 2:
        return np.inf
    assert res.status == 0, res.message
    return res.x[-1]


def _degenerate_sets(rng):
    Z = make_conzono(rng, 3, 6, 2)
    zero_column = ConstrainedZonotope(
        Z.c, np.hstack([Z.G[:, :2], np.zeros((3, 1)), Z.G[:, 3:]]), Z.A, Z.b)
    duplicated = ConstrainedZonotope(Z.c, Z.G, np.vstack([Z.A, Z.A, 2 * Z.A[:1]]),
                                     np.r_[Z.b, Z.b, 2 * Z.b[:1]])
    plane = rng.normal(size=(3, 2))
    flat = ConstrainedZonotope(Z.c, plane @ rng.normal(size=(2, 6)), Z.A, Z.b)
    point = ConstrainedZonotope([1.0, -2.0, 0.5], np.zeros((3, 0)),
                                np.zeros((2, 0)), [0.0, 0.0])
    return {"zero generator column": zero_column,
            "duplicated rank-deficient A rows": duplicated,
            "flat": flat, "no generators": point}


def test_batched_sweeps_match_one_lp_per_row_on_degenerate_sets():
    rng = np.random.default_rng(40)
    D = rng.standard_normal((oracle.LP_BLOCKS + 7, 3))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    for kind, Z in _degenerate_sets(rng).items():
        values, points = oracle._support_points(Z, D)
        want_values, _ = _one_direction_support_points(Z, D)
        assert np.max(np.abs(values - want_values)) <= 1e-12, kind
        assert np.allclose(np.sum(points * D, axis=1), values,
                           rtol=0.0, atol=1e-9), kind
        # points on and just off the set, and well away from it
        P = np.vstack([points[:20] + 1e-4 * D[:20],
                       Z.c + rng.uniform(-3, 3, (len(D) - 20, 3))])
        want = [_one_point_distance(Z, p) for p in P]
        assert np.allclose(oracle._sup_distances(Z, P), want,
                           rtol=0.0, atol=1e-9), kind


def test_a_two_dimensional_sweep_takes_one_program_per_lp_blocks_rows(
        monkeypatch):
    Z = make_conzono(np.random.default_rng(41), 2, 6, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", counting)
    D = oracle.directions(2)
    assert len(D) == 720
    oracle._support_points(Z, D)
    assert len(calls) == math.ceil(720 / oracle.LP_BLOCKS)
    calls.clear()
    oracle._sup_distances(Z, Z.c + D)
    assert len(calls) == math.ceil(720 / oracle.LP_BLOCKS)


def test_empty_below_the_solver_default_tolerance():
    # infeasible by 1e-8: at HiGHS' default primal tolerance of 1e-7 the
    # emptiness test passed it, then the support LPs found it empty
    S = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [2.0 + 1e-8])
    assert oracle.volume(S) == (0.0, 0.0)
    assert oracle.sets_equal(S, S) is True
    with pytest.raises(EmptySetError):
        oracle.sample_inside(S, 3)


def _verify_pair(seed):
    """The verify benchmark workload's random Pontryagin pair."""
    rng = np.random.default_rng(seed)
    make_conzono(rng, 2, 6, 2)  # the workload draws its random set first
    while True:
        A = Zonotope(rng.normal(size=2), rng.normal(size=(2, 4)))
        B = Zonotope(0.2 * rng.normal(size=2), 0.3 * rng.normal(size=(2, 2)))
        if not is_empty(pontryagin_iterative(A, B)):
            return A, B


@pytest.mark.parametrize("seed", [1, 2])
def test_pontryagin_mask_matches_one_membership_per_point(seed):
    A, B = _verify_pair(seed)
    points, mask = oracle.pontryagin_oracle(A, B, grid=13)
    verts = oracle.enumerate_vertices(B)
    want = [all(oracle.membership(A, z + v) for v in verts) for z in points]
    assert 0 < mask.sum() < len(mask)
    assert np.array_equal(mask, want)


def _per_point_classify(probe, points):
    """_SetProbe.classify with one membership LP per band point; also
    returns the band."""
    outer = np.max(points @ probe.D.T - probe.f, axis=1) <= probe.tol
    inside = np.zeros(len(points), dtype=bool)
    if probe.inner is not None:
        inside = np.max(points @ probe.inner[:, :-1].T + probe.inner[:, -1],
                        axis=1) <= probe.tol
    result, band = outer & inside, outer & ~inside
    for i in np.flatnonzero(band):
        result[i] = oracle.membership(probe.Z, points[i], probe.tol)
    return result, band


def test_probe_band_matches_one_membership_per_point(monkeypatch):
    rng = np.random.default_rng(31)
    sup_distances = oracle._sup_distances
    solid = make_conzono(rng, 3, 6, 2)
    # a flat set has no inner hull, so every point the outer polytope
    # keeps goes to the LPs
    plane = rng.normal(size=(3, 2))
    flat = ConstrainedZonotope(rng.normal(size=3),
                               plane @ rng.normal(size=(2, 5)),
                               rng.normal(size=(1, 5)), [0.3])
    for Z in (solid, flat):
        probe = oracle._SetProbe(Z)
        # points near the vertices, where the sweep's outer polytope is
        # loosest, and points of the set's plane and of its box
        verts = oracle.enumerate_vertices(Z)
        push = rng.standard_normal((300, 3)) * rng.uniform(0, 0.02, (300, 1))
        lo, hi = Z.parent_zonotope().interval_hull()
        points = np.vstack([
            verts[rng.integers(len(verts), size=300)] + push,
            Z.c + rng.uniform(-3, 3, (300, 2)) @ plane.T,
            lo + rng.random((300, 3)) * (hi - lo)])
        want, band = _per_point_classify(probe, points)
        assert band.sum() >= 10
        solved = []

        def recording(Z, P):
            solved.append(P)
            return sup_distances(Z, P)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_sup_distances", recording)
            got = probe.classify(points)
        assert np.array_equal(got, want)
        # the two-stage rejection leaves the LPs the one-stage band
        assert np.array_equal(np.vstack(solved), points[band])
    assert probe.inner is None
    assert 0 < want[band].sum() < band.sum()


def test_sample_inside_lands_inside():
    rng = np.random.default_rng(9)
    Zc = make_conzono(rng, 2, 5, 2)
    pts = oracle.sample_inside(Zc, 40, seed=10)
    assert len(pts) == 40
    for x in pts:
        assert oracle.membership(Zc, x, tol=1e-7)


def test_sets_equal_accepts_representation_changes():
    Z = Zonotope([1.0, -1.0], [[1.0, 0.5], [0.0, 2.0]])
    # each generator chopped in half, halves listed apart
    split = Zonotope([1.0, -1.0], [[0.5, 0.25, 0.5, 0.25],
                                   [0.0, 1.0, 0.0, 1.0]])
    assert oracle.sets_equal(Z, split)
    assert not oracle.sets_equal(Z, Zonotope([1.1, -1.0], Z.G))


def test_empty_sets_are_reported():
    bad = ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [3.0])
    with pytest.raises(EmptySetError):
        oracle.enumerate_vertices(bad)
    assert oracle.volume(bad) == (0.0, 0.0)
    assert not oracle.membership(bad, [1.0], tol=10.0)
    assert np.isinf(oracle._sup_distances(bad, [[0.0], [1.0]])).all()


class TestHorizonFeasible:
    def setup_method(self):
        X = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [5, 5, 5, 5])
        self.sys = LinearSystem([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], X,
                                Zonotope([0.0], [[0.5]]))

    def test_one_step_reachability_matches_algebra(self):
        # from x0, one step lands on A x0 + B u with |u| <= 0.5
        x0 = np.array([1.0, 0.0])
        assert oracle.horizon_feasible(self.sys, x0, [1.0, 0.3], 1)
        assert not oracle.horizon_feasible(self.sys, x0, [1.0, 0.7], 1)
        assert not oracle.horizon_feasible(self.sys, x0, [1.2, 0.0], 1)

    def test_state_constraints_bind_along_the_path(self):
        # reaching (-5, 5)-ish corners requires leaving X midway
        assert not oracle.horizon_feasible(self.sys, [5.0, -0.5], [5.0, 0.5], 2)

    @pytest.mark.parametrize("eps, reachable", [
        (0.0, True), (5e-10, True), (5e-9, False), (2e-8, False),
        (5e-8, False)])
    def test_terminal_equality_holds_to_tol(self, eps, reachable):
        # (1, 0.5) is the edge of the one-step reach set; a target eps
        # beyond it is reachable only within the terminal tolerance 1e-9.
        x0 = np.array([1.0, 0.0])
        assert oracle.horizon_feasible(self.sys, x0, [1.0, 0.5 + eps],
                                       1) is reachable

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            oracle.horizon_feasible(self.sys, [0.0, 0.0], [0.0, 0.0], 0)
