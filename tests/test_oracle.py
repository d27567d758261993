import hashlib
import math
import tracemalloc

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
    convex_hull,
    generalized_intersection,
    is_empty,
    pontryagin_iterative,
    reduce_fully,
    support,
    wayset,
    wayset_reduce,
)
from zonokit.reach import LinearSystem
from zonokit.sets import as_conzono
from zonokit import oracle

from conftest import (DEGENERATE, make_conzono, make_no_generators,
                      make_zonotope, spread_directions)


def test_directions_are_deterministic_and_unit():
    # only the Gaussian sweep of n >= 4 reads the seed
    a = oracle.directions(4, seed=5)
    assert np.array_equal(a, oracle.directions(4, seed=5))
    assert not np.array_equal(a, oracle.directions(4, seed=6))
    for n in range(1, 5):
        assert np.allclose(np.linalg.norm(oracle.directions(n), axis=1), 1.0)


def test_support_lp_matches_algebraic_support():
    rng = np.random.default_rng(0)
    Z = make_zonotope(rng, 3, 6)
    for d in spread_directions(3, 25):
        assert oracle.support_lp(Z, d) == pytest.approx(support(Z, d), abs=1e-8)


def test_vertices_attain_the_support():
    rng = np.random.default_rng(1)
    for _ in range(5):
        Z = make_zonotope(rng, 2, 4)
        verts = oracle.enumerate_vertices(Z)
        for d in spread_directions(2, 20):
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


def _counting_linprog(monkeypatch):
    """Route oracle.linprog through a counter; returns the call list,
    which holds each call's variable count."""
    calls = []

    def counting(c, *args, **kwargs):
        calls.append(len(c))
        return linprog(c, *args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", counting)
    return calls


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
        with monkeypatch.context() as patch:
            if n == 3:
                # its first 642 rows are the icosphere's first four
                # levels, a sweep of their own: 642 reference LPs, not 2562
                full = oracle.directions
                patch.setattr(oracle, "directions", lambda m: full(m)[:642])
            got = oracle.enumerate_vertices(Z)
            patch.setattr(oracle, "_sweep", lambda Z: (
                _one_direction_support_points(Z, oracle.directions(Z.n))))
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
    calls = _counting_linprog(monkeypatch)
    D = oracle.directions(2)
    assert len(D) == 720
    oracle._sup_distances(Z, Z.c + D)
    assert len(calls) == math.ceil(720 / oracle.LP_BLOCKS)


T05_HULL_OPERANDS = (Zonotope([0.0, 0.0], [[0, 1, 0], [1, 1, 2]]),
                     Zonotope([-5.0, 0.0], [[-0.5, 1, -2], [0.5, 0.5, 1.5]]))


def test_the_hull_sweep_solves_a_tenth_of_its_directions(monkeypatch):
    """test_05's hull, a polygon of 7 vertices: most of its 720
    directions lie between two that share a maximizer, so only the base
    level and the directions around the vertices reach an LP, one
    program per level."""
    H = as_conzono(convex_hull(*T05_HULL_OPERANDS))
    calls = _counting_linprog(monkeypatch)
    oracle._sweep(H)
    assert len(calls) <= 5
    assert sum(calls) <= 80 * H.n_g
    calls.clear()
    assert oracle.volume(H)[1] == 0.0
    assert len(calls) == 5  # the sweep's programs and no emptiness LP


def _sweep_cases():
    """Sets whose sweeps solve LPs: random constrained sets and the
    degenerate shapes -- flat, rank-deficient A, tangent cuts."""
    rng = np.random.default_rng(44)
    cases = {f"random {n}-D {n_g}x{n_c}": make_conzono(rng, n, n_g, n_c)
             for n in (2, 3) for n_g, n_c in ((4, 1), (7, 2), (12, 4))}
    cases.update({name: DEGENERATE[name] for name in (
        "flat 3-D", "rank-deficient A", "duplicated rows", "single point")})
    cases.update({f"3-D {kind}": Z for kind, Z in
                  _degenerate_sets(np.random.default_rng(45)).items()})
    # the cube cut by x1 + x2 + x3 >= 3: the single point (1, 1, 1)
    cases["3-D tangent cut"] = ConstrainedZonotope(
        np.zeros(3), np.eye(3), [[1.0, 1.0, 1.0]], [3.0])
    return cases


SWEEP_CASES = _sweep_cases()


@pytest.mark.parametrize("kind", SWEEP_CASES)
def test_the_level_sweep_matches_one_lp_per_direction(kind, monkeypatch):
    """The level sweep against the flat one, which gives every direction
    its own LP block (and matches separate LPs: see
    test_batched_support_matches_one_lp_per_direction)."""
    Z = as_conzono(SWEEP_CASES[kind])
    D = oracle.directions(Z.n)
    values, points = oracle._sweep(Z)
    want_values, want_points = oracle._support_points(Z, D)
    assert np.all(np.abs(values - want_values)
                  <= 1e-12 * np.maximum(1.0, np.abs(want_values)))
    assert np.allclose(np.sum(points * D, axis=1), values,
                       rtol=0.0, atol=1e-9)
    got = oracle.enumerate_vertices(Z)
    monkeypatch.setattr(oracle, "_sweep", lambda Z: (want_values, want_points))
    want = oracle.enumerate_vertices(Z)
    assert ({tuple(v) for v in np.round(got, 9)}
            == {tuple(v) for v in np.round(want, 9)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_empty_set_fails_its_sweep_at_the_base_level(n, monkeypatch):
    empty = ConstrainedZonotope(np.zeros(n), np.eye(n), [np.ones(n)],
                                [n + 1.0])
    calls = _counting_linprog(monkeypatch)
    with pytest.raises(EmptySetError):
        oracle._sweep(as_conzono(empty))
    assert len(calls) == 1
    # its parent box is the full cube, so volume learns it from the sweep
    assert oracle.volume(empty) == (0.0, 0.0)
    assert len(calls) == 2
    with pytest.raises(EmptySetError):
        oracle.enumerate_vertices(DEGENERATE["empty"])


# sha256 of directions(n).tobytes(): the sweeps every oracle check and
# the benchmark's certify check (directions(n)[:40]) read
SWEEP_DIGESTS = {
    2: "efa2204050d92ec8fa47a6a3f1e6849d1c52a216827332a2f81b728de99231e2",
    3: "0ad2d3b64249546dacbf5ec693366050a9b2b396f11f7b1786beda06a3a1b218",
}


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_levels_put_each_row_between_two_coarser_parents(n):
    D = oracle.directions(n)
    assert hashlib.sha256(D.tobytes()).hexdigest() == SWEEP_DIGESTS[n]
    levels = oracle._levels(n, len(D))
    index = np.concatenate([i for i, _ in levels])
    assert np.array_equal(np.sort(index), np.arange(len(D)))
    assert levels[0][1] is None
    coarser = levels[0][0]
    for index, parents in levels[1:]:
        assert np.isin(parents, coarser).all()
        a, b = D[parents[:, 0]], D[parents[:, 1]]
        assert np.all(np.sum(a * b, axis=1) > 0.0)  # an angle below pi/2
        mid = (a + b) / np.linalg.norm(a + b, axis=1, keepdims=True)
        assert np.abs(mid - D[index]).max() <= 1e-15
        coarser = np.concatenate([coarser, index])


@pytest.mark.parametrize("n, rows", [(1, 2), (3, 12), (3, 42), (3, 162),
                                     (3, 642), (4, 4096)])
def test_sweep_levels_of_a_prefix_stay_in_the_prefix(n, rows):
    levels = oracle._levels(n, rows)
    index = np.concatenate([i for i, _ in levels])
    assert np.array_equal(np.sort(index), np.arange(rows))
    assert all(p is None or np.all(p < rows) for _, p in levels)
    if n in (1, 4):
        assert len(levels) == 1 and levels[0][1] is None


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
    tol = oracle.MEMBERSHIP_TOL
    # reject when d . p - f(d) > tol |d|_1, on rows scaled to |d|_1 = 1
    D = oracle.directions(probe.Z.n)
    scale = np.abs(D).sum(axis=1)
    outer = np.max(points @ (D / scale[:, None]).T - probe.f / scale,
                   axis=1) <= tol
    inside = np.zeros(len(points), dtype=bool)
    if probe.inner is not None:
        inside = np.max(points @ probe.inner[:, :-1].T + probe.inner[:, -1],
                        axis=1) <= tol
    result, band = outer & inside, outer & ~inside
    for i in np.flatnonzero(band):
        result[i] = oracle.membership(probe.Z, points[i])
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


def test_probe_rejects_only_beyond_the_sup_norm_tolerance():
    # 9e-10 past the corner in both coordinates is within MEMBERSHIP_TOL
    # in sup-norm, but 1.27e-9 past the diagonal sweep row
    square = Zonotope([0.0, 0.0], np.eye(2))
    probe = oracle._SetProbe(square)
    for eps, inside in ((9e-10, True), (1.1e-9, False)):
        p = np.full(2, 1.0 + eps)
        assert oracle.membership(square, p) is inside
        assert probe.classify(p[None]).tolist() == [inside]


def test_a_three_dimensional_volume_allocates_little():
    # the classifier's temporaries took 159 MiB here when it compared
    # 4096-point chunks with the 2,498 fine sweep rows
    Z = make_zonotope(np.random.default_rng(3), 3, 5)
    oracle.volume(Z, 1_000)  # builds the cached icosphere outside the trace
    tracemalloc.start()
    try:
        oracle.volume(Z, 65_536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _all_lp_sets_equal(X, Y, grid):
    """sets_equal with a distance LP for every grid point, as written
    before the probes classified the grid."""
    X, Y = as_conzono(X), as_conzono(Y)
    tops = []
    for Z in (X, Y):
        try:
            tops.append(oracle._sweep(Z)[0])
        except EmptySetError:
            tops.append(None)
    if tops[0] is None or tops[1] is None:
        return tops[0] is tops[1]
    if np.any(np.abs(tops[0] - tops[1]) > oracle.SUPPORT_TOL):
        return False
    lo_x, hi_x = X.parent_zonotope().interval_hull()
    lo_y, hi_y = Y.parent_zonotope().interval_hull()
    points = oracle._grid(np.minimum(lo_x, lo_y), np.maximum(hi_x, hi_y),
                          grid)
    dist_x = oracle._sup_distances(X, points)
    dist_y = oracle._sup_distances(Y, points)
    in_x = dist_x <= oracle.MEMBERSHIP_TOL
    in_y = dist_y <= oracle.MEMBERSHIP_TOL
    return not np.any((in_x & ~in_y & (dist_y > oracle.SUPPORT_TOL))
                      | (in_y & ~in_x & (dist_x > oracle.SUPPORT_TOL)))


def _moved(Z, shift):
    Z = as_conzono(Z)
    return ConstrainedZonotope(Z.c + shift, Z.G, Z.A, Z.b)


def _equality_cases():
    rng = np.random.default_rng(41)
    square = Zonotope([0.0, 0.0], np.eye(2))
    t02 = reduce_fully(generalized_intersection(
        Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]]), square))
    hull = convex_hull(*T05_HULL_OPERANDS)
    solid2, solid3 = make_conzono(rng, 2, 6, 2), make_conzono(rng, 3, 6, 2)
    segment = Zonotope([0.5, -1.0], [[1.0], [2.0]])
    plane = rng.normal(size=(3, 2))
    flat = ConstrainedZonotope(rng.normal(size=3),
                               plane @ rng.normal(size=(2, 5)),
                               rng.normal(size=(1, 5)), [0.3])
    interval = Zonotope([0.25], [[1.0, -0.5]])
    x = np.eye(2)[0]
    return {
        "square t02": (t02, square, 15),
        "hull t05": (reduce_fully(hull), hull, 5),
        "random 2-D": (reduce_fully(solid2), solid2, 5),
        "random 3-D": (reduce_fully(solid3), solid3, 5),
        "square by 5e-7": (_moved(square, 5e-7 * x), square, 15),
        "square by 1e-5": (_moved(square, 1e-5 * x), square, 15),
        "square by 1e-3": (_moved(square, 1e-3 * x), square, 15),
        "random 2-D by 1e-5": (_moved(solid2, 1e-5 * x), solid2, 5),
        "random 3-D by 1e-3": (_moved(solid3, 1e-3 * np.ones(3)), solid3, 5),
        # a segment and a 3-D sheet: no inner hull, all kept points on LPs
        "flat segment": (Zonotope(segment.c, [[0.5, 0.5], [1.0, 1.0]]),
                         segment, 15),
        "flat sheet": (flat, flat, 5),
        "flat sheet by 1e-5": (_moved(flat, 1e-5 * np.ones(3)), flat, 5),
        "n = 1": (Zonotope([0.25], [[1.5]]), interval, 15),
        "n = 1 by 1e-3": (_moved(interval, [1e-3]), interval, 15),
        "no generators": (make_no_generators((0.0, 0.0)),
                          Zonotope.singleton([1.0, -2.0]), 5),
        "no generators apart": (make_no_generators((0.0, 0.0)),
                                Zonotope.singleton([1.0, -2.0 + 1e-3]), 5),
        "empty and empty": (DEGENERATE["empty"], DEGENERATE["empty"], 5),
        "empty and square": (DEGENERATE["empty"], square, 5),
    }


@pytest.mark.parametrize("case", list(_equality_cases()))
def test_sets_equal_matches_the_all_lp_grid_rule(case):
    X, Y, grid = _equality_cases()[case]
    want = _all_lp_sets_equal(X, Y, grid)
    assert oracle.sets_equal(X, Y, grid) is want
    assert oracle.sets_equal(Y, X, grid) is want


def test_sample_inside_lands_inside():
    rng = np.random.default_rng(9)
    Zc = make_conzono(rng, 2, 5, 2)
    pts = oracle.sample_inside(Zc, 40, seed=10)
    assert len(pts) == 40
    for x in pts:
        assert oracle.membership(Zc, x, tol=1e-7)


def test_sets_equal_accepts_representation_changes(monkeypatch):
    calls = _counting_linprog(monkeypatch)
    Z = Zonotope([1.0, -1.0], [[1.0, 0.5], [0.0, 2.0]])
    # each generator chopped in half, halves listed apart
    split = Zonotope([1.0, -1.0], [[0.5, 0.25, 0.5, 0.25],
                                   [0.0, 1.0, 0.0, 1.0]])
    assert oracle.sets_equal(Z, split)
    assert not oracle.sets_equal(Z, Zonotope([1.1, -1.0], Z.G))
    # plain zonotopes sweep in closed form and their probes settle the grid
    assert calls == []


def _support_sweep(Z):
    return oracle._sweep(as_conzono(Z))[0]


def test_support_tol_sits_far_above_the_gaps_of_equal_representations(
        vehicle_scenario):
    """sets_equal allows SUPPORT_TOL between support values.  Equal sets
    in different representations (the N = 10 waysets of every strategy,
    a reduced wayset, test_05's hull and its reduction) differ by less
    than 1e-9 on the whole sweep, while a 1e-5 translate is caught."""
    doc = vehicle_scenario
    Z = wayset(doc.system, doc.x_star, 10, strategy="LP")[0]
    hull = convex_hull(*T05_HULL_OPERANDS)
    twins = [(hull, [reduce_fully(hull)]), (Z, [wayset_reduce(Z)] + [
        wayset(doc.system, doc.x_star, 10, strategy=s)[0]
        for s in ("ZH", "IA", "GI")])]
    for X, equal in twins:
        top = _support_sweep(X)
        for Y in equal:
            assert np.abs(_support_sweep(Y) - top).max() < 1e-9
    for X in (Z, hull):
        moved = ConstrainedZonotope(X.c + 1e-5 * np.eye(X.n)[0], X.G, X.A, X.b)
        assert not oracle.sets_equal(moved, X)


@pytest.mark.parametrize("x_empty, y_empty", [
    (False, False), (False, True), (True, False), (True, True)])
def test_sets_equal_on_empty_operands(x_empty, y_empty):
    def operand(empty):
        # the constraint xi_1 = 3 (or 0.5) over |xi| <= 1
        return ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 0.0]],
                                   [3.0 if empty else 0.5])

    assert oracle.sets_equal(operand(x_empty), operand(y_empty)) is (
        x_empty == y_empty)


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
        # a 1-vector target would broadcast over both axes
        with pytest.raises(ValueError):
            oracle.horizon_feasible(self.sys, [0.0, 0.0], [0.0], 1)
        with pytest.raises(ValueError):
            oracle.horizon_feasible(self.sys, [0.0, 0.0, 0.0], [0.0, 0.0], 1)


def test_horizon_lp_decides_when_the_witness_leaves_x(monkeypatch):
    # The least-squares inputs (0.6, 0.6) reach 1.2 through x1 = 0.6,
    # outside X = {x <= 0.5}; (0.2, 1.0) stays inside.
    sys1 = LinearSystem([[1.0]], [[1.0]],
                        HPolytope([[1.0], [-1.0]], [0.5, 5.0]),
                        Zonotope([0.0], [[1.0]]))
    calls = _counting_linprog(monkeypatch)
    assert oracle.horizon_feasible(sys1, [0.0], [1.2], 2)
    assert len(calls) == 1
    assert not oracle.horizon_feasible(sys1, [0.0], [1.6], 2)
    assert len(calls) == 2


@pytest.mark.parametrize("x_star, reachable", [(0.4, True), (0.5, False)])
def test_horizon_without_input_generators_needs_no_lp(x_star, reachable,
                                                      monkeypatch):
    # U = {0.2}: from 0, two steps reach 0.4 and nothing else.  The LP
    # has no variables, so the witness check decides both targets.
    sys1 = LinearSystem([[1.0]], [[1.0]],
                        HPolytope([[1.0], [-1.0]], [10.0, 10.0]),
                        Zonotope([0.2], np.zeros((1, 0))))
    calls = _counting_linprog(monkeypatch)
    assert oracle.horizon_feasible(sys1, [0.0], [x_star], 2) is reachable
    assert not calls


def _reference_horizon_lp(sys, x0, x_star, N):
    """horizon_feasible's LP alone, with no witness."""
    A, B = np.asarray(sys.A, float), np.asarray(sys.B, float)
    H, f = np.asarray(sys.X.H, float), np.asarray(sys.X.f, float)
    c_u, G_u = np.asarray(sys.U.c, float), np.asarray(sys.U.G, float)
    n, m = A.shape[0], G_u.shape[1]
    const = [np.asarray(x0, float)]
    coef = [np.zeros((n, N * m))]
    for j in range(N):
        const.append(A @ const[j] + B @ c_u)
        step = A @ coef[j]
        step[:, j * m:(j + 1) * m] += B @ G_u
        coef.append(step)
    gap = np.asarray(x_star, float) - const[N]
    A_ub = np.vstack([H @ coef[j] for j in range(N)] + [coef[N], -coef[N]])
    tol = oracle.MEMBERSHIP_TOL
    b_ub = np.concatenate([f - H @ const[j] for j in range(N)]
                          + [gap + tol, -gap + tol])
    res = linprog(np.zeros(N * m), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(-1.0, 1.0)] * (N * m), method="highs",
                  options={"primal_feasibility_tolerance": oracle.PRIMAL_TOL})
    assert res.status in (0, 2), res.message
    return res.status == 0


@pytest.fixture(scope="module")
def wayset10(vehicle_scenario):
    doc = vehicle_scenario
    return wayset(doc.system, doc.x_star, 10, strategy="LP")[0]


@pytest.mark.parametrize("seed", range(4))
def test_horizon_verdicts_match_the_lp_alone(vehicle_scenario, wayset10,
                                             seed):
    """Inside points and the same points pushed out from the centre:
    both verdicts occur, and each one is the reference LP's.  Sampled
    points crowd the centre, so every one is still feasible at 1.5 times
    its offset; the wayset's edge lies 4 to 30 times out."""
    doc, Z = vehicle_scenario, wayset10
    inside = oracle.sample_inside(Z, 40, seed=seed)
    points = np.vstack([Z.c + k * (inside - Z.c)
                        for k in (1.0, 1.5, 4.0, 8.0, 12.0, 16.0)])
    got = [oracle.horizon_feasible(doc.system, x, doc.x_star, 10)
           for x in points]
    want = [_reference_horizon_lp(doc.system, x, doc.x_star, 10)
            for x in points]
    assert got == want
    assert 0 < sum(want) < len(want)


def test_inside_points_need_no_horizon_lp(vehicle_scenario, wayset10,
                                          monkeypatch):
    doc = vehicle_scenario
    points = oracle.sample_inside(wayset10, 100, seed=0)
    calls = _counting_linprog(monkeypatch)
    assert all(oracle.horizon_feasible(doc.system, x, doc.x_star, 10)
               for x in points)
    assert not calls
