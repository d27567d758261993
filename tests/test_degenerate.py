"""The degenerate corpus through every LP-backed predicate, the
scaling front-ends and the set operations.

Each call returns a verdict or a set, checked against the oracle, or
rejects its input with EmptySetError or ValueError.  A NumericalError
is never a verdict and fails the test.
"""

import numpy as np
import pytest

from zonokit import (
    AutonomousSystem,
    EmptySetError,
    Halfspace,
    HPolytope,
    LinearSystem,
    Zonotope,
    ah_contains,
    contains_point,
    convex_hull,
    conzono_hyperplane_range,
    conzono_in_halfspace,
    conzono_to_ah,
    generalized_intersection,
    inner_scale,
    interval_refine,
    intersect_hpolytope,
    is_empty,
    linear_map,
    make_template,
    merge_parallel_generators,
    minkowski_sum,
    pontryagin_onestep,
    reduce_fully,
    remove_redundant_pair,
    rpi_onestep,
    support,
    wayset,
    wayset_reduce,
)
from zonokit.containment import (
    RESIDUAL_TOL,
    TEMPLATE_KINDS,
    ah_containment_residual,
    zonotope_containment_residual,
)
from zonokit.numerics import FEAS_TOL, SCALING_NORMS
from zonokit.reach import WAYSET_STRATEGIES
from zonokit import oracle

from conftest import DEGENERATE

# Distances between the library's LP tolerance and the oracle's
# membership tolerance: a point or cut this close to the set's boundary
# may go either way.
BAND = 1e-6


def _out_of_band(Z, x):
    return oracle.membership(Z, x) == oracle.membership(Z, x, tol=BAND)


@pytest.mark.parametrize("kind", DEGENERATE)
def test_lp_predicates_on_degenerate_sets(kind):
    Z = DEGENERATE[kind]
    rng = np.random.default_rng(12)
    try:
        inside = oracle.sample_inside(Z, 4, seed=12)
    except EmptySetError:
        inside = np.zeros((0, Z.n))
    empty = len(inside) == 0
    points = np.vstack([inside, Z.c, Z.c + 2.0 * rng.normal(size=(6, Z.n))])

    assert is_empty(Z) == empty
    for x in points:
        if _out_of_band(Z, x):
            assert contains_point(Z, x) == oracle.membership(Z, x)

    D = np.vstack([np.eye(Z.n), -np.eye(Z.n), rng.normal(size=(3, Z.n))])
    for h in D:
        if empty:
            with pytest.raises((EmptySetError, ValueError)):
                conzono_hyperplane_range(Z, Halfspace(h, 0.0))
            for strategy in ("ZH", "LP", "IA"):
                assert conzono_in_halfspace(Z, Halfspace(h, 0.0), strategy) in (True, False)
            continue
        top, bottom = oracle.support_lp(Z, h), -oracle.support_lp(Z, -h)
        f_min, f_max = conzono_hyperplane_range(Z, Halfspace(h, 0.0))
        assert f_min == pytest.approx(bottom, abs=1e-7)
        assert f_max == pytest.approx(top, abs=1e-7)
        for f in (top + 0.5, top, top - 0.5, bottom - 0.5):
            hs = Halfspace(h, f)
            for strategy in ("ZH", "LP", "IA"):
                verdict = conzono_in_halfspace(Z, hs, strategy)
                assert verdict in (True, False)
                if verdict:
                    assert top <= f + BAND
            if abs(top - f) > BAND:
                assert conzono_in_halfspace(Z, hs, "LP") == (top <= f + FEAS_TOL)

    if empty:
        with pytest.raises((EmptySetError, ValueError)):
            conzono_to_ah(Z)
        return
    X = conzono_to_ah(Z)
    cert = ah_contains(X, X)
    assert cert is not None
    assert ah_containment_residual(X, X, cert) < RESIDUAL_TOL


def _sweep(n):
    """The axes and about 24 directions spread over the oracle's sweep."""
    D = oracle.directions(n)
    return np.vstack([np.eye(n), -np.eye(n), D[::max(1, len(D) // 24)]])


def _assert_inside(S, top, D):
    """S lies inside the set whose support values on D are top."""
    for d, t in zip(D, top):
        assert oracle.support_lp(S, d) <= t + 1e-6


@pytest.mark.parametrize("kind", DEGENERATE)
def test_scaling_front_ends_on_degenerate_sets(kind):
    Z = DEGENERATE[kind]
    D = _sweep(Z.n)
    top = None
    for template_kind in TEMPLATE_KINDS:
        for norm in SCALING_NORMS:
            try:
                scaled, result = inner_scale(Z, make_template(Z, template_kind),
                                             norm=norm)
            except (EmptySetError, ValueError):
                continue
            X, Y = conzono_to_ah(scaled), conzono_to_ah(Z)
            assert ah_containment_residual(X, Y, result.certificate) < RESIDUAL_TOL
            top = top or [oracle.support_lp(Z, d) for d in D]
            _assert_inside(scaled, top, D)

    if Z.n_c:
        return
    small = Zonotope(np.zeros(Z.n), 0.05 * np.eye(Z.n))
    for norm in SCALING_NORMS:
        try:
            S, result = pontryagin_onestep(Z, small, norm)
        except (EmptySetError, ValueError):
            continue
        inner = Zonotope(result.center + small.c,
                         np.hstack([np.hstack([Z.G, small.G]) * result.phi,
                                    small.G]))
        assert zonotope_containment_residual(inner, Z, result.certificate) \
            < RESIDUAL_TOL
        top = top or [oracle.support_lp(Z, d) for d in D]
        _assert_inside(S, top, D)
        _assert_inside(minkowski_sum(S, small), top, D)


def _oracle_empty(Z):
    try:
        oracle.support_lp(Z, np.zeros(Z.n))
    except EmptySetError:
        return True
    return False


@pytest.mark.parametrize("kind", DEGENERATE)
def test_set_operations_on_degenerate_sets(kind):
    """Sums, maps, intersections and hulls of each member with itself
    and with a regular set through one of its points, against the
    oracle's supports and samples."""
    Z = DEGENERATE[kind]
    n = Z.n
    rng = np.random.default_rng(5)
    D = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
    R = rng.normal(size=(n, n))
    empty = _oracle_empty(Z)
    anchor = np.zeros(n) if empty else oracle.sample_inside(Z, 1, seed=5)[0]
    regular = Zonotope(anchor, rng.normal(size=(n, n + 1)))
    image = linear_map(R, Z)
    if empty:
        assert _oracle_empty(image)
    else:
        for d in D:
            assert oracle.support_lp(image, d) == pytest.approx(
                oracle.support_lp(Z, R.T @ d), abs=1e-7)
    for Y in (Z, regular):
        total = minkowski_sum(Z, Y)
        common = generalized_intersection(Z, Y)
        if empty:
            assert _oracle_empty(total) and _oracle_empty(common)
            with pytest.raises(EmptySetError):
                convex_hull(Z, Y)
            continue
        hull = convex_hull(Z, Y)
        for d in D:
            z, y = oracle.support_lp(Z, d), oracle.support_lp(Y, d)
            assert oracle.support_lp(total, d) == pytest.approx(z + y, abs=1e-7)
            assert oracle.support_lp(hull, d) == pytest.approx(max(z, y), abs=1e-7)
        for p in oracle.sample_inside(common, 4, seed=5):
            assert oracle.membership(Z, p) and oracle.membership(Y, p)


def _cut_polytopes(Z, empty, rng):
    """A random direction h, and polytopes tangent to Z from outside and
    at its lowest face along h, cutting it, missing it, and far off."""
    n = Z.n
    h = rng.normal(size=n)
    h /= np.linalg.norm(h)
    if empty:
        top = bottom = h @ Z.c
        anchor = Z.c
    else:
        top, bottom = oracle.support_lp(Z, h), -oracle.support_lp(Z, -h)
        anchor = oracle.sample_inside(Z, 1, seed=8)[0]
    box = np.vstack([np.eye(n), -np.eye(n)])
    return h, {
        "tangent": HPolytope([h], [top]),
        "tangent face": HPolytope([h], [bottom]),
        "cutting": HPolytope([h], [0.5 * (top + bottom)]),
        "cutting box": HPolytope(box, np.concatenate([anchor + 0.3,
                                                      0.3 - anchor])),
        "missing": HPolytope([h], [bottom - 1.0]),
        "far off": HPolytope(box, np.concatenate([Z.c + 100.0,
                                                  -98.0 - Z.c])),
    }


@pytest.mark.parametrize("kind", DEGENERATE)
def test_halfspace_cuts_on_degenerate_sets(kind):
    """Z cut by tangent, cutting, missing and far-off polytopes under
    every strategy keeps every sampled point of Z in P, and samples only
    points in both; the cut of an empty member is empty."""
    Z = DEGENERATE[kind]
    empty = _oracle_empty(Z)
    rng = np.random.default_rng(9)
    h, polytopes = _cut_polytopes(Z, empty, rng)
    points = np.zeros((0, Z.n))
    if not empty:
        # the two touching points put samples on the tangent face
        points = np.vstack([oracle.sample_inside(Z, 24, seed=9),
                            oracle._support_point(Z, h)[1],
                            oracle._support_point(Z, -h)[1]])
    for name, P in polytopes.items():
        kept = points[(points @ P.H.T <= P.f + FEAS_TOL).all(axis=1)]
        for strategy in ("ZH", "LP", "IA", "GI"):
            cut = intersect_hpolytope(Z, P, strategy)
            assert (oracle._sup_distances(cut, kept) <= BAND).all(), \
                (name, strategy)
            if _oracle_empty(cut):
                continue
            assert not empty, (name, strategy)
            inside = oracle.sample_inside(cut, 12, seed=10)
            assert (oracle._sup_distances(Z, inside) <= BAND).all(), \
                (name, strategy)
            assert (inside @ P.H.T <= P.f + BAND).all(), (name, strategy)


@pytest.mark.parametrize("kind", DEGENERATE)
def test_reductions_on_degenerate_sets(kind):
    """Every reduction returns the set it is given (checked by the oracle
    where n <= 3, on the axis supports above), and refinement certifies
    only empty sets empty and keeps every feasible coefficient."""
    Z = DEGENERATE[kind]
    empty = _oracle_empty(Z)
    reduced = [reduce_fully(Z), remove_redundant_pair(Z)[0], wayset_reduce(Z),
               merge_parallel_generators(Z)]
    for out in reduced:
        if Z.n <= 3:
            assert oracle.sets_equal(out, Z, grid=5)
        elif empty:
            assert _oracle_empty(out)
        else:
            for d in np.vstack([np.eye(Z.n), -np.eye(Z.n)]):
                assert oracle.support_lp(out, d) == pytest.approx(
                    oracle.support_lp(Z, d), abs=1e-7)
    E, R = interval_refine(Z)
    assert E.lo.size == R.lo.size == Z.n_g
    if E.any_empty:
        assert empty
    elif not empty:
        coeffs = oracle.sample_coeffs(Z, 20, seed=6)
        for I in (E, R):
            assert (coeffs >= I.lo - 1e-6).all() and (coeffs <= I.hi + 1e-6).all()


def test_zero_generators_get_zero_scale():
    """A template column that sizes nothing comes back with phi 0 in
    every norm each front end takes, also when no column sizes
    anything."""
    Z = DEGENERATE["zero generator"]
    target = Zonotope([0.0, 0.0], [[2.0, 0.5, 0.3], [0.1, 1.5, -0.4]])
    small = Zonotope(np.zeros(2), 0.05 * np.eye(2))
    sys_ = AutonomousSystem([[0.5, 0.2], [0.0, 0.4]],
                            Zonotope([0.0, 0.0], [[0.1, 0.0, 0.0],
                                                  [0.0, 0.0, 0.1]]))
    point = Zonotope([0.1, 0.0], np.zeros((2, 2)))
    for norm in SCALING_NORMS:
        assert inner_scale(target, Z, norm)[1].phi[1] == 0.0
        assert (inner_scale(target, point, norm)[1].phi == 0.0).all()
        assert pontryagin_onestep(Z, small, norm)[1].phi[1] == 0.0
        # f_s(sys_, 2) repeats W's zero generator in columns 1, 4 and 7
        assert (rpi_onestep(sys_, 2, norm)[1].phi[1::3] == 0.0).all()


# Double integrator whose two inputs act through one column of B (rank
# 1).  U has a zero generator (column 1) and a duplicated one (column
# 2 repeats column 0), so every input-preimage generator is parallel.
# From the origin, the first backward step gives a segment that touches
# both x1 = 1.5 and x1 = -1.5.
DEGENERATE_SYSTEM = LinearSystem(
    [[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 2.0]],
    HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.5, 3.0, 1.5, 3.0]),
    Zonotope([0.0, 0.0], [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.25]]))
# Every state one backward step from this target has x1 >= 8.5.
UNREACHABLE = [10.0, 0.0]


def test_waysets_on_a_degenerate_system():
    """Whole waysets under every strategy are one set, which the horizon
    LP confirms on samples and which the reductions keep; the
    unreachable target gives an empty wayset under every strategy."""
    sys_, N = DEGENERATE_SYSTEM, 3
    assert np.linalg.matrix_rank(sys_.B) == 1
    runs = {s: wayset(sys_, np.zeros(2), N, s, keep_trace=True)
            for s in WAYSET_STRATEGIES}
    first = runs["LP"][1][0]
    assert first.n_c == 0  # tangent, so not cut
    assert support(first, [1.0, 0.0]) == support(first, [-1.0, 0.0]) == 1.5
    Z = runs["LP"][0]
    for strategy, (W, _) in runs.items():
        assert oracle.sets_equal(W, Z), strategy
    for x0 in oracle.sample_inside(Z, 12, seed=8):
        assert oracle.horizon_feasible(sys_, x0, np.zeros(2), N)
    merged = merge_parallel_generators(Z)
    assert merged.n_g < Z.n_g
    for reduced in (wayset_reduce(Z), reduce_fully(Z), merged):
        assert oracle.sets_equal(reduced, Z)
    for strategy in WAYSET_STRATEGIES:
        assert is_empty(wayset(sys_, UNREACHABLE, N, strategy)[0]), strategy
