import numpy as np
import pytest

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    Zonotope,
    convex_hull,
    zonotope_halfspace_intersection,
)
from zonokit import oracle

from conftest import make_conzono, make_zonotope, spread_directions


Z1 = Zonotope([0.0, 0.0], [[0, 1, 0], [1, 1, 2]])
Z2 = Zonotope([-5.0, 0.0], [[-0.5, 1, -2], [0.5, 0.5, 1.5]])


def hull_size(a, b):
    # every hull gains one joint generator plus two mirrored copies of
    # each operand generator, and box+sign coupling rows for all of them
    n_g = 3 * (a.n_g + b.n_g) + 1
    n_c = a.n_c + b.n_c + 2 * (a.n_g + b.n_g)
    return n_g, n_c


def test_golden_sizes_plain():
    H = convex_hull(Z1, Z2)
    assert (H.n_g, H.n_c) == (19, 12) == hull_size(Z1, Z2)


def test_golden_sizes_after_halfspace_cuts():
    Zc1 = zonotope_halfspace_intersection(Z1, Halfspace([1.0, 1.0], 0.0))
    Zc2 = zonotope_halfspace_intersection(Z2, Halfspace([-2.5, 1.0], 9.5))
    H = convex_hull(Zc1, Zc2)
    assert (H.n_g, H.n_c) == (25, 18) == hull_size(Zc1, Zc2)


def test_hull_supports_equal_max_of_operands():
    # exact hull of convex sets: support is the pointwise max
    H = convex_hull(Z1, Z2)
    for d in spread_directions(2, 40):
        want = max(oracle.support_lp(Z1, d), oracle.support_lp(Z2, d))
        assert oracle.support_lp(H, d) == pytest.approx(want, abs=1e-6)


def test_hull_contains_operand_samples():
    rng = np.random.default_rng(2)
    Zc1 = make_conzono(rng, 2, 4, 1)
    Zc2 = make_conzono(rng, 2, 4, 1)
    H = convex_hull(Zc1, Zc2)
    assert (H.n_g, H.n_c) == hull_size(Zc1, Zc2)
    for S in (Zc1, Zc2):
        for x in oracle.sample_inside(S, 15, seed=3):
            assert oracle.membership(H, x, tol=1e-6)
    for d in spread_directions(2, 25):
        want = max(oracle.support_lp(Zc1, d), oracle.support_lp(Zc2, d))
        assert oracle.support_lp(H, d) == pytest.approx(want, abs=1e-6)


def test_hull_area_matches_polygon_oracle():
    from scipy.spatial import ConvexHull as QHull

    rng = np.random.default_rng(5)
    for _ in range(5):
        A = make_zonotope(rng, 2, 3)
        B = make_zonotope(rng, 2, 3)
        H = convex_hull(A, B)
        pts = np.vstack([oracle.enumerate_vertices(A),
                         oracle.enumerate_vertices(B)])
        want = QHull(pts).volume
        got, err = oracle.volume(H)
        assert err == 0.0  # planar sets take the exact polygon path
        assert got == pytest.approx(want, abs=1e-6)


def test_hull_with_point():
    p = np.array([4.0, -3.0])
    H = convex_hull(Z1, p)
    assert oracle.membership(H, p, tol=1e-6)
    for d in spread_directions(2, 30):
        want = max(oracle.support_lp(Z1, d), float(d @ p))
        assert oracle.support_lp(H, d) == pytest.approx(want, abs=1e-6)


def test_hull_argument_errors():
    with pytest.raises(ValueError):
        convex_hull(Z1, Zonotope.box([-1], [1]))
    with pytest.raises(ValueError):
        convex_hull(Z1, [1.0, 2.0, 3.0])
    bad = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 0.0]], [5.0])
    with pytest.raises(EmptySetError):
        convex_hull(Z1, bad)
