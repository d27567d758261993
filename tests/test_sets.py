import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    Halfspace,
    Zonotope,
    contains_point,
    generalized_intersection,
    is_empty,
    linear_map,
    minkowski_sum,
    support,
    translate,
)
from zonokit.sets import as_conzono
from zonokit import oracle

from conftest import DEGENERATE, make_conzono, make_no_generators, make_zonotope


def test_basic_properties():
    Z = Zonotope([1.0, 2.0], [[1.0, 0.5], [0.0, 2.0]])
    assert Z.n == 2 and Z.n_g == 2 and Z.n_c == 0
    assert Z.order == pytest.approx(1.0)
    Zc = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [0.5])
    assert Zc.n_c == 1
    assert Zc.dof_order == pytest.approx(0.5)
    assert Zc.parent_zonotope().n_c == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        Zonotope([0.0], [[1.0], [2.0]])        # G rows != dim of c
    with pytest.raises(ValueError):
        ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0]], [0.0])
    with pytest.raises(ValueError):
        Zonotope([np.inf, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        Zonotope.box([0.0, 0.0], [-1.0, 1.0])


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf])
def test_halfspace_rejects_a_non_finite_offset(f):
    with pytest.raises(ValueError, match="offset f must be finite"):
        Halfspace([1.0, 0.0], f)


def test_box_and_singleton():
    B = Zonotope.box([-1.0, 2.0], [3.0, 4.0])
    lo, hi = B.interval_hull()
    assert np.allclose(lo, [-1.0, 2.0]) and np.allclose(hi, [3.0, 4.0])
    S = Zonotope.singleton([5.0, -5.0])
    assert S.n_g == 0
    assert contains_point(S, [5.0, -5.0])
    assert not contains_point(S, [5.0, -4.9])


def test_translate_and_linear_map():
    rng = np.random.default_rng(1)
    Z = make_conzono(rng, 2, 5, 2)
    t = np.array([0.3, -1.2])
    x = oracle.sample_inside(Z, 1, seed=1)[0]
    assert contains_point(translate(Z, t), x + t)
    R = np.array([[2.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    M = linear_map(R, Z)
    assert M.n == 3
    assert contains_point(M, R @ x)


def test_minkowski_sum_membership():
    rng = np.random.default_rng(2)
    Z, W = make_conzono(rng, 2, 4, 1), make_zonotope(rng, 2, 3)
    S = minkowski_sum(Z, W)
    assert S.n_g == Z.n_g + W.n_g
    assert S.n_c == Z.n_c + W.n_c
    for _ in range(25):
        xi = rng.uniform(-1, 1, Z.n_g)
        eta = rng.uniform(-1, 1, W.n_g)
        # project xi onto Z's constraint set by sampling from the oracle instead
        pz = oracle.sample_inside(Z, 1, seed=rng.integers(1 << 31))[0]
        pw = W.c + W.G @ eta
        assert oracle.membership(S, pz + pw, tol=1e-7)


def test_generalized_intersection_definition():
    rng = np.random.default_rng(3)
    Z = make_zonotope(rng, 2, 4)
    Y = make_zonotope(rng, 2, 3)
    R = np.array([[1.0, 2.0], [0.0, 1.0]])
    I = generalized_intersection(Z, Y, R)
    assert I.n_g == Z.n_g + Y.n_g
    assert I.n_c == Z.n_c + Y.n_c + Z.n
    # x in Z cap_R Y  <=>  x in Z and Rx in Y
    pts = rng.uniform(-4, 4, size=(120, 2))
    for x in pts:
        expected = oracle.membership(Z, x) and oracle.membership(Y, R @ x)
        assert oracle.membership(I, x) == expected


def test_plain_intersection_matches_R_identity():
    rng = np.random.default_rng(4)
    Z, Y = make_zonotope(rng, 2, 3), make_zonotope(rng, 2, 3)
    assert oracle.sets_equal(generalized_intersection(Z, Y),
                             generalized_intersection(Z, Y, np.eye(2)))


def test_support_algebraic_vs_lp():
    rng = np.random.default_rng(5)
    Z = make_zonotope(rng, 3, 7)
    for _ in range(20):
        h = rng.normal(size=3)
        assert support(Z, h) == pytest.approx(oracle.support_lp(Z, h), abs=1e-7)


@pytest.mark.parametrize("kind", DEGENERATE)
def test_support_on_degenerate_sets(kind):
    """A stack of directions gives each row's lone value, and that value
    is the oracle's support; an empty set has none."""
    Z = DEGENERATE[kind]
    D = np.random.default_rng(8).normal(size=(70, Z.n))
    D[:2 * Z.n] = np.vstack([np.eye(Z.n), -np.eye(Z.n)])
    if is_empty(Z):
        with pytest.raises(EmptySetError):
            support(Z, D)
        with pytest.raises(EmptySetError):
            support(Z, D[0])
        return
    values = support(Z, D)
    assert values.shape == (70,)
    assert [support(Z, d) for d in D] == values.tolist()
    want = [oracle.support_lp(Z, d) for d in D]
    assert np.max(np.abs(values - want)) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_support_additive_under_sum(seed):
    rng = np.random.default_rng(seed)
    Z = make_zonotope(rng, 2, rng.integers(1, 6))
    W = make_zonotope(rng, 2, rng.integers(1, 6))
    h = rng.normal(size=2)
    total = support(minkowski_sum(Z, W), h)
    assert total == pytest.approx(support(Z, h) + support(W, h), rel=1e-12, abs=1e-12)


def test_empty_detection_and_feasible_point():
    # x1 pinned to 2 by the constraint row, outside the unit box: empty
    bad = ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [2.0])
    assert is_empty(bad)
    with pytest.raises(EmptySetError):
        support(bad, [1.0])
    # x1 pinned to 0.5: the one feasible point
    ok = ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [0.5])
    assert not is_empty(ok)
    assert contains_point(ok, [0.5])
    assert not contains_point(ok, [0.4])


@pytest.mark.parametrize("b, empty", [((0.0, 0.0), False), ((1e-8, 0.0), True)])
def test_zero_generator_sets_judge_constant_rows_at_tol(b, empty):
    Z = make_no_generators(b)
    assert is_empty(Z) == empty
    if empty:
        with pytest.raises(EmptySetError):
            support(Z, [1.0, 0.0])
    else:
        assert contains_point(Z, Z.c)
    for d in (1e-10, -1e-10):
        assert contains_point(Z, Z.c + d) == (not empty)
    for d in (1e-8, -1e-8):
        assert not contains_point(Z, Z.c + d)


def test_as_conzono_passthrough_and_point_cast():
    Z = Zonotope([0.0, 0.0], np.eye(2))
    assert as_conzono(Z) is Z
    P = as_conzono([1.0, -2.0])          # a bare point becomes a singleton
    assert P.n_g == 0 and contains_point(P, [1.0, -2.0])


def test_add_operator_is_minkowski():
    rng = np.random.default_rng(6)
    Z, W = make_zonotope(rng, 2, 3), make_zonotope(rng, 2, 2)
    assert oracle.sets_equal(Z + W, minkowski_sum(Z, W))
