"""The degenerate corpus through every LP-backed predicate and the
scaling front-ends.

Each call returns a verdict or a set, checked against the oracle, or
rejects its input with EmptySetError or ValueError.  A NumericalError
is never a verdict and fails the test.
"""

import numpy as np
import pytest

from zonokit import (
    EmptySetError,
    Halfspace,
    Zonotope,
    ah_contains,
    contains_point,
    conzono_hyperplane_range,
    conzono_in_halfspace,
    conzono_to_ah,
    inner_scale,
    is_empty,
    make_template,
    minkowski_sum,
    pontryagin_onestep,
)
from zonokit.containment import (
    RESIDUAL_TOL,
    TEMPLATE_KINDS,
    ah_containment_residual,
    zonotope_containment_residual,
)
from zonokit.sets import TOL
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
                assert conzono_in_halfspace(Z, hs, "LP") == (top <= f + TOL)

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
        for norm in ("inf", "1", "2"):
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
    for norm in ("inf", "1", "2"):
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
