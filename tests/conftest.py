"""Shared fixtures: seeded random set generators and the bundled scenario."""

import os

import numpy as np
import pytest

from zonokit import ConstrainedZonotope, Zonotope, oracle
from zonokit.io import read_scenario

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def make_zonotope(rng, n, n_g, scale=1.0):
    G = rng.normal(size=(n, n_g)) * scale
    c = rng.normal(size=n) * scale
    return Zonotope(c, G)


def make_conzono(rng, n, n_g, n_c, scale=1.0):
    """Random constrained zonotope that is guaranteed nonempty.

    b is chosen as A @ xi0 for a strictly interior xi0, so the
    coefficient polytope always has volume.
    """
    G = rng.normal(size=(n, n_g)) * scale
    c = rng.normal(size=n) * scale
    A = rng.normal(size=(n_c, n_g))
    xi0 = rng.uniform(-0.8, 0.8, size=n_g)
    return ConstrainedZonotope(c, G, A, A @ xi0)


def spread_directions(n, count):
    """About count rows of oracle.directions(n) at an even stride: a
    prefix of the 2-D sweep covers one arc (its first 40 rows span
    19.5 degrees), and a prefix of the 3-D sweep only its coarse levels."""
    D = oracle.directions(n)
    return D[::len(D) // count]


def make_no_generators(b):
    """Set with n_g = 0 and n_c = 2 at c = (1, -2): the point c when
    |b| <= numerics.FEAS_TOL, else empty."""
    return ConstrainedZonotope([1.0, -2.0], np.zeros((2, 0)), np.zeros((2, 0)), b)


def borderline_square(delta):
    """The unit square with the row xi_1 = 1 + delta: a segment when
    delta <= numerics.FEAS_TOL, else empty."""
    return ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 0.0]], [1.0 + delta])


# Generators for which imposing xi_1 = xi_2 shrinks the set.
ROUNDING_G = [[1.0, -0.5, 0.3, 0.2], [0.5, 1.0, -0.4, 0.6]]

# One member per degenerate shape: every LP-backed operation must give a
# verdict on each, or reject an empty one as empty.
DEGENERATE = {
    "point": Zonotope.singleton([0.5, -1.5]),
    "zero generator": Zonotope([0.3, -0.1], [[1.0, 0.0, 0.5], [2.0, 0.0, -1.0]]),
    "flat 3-D": Zonotope([1.0, 0.0, -1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    "rank-deficient A": ConstrainedZonotope(
        [0.0, 0.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [0.5, 1.0]),
    "duplicated rows": ConstrainedZonotope(
        [0.2, 0.4], [[1.0, -0.5, 0.3], [0.5, 1.0, -0.2]],
        [[1.0, -1.0, 0.5], [1.0, -1.0, 0.5]], [0.2, 0.2]),
    # the square [-1, 1]^2 cut by x1 + x2 >= 2: the single point (1, 1)
    "single point": ConstrainedZonotope([0.0, 0.0], np.eye(2),
                                        [[1.0, 1.0]], [2.0]),
    "no generators": make_no_generators((0.0, 0.0)),
    "no generators, inconsistent": make_no_generators((1.0, 0.0)),
    "constrained 4-D": make_conzono(np.random.default_rng(7), 4, 8, 2),
    "empty": ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [3.0]),
    # Rows whose entries are at most numerics.ZERO_ENTRY read as zeros in
    # every layer, as in HiGHS: xi_1 = xi_2 is not imposed, and 0 = 1e-12
    # holds (the literal row would pin xi_1 at 1e4, an empty set).
    "rounding-level row": ConstrainedZonotope(
        [0.0, 0.0], ROUNDING_G, [[1e-12, -1e-12, 0.0, 0.0]], [0.0]),
    "rounding-level offset": ConstrainedZonotope(
        [0.0, 0.0], ROUNDING_G, [[1e-16, 0.0, 0.0, 0.0]], [1e-12]),
    # xi_1 = 1 + 5e-9 misses the unit box by more than numerics.FEAS_TOL,
    # so the unit square with this row is empty in every layer.
    "borderline offset": borderline_square(5e-9),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def zono_factory(rng):
    def factory(n=2, n_g=5, scale=1.0):
        return make_zonotope(rng, n, n_g, scale)
    return factory


@pytest.fixture
def conzono_factory(rng):
    def factory(n=2, n_g=6, n_c=2, scale=1.0):
        return make_conzono(rng, n, n_g, n_c, scale)
    return factory


@pytest.fixture(scope="session")
def vehicle_scenario():
    return read_scenario(os.path.join(FIXTURES, "backward_reach_scenario.json"))
