from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from zonokit import HPolytope, Zonotope, is_empty
from zonokit.halfspaces import (
    _raw_cut,
    conzono_halfspace_intersection,
    conzono_in_halfspace,
)
from zonokit.reach import LinearSystem, wayset, wayset_inner_box, wayset_reduce
from zonokit.sets import Halfspace, linear_map, minkowski_sum
from zonokit import oracle

from conftest import spread_directions


# Raw representation sizes each skip-or-fold strategy lands on for the
# bundled 3-state vehicle scenario (position / velocity / stored energy
# under a 10-step horizon).
RAW_SIZES = {"ZH": (7, 37), "GI": (30, 60), "LP": (7, 37), "IA": (16, 46)}

# Sizes wayset_reduce leaves of the N = 20 waysets.
REDUCED_SIZES_N20 = {"ZH": (39, 99), "LP": (30, 90), "IA": (39, 99),
                     "GI": (36, 96)}


@pytest.fixture(scope="module")
def waysets(vehicle_scenario):
    doc = vehicle_scenario
    return {s: wayset(doc.system, doc.x_star, doc.N, strategy=s)[0]
            for s in RAW_SIZES}


class TestVehicleScenario:
    def test_raw_sizes(self, waysets):
        got = {s: (Z.n_c, Z.n_g) for s, Z in waysets.items()}
        assert got == RAW_SIZES

    def test_all_strategies_reduce_to_one_representation(self, waysets):
        reduced = {s: wayset_reduce(Z) for s, Z in waysets.items()}
        for Z in reduced.values():
            assert (Z.n_c, Z.n_g) == (7, 37)
        assert oracle.sets_equal(reduced["GI"], reduced["LP"], grid=5)

    def test_long_horizon_reduced_sizes(self, vehicle_scenario):
        """At N = 20 the interval test leaves strategy-dependent sizes;
        a refinement change that moves one shows here."""
        doc = vehicle_scenario
        got = {}
        for s in REDUCED_SIZES_N20:
            Z = wayset_reduce(wayset(doc.system, doc.x_star, 20, strategy=s)[0])
            got[s] = (Z.n_c, Z.n_g)
        assert got == REDUCED_SIZES_N20

    def test_strategies_agree_as_sets(self, waysets):
        base = waysets["LP"]
        for s in ("ZH", "IA"):
            assert oracle.sets_equal(waysets[s], base, grid=5)

    def test_trace_is_zonotope_until_first_fold(self, vehicle_scenario):
        doc = vehicle_scenario
        Z, trace = wayset(doc.system, doc.x_star, doc.N, strategy="LP",
                          keep_trace=True)
        assert len(trace) == doc.N
        sizes = [(T.n_c, T.n_g) for T in trace]
        assert sizes[:6] == [(0, 3 * (k + 1)) for k in range(6)]
        assert sizes[-1] == (Z.n_c, Z.n_g)
        # backward tube widens until the state constraints start cutting
        assert all(a.n_c <= b.n_c for a, b in zip(trace, trace[1:]))

    def test_known_upstream_state_is_in_the_wayset(self, vehicle_scenario,
                                                   waysets):
        doc = vehicle_scenario
        assert doc.x_star_minus is not None
        assert oracle.membership(waysets["LP"], doc.x_star_minus, tol=1e-7)

    def test_forward_feasibility_of_sampled_members(self, vehicle_scenario,
                                                    waysets):
        doc = vehicle_scenario
        W = waysets["LP"]
        for x0 in oracle.sample_inside(W, 15, seed=8):
            assert oracle.horizon_feasible(doc.system, x0, doc.x_star, doc.N)
        # support points pushed outward must lose feasibility
        for d in spread_directions(3, 6):
            val, point = oracle._support_point(W, d)
            outside = point + 1e-3 * d / np.linalg.norm(d)
            assert not oracle.horizon_feasible(doc.system, outside,
                                               doc.x_star, doc.N)

    def test_inner_box(self, vehicle_scenario, waysets):
        doc = vehicle_scenario
        W = waysets["LP"]
        box = wayset_inner_box(W)
        assert box.n_c == 0 and box.n_g == 3
        for d in spread_directions(3, 20):
            assert oracle.support_lp(box, d) <= oracle.support_lp(W, d) + 1e-6
        anchored = wayset_inner_box(W, anchor=doc.x_star_minus)
        assert oracle.membership(anchored, doc.x_star_minus, tol=1e-6)


# The cuts IA folds on the bundled scenario although LP proves the set
# already inside: (1-based backward step, h, f) of each halfspace h @ x <= f.
IA_EXTRA_FOLDS = [(step, h, f)
                  for step in (8, 9, 10)
                  for h, f in (((1.0, 0.0, 0.0), 105.0),
                               ((0.0, -1.0, 0.0), 20.0),
                               ((0.0, 0.0, -1.0), 0.0))]


def exact_box_point(A, b):
    """A point xi of [-1, 1]^m with A xi = b, exact in rationals, or None.

    Every float entry converts to a Fraction without rounding, so the
    point solves the very system a float computation sees.  A basic
    LP solution says which coordinates sit at a bound; those are fixed
    at exactly +-1 and the rest are solved for by exact Gauss-Jordan,
    which must determine them uniquely.
    """
    m = A.shape[1]
    res = linprog(np.zeros(m), A_eq=A, b_eq=b, bounds=[(-1.0, 1.0)] * m,
                  method="highs-ds")
    if res.status != 0:
        return None
    at_bound = {j: Fraction(int(np.sign(v))) for j, v in enumerate(res.x)
                if abs(abs(v) - 1.0) <= 1e-9}
    free = [j for j in range(m) if j not in at_bound]
    rows = [[Fraction(a) for a in row[free]]
            + [Fraction(bi) - sum(Fraction(row[j]) * v
                                  for j, v in at_bound.items())]
            for row, bi in zip(A, b)]
    for col in range(len(free)):
        p = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if p is None:
            return None
        rows[col], rows[p] = rows[p], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [u - row[col] * w for u, w in zip(row, rows[col])]
    xi = dict(at_bound)
    xi.update((j, rows[col][-1]) for col, j in enumerate(free))
    xi = [xi[j] for j in range(m)]
    solves = all(sum(Fraction(a) * x for a, x in zip(row, xi)) == Fraction(bi)
                 for row, bi in zip(A, b))
    in_box = all(-1 <= x <= 1 for x in xi)
    return xi if solves and in_box else None


def test_ia_extra_folds_have_exact_points_in_the_box(vehicle_scenario):
    """IA's 16 x 46 is forced on this scenario: no sound pass count gets lower.

    IA proves h @ x <= f by certifying the raw probe for the complement
    (``_raw_cut``) empty.  Replaying the IA wayset, every cut it folds
    while LP proves containment has a probe with an exact rational point
    in the unit box.  Refinement never removes a feasible point, so no
    number of passes can certify those probes empty.  The padding of
    ``interval_refine`` keeps float rounding from doing so anyway:
    without it, passes >= 3 wrongly "certify" the exactly tangent step-10
    probe for -x3 <= 0 and shrink the wayset to 15 x 45.
    """
    doc = vehicle_scenario
    sys = doc.system
    input_pre = linear_map(-sys.A_inv @ sys.B, sys.U)
    Z = Zonotope.singleton(doc.x_star)
    extra = []
    for step in range(1, doc.N + 1):
        Z = minkowski_sum(linear_map(sys.A_inv, Z), input_pre)
        for hs in sys.X.halfspaces():
            if conzono_in_halfspace(Z, hs, "IA"):
                continue
            if conzono_in_halfspace(Z, hs, "LP"):
                probe = _raw_cut(Z, Halfspace(-hs.h, -hs.f))
                extra.append((step, tuple(hs.h), hs.f))
                assert exact_box_point(probe.A, probe.b) is not None, \
                    f"step {step}: no exact point for {hs.h} @ x <= {hs.f}"
            Z = conzono_halfspace_intersection(Z, hs)
    assert extra == IA_EXTRA_FOLDS

    # the replay is the IA wayset itself
    W, _ = wayset(sys, doc.x_star, doc.N, strategy="IA")
    for a, b in ((W.c, Z.c), (W.G, Z.G), (W.A, Z.A), (W.b, Z.b)):
        assert np.array_equal(a, b)
    assert (W.n_c, W.n_g) == RAW_SIZES["IA"] == (16, 46)


def test_zh_folds_only_cuts_its_parent_window_crosses(vehicle_scenario):
    """ZH reads the parent zonotope's window as the LP screen reads the
    parent.  At N = 20 the step-11 parent touches x2 <= 20 exactly; a
    strict reading folded that vacuous cut into a 40 x 100 raw wayset.
    The N = 10 raw sizes stay as test_raw_sizes pins them."""
    doc = vehicle_scenario
    sys = doc.system
    input_pre = linear_map(-sys.A_inv @ sys.B, sys.U)
    Z = Zonotope.singleton(doc.x_star)
    for _ in range(20):
        Z = minkowski_sum(linear_map(sys.A_inv, Z), input_pre)
        for hs in sys.X.halfspaces():
            skip = conzono_in_halfspace(Z, hs, "ZH")
            assert skip == conzono_in_halfspace(Z.parent_zonotope(), hs, "LP")
            if not skip:
                Z = conzono_halfspace_intersection(Z, hs)
    W, _ = wayset(sys, doc.x_star, 20, strategy="ZH")
    for a, b in ((W.c, Z.c), (W.G, Z.G), (W.A, Z.A), (W.b, Z.b)):
        assert np.array_equal(a, b)
    assert (W.n_c, W.n_g) == (39, 99)
    R = wayset_reduce(W)
    assert (R.n_c, R.n_g) == REDUCED_SIZES_N20["ZH"] == (39, 99)


def toy_sys():
    X = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [10, 10, 10, 10])
    U = Zonotope([0.0], [[0.5]])
    return LinearSystem([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], X, U)


def test_single_step_is_preimage():
    sys = toy_sys()
    target = np.array([1.0, 0.0])
    Z, trace = wayset(sys, target, 1)
    assert Z.n_c == 0  # X never cuts this deep inside
    for x in oracle.sample_inside(Z, 30, seed=11):
        u = np.linalg.lstsq(sys.B, target - sys.A @ x, rcond=None)[0]
        assert oracle.membership(sys.U, u, tol=1e-7)


def test_unreachable_target_comes_back_empty():
    sys = toy_sys()
    Z, _ = wayset(sys, [60.0, 0.0], 1)
    assert is_empty(Z)


def test_argument_validation(vehicle_scenario):
    sys = vehicle_scenario.system
    with pytest.raises(ValueError, match="strategy"):
        wayset(sys, [0, 0, 0], 2, strategy="QP")
    with pytest.raises(ValueError, match="dimension"):
        wayset(sys, [0, 0], 2)
    with pytest.raises(ValueError, match="at least 1"):
        wayset(sys, [0, 0, 0], 0)


def test_singular_dynamics_rejected():
    X = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1, 1, 1, 1])
    with pytest.raises(ValueError, match="invertible"):
        LinearSystem([[1.0, 0.0], [2.0, 0.0]], [[0.0], [1.0]], X,
                     Zonotope([0.0], [[1.0]]))


def test_system_shape_checks():
    X = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1, 1, 1, 1])
    U1 = Zonotope([0.0], [[1.0]])
    with pytest.raises(TypeError, match="HPolytope"):
        LinearSystem(np.eye(2), [[0.0], [1.0]], np.eye(2), U1)
    with pytest.raises(ValueError, match="rows"):
        LinearSystem(np.eye(2), np.zeros((3, 1)), X, U1)
    with pytest.raises(ValueError, match="column count"):
        LinearSystem(np.eye(2), [[0.0], [1.0]], X,
                     Zonotope([0.0, 0.0], np.eye(2)))
