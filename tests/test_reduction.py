import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonokit import (
    ConstrainedZonotope,
    Halfspace,
    Zonotope,
    conzono_halfspace_intersection,
    generalized_intersection,
    reduce_fully,
    remove_redundant_pair,
    support,
)
from zonokit import reduction
from zonokit.reach import wayset, wayset_reduce
from zonokit.reduction import (
    EPS_PARALLEL,
    _canonical,
    eliminate_pair,
    lift,
    merge_parallel_generators,
    merge_parallel_lifted,
)
from zonokit import oracle

from conftest import make_conzono


DIAMOND = Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]])
SQUARE = Zonotope([0.0, 0.0], np.eye(2))


def test_intersection_then_reduce_golden():
    Zc = generalized_intersection(DIAMOND, SQUARE)
    assert np.allclose(Zc.G, [[1, 1, 0, 0], [1, -1, 0, 0]])
    assert np.allclose(Zc.A, [[1, 1, -1, 0], [1, -1, 0, -1]])
    assert np.allclose(Zc.b, [0.0, 0.0])
    Zf = reduce_fully(Zc)
    assert (Zf.n_g, Zf.n_c) == (2, 0)
    assert oracle.sets_equal(Zf, SQUARE)


def test_binding_constraint_survives():
    # xi1 + xi2 = 1 cuts the square down to a segment; the constraint
    # binds, so eliminating it would grow the set.  Regression test for
    # the circular-refinement bug: the row must not certify itself.
    Z = ConstrainedZonotope([0.0, 0.0], np.eye(2), [[1.0, 1.0]], [1.0])
    Zr, removed = remove_redundant_pair(Z)
    assert not removed
    assert not oracle.membership(Zr, [2.0, -1.0])
    assert oracle.sets_equal(Z, Zr)


def test_supporting_fold_is_stripped():
    rng = np.random.default_rng(0)
    for _ in range(20):
        Zp = Zonotope(rng.normal(size=2), rng.normal(size=(2, 4)))
        h = rng.normal(size=2)
        hs = Halfspace(h, support(Zp, h) + abs(rng.normal()) + 0.1)
        cut = conzono_halfspace_intersection(Zp, hs)
        red, removed = remove_redundant_pair(cut)
        assert removed and red.n_c == 0
        assert oracle.sets_equal(red, Zp, grid=7)


def test_contained_intersections_mostly_collapse():
    rng = np.random.default_rng(7)
    collapsed = total = 0
    for _ in range(100):
        g1, g2 = rng.uniform(-1, 1, size=(2, 2)).T * 0.7
        # DIAMOND is exactly {|x| + |y| <= 2}: check the four vertices
        if max(np.abs(s1 * g1 + s2 * g2).sum()
               for s1 in (-1, 1) for s2 in (1,)) > 2.0 - 1e-9:
            continue
        total += 1
        Z2 = Zonotope([0.0, 0.0], np.column_stack([g1, g2]))
        Zf = reduce_fully(generalized_intersection(DIAMOND, Z2))
        assert oracle.sets_equal(Zf, Z2, grid=7)  # intersection IS Z2 here
        if (Zf.n_g, Zf.n_c) == (2, 0):
            collapsed += 1
    # the interval certificate is sufficient, not complete: most but not
    # necessarily all redundant rows are found
    assert collapsed >= 0.9 * total


class TestEliminatePair:
    def test_zeroes_one_row_and_column(self):
        rng = np.random.default_rng(1)
        Z = make_conzono(rng, 2, 5, 2)
        out = eliminate_pair(Z, 0, 0)
        assert (out.n_g, out.n_c) == (Z.n_g - 1, Z.n_c - 1)

    def test_rejects_zero_pivot(self):
        Z = ConstrainedZonotope([0.0], [[1.0, 0.0]], [[0.0, 1.0]], [0.5])
        with pytest.raises(ValueError):
            eliminate_pair(Z, 0, 0)


class TestParallelMerging:
    def test_merges_and_drops_zero_columns(self):
        Z = Zonotope([0.0, 0.0], [[1.0, 2.0, 0.0, -3.0], [0.0, 0.0, 0.0, 0.0]])
        M = merge_parallel_generators(Z)
        assert M.n_g == 1
        assert abs(M.G[0, 0]) == pytest.approx(6.0)
        assert oracle.sets_equal(M, Z)

    def test_rejects_conzono_and_bad_eps(self):
        Zc = ConstrainedZonotope([0.0], [[1.0]], [[1.0]], [0.5])
        with pytest.raises(ValueError):
            merge_parallel_generators(Zc)
        with pytest.raises(ValueError):
            merge_parallel_generators(SQUARE, eps=0.0)

    def test_lifted_merge_respects_constraints(self):
        # parallel in G but not in [G; A]: must NOT merge
        Za = ConstrainedZonotope([0.0], [[1.0, 2.0]], [[1.0, -1.0]], [0.5])
        assert merge_parallel_lifted(Za).n_g == 2
        # parallel in the lifted sense: merges, set unchanged
        Zb = ConstrainedZonotope([0.0], [[1.0, 2.0]], [[1.0, 2.0]], [0.5])
        Mb = merge_parallel_lifted(Zb)
        assert Mb.n_g == 1
        assert oracle.sets_equal(Mb, Zb)

    def test_lift_roundtrip_shape(self):
        rng = np.random.default_rng(2)
        Z = make_conzono(rng, 2, 4, 2)
        L = lift(Z)
        assert L.n == Z.n + Z.n_c and L.n_g == Z.n_g and L.n_c == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reduce_fully_is_exact_and_never_grows(seed):
    rng = np.random.default_rng(seed)
    Z = make_conzono(rng, 2, rng.integers(3, 7), rng.integers(1, 4))
    R = reduce_fully(Z)
    assert R.n_g <= Z.n_g and R.n_c <= Z.n_c
    assert oracle.sets_equal(R, Z, grid=5)
    again = reduce_fully(R)
    assert (again.n_g, again.n_c) == (R.n_g, R.n_c)


def test_remove_redundant_pair_canonicalizes_vacuous_rows():
    # duplicated constraint: RREF exposes a zero row, which is dropped
    # even when no (row, generator) pair qualifies for elimination
    Z = ConstrainedZonotope([0.0, 0.0], np.eye(2),
                            [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    Zr, removed = remove_redundant_pair(Z)
    assert not removed
    assert Zr.n_c == 1
    assert oracle.sets_equal(Zr, Z)


def _pair_at_a_time(Z, passes=2):
    """Reference for the single-form loop: remove_redundant_pair until
    nothing is removed, every call re-canonicalizing from scratch."""
    while True:
        Z, removed = remove_redundant_pair(Z, passes)
        if not removed:
            return Z


def _reduce_fully_pair_at_a_time(Z, eps=EPS_PARALLEL, passes=2):
    """Reference fixed point: one merge and one pair elimination a round."""
    current = Z
    while True:
        merged = merge_parallel_lifted(current, eps)
        reduced, removed = remove_redundant_pair(merged, passes)
        if not removed and merged is current and reduced is merged:
            return current
        current = reduced


def _awkward_sets(rng):
    """Random 2-D sets with redundant and binding rows, rank-deficient
    A, all-zero rows or no generators, and apart from them a list of
    sets with inconsistent rows.  Returns (sets, inconsistent)."""
    sets = []
    for _ in range(6):
        Zp = Zonotope(rng.normal(size=2), rng.normal(size=(2, 4)))
        Z = Zp
        for h in rng.normal(size=(3, 2)):
            # a mix of folds past the support (redundant) and real cuts
            f = support(Zp, h) + rng.uniform(-0.5, 0.5) * np.abs(h).sum()
            Z = conzono_halfspace_intersection(Z, Halfspace(h, f))
        sets.append(Z)
        # a random operand, and a box around Zp
        sets.append(generalized_intersection(
            Zp, Zonotope(rng.normal(size=2) * 0.3, rng.normal(size=(2, 3)))))
        lo, hi = Zp.interval_hull()
        sets.append(generalized_intersection(
            Zp, Zonotope.box(lo - rng.uniform(0, 0.1), hi)))
    for Z in list(sets[:9]):
        if Z.n_c == 0:
            continue
        combo = np.vstack([Z.A, Z.A[0] + 2.0 * Z.A[-1]])
        sets.append(ConstrainedZonotope(
            Z.c, Z.G, combo, np.append(Z.b, Z.b[0] + 2.0 * Z.b[-1])))
        sets.append(ConstrainedZonotope(
            Z.c, Z.G, np.vstack([np.zeros(Z.n_g), Z.A]), np.append(0.0, Z.b)))
    sets.append(ConstrainedZonotope([1.0, 2.0], np.zeros((2, 0)),
                                    np.zeros((2, 0)), [0.0, 0.0]))
    inconsistent = [ConstrainedZonotope([1.0, 2.0], np.zeros((2, 0)),
                                        np.zeros((1, 0)), [1.0])]
    for Z in sets[:4]:
        if Z.n_c:
            inconsistent.append(ConstrainedZonotope(
                Z.c, Z.G, np.vstack([Z.A, Z.A[0]]), np.append(Z.b, Z.b[0] + 1)))
    return sets, inconsistent


def _same_set(X, Y):
    """Equal arrays, or else equal sets by the oracle."""
    if all(np.array_equal(getattr(X, k), getattr(Y, k)) for k in "cGAb"):
        return True
    return oracle.sets_equal(X, Y, grid=7)


@pytest.mark.parametrize("seed", [0, 1])
def test_single_form_reductions_match_the_pair_at_a_time_loops(seed):
    sets, inconsistent = _awkward_sets(np.random.default_rng(seed))
    removed = 0
    for Z in sets:
        for got, want in ((wayset_reduce(Z), _pair_at_a_time(Z)),
                          (reduce_fully(Z), _reduce_fully_pair_at_a_time(Z))):
            assert (got.n_c, got.n_g) == (want.n_c, want.n_g)
            assert _same_set(got, want)
        removed += Z.n_c - wayset_reduce(Z).n_c
    assert removed >= len(sets)
    for Z in inconsistent:
        assert wayset_reduce(Z) is Z and _pair_at_a_time(Z) is Z
        assert reduce_fully(Z) is Z and _reduce_fully_pair_at_a_time(Z) is Z


def _pivot_columns(A):
    """For each row k the first column of A exactly equal to e_k."""
    eye = np.eye(A.shape[0])
    return [next(j for j in range(A.shape[1]) if np.array_equal(A[:, j], e))
            for e in eye]


def test_elimination_keeps_every_other_pivot_column_exact():
    rng = np.random.default_rng(11)
    at_pivot = off_pivot = 0
    for _ in range(40):
        work = _canonical(make_conzono(rng, 2, int(rng.integers(4, 9)),
                                       int(rng.integers(2, 4))))
        while work.n_c:
            piv = _pivot_columns(work.A)
            r = int(rng.integers(work.n_c))
            c = int(rng.choice(np.flatnonzero(work.A[r])))
            at_pivot += c == piv[r]
            off_pivot += c != piv[r]
            out = eliminate_pair(work, r, c)
            for k in range(work.n_c):
                if k != r:
                    e = np.eye(out.n_c)[k - (k > r)]
                    assert np.array_equal(out.A[:, piv[k] - (piv[k] > c)], e)
            work = out
    assert at_pivot > 10 and off_pivot > 10


def test_one_gauss_jordan_per_reduction(monkeypatch):
    real = reduction.gauss_jordan_full_pivot
    gj = []
    monkeypatch.setattr(reduction, "gauss_jordan_full_pivot",
                        lambda *args: gj.append(1) or real(*args))
    Zc = generalized_intersection(DIAMOND, SQUARE)
    assert wayset_reduce(Zc).n_c == 0 and len(gj) == 1  # two eliminations

    merge = reduction.merge_parallel_lifted
    constrained = []
    monkeypatch.setattr(
        reduction, "merge_parallel_lifted",
        lambda Z, eps: constrained.append(Z.n_c > 0) or merge(Z, eps))
    rng = np.random.default_rng(5)
    for Z in [Zc] + [make_conzono(rng, 2, 6, 3) for _ in range(3)]:
        gj.clear()
        constrained.clear()
        reduce_fully(Z)
        assert len(gj) == sum(constrained) >= 1


@pytest.fixture(scope="module")
def scenario_waysets(vehicle_scenario):
    doc = vehicle_scenario
    return {s: wayset(doc.system, doc.x_star, 10, strategy=s)[0]
            for s in ("ZH", "GI", "LP", "IA")}


@pytest.mark.parametrize("strategy", ["ZH", "GI", "LP", "IA"])
def test_scenario_wayset_reduce_matches_the_pair_at_a_time_loop(
        scenario_waysets, strategy):
    Z = scenario_waysets[strategy]
    got, want = wayset_reduce(Z), _pair_at_a_time(Z)
    assert (got.n_c, got.n_g) == (want.n_c, want.n_g) == (7, 37)
    for d in oracle.directions(3)[:16]:
        assert oracle.support_lp(got, d) == pytest.approx(
            oracle.support_lp(want, d), rel=0.0, abs=1e-9)
