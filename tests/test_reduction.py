import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonokit import (
    ConstrainedZonotope,
    Halfspace,
    HPolytope,
    Zonotope,
    convex_hull,
    conzono_halfspace_intersection,
    generalized_intersection,
    intersect_hpolytope,
    reduce_fully,
    remove_redundant_pair,
    support,
)
from zonokit import reduction
from zonokit.halfspaces import _solved_ranges, interval_refine
from zonokit.numerics import FEAS_TOL, ZERO_ENTRY
from zonokit.reach import wayset, wayset_reduce
from zonokit.reduction import (
    _canonical,
    eliminate_pair,
    merge_parallel_generators,
)
from zonokit import oracle

from conftest import DEGENERATE, make_conzono, make_zonotope


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

    @pytest.mark.parametrize("Z", [
        Zonotope([1.0, -2.0], np.zeros((2, 3))),
        ConstrainedZonotope([1.0, -2.0], np.zeros((2, 2)), np.zeros((1, 2)), [0.0]),
    ], ids=["zonotope", "conzono"])
    def test_all_zero_generators_are_dropped(self, Z):
        M = merge_parallel_generators(Z)
        assert (M.n_g, M.n_c) == (0, Z.n_c)
        assert M.G.shape == (2, 0) and M.A.shape == (Z.n_c, 0)
        assert np.array_equal(M.c, Z.c) and np.array_equal(M.b, Z.b)

    def test_lifted_merge_respects_constraints(self):
        # parallel in G but not in [G; A]: must NOT merge
        Za = ConstrainedZonotope([0.0], [[1.0, 2.0]], [[1.0, -1.0]], [0.5])
        assert merge_parallel_generators(Za) is Za
        # parallel as columns of [G; A]: merges, set unchanged
        Zb = ConstrainedZonotope([0.0], [[1.0, 2.0]], [[1.0, 2.0]], [0.5])
        Mb = merge_parallel_generators(Zb)
        assert Mb.n_g == 1
        assert oracle.sets_equal(Mb, Zb)

    def test_only_rounding_level_angles_merge(self):
        # A cosine test at 1 - 1e-9 merged columns 4e-5 rad apart, which
        # changes the set; the unit-vector distance does not.
        theta = 4e-5
        Z = Zonotope([0.0, 0.0], [[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
        assert merge_parallel_generators(Z) is Z
        # 3 * (0.1, 0.2) rounds away from (0.3, 0.6), yet they merge
        # (anti-parallel here) to one column.
        Z = Zonotope([0.0, 0.0], [[0.1, -0.3], [0.2, -0.6]])
        assert not np.array_equal(3.0 * Z.G[:, 0], -Z.G[:, 1])
        M = merge_parallel_generators(Z)
        assert M.n_g == 1 and np.allclose(M.G[:, 0], [0.4, 0.8])


def _restart_merge(Z):
    """Reference merge: the restart loop that merge_parallel_generators
    replaced.  Each kept column re-scans the later ones after every
    merge, so it also re-tests columns it has already rejected."""
    cols = [col.copy() for col in np.vstack([Z.G, Z.A]).T]
    kept = [g for g in cols if np.abs(g).max(initial=0.0) > 0.0]
    changed = len(kept) != len(cols)
    i = 0
    while i < len(kept):
        j = i + 1
        while j < len(kept):
            gi, gj = kept[i], kept[j]
            ui, uj = gi / np.linalg.norm(gi), gj / np.linalg.norm(gj)
            sign = 1.0 if ui @ uj >= 0.0 else -1.0
            if np.linalg.norm(ui - sign * uj) <= reduction.EPS_PARALLEL:
                kept[i] = gi + sign * gj
                kept.pop(j)
                changed = True
                j = i + 1
            else:
                j += 1
        i += 1
    if not changed:
        return Z
    M = np.column_stack(kept) if kept else np.zeros((Z.n + Z.n_c, 0))
    return reduction._make(Z.c, M[:Z.n], M[Z.n:], Z.b)


def _planted_family(rng, noise):
    """Random set whose columns of [G; A] are scaled copies (either
    sign, relative perturbation up to noise) of a few base directions,
    plus zero columns, in shuffled order."""
    n, n_c = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    base = rng.normal(size=(n + n_c, int(rng.integers(1, 4))))
    cols = []
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.integers(0, 5)
        if kind == 0:
            cols.append(np.zeros(n + n_c))
        elif kind == 1:
            cols.append(rng.normal(size=n + n_c))
        else:
            g = base[:, rng.integers(base.shape[1])] * rng.uniform(-3.0, 3.0)
            cols.append(g * (1.0 + noise * rng.uniform(-1.0, 1.0, n + n_c)))
    M = np.column_stack(cols)[:, rng.permutation(len(cols))]
    if n_c == 0:
        return Zonotope(rng.normal(size=n), M)
    return ConstrainedZonotope(rng.normal(size=n), M[:n], M[n:],
                               rng.normal(size=n_c))


@pytest.mark.parametrize("noise", [0.0, 1e-14, 1e-11, 1e-8])
def test_one_pass_merge_matches_the_restart_loop(noise):
    rng = np.random.default_rng(24)
    merged = 0
    for _ in range(300):
        Z = _planted_family(rng, noise)
        got, want = merge_parallel_generators(Z), _restart_merge(Z)
        assert (got is Z) == (want is Z)
        assert _identical(got, want)
        merged += got is not Z
    assert merged >= 100


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_one_pass_merge_matches_the_restart_loop_on_degenerate_sets(name):
    Z = DEGENERATE[name]
    got, want = merge_parallel_generators(Z), _restart_merge(Z)
    assert (got is Z) == (want is Z) and _identical(got, want)


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


def _gi_hull(rng):
    """Hull of a GI-folded random zonotope and a random constrained one."""
    Zp = make_zonotope(rng, 2, int(rng.integers(2, 5)))
    H = rng.normal(size=(int(rng.integers(1, 4)), 2))
    f = [h @ Zp.c + rng.uniform(0.2, 0.9) * (support(Zp, h) - h @ Zp.c)
         for h in H]
    X = intersect_hpolytope(Zp, HPolytope(H, f), "GI")
    Y = make_conzono(rng, 2, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
    return convex_hull(X, Y)


def test_reduce_fully_is_idempotent_on_hulls():
    # Re-canonicalizing a reduced hull can expose pairs its previous
    # RREF hid, so reduce_fully runs another round even when the merge
    # changes nothing.  Without that round seeds 0, 15 and 23 stop one
    # pair early ((n_c, n_g) = (14, 19) instead of (13, 18) at seed 0)
    # and this check fails.
    for seed in range(30):
        R = reduce_fully(_gi_hull(np.random.default_rng(seed)))
        assert reduce_fully(R) is R, seed


def test_remove_redundant_pair_canonicalizes_vacuous_rows():
    # duplicated constraint: RREF exposes a zero row, which is dropped
    # even when no (row, generator) pair qualifies for elimination
    Z = ConstrainedZonotope([0.0, 0.0], np.eye(2),
                            [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    Zr, removed = remove_redundant_pair(Z)
    assert not removed
    assert Zr.n_c == 1
    assert oracle.sets_equal(Zr, Z)


def _pair_at_a_time(Z):
    """Reference for the single-form loop: remove_redundant_pair until
    nothing is removed, every call re-canonicalizing from scratch."""
    while True:
        Z, removed = remove_redundant_pair(Z)
        if not removed:
            return Z


def _reduce_fully_pair_at_a_time(Z):
    """Reference fixed point: one merge and one pair elimination a round."""
    current = Z
    while True:
        merged = merge_parallel_generators(current)
        reduced, removed = remove_redundant_pair(merged)
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

    merge = reduction.merge_parallel_generators
    constrained = []
    monkeypatch.setattr(
        reduction, "merge_parallel_generators",
        lambda Z: constrained.append(Z.n_c > 0) or merge(Z))
    rng = np.random.default_rng(5)
    for Z in [Zc] + [make_conzono(rng, 2, 6, 3) for _ in range(3)]:
        gj.clear()
        constrained.clear()
        reduce_fully(Z)
        assert len(gj) == sum(constrained) >= 1


def _substituted_pair(work, tally):
    """Reference pair search: each candidate (r, c) is verified on a
    substituted system built apart from eliminate_pair -- the other rows
    with column c's solved expression folded in, column c kept.  Returns
    (r, c) or None; tally counts verifications and rejections."""
    if work.n_c == 0:
        return None
    A, bb = work.A, work.b
    E, _ = interval_refine(work)
    if E.any_empty:
        return None

    def unit_cols(r, E):
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = _solved_ranges(A[r], bb[r], E.lo, E.hi)
        return np.flatnonzero((np.abs(A[r]) > ZERO_ENTRY)
                              & (lo >= -1.0 - FEAS_TOL)
                              & (hi <= 1.0 + FEAS_TOL))

    candidates = []
    for r in range(A.shape[0]):
        candidates += [(abs(A[r, c]), r, c) for c in unit_cols(r, E)]
    for _, r, c in sorted(candidates, reverse=True):
        a = A[r, c]
        others = [i for i in range(A.shape[0]) if i != r]
        A_sub = A[others] - np.outer(A[others, c] / a, A[r])
        b_sub = bb[others] - A[others, c] * (bb[r] / a)
        E_sub, _ = interval_refine(
            ConstrainedZonotope(work.c, work.G, A_sub, b_sub))
        tally["verified"] += 1
        if not E_sub.any_empty and c in unit_cols(r, E_sub):
            return r, c
        tally["rejected"] += 1
    return None


def _strip_pairs_substituted(Z, tally):
    work = _canonical(Z)
    if work is None:
        return Z
    while (pair := _substituted_pair(work, tally)) is not None:
        work = eliminate_pair(work, *pair)
    return Z if work.n_c == Z.n_c else work


def _remove_redundant_pair_substituted(Z, tally):
    work = _canonical(Z)
    if work is None:
        return Z, False
    if (pair := _substituted_pair(work, tally)) is not None:
        return eliminate_pair(work, *pair), True
    return (Z if work.n_c == Z.n_c else work), False


def _reduce_fully_substituted(Z, tally):
    while True:
        reduced = _strip_pairs_substituted(
            merge_parallel_generators(Z), tally)
        if reduced is Z:
            return Z
        Z = reduced


def _verification_corpus(rng, count):
    """Random 2-D and 3-D constrained sets, every third one a convex
    hull and every other one cut by a box.  The plain and box-cut sets
    give pair candidates that verification rejects; hulls rarely do."""
    sets = []
    for i in range(count):
        n = 2 + i % 2
        Z = make_conzono(rng, n, int(rng.integers(3, 8)),
                         int(rng.integers(1, 4)))
        if i % 3 == 0:
            Z = convex_hull(Z, make_conzono(rng, n, int(rng.integers(2, 5)),
                                            int(rng.integers(1, 3))))
        if i % 2 == 0:
            lo, hi = Z.parent_zonotope().interval_hull()
            Z = generalized_intersection(
                Z, Zonotope.box(lo + 0.3 * (hi - lo), hi))
        sets.append(Z)
    return sets


def _identical(X, Y):
    """Same object status aside, equal arrays and equal signs of zeros."""
    return type(X) is type(Y) and all(
        np.array_equal(getattr(X, k), getattr(Y, k))
        and np.array_equal(np.signbit(getattr(X, k)), np.signbit(getattr(Y, k)))
        for k in "cGAb")


def test_reductions_match_the_substituted_system_reference():
    tally = {"verified": 0, "rejected": 0}
    corpus = _verification_corpus(np.random.default_rng(3), 40)
    for Z in corpus + [generalized_intersection(DIAMOND, SQUARE)]:
        want = _strip_pairs_substituted(Z, tally)
        got = wayset_reduce(Z)
        assert (got is Z) == (want is Z) and _identical(got, want)
        want, want_removed = _remove_redundant_pair_substituted(Z, tally)
        got, removed = remove_redundant_pair(Z)
        assert removed == want_removed and (got is Z) == (want is Z)
        assert _identical(got, want)
        want = _reduce_fully_substituted(Z, tally)
        got = reduce_fully(Z)
        assert (got is Z) == (want is Z) and _identical(got, want)
    # the corpus exercises both outcomes of a verification
    assert tally["rejected"] >= 10
    assert tally["verified"] - tally["rejected"] >= 10


def test_one_refinement_per_elimination(monkeypatch):
    calls = {"refine": 0, "eliminate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reduction, "interval_refine",
                        counted("refine", reduction.interval_refine))
    monkeypatch.setattr(reduction, "eliminate_pair",
                        counted("eliminate", reduction.eliminate_pair))
    sets = [generalized_intersection(DIAMOND, SQUARE)]
    sets += _verification_corpus(np.random.default_rng(4), 12)
    eliminated = 0
    for Z in sets:
        for k in calls:
            calls[k] = 0
        wayset_reduce(Z)
        assert calls["refine"] == calls["eliminate"] + 1
        eliminated += calls["eliminate"]
    assert eliminated >= len(sets)


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
