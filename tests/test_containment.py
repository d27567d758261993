import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from zonokit import (
    ConstrainedZonotope,
    EmptySetError,
    Zonotope,
    ah_contains,
    conzono_to_ah,
    generalized_intersection,
    inner_reduce_zonotope,
    inner_scale,
    is_empty,
    make_template,
    support,
    wayset,
    zonotope_contains,
)
from zonokit import containment, numerics
from zonokit.containment import (
    RESIDUAL_TOL,
    _ah_certificate,
    ah_containment_residual,
    zonotope_containment_residual,
)
from zonokit.numerics import (
    ZERO_ENTRY, LinearProgram, LpBuilder, NumericalError, optimize_scaling, solve_lp)
from zonokit.reduction import _canonical
from zonokit import oracle

from conftest import DEGENERATE, make_conzono, make_zonotope, spread_directions


# Fat cross-shaped 2-D zonotope and a constrained variant reused below.
ZFIVE = Zonotope([0.0, 0.0], [[4, 3, -2, 0.2, 0.5], [0, 2, 3, 0.6, -0.3]])
ZC = ConstrainedZonotope(
    [0.0, 0.0],
    [[-1, 3, 4, 0, 0], [4, -2, -5, 0, 0]],
    [[-1, 3, 4, 6.5, 0], [4, -2, -5, 0, 8]],
    [-1.5, -3.0],
)


class TestInnerReduceZonotope:
    def test_golden_fold(self):
        Zr, T, order = inner_reduce_zonotope(ZFIVE, 3, return_map=True)
        assert np.array_equal(order, [0, 1, 2, 3, 4])
        assert np.array_equal(
            T, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert np.allclose(Zr.G, [[4.5, 3.2, -2.0], [-0.3, 2.6, 3.0]])
        ratio = (oracle.zonotope_volume_exact(Zr)
                 / oracle.zonotope_volume_exact(ZFIVE)) ** 0.5
        assert ratio == pytest.approx(0.97, abs=0.01)

    def test_result_is_contained_with_certificate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Z = make_zonotope(rng, 2, 5)
            Zr = inner_reduce_zonotope(Z, 3)
            cert = zonotope_contains(Zr, Z)
            assert cert is not None
            assert zonotope_containment_residual(Zr, Z, cert) < 1e-6

    def test_rejects_bad_target_order(self):
        with pytest.raises(ValueError):
            inner_reduce_zonotope(ZFIVE, 5)
        with pytest.raises(ValueError):
            inner_reduce_zonotope(ZFIVE, 0)
        for G in (np.zeros((2, 0)), [[1.0], [0.5]]):
            Z = Zonotope([0.0, 0.0], G)
            with pytest.raises(ValueError, match=f"n_g = {Z.n_g} generators"):
                inner_reduce_zonotope(Z, 1)


class TestZonotopeContains:
    def test_scaled_copy(self):
        rng = np.random.default_rng(1)
        Y = make_zonotope(rng, 3, 5)
        X = Zonotope(Y.c + 0.05 * rng.normal(size=3), 0.5 * Y.G)
        cert = zonotope_contains(X, Y)
        assert cert is not None
        assert zonotope_containment_residual(X, Y, cert) < 1e-6

    def test_exact_disproof_for_parallelotope_target(self):
        Y = Zonotope([0.0, 0.0], [[1.0, 0.2], [0.0, 1.0]])
        X = Zonotope([0.0, 0.0], 1.2 * np.asarray(Y.G))
        assert zonotope_contains(X, Y) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            zonotope_contains(Zonotope.box([-1], [1]), ZFIVE)


class TestAhContainment:
    def test_conzono_roundtrip_certificate(self):
        inner = ConstrainedZonotope(
            ZC.c, 0.4 * np.asarray(ZC.G), ZC.A, 0.4 * np.asarray(ZC.b))
        X, Y = conzono_to_ah(inner), conzono_to_ah(ZC)
        cert = ah_contains(X, Y)
        assert cert is not None
        assert ah_containment_residual(X, Y, cert) < 1e-6

    def test_detects_non_containment(self):
        big = ConstrainedZonotope(
            ZC.c, 3.0 * np.asarray(ZC.G), ZC.A, 3.0 * np.asarray(ZC.b))
        assert ah_contains(conzono_to_ah(big), conzono_to_ah(ZC)) is None


# Consistent constraints of rank 1 in two rows.
RANK_DEFICIENT = ConstrainedZonotope(
    [0.0, 0.0], [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]],
    [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [0.5, 1.0])


@pytest.mark.parametrize("Z", [
    RANK_DEFICIENT,
    generalized_intersection(RANK_DEFICIENT, RANK_DEFICIENT),
], ids=["rank1", "self_intersection"])
def test_rank_deficient_constraints_are_accepted(Z):
    assert np.linalg.matrix_rank(Z.A) < Z.n_c
    scaled, result = inner_scale(Z, make_template(Z, "box"))
    X, Y = conzono_to_ah(scaled), conzono_to_ah(Z)
    assert ah_containment_residual(X, Y, result.certificate) < 1e-6
    assert result.phi.min() > 0.1
    for signs in itertools.product((-1.0, 1.0), repeat=Z.n):
        corner = scaled.c + scaled.G @ np.array(signs)
        assert oracle.membership(Z, corner, tol=1e-7)


def _ah_support(P, D):
    """Supports of an affine polytope in the rows of D, one LP each."""
    return np.array([d @ P.xbar + solve_lp(LinearProgram(
        d @ P.X, a_ub=P.P.H, b_ub=P.P.f, maximize=True)).value for d in D])


def test_rows_at_disparate_scales_read_as_the_lps_read_them():
    """Gauss-Jordan reads each constraint row at its own scale, as HiGHS
    does.  On nonempty sets whose rows are scaled by 10^U(-4, 6), every
    template builds, the affine-polytope form has the set's supports,
    and a certificate that the 0.01-box at (0, 0.5) lies inside holds.
    Where HiGHS breaks down on a support LP itself (a NumericalError,
    rare at these scales) there is no reference to compare with."""
    box = Zonotope.box([-0.01, 0.49], [0.01, 0.51])
    corners = [box.c + box.G @ np.array(s)
               for s in itertools.product((-1.0, 1.0), repeat=2)]
    X = conzono_to_ah(box)
    assert ah_contains(X, conzono_to_ah(DEGENERATE["disparate row scales"])) is None
    rng = np.random.default_rng(0)
    D = spread_directions(2, 16)
    compared = 0
    for _ in range(40):
        n_g = int(rng.integers(4, 7))
        A = rng.normal(size=(int(rng.integers(2, 4)), n_g))
        A *= 10.0 ** rng.uniform(-4, 6, size=(A.shape[0], 1))
        Z = ConstrainedZonotope(np.zeros(2), rng.normal(size=(2, n_g)), A,
                                A @ rng.uniform(-0.8, 0.8, n_g))
        for kind in ("box", "zonotope", "drop_pair"):
            make_template(Z, kind)
        Y = conzono_to_ah(Z)
        if ah_contains(X, Y) is not None:
            assert all(oracle.membership(Z, x, tol=1e-7) for x in corners)
        try:
            want = support(Z, D)
        except NumericalError:
            continue
        assert np.abs(_ah_support(Y, D) - want).max() <= 1e-6
        compared += 1
    assert compared >= 36


class TestInnerScale:
    @pytest.mark.parametrize("kind, expect", [
        ("drop_pair", 0.86),
        ("zonotope", 0.83),
        ("box", 0.46),
    ])
    def test_template_fits_with_expected_volume(self, kind, expect):
        template = make_template(ZC, kind)
        scaled, result = inner_scale(ZC, template)
        assert (result.phi >= -1e-12).all()
        X, Y = conzono_to_ah(scaled), conzono_to_ah(ZC)
        cert = ah_contains(X, Y)
        assert cert is not None
        assert ah_containment_residual(X, Y, cert) < 1e-6
        assert oracle.volume_ratio(scaled, ZC) == pytest.approx(expect, abs=0.05)

    def test_template_shapes(self):
        assert make_template(ZC, "drop_pair").n_c == 1
        assert make_template(ZC, "zonotope").n_c == 0
        box = make_template(ZC, "box")
        assert box.n_c == 0 and np.allclose(box.G, np.eye(2))
        with pytest.raises(ValueError):
            make_template(ZC, "octagon")
        with pytest.raises(ValueError):
            make_template(ZFIVE, "drop_pair")

    def test_templates_of_a_plain_zonotope(self):
        # With no constraints the coefficients are free: the zonotope
        # template is the set itself, the box a unit box at its center.
        same = make_template(ZFIVE, "zonotope")
        assert same.n_c == 0
        assert np.array_equal(same.c, ZFIVE.c) and np.array_equal(same.G, ZFIVE.G)
        box = make_template(ZFIVE, "box")
        assert box.n_c == 0
        assert np.array_equal(box.c, ZFIVE.c) and np.array_equal(box.G, np.eye(2))

    def test_must_contain_point(self):
        anchor = np.array([-3.4, 2.0])
        assert oracle.membership(ZC, anchor, tol=1e-7)
        scaled, _ = inner_scale(ZC, make_template(ZC, "box"),
                                must_contain=[anchor])
        assert oracle.membership(scaled, anchor, tol=1e-6)

    def test_must_contain_outside_point_fails(self):
        with pytest.raises(ValueError):
            inner_scale(ZC, make_template(ZC, "box"),
                        must_contain=[[50.0, 50.0]])

    @pytest.mark.parametrize("kind", ["drop_pair", "zonotope", "box"])
    @pytest.mark.parametrize("norm", numerics.SCALING_NORMS)
    def test_every_norm_certified(self, kind, norm):
        # drop_pair's template keeps a zero (slack) generator whose scale
        # no equality row touches; norm 1 must not chase it.
        scaled, result = inner_scale(ZC, make_template(ZC, kind), norm=norm)
        assert (result.phi >= 0.0).all()
        X, Y = conzono_to_ah(scaled), conzono_to_ah(ZC)
        assert ah_containment_residual(X, Y, result.certificate) < 1e-6
        cert = ah_contains(X, Y)
        assert cert is not None and ah_containment_residual(X, Y, cert) < 1e-6


def orthonormal_coefficient_polytope(A, b):
    """Reference parametrization: the least-norm particular solution and
    an orthonormal null-space basis, entries up to ZERO_ENTRY read as 0."""
    A = np.where(np.abs(A) > ZERO_ENTRY, A, 0.0)
    if A.shape[0] == 0:
        s, T = np.zeros(A.shape[1]), np.eye(A.shape[1])
    else:
        s = np.linalg.lstsq(A, b, rcond=None)[0]
        T = scipy.linalg.null_space(A)
    H = np.vstack([T, -T])
    f = np.concatenate([1.0 - s, 1.0 + s])
    return s, T, H, f, np.abs(H).max(axis=1, initial=0.0) > ZERO_ENTRY


def random_conzono(rng, n, degeneracy):
    """Nonempty random set whose A has a duplicated row, a dependent
    row, or a row pinning one coefficient."""
    n_g = int(rng.integers(n + 2, n + 5))
    A = rng.normal(size=(int(rng.integers(1, 3)), n_g))
    extra = {"duplicated": A[:1], "rank_deficient": A.sum(axis=0, keepdims=True),
             "pinned": np.eye(n_g)[:1]}[degeneracy]
    A = np.vstack([A, extra])
    xi0 = rng.uniform(-0.8, 0.8, n_g)
    return ConstrainedZonotope(rng.normal(size=n), rng.normal(size=(n, n_g)),
                               A, A @ xi0)


def scaling_outcome(target, template, norm, values):
    """inner_scale's optimal value and the verdicts of scaled-in-target
    and target-in-scaled, with every certificate checked; or the error
    message when the program has no optimum."""
    try:
        scaled, result = inner_scale(target, template, norm=norm)
    except NumericalError as exc:
        return str(exc)
    value, verdicts = values[-1], []
    X, Y = conzono_to_ah(scaled), conzono_to_ah(target)
    assert ah_containment_residual(X, Y, result.certificate) < RESIDUAL_TOL
    for inner, outer in ((X, Y), (Y, X)):
        cert = ah_contains(inner, outer)
        verdicts.append(cert is not None)
        if cert is not None:
            assert ah_containment_residual(inner, outer, cert) < RESIDUAL_TOL
    assert verdicts[0]
    return value, verdicts


@pytest.mark.parametrize("degeneracy", ["duplicated", "rank_deficient", "pinned"])
@pytest.mark.parametrize("n", [2, 3])
def test_results_do_not_depend_on_the_null_space_basis(n, degeneracy, monkeypatch):
    # Any invertible reparametrization of the coefficients maps
    # certificates one to one, so the optimal scaling and every
    # containment verdict are the same under the RREF and the
    # orthonormal basis.  A pinned template coefficient's scale only
    # moves the free centre, so it sizes nothing under either basis and
    # the norm-1 program stays bounded.
    rng = np.random.default_rng(100 * n + len(degeneracy))
    values = []
    solve = numerics.solve_lp

    def record(p):
        out = solve(p)
        values.append(out.value)
        return out

    monkeypatch.setattr(numerics, "solve_lp", record)
    for _ in range(2):
        target = random_conzono(rng, n, degeneracy)
        templates = [make_template(target, kind) for kind in containment.TEMPLATE_KINDS]
        templates.append(random_conzono(rng, n, degeneracy))
        for template in templates:
            for norm in numerics.SCALING_NORMS:
                got = scaling_outcome(target, template, norm, values)
                with monkeypatch.context() as m:
                    m.setattr(containment, "_coefficient_polytope",
                              orthonormal_coefficient_polytope)
                    want = scaling_outcome(target, template, norm, values)
                assert not isinstance(want, str) and not isinstance(got, str)
                assert abs(got[0] - want[0]) <= 1e-9 * max(1.0, abs(want[0]))
                assert got[1] == want[1]


def scaling_value(phi, sizes, norm):
    """The size optimize_scaling maximizes for the template diag(sizes)."""
    phi = phi[sizes]
    if not phi.size:
        return 0.0
    return float(phi.min() if norm == "inf" else phi.sum())


def ah_scaling_optimum(target, template, norm):
    """Reference for a plain template: the optimal size under the
    affine-polytope program of Sadraddini and Tedrake, with the
    template's facets [I; -I] <= 1 and a multiplier for each pair of
    target and template facets."""
    outer = conzono_to_ah(target)
    m, n = template.n_g, target.n
    sizes = template.G.any(axis=0)
    b = LpBuilder()
    b.var("phi", m, lo=0.0, hi=np.where(sizes, np.inf, 0.0))
    b.var("center", n)
    eye = np.eye(m)
    _ah_certificate(b, outer, template.G, np.vstack([eye, -eye]),
                    np.ones(2 * m), {"center": np.eye(n)}, outer.xbar, T=eye)
    x = optimize_scaling(b, norm, maximize=True, template=np.diag(sizes))
    return scaling_value(b.value(x, "phi"), sizes, norm)


def plain_templates(rng, target):
    """Box and zonotope templates of a nonempty target, and a random
    zonotope."""
    templates = [make_template(target, kind) for kind in ("box", "zonotope")]
    return ([t for t in templates if t.n_g]
            + [make_zonotope(rng, target.n, target.n + 1)])


SAME_OPTIMUM_TARGETS = dict(DEGENERATE)
SAME_OPTIMUM_TARGETS.update({
    f"random {degeneracy} {n}-D": random_conzono(
        np.random.default_rng(n + 10 * k), n, degeneracy)
    for k, degeneracy in enumerate(["duplicated", "rank_deficient", "pinned"])
    for n in (2, 3)})
SAME_OPTIMUM_TARGETS["random 3-D"] = make_conzono(np.random.default_rng(5), 3, 7, 3)


@pytest.mark.parametrize("basis", ["rref", "orthonormal"])
@pytest.mark.parametrize("name", sorted(SAME_OPTIMUM_TARGETS))
def test_plain_templates_reach_the_affine_polytope_optimum(name, basis,
                                                           monkeypatch):
    # The lifted target's certificate and the affine-polytope one admit
    # the same scalings of a plain template, and the lifted solution
    # maps back onto a sound affine-polytope certificate in any basis.
    if basis == "orthonormal":
        monkeypatch.setattr(containment, "_coefficient_polytope",
                            orthonormal_coefficient_polytope)
    target = SAME_OPTIMUM_TARGETS[name]
    if is_empty(target):
        with pytest.raises(EmptySetError):
            inner_scale(target, Zonotope(np.zeros(target.n), np.eye(target.n)))
        return
    rng = np.random.default_rng(len(name))
    Y = conzono_to_ah(target)
    for template in plain_templates(rng, target):
        for norm in numerics.SCALING_NORMS:
            scaled, result = inner_scale(target, template, norm=norm)
            want = ah_scaling_optimum(target, template, norm)
            assert ah_containment_residual(
                conzono_to_ah(scaled), Y, result.certificate) < RESIDUAL_TOL
            got = scaling_value(result.phi, template.G.any(axis=0), norm)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.fixture(scope="module")
def wayset8(vehicle_scenario):
    doc = vehicle_scenario
    return wayset(doc.system, doc.x_star, 8, strategy="LP")[0]


def test_scenario_drop_pair_program_stays_sparse(wayset8, monkeypatch):
    # Under the RREF basis H = [T; -T] is mostly unit rows; the
    # orthonormal basis filled the program with 105,855 nonzeros.  The
    # builder stores it as CSR, so solving it allocates a small part of
    # its dense footprint.  Only builder programs are counted: the
    # emptiness check's small dense LP passes through solve_lp too.
    programs = []
    solve = numerics.solve_lp

    def count(p):
        if sparse.issparse(p.A_eq):
            rows = p.A_ub.shape[0] + p.A_eq.shape[0]
            programs.append((p.A_ub.nnz + p.A_eq.nnz, rows * p.n_vars * 8))
        return solve(p)

    monkeypatch.setattr(numerics, "solve_lp", count)
    template = make_template(wayset8, "drop_pair")
    tracemalloc.start()
    try:
        inner_scale(wayset8, template)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert programs and max(nnz for nnz, _ in programs) <= 20_000
    assert peak < max(dense for _, dense in programs) / 4


def test_scenario_zonotope_template_program_stays_small(vehicle_scenario,
                                                      monkeypatch):
    # The lifted certificate has one multiplier per pair of target and
    # template generators and one equality row per entry of [G; A] times
    # the template: 2,328 variables and 310 equality rows at N = 10,
    # where the affine-polytope program had 5,404 and 2,313.
    doc = vehicle_scenario
    target = wayset(doc.system, doc.x_star, 10, strategy="LP")[0]
    programs = []
    solve = numerics.solve_lp

    def count(p):
        if sparse.issparse(p.A_eq):
            programs.append((p.n_vars, p.A_eq.shape[0]))
        return solve(p)

    monkeypatch.setattr(numerics, "solve_lp", count)
    inner_scale(target, make_template(target, "zonotope"))
    assert programs
    assert max(n_vars for n_vars, _ in programs) <= 2_500
    assert max(rows for _, rows in programs) <= 400


def test_zonotope_and_box_templates_keep_the_orthonormal_basis(wayset8):
    # The zonotope template's shape depends on the basis, so it keeps
    # the least-norm centre and the orthonormal null-space basis.
    for Z in (ZC, wayset8):
        work = _canonical(Z)
        centre = work.c + work.G @ np.linalg.lstsq(work.A, work.b, rcond=None)[0]
        zono, box = make_template(Z, "zonotope"), make_template(Z, "box")
        assert np.array_equal(zono.G, work.G @ scipy.linalg.null_space(work.A))
        assert np.array_equal(box.G, np.eye(Z.n))
        assert np.array_equal(zono.c, centre) and np.array_equal(box.c, centre)
