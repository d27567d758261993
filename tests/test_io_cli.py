import json
import os
import subprocess
import sys

import numpy as np
import pytest

from zonokit import (
    AutonomousSystem,
    ConstrainedZonotope,
    HPolytope,
    NumericalError,
    Zonotope,
    convex_hull,
    generalized_intersection,
    is_empty,
    mrpi_iterative,
    numerics,
    pontryagin_iterative,
    rpi_onestep,
)
from zonokit import cli
from zonokit.cli import main
from zonokit.io import (
    SchemaError,
    read_scenario,
    read_set,
    scenario_to_document,
    write_scenario,
    write_set,
)
from zonokit import oracle

from conftest import FIXTURES, make_conzono


def test_set_roundtrips(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        Zonotope([1.0, 2.0], [[1.0, 0.0], [0.5, 2.0]]),
        make_conzono(rng, 2, 4, 2),
        HPolytope([[1.0, 0.0], [-1.0, 0.0]], [2.0, 2.0]),
        np.array([3.0, -1.0]),
    ]
    for i, obj in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        write_set(path, obj, name=f"case {i}")
        back = read_set(path)
        assert type(back) is type(obj) or isinstance(back, np.ndarray)
        if isinstance(obj, HPolytope):
            assert np.allclose(back.H, obj.H) and np.allclose(back.f, obj.f)
        elif isinstance(obj, ConstrainedZonotope):
            assert oracle.sets_equal(back, obj)
        else:
            assert np.allclose(back, obj)


def test_scenario_roundtrip(tmp_path, vehicle_scenario):
    path = tmp_path / "scenario.json"
    write_scenario(path, vehicle_scenario)
    back = read_scenario(path)
    assert np.allclose(back.system.A, vehicle_scenario.system.A)
    assert np.allclose(back.x_star, vehicle_scenario.x_star)
    assert back.N == vehicle_scenario.N
    assert np.allclose(back.x_star_minus, vehicle_scenario.x_star_minus)


# JSON true loads as a bool, which Python counts as the int 1.
@pytest.mark.parametrize("N", [True, 0, 2.5, "3"])
def test_scenario_horizon_must_be_a_positive_integer(tmp_path, vehicle_scenario, N):
    doc = scenario_to_document(vehicle_scenario)
    doc["N"] = N
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="field 'N' must be a positive integer"):
        read_scenario(path)


@pytest.mark.parametrize("field, size", [("x_star", 2), ("x_star_minus", 1)])
def test_scenario_targets_must_have_the_state_dimension(tmp_path, vehicle_scenario,
                                                        field, size):
    doc = scenario_to_document(vehicle_scenario)
    doc[field] = doc[field][:size]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"field '{field}' must have "
                                          f"{vehicle_scenario.system.n} entries"):
        read_scenario(path)


@pytest.mark.parametrize("doc", [
    {"schema": 1, "kind": "zonotope", "c": [0.0]},              # missing G
    {"schema": 1, "kind": "flat", "c": [0.0], "G": [[1.0]]},    # bad kind
    {"schema": 1, "kind": "zonotope", "c": [0.0], "G": [[1.0, float("nan")]]},
    [1, 2, 3],                                                  # not an object
])
def test_schema_violations(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        read_set(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "torn.json"
    path.write_text('{"schema": 1, "kind": "zonotope"')
    with pytest.raises(SchemaError):
        read_set(path)


def assert_written(path, Z):
    """The set written at path is Z: the same sizes and arrays."""
    got = read_set(path)
    assert (got.n, got.n_g, got.n_c) == (Z.n, Z.n_g, Z.n_c)
    for a, b in ((got.c, Z.c), (got.G, Z.G), (got.A, Z.A), (got.b, Z.b)):
        assert np.array_equal(a, b)


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    @pytest.mark.parametrize("operand", ["set", "point", "point-first",
                                         "points"])
    def test_hull_matches_library(self, tmp_path, operand):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        Z = make_conzono(np.random.default_rng(5), 2, 4, 1)
        x = np.array([-3.0, 1.0])
        # either operand may be a point
        first, second = {
            "set": (Z, Zonotope([3.0, 0.0], [[0.5, 0.2], [0.0, 1.0]])),
            "point": (Z, x),
            "point-first": (x, Z),
            "points": (x, np.array([2.0, 0.5])),
        }[operand]
        write_set(a, first)
        write_set(b, second)
        assert self.run("hull", a, b, "-o", out) == 0
        assert_written(out, convex_hull(first, second))

    @pytest.mark.parametrize("method", ["--s", "--eps"])
    def test_rpi_matches_library(self, tmp_path, method):
        w = tmp_path / "w.json"
        out = tmp_path / "out.json"
        W = Zonotope([0.0, 0.0], 0.1 * np.eye(2))
        A = np.array([[0.6, 0.2], [-0.1, 0.5]])
        write_set(w, W)
        value = {"--s": "4", "--eps": "0.01"}[method]
        assert self.run("rpi", w, "--A", "0.6,0.2;-0.1,0.5", method, value,
                        "-o", out) == 0
        sys_ = AutonomousSystem(A, W)
        want = (rpi_onestep(sys_, 4)[0] if method == "--s"
                else mrpi_iterative(sys_, 0.01)[0])
        assert_written(out, want)

    def test_pontryagin_defaults_to_iterative(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        Z1 = Zonotope([0.0, 0.0], [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2]])
        Z2 = Zonotope([0.1, 0.0], [[0.1, 0.05], [0.0, 0.1]])
        write_set(a, Z1)
        write_set(b, Z2)
        assert self.run("pontryagin", a, b, "-o", out) == 0
        assert_written(out, pontryagin_iterative(Z1, Z2))

    @pytest.mark.parametrize("R", [None, "2,0;0,1"])
    def test_intersect_two_sets_matches_library(self, tmp_path, R):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        Z = Zonotope([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
        Y = make_conzono(np.random.default_rng(6), 2, 3, 1)
        write_set(a, Z)
        write_set(b, Y)
        extra = [] if R is None else ["--R", R]
        assert self.run("intersect", a, b, *extra, "-o", out) == 0
        want = generalized_intersection(
            Z, Y, None if R is None else np.diag([2.0, 1.0]))
        assert_written(out, want)

    def test_info_on_an_hpolytope_and_a_point(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        x = tmp_path / "x.json"
        write_set(p, HPolytope([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [2.0, 2.0]))
        write_set(x, np.array([3.0, -1.0]))
        assert self.run("info", p) == 0
        assert capsys.readouterr().out.strip() == "hpolytope n=3 n_h=2"
        assert self.run("info", x) == 0
        assert capsys.readouterr().out.strip() == "point n=2"

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))

        def breakdown(Z):
            raise NumericalError("LP backend failed (status 4)")

        monkeypatch.setattr(cli, "reduce_fully", breakdown)
        assert self.run("reduce", z, "-o", out) == 3
        err = capsys.readouterr().err
        assert err == "zonokit: numerical failure: LP backend failed (status 4)\n"
        assert not out.exists()

    @pytest.mark.parametrize("f", ["nan", "inf", "-inf"])
    def test_halfspace_rejects_a_non_finite_offset(self, tmp_path, capsys, f):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        assert self.run("halfspace", z, "--h", "1,0", f"--f={f}",
                        "-o", out) == 2
        err = capsys.readouterr().err
        assert err == "zonokit: error: halfspace offset f must be finite\n"
        assert not out.exists()

    def test_pipeline_map_sum_info(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        write_set(a, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(b, Zonotope([1.0, 0.0], [[0.5, 0.0], [0.0, 0.5]]))
        assert self.run("map", "0,1;1,0", a, "-o", out) == 0
        assert self.run("sum", out, b, "-o", out) == 0
        assert self.run("info", out) == 0
        line = capsys.readouterr().out.strip()
        assert line == "zonotope n=2 n_g=4 n_c=0 order=2 dof_order=2"

    def test_halfspace_then_reduce(self, tmp_path, capsys):
        src = tmp_path / "z.json"
        cut = tmp_path / "cut.json"
        red = tmp_path / "red.json"
        write_set(src, Zonotope([0.0, 0.0], [[1.0, 1.0], [0.0, 2.0]]))
        assert self.run("halfspace", src, "--h", "3,1", "--f", "3",
                        "-o", cut) == 0
        Zh = read_set(cut)
        assert (Zh.n_g, Zh.n_c) == (3, 1)
        # a supporting halfspace folds a vacuous row; reduce strips it
        assert self.run("halfspace", src, "--h", "3,1", "--f", "9",
                        "-o", red) == 0
        assert self.run("reduce", red, "-o", red) == 0
        assert read_set(red).n_c == 0

    def test_volume_and_ratio(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        w = tmp_path / "w.json"
        write_set(z, Zonotope.box([-1, -1], [1, 1]))
        write_set(w, Zonotope.box([-2, -2], [2, 2]))
        assert self.run("volume", z) == 0
        assert capsys.readouterr().out.split() == ["4", "0"]
        assert self.run("volume", z, w, "--ratio") == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_project_golden_csv(self, tmp_path):
        z = tmp_path / "z.json"
        csv = tmp_path / "poly.csv"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        assert self.run("project", z, "-o", csv) == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "x,y"
        got = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
        assert got == [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]

    def test_wayset_matches_library(self, tmp_path, vehicle_scenario):
        out = tmp_path / "w.json"
        scenario = os.path.join(FIXTURES, "backward_reach_scenario.json")
        assert self.run("wayset", scenario, "--strategy", "ZH",
                        "--reduce", "-o", out) == 0
        Z = read_set(out)
        assert (Z.n_c, Z.n_g) == (7, 37)

    def test_intersect_hpolytope_preimage(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        p = tmp_path / "p.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(p, HPolytope([[1.0, 0.0]], [0.5]))
        # {z in Z : R z in P} with R = diag(2, 1) cuts x1 at 0.25
        assert self.run("intersect", z, p, "--R", "2,0;0,1", "-o", out) == 0
        assert oracle.support_lp(read_set(out), [1.0, 0.0]) == \
            pytest.approx(0.25, abs=1e-7)
        assert self.run("intersect", z, p, "-o", out) == 0
        assert oracle.support_lp(read_set(out), [1.0, 0.0]) == \
            pytest.approx(0.5, abs=1e-7)
        assert self.run("intersect", z, p, "--R", "1,0,0", "-o", out) == 2

    def test_intersect_preimage_checks_r_against_the_polytope(
            self, tmp_path, capsys):
        z = tmp_path / "z.json"
        p = tmp_path / "p.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(p, HPolytope([[1.0, 0.0]], [0.5]))
        assert self.run("intersect", z, p, "--R", "1,0,0",
                        "-o", tmp_path / "out.json") == 2
        assert capsys.readouterr().err == \
            "zonokit: error: R has 1 rows but b lives in R^2\n"

    @pytest.mark.parametrize("command, wrong, also", [
        ("hull", HPolytope([[1.0, 0.0]], [0.5]), "point"),
        ("intersect", np.array([1.0, 2.0]), "hpolytope"),
    ], ids=["hull", "intersect"])
    def test_wrong_operand_kind_names_every_accepted_kind(
            self, tmp_path, capsys, command, wrong, also):
        z = tmp_path / "z.json"
        b = tmp_path / "b.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(b, wrong)
        assert self.run(command, z, b, "-o", tmp_path / "out.json") == 2
        assert capsys.readouterr().err == (
            "zonokit: error: operand must be a zonotope, constrained "
            f"zonotope or {also}\n")

    def test_intersect_preimage_with_zero_rows(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        p = tmp_path / "p.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        # R's zero first row maps x1 <= f to the row 0 <= f
        write_set(p, HPolytope(np.eye(2), [0.5, 0.5]))
        assert self.run("intersect", z, p, "--R", "0,0;0,1", "-o", out) == 0
        Z = read_set(out)
        assert oracle.support_lp(Z, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-7)
        assert oracle.support_lp(Z, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-7)
        write_set(p, HPolytope(np.eye(2), [-0.5, 0.5]))
        assert self.run("intersect", z, p, "--R", "0,0;0,1", "-o", out) == 0
        assert is_empty(read_set(out))
        # 0 <= -1e-12 holds within FEAS_TOL, as the LPs read it
        write_set(p, HPolytope(np.eye(2), [-1e-12, 0.5]))
        assert self.run("intersect", z, p, "--R", "0,0;0,1", "-o", out) == 0
        assert not is_empty(read_set(out))

    def test_intersect_has_no_ia_passes(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        p = tmp_path / "p.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(p, HPolytope([[1.0, 0.0]], [0.5]))
        assert self.run("intersect", z, p, "--ia-passes", "3",
                        "-o", tmp_path / "out.json") == 1

    @pytest.mark.parametrize("argv", [
        ["info", "z.json", "--lp-tol", "0.5"],
        ["wayset", "scenario", "--ia-passes", "3", "-o", "out.json"],
    ], ids=["lp-tol", "ia-passes"])
    def test_removed_options_are_usage_errors(self, tmp_path, argv, capsys):
        write_set(tmp_path / "z.json", Zonotope([0.0, 0.0], np.eye(2)))
        scenario = os.path.join(FIXTURES, "backward_reach_scenario.json")
        paths = {"z.json": tmp_path / "z.json", "scenario": scenario,
                 "out.json": tmp_path / "out.json"}
        assert self.run(*[paths.get(a, a) for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pontryagin_onestep_with_a_zero_generator(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.json"
        write_set(a, Zonotope([0.0, 0.0], [[1.0, 0.0, 0.5, 0.0],
                                            [0.0, 1.0, 0.2, 0.0]]))
        write_set(b, Zonotope([0.0, 0.0], 0.1 * np.eye(2)))
        assert self.run("pontryagin", a, b, "--method", "onestep",
                        "-o", out) == 0
        D = read_set(out)
        assert D.n_g == 6
        assert oracle.support_lp(D, [1.0, 0.0]) > 0.0

    def test_inner_order_on_a_constraint_free_conzono(self, tmp_path):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        G = [[4.0, 3.0, -2.0], [0.0, 2.0, 3.0]]
        z.write_text(json.dumps({"kind": "conzono", "c": [1.0, 0.0],
                                 "G": G, "A": [], "b": []}))
        assert self.run("inner", z, "--order", "2", "-o", out) == 0
        assert read_set(out).n_g == 2
        write_set(z, ConstrainedZonotope([0.0, 0.0], G, [[1.0, 0.0, 0.0]],
                                         [0.0]))
        assert self.run("inner", z, "--order", "2", "-o", out) == 2

    def test_inner_order_rejects_contain(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        Z = Zonotope([0.0, 0.0], [[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, -0.5]])
        write_set(z, Z)
        # x is in Z but not in the order-2 reduction, which cannot be
        # asked to contain a point
        assert oracle.membership(Z, [2.5, -0.5])
        assert self.run("inner", z, "--order", "2", "--contain", "2.5,-0.5",
                        "-o", out) == 2
        assert "--contain applies to --template" in capsys.readouterr().err
        assert not out.exists()

    def test_inner_order_rejects_norm(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0],
                              [[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, -0.5]]))
        # the order reduction has no norm to choose, so a passed one is
        # an error rather than silently ignored
        for norm in numerics.SCALING_NORMS:
            assert self.run("inner", z, "--order", "2", "--norm", norm,
                            "-o", out) == 2
            assert "--norm applies to --template" in capsys.readouterr().err
            assert not out.exists()
        assert self.run("inner", z, "--order", "2", "-o", out) == 0

    def test_inner_template_norm_defaults_to_inf(self, tmp_path):
        z = tmp_path / "z.json"
        write_set(z, make_conzono(np.random.default_rng(3), 2, 4, 1))
        outs = [tmp_path / f"{k}.json" for k in ("default", "inf", "one")]
        for out, extra in zip(outs, ([], ["--norm", "inf"], ["--norm", "1"])):
            assert self.run("inner", z, "--template", "box", *extra,
                            "-o", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_set(outs[2]).n == 2

    @pytest.mark.parametrize("norm", ["1"])
    def test_inner_template_with_a_pinned_coefficient(self, tmp_path, norm):
        # drop_pair removes one pinned coefficient and keeps the other,
        # whose scale only translates the template; the fit fills Z
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        Z = ConstrainedZonotope([0.0, 0.0], [[1.0, 0.0, 1.0, 0.5],
                                             [0.0, 1.0, 1.0, -0.5]],
                                [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
                                [0.5, -0.2])
        write_set(z, Z)
        assert self.run("inner", z, "--template", "drop_pair", "--norm", norm,
                        "-o", out) == 0
        inner = read_set(out)
        assert oracle.volume_ratio(inner, Z) > 0.99

    @pytest.mark.parametrize("flags", [
        ["--order", "2", "--template", "box"], []], ids=["both", "neither"])
    def test_inner_takes_exactly_one_of_order_and_template(
            self, tmp_path, capsys, flags):
        z = tmp_path / "z.json"
        out = tmp_path / "out.json"
        write_set(z, Zonotope([0.0, 0.0],
                              [[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, -0.5]]))
        assert self.run("inner", z, *flags, "-o", out) == cli.USAGE_ERROR
        assert "zonokit inner: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_every_subcommand_has_help(self, capsys):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command")
        assert len(sub.choices) == 13
        for name in sub.choices:
            assert self.run(name, "--help") == 0
            assert capsys.readouterr().out.startswith(f"usage: zonokit {name}")

    def test_norm_choices_are_the_scaling_norms(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        norm = next(a for a in sub.choices["inner"]._actions
                    if a.dest == "norm")
        assert tuple(norm.choices) == numerics.SCALING_NORMS

    def test_usage_error_exit_code(self, capsys):
        assert self.run("frobnicate") == 1
        assert self.run("volume") == 1

    def test_domain_error_exit_code(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        # non-crossing halfspace cannot be folded into a zonotope…
        assert self.run("inner", z, "--order", "5", "-o",
                        tmp_path / "x.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("zonokit: error:")

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert self.run("info", bad) == 2
        assert "schema error" in capsys.readouterr().err

    def test_outputs_are_deterministic(self, tmp_path):
        z = tmp_path / "z.json"
        o1 = tmp_path / "o1.json"
        o2 = tmp_path / "o2.json"
        write_set(z, Zonotope([0.0, 0.0], [[1.0, 1.0], [0.0, 2.0]]))
        for out in (o1, o2):
            assert self.run("halfspace", z, "--h", "3,1", "--f", "3",
                            "-o", out) == 0
        assert o1.read_text() == o2.read_text()


def test_console_entry_point(tmp_path):
    z = tmp_path / "z.json"
    write_set(z, Zonotope([0.5], [[2.0]]))
    # The child imports the same zonokit as this process, installed or not.
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zonokit.cli", "info", str(z)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "zonotope n=1 n_g=1 n_c=0 order=1 dof_order=1"
