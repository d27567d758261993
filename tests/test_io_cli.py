import json
import os
import subprocess
import sys

import numpy as np
import pytest

from zonokit import (
    ConstrainedZonotope,
    HPolytope,
    Zonotope,
    is_empty,
    numerics,
)
from zonokit.cli import main
from zonokit.io import (
    SchemaError,
    read_scenario,
    read_set,
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


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

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

    def test_intersect_has_no_ia_passes(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        p = tmp_path / "p.json"
        write_set(z, Zonotope([0.0, 0.0], np.eye(2)))
        write_set(p, HPolytope([[1.0, 0.0]], [0.5]))
        assert self.run("intersect", z, p, "--ia-passes", "3",
                        "-o", tmp_path / "out.json") == 1

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


class TestLpTol:
    @pytest.fixture
    def zono(self, tmp_path):
        path = tmp_path / "z.json"
        write_set(path, Zonotope([0.0, 0.0], np.eye(2)))
        return str(path)

    def test_scoped_to_one_invocation(self, tmp_path, zono, capsys):
        before = numerics.LP_TOL
        assert main(["info", zono, "--lp-tol", "0.5"]) == 0
        assert numerics.LP_TOL == before
        missing = str(tmp_path / "missing.json")
        assert main(["info", missing, "--lp-tol", "0.5"]) == 2
        assert numerics.LP_TOL == before

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "tight"])
    def test_rejects_values_not_finite_and_positive(self, zono, value, capsys):
        before = numerics.LP_TOL
        assert main(["info", zono, "--lp-tol", value]) == 1
        assert "--lp-tol" in capsys.readouterr().err
        assert numerics.LP_TOL == before


def test_console_entry_point(tmp_path):
    z = tmp_path / "z.json"
    write_set(z, Zonotope([0.5], [[2.0]]))
    proc = subprocess.run(
        [sys.executable, "-m", "zonokit.cli", "info", str(z)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "zonotope n=1 n_g=1 n_c=0 order=1 dof_order=1"
