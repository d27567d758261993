"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import zonokit  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    trace = [
        ["reach.wayset", 0.0, 10.0, -1],
        ["halfspaces.conzono_in_halfspace", 1.0, 4.0, 0],
        ["numerics.solve_lp", 2.0, 3.0, 1],
        ["halfspaces.conzono_in_halfspace", 5.0, 7.0, 0],
        ["io.read_scenario", 12.0, 13.0, -1],
    ]
    assert spans.self_times(trace) == [5.0, 2.0, 1.0, 2.0, 1.0]
    out = spans.summarize(trace, wall=20.0)
    assert out["halfspaces.conzono_in_halfspace.calls"] == 2
    assert out["halfspaces.conzono_in_halfspace.busy_s"] == 5.0
    assert out["halfspaces.conzono_in_halfspace.self_s"] == 4.0
    assert out["reach.wayset.busy_s"] == 10.0
    assert out["other.self_s"] == 9.0
    layers = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + out["other.self_s"] == 20.0


def test_overlapping_and_recursive_spans_count_once():
    assert spans.union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    trace = [
        ["reduction.reduce_fully", 0.0, 8.0, -1],
        ["reduction.reduce_fully", 1.0, 5.0, 0],
        ["sets.as_conzono", 2.0, 3.0, 1],
    ]
    out = spans.summarize(trace, wall=8.0)
    assert out["reduction.reduce_fully.busy_s"] == 8.0
    assert out["reduction.reduce_fully.self_s"] == 7.0
    assert out["reduction.self_s"] + out["sets.self_s"] + out["other.self_s"] == 8.0


def _bindings():
    """Every zonokit module attribute plus LpBuilder.build, by identity."""
    found = {}
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "zonokit" or key.startswith("zonokit.")):
            for attr, value in vars(module).items():
                found[(key, attr)] = value
    found[("LpBuilder", "build")] = zonokit.numerics.LpBuilder.build
    return found


def test_traced_run_wraps_import_sites_and_restores_them():
    before = _bindings()
    scenario = workloads.read_scenario(workloads.SCENARIO)
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with spans.traced(tracer) as rebinds:
            assert zonokit.reach.conzono_in_halfspace is not \
                before[("zonokit.reach", "conzono_in_halfspace")]
            zonokit.wayset(scenario.system, scenario.x_star, 2, strategy="LP")
            1 / 0
    assert rebinds
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert names[0] == "reach.wayset"
    assert parents["halfspaces.conzono_in_halfspace"] == "reach.wayset"
    assert parents["numerics.linprog"] == "numerics.solve_lp"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_pass_is_correct_and_layers_add_up(name):
    workload = workloads.WORKLOADS[name]()
    inputs = workload.setup(0)
    tracer = spans.Tracer()
    run.install_counters(tracer)
    records = run.measure(workload, inputs, 1e-3, tracer)
    assert [r.traced for r in records] == [False, True]
    attempted, failures, extras = run.tally(workload, inputs, records)
    assert attempted == 2 * len(records[0].results)
    assert failures == {}
    values = run.layer_metrics(tracer, records, extras)
    layers = sum(values.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
    assert layers + values["other.self_s"] == pytest.approx(
        values["trace.pass_s"], rel=1e-9)
    assert values["other.self_s"] >= 0.0


def test_benchmark_spec_names_known_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "pass_s", "slowest_op_s", "size_nc", "size_ng",
        "peak_rss_mib"]
    functions = {name for _, name in spans._layer_functions("zonokit")}
    functions |= {name for *_, name in spans.EXTRA_TARGETS}
    counters = {"numerics.solve_lp." + k for k in (
        "optimal", "infeasible", "unbounded", "failure", "vars", "nnz",
        "dense_mib")} | {
        f"{name}.{what}_ratio" for name, (what, _) in run.OUTCOMES.items()} | {
        "reach.wayset.out_nc", "reach.wayset.out_ng",
        "containment.inner_vol_ratio", "trace.pass_s", "trace.overhead",
        "other.self_s"} | {f"{layer}.self_s" for layer in spans.LAYERS}
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names)) <= 128
    for name in names:
        base, _, stat = name.rpartition(".")
        assert name in counters or (
            base in functions and stat in ("calls", "busy_s", "self_s")), name
