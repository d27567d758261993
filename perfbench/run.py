"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wayset --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  The metric names and units are
read from BENCHMARK.json at the repository root.  The last line of
standard output is the JSON result; a per-operation table goes to
standard error, and a record of the run (machine info, per-operation
times and sizes, failures and, when traced, every span) is written to
perfbench/out/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from spans import Tracer, summarize, traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up (input generation plus warm-up) is repeated this many times and
# its median reported, so work moved into set-up shows steadily.
SETUP_REPEATS = 3

LP_STATUS = {"optimal": "optimal", "infeasible": "infeasible",
             "unbounded": "unbounded", "numerical-failure": "failure"}


class Pass:
    """Recorder handed to a workload's ``run_pass``: times each operation
    and keeps its result."""

    def __init__(self):
        self.op_seconds = {}
        self.results = {}
        self.current = None
        self.error = None
        self.seconds = 0.0
        self.traced = False
        self.peak_rss_mib = 0.0

    def __call__(self, name, fn, *args, **kwargs):
        self.current = name
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.op_seconds[name] = time.perf_counter() - start
        self.results[name] = result
        return result


def run_pass(workload, inputs, tracer=None):
    """One pass; with a tracer, the layers are wrapped for its duration."""
    rec = Pass()
    rec.traced = tracer is not None
    with traced(tracer) if rec.traced else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            workload.run_pass(inputs, rec)
        except Exception as exc:  # an operation failed; the pass stops there
            rec.error = f"{rec.current}: {exc!r}"
        rec.seconds = time.perf_counter() - start
    rec.peak_rss_mib = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def measure(workload, inputs, seconds, tracer=None):
    """Run passes until the next one would overrun ``seconds``.  With a
    tracer, untraced and traced passes alternate, starting untraced."""
    records = []
    begin = time.perf_counter()
    while True:
        use = tracer if tracer is not None and len(records) % 2 else None
        records.append(run_pass(workload, inputs, use))
        elapsed = time.perf_counter() - begin
        minimum = 2 if tracer is not None else 1
        if len(records) >= minimum and elapsed * (1 + 1 / len(records)) > seconds:
            return records


def tally(workload, inputs, records):
    """Check the first pass's outputs and compare every later pass with
    it.  Returns (attempted, failures, extras) where failures maps
    "<pass>/<operation>" to a message."""
    from workloads import sizes

    first = records[0]
    failures, extras = {}, {}
    bad_ops = {}
    if first.error is None:
        bad_ops, extras = workload.check(inputs, first.results)
    attempted = 0
    for i, rec in enumerate(records):
        attempted += len(rec.results) + (rec.error is not None)
        if rec.error is not None:
            failures[f"{i}/{rec.current}"] = rec.error
        for name, result in rec.results.items():
            if name in bad_ops:
                failures[f"{i}/{name}"] = bad_ops[name]
            elif name not in first.results or \
                    sizes(result) != sizes(first.results[name]):
                failures[f"{i}/{name}"] = "output size differs from pass 0"
    return attempted, failures, extras


# Functions whose calls are also counted by outcome: the counter
# "<function>.<outcome>" and the metric "<function>.<outcome>_ratio", the
# share of calls with that outcome.
OUTCOMES = {
    "halfspaces.conzono_in_halfspace": ("proved", lambda out: out),
    "halfspaces.interval_refine": ("empty", lambda out: out[0].any_empty),
    "reduction.remove_redundant_pair": ("removed", lambda out: out[1]),
}


def install_counters(tracer):
    """Counters at the layer boundaries the per-layer metrics name.  The
    LP sizes are computed from the arrays passed to solve_lp."""
    import numpy as np

    def lp(counts, args, kwargs, out):
        p = args[0]
        counts[f"numerics.solve_lp.{LP_STATUS[out.status]}"] += 1
        counts["numerics.solve_lp.vars"] += p.n_vars
        counts["numerics.solve_lp.nnz"] += (np.count_nonzero(p.a_ub)
                                            + np.count_nonzero(p.a_eq))
        counts["numerics.solve_lp.dense_mib"] += (p.a_ub.nbytes
                                                  + p.a_eq.nbytes) / 2**20

    def wayset_size(counts, args, kwargs, out):
        counts["reach.wayset.out_nc"] += out[0].n_c
        counts["reach.wayset.out_ng"] += out[0].n_g

    def outcome(key, test):
        def hook(counts, args, kwargs, out):
            counts[key] += bool(test(out))
        return hook

    tracer.on_call("numerics.solve_lp", lp)
    tracer.on_call("reach.wayset", wayset_size)
    for name, (what, test) in OUTCOMES.items():
        tracer.on_call(name, outcome(f"{name}.{what}", test))


def layer_metrics(tracer, records, extras):
    """Per-pass means of the traced passes' span and counter totals."""
    traced_recs = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced_recs)
    wall = sum(r.seconds for r in traced_recs)
    values = summarize(tracer.spans, wall)
    for key, count in tracer.counts.items():
        values[key] += count
    values = {key: v / n for key, v in values.items()}
    for name, (what, _) in OUTCOMES.items():
        calls = values.get(f"{name}.calls", 0.0)
        values[f"{name}.{what}_ratio"] = \
            values.get(f"{name}.{what}", 0.0) / calls if calls else 0.0
    values["trace.pass_s"] = wall / n
    values["trace.overhead"] = (wall / n) / statistics.mean(
        r.seconds for r in plain)
    values["containment.inner_vol_ratio"] = extras.get("inner_vol_ratio", 0.0)
    return values


def end_to_end_metrics(records, import_s, setup_times):
    from workloads import sizes

    first = records[0]
    all_sizes = [s for result in first.results.values() for s in sizes(result)]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "pass_s": statistics.median(r.seconds for r in records),
        "slowest_op_s": statistics.median(
            max(r.op_seconds.values(), default=0.0) for r in records),
        "size_nc": float(sum(nc for nc, _ in all_sizes)),
        "size_ng": float(sum(ng for _, ng in all_sizes)),
        # Freed LP arrays leave the heap fragmented, so later passes can
        # raise the high-water mark by a varying amount; set-up plus one
        # pass is repeatable.
        "peak_rss_mib": first.peak_rss_mib,
    }


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    import ctypes
    import glob
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def machine_info():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def write_record(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")


def op_table(records):
    from workloads import sizes

    table = {}
    for name in records[0].results:
        times = [r.op_seconds[name] for r in records if name in r.op_seconds]
        table[name] = {"median_s": statistics.median(times),
                       "sizes": sizes(records[0].results[name])}
    return table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "zonokit", "__init__.py")):
        print(f"error: no zonokit sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import zonokit
    if os.path.dirname(os.path.dirname(zonokit.__file__)) != SRC:
        print(f"error: zonokit imported from {zonokit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.setup(args.seed)
        workload.warm_up(inputs)
        setup_times.append(time.perf_counter() - t)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_counters(tracer)
    records = measure(workload, inputs, args.seconds, tracer)
    attempted, failures, extras = tally(workload, inputs, records)

    if args.trace:
        values = layer_metrics(tracer, records, extras)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(records, import_s, setup_times)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    table = op_table(records)
    for name, row in table.items():
        print(f"{name:32s} {row['median_s']:9.4f} s  {row['sizes']}",
              file=sys.stderr)
    for key, message in failures.items():
        print(f"FAILED {key}: {message}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(),
        "setup_times": setup_times, "import_s": import_s,
        "passes": [{"seconds": r.seconds, "traced": r.traced,
                    "peak_rss_mib": r.peak_rss_mib} for r in records],
        "ops": table, "failures": failures, "extras": extras,
        "values": dict(values),
    }
    if tracer is not None:
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        record["span_names"] = names
        record["spans"] = [[index[n], s, e, p] for n, s, e, p in tracer.spans]
    write_record(os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), record)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
