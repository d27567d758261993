"""Command-line front end: one subcommand per library operation.

build_parser declares each subcommand once, with the handler it runs.
main calls args.run(args) and writes a set the handler returns to -o.
Handlers look library functions up at call time, so tests can patch
them on this module.  Exit codes: 0 success, 1 usage, 2 domain error
(bad schema/geometry), 3 numerical failure.
"""

import argparse
import sys

import numpy as np

from .containment import (
    TEMPLATE_KINDS,
    inner_reduce_zonotope,
    inner_scale,
    make_template,
)
from .halfspaces import (
    _empty_cut,
    conzono_halfspace_intersection,
    intersect_hpolytope,
)
from .hull import convex_hull
from .invariance import AutonomousSystem, mrpi_iterative, rpi_onestep
from .io import SchemaError, read_scenario, read_set, write_set
from .numerics import FEAS_TOL, SCALING_NORMS, NumericalError
from . import oracle
from .pontryagin import pontryagin_iterative, pontryagin_onestep
from .reach import WAYSET_STRATEGIES, wayset, wayset_reduce
from .reduction import reduce_fully
from .sets import (
    ConstrainedZonotope,
    Halfspace,
    HPolytope,
    generalized_intersection,
    linear_map,
    minkowski_sum,
)

USAGE_ERROR, DOMAIN_ERROR, NUMERICAL_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _matrix(text):
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        return np.array(rows, dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a matrix: {text!r}")


def _vector(text):
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a vector: {text!r}")


def _dims(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an index list: {text!r}")


def build_parser():
    parser = _Parser(prog="zonokit",
                     description="zonotope / constrained-zonotope toolbox")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    writers = []

    def op(name, help_text, run, *operands, output=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for operand in operands:
            p.add_argument(operand)
        if output:
            writers.append(p)
        return p

    p = op("map", "apply a linear map R to a set", _map)
    p.add_argument("R", type=_matrix, help="matrix, rows ';'-separated")
    p.add_argument("set", help="input set JSON")

    op("sum", "Minkowski sum of two sets", _sum, "a", "b")

    p = op("intersect", "intersection (generalized if --R is given)",
           _intersect, "a")
    p.add_argument("b", help="set JSON; an hpolytope is folded halfspace-wise")
    p.add_argument("--R", type=_matrix, default=None,
                   help="keep the points z with R z in b")

    p = op("halfspace", "intersect a set with h'x <= f", _halfspace, "set")
    p.add_argument("--h", type=_vector, required=True, dest="normal")
    p.add_argument("--f", type=float, required=True, dest="offset")

    op("reduce", "remove redundant generators and constraints", _reduce,
       "set")

    p = op("inner", "inner-approximate a set", _inner, "set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int, default=None,
                       help="target generator count (plain zonotopes)")
    group.add_argument("--template", choices=TEMPLATE_KINDS, default=None,
                       help="template scaling (constrained sets)")
    p.add_argument("--norm", choices=SCALING_NORMS, default=None,
                   help="norm the template scaling maximizes (default inf)")
    p.add_argument("--contain", type=_vector, default=None,
                   help="point the approximation must contain")

    op("hull", "convex hull of two sets (or a set and a point)", _hull,
       "a", "b")

    p = op("rpi", "robust positively invariant set of x+ = Ax + w", _rpi)
    p.add_argument("W", help="disturbance zonotope JSON")
    p.add_argument("--A", type=_matrix, required=True, dest="dynamics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=int, default=None,
                       help="one-step method with reachability depth s")
    group.add_argument("--eps", type=float, default=None,
                       help="iterative method with error bound eps")

    p = op("pontryagin", "Pontryagin difference a minus b", _pontryagin,
           "a", "b")
    p.add_argument("--method", choices=("iterative", "onestep"),
                   default="iterative")

    p = op("wayset", "backward-reachable wayset of a scenario", _wayset)
    p.add_argument("scenario", help="scenario JSON (A, B, X, U, x_star, N)")
    p.add_argument("--strategy", choices=WAYSET_STRATEGIES, default="LP")
    p.add_argument("--reduce", action="store_true",
                   help="compact the result before writing")

    p = op("volume", "volume estimate, or volume ratio with --ratio",
           _volume, output=False)
    p.add_argument("sets", nargs="+", help="one set, or two with --ratio")
    p.add_argument("--ratio", action="store_true")
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)

    p = op("project", "2-D projection polygon as CSV (x,y rows, ccw)",
           _project, "set")
    p.add_argument("--dims", type=_dims, default=[0, 1])

    op("info", "print representation sizes", _info, "set", output=False)

    # declared last, so usage lists -o after each subcommand's options
    for p in writers:
        p.add_argument("-o", "--output", required=True)
    return parser


def _read(path, what, *also):
    """The set at path: a (constrained) zonotope or one of the also types
    (np.ndarray for a point, HPolytope)."""
    obj = read_set(path)
    if not isinstance(obj, (ConstrainedZonotope,) + also):
        kinds = ["zonotope", "constrained zonotope"] + [
            {np.ndarray: "point", HPolytope: "hpolytope"}[t] for t in also]
        raise ValueError(
            f"{what} must be a {', '.join(kinds[:-1])} or {kinds[-1]}")
    return obj


def _map(args):
    return linear_map(args.R, _read(args.set, "input"))


def _sum(args):
    return minkowski_sum(_read(args.a, "first operand"),
                         _read(args.b, "second operand"))


def _intersect(args):
    a = _read(args.a, "first operand")
    b = _read(args.b, "operand", HPolytope)
    if not isinstance(b, HPolytope):
        return generalized_intersection(a, b, args.R)
    if args.R is not None and args.R.shape[0] != b.n:
        raise ValueError(
            f"R has {args.R.shape[0]} rows but b lives in R^{b.n}")
    # {z : R z in b}; a zero row of H R reads 0 <= f, up to FEAS_TOL
    H = b.H if args.R is None else b.H @ args.R
    live = np.abs(H).sum(axis=1) > 0.0
    result = intersect_hpolytope(a, HPolytope(H[live], b.f[live]))
    return _empty_cut(result) if np.any(b.f[~live] < -FEAS_TOL) else result


def _halfspace(args):
    return conzono_halfspace_intersection(
        _read(args.set, "input"), Halfspace(args.normal, args.offset))


def _reduce(args):
    return reduce_fully(_read(args.set, "input"))


def _inner(args):
    Z = _read(args.set, "input")
    if args.order is not None:
        if Z.n_c:
            raise ValueError("--order applies to plain zonotopes")
        if args.contain is not None:
            raise ValueError("--contain applies to --template")
        if args.norm is not None:
            raise ValueError("--norm applies to --template")
        return inner_reduce_zonotope(Z, args.order)
    pts = None if args.contain is None else [args.contain]
    return inner_scale(Z, make_template(Z, args.template),
                       norm=args.norm or "inf", must_contain=pts)[0]


def _hull(args):
    return convex_hull(_read(args.a, "first operand", np.ndarray),
                       _read(args.b, "operand", np.ndarray))


def _rpi(args):
    system = AutonomousSystem(args.dynamics, _read(args.W, "W"))
    if args.s is not None:
        return rpi_onestep(system, args.s)[0]
    return mrpi_iterative(system, args.eps)[0]


def _pontryagin(args):
    a = _read(args.a, "first operand")
    b = _read(args.b, "second operand")
    if args.method == "iterative":
        return pontryagin_iterative(a, b)
    return pontryagin_onestep(a, b)[0]


def _wayset(args):
    scenario = read_scenario(args.scenario)
    Z, _ = wayset(scenario.system, scenario.x_star, scenario.N,
                  strategy=args.strategy)
    return wayset_reduce(Z) if args.reduce else Z


def _volume(args):
    if len(args.sets) != 1 + args.ratio:
        raise ValueError("--ratio needs exactly two sets" if args.ratio
                         else "volume takes one set (or two with --ratio)")
    if args.ratio:
        x = _read(args.sets[0], "first set")
        y = _read(args.sets[1], "second set")
        print(f"{oracle.volume_ratio(x, y, args.mc_samples, args.seed):.6g}")
    else:
        Z = _read(args.sets[0], "input")
        estimate, stderr = oracle.volume(Z, args.mc_samples, args.seed)
        print(f"{estimate:.6g} {stderr:.6g}")


def _project(args):
    Z = _read(args.set, "input")
    if len(args.dims) != 2:
        raise ValueError("--dims needs exactly two indices")
    if not all(0 <= d < Z.n for d in args.dims):
        raise ValueError(f"--dims out of range for n = {Z.n}")
    vertices = oracle.enumerate_vertices(linear_map(np.eye(Z.n)[args.dims], Z))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for v in vertices:
            fh.write(f"{float(v[0])!r},{float(v[1])!r}\n")


def _info(args):
    Z = read_set(args.set)
    if isinstance(Z, HPolytope):
        print(f"hpolytope n={Z.n} n_h={Z.n_h}")
    elif isinstance(Z, np.ndarray):
        print(f"point n={len(Z)}")
    else:
        kind = "zonotope" if Z.n_c == 0 else "conzono"
        print(f"{kind} n={Z.n} n_g={Z.n_g} n_c={Z.n_c} "
              f"order={Z.order:.6g} dof_order={Z.dof_order:.6g}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        result = args.run(args)
        if result is not None:
            write_set(args.output, result)
        return 0
    except SchemaError as exc:
        print(f"zonokit: schema error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except NumericalError as exc:
        print(f"zonokit: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, TypeError, OSError) as exc:
        print(f"zonokit: error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
