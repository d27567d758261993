"""Command-line front end: one subcommand per library operation.

Every path is a thin adapter -- parse arguments, read JSON documents,
call the library, write the result.  Exit codes: 0 success, 1 usage,
2 domain error (bad schema/geometry), 3 numerical failure.
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
from .numerics import SCALING_NORMS, NumericalError
from .pontryagin import pontryagin_iterative, pontryagin_onestep
from .reach import WAYSET_STRATEGIES, wayset, wayset_reduce
from .reduction import reduce_fully
from .sets import (
    EmptySetError,
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
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


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

    def op(name, help_text):
        return sub.add_parser(name, help=help_text)

    p = op("map", "apply a linear map R to a set")
    p.add_argument("R", type=_matrix, help="matrix, rows ';'-separated")
    p.add_argument("set", help="input set JSON")
    p.add_argument("-o", "--output", required=True)

    p = op("sum", "Minkowski sum of two sets")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)

    p = op("intersect", "intersection (generalized if --R is given)")
    p.add_argument("a")
    p.add_argument("b", help="set JSON; an hpolytope is folded halfspace-wise")
    p.add_argument("--R", type=_matrix, default=None,
                   help="keep the points z with R z in b")
    p.add_argument("-o", "--output", required=True)

    p = op("halfspace", "intersect a set with h'x <= f")
    p.add_argument("set")
    p.add_argument("--h", type=_vector, required=True, dest="normal")
    p.add_argument("--f", type=float, required=True, dest="offset")
    p.add_argument("-o", "--output", required=True)

    p = op("reduce", "remove redundant generators and constraints")
    p.add_argument("set")
    p.add_argument("-o", "--output", required=True)

    p = op("inner", "inner-approximate a set")
    p.add_argument("set")
    p.add_argument("--order", type=int, default=None,
                   help="target generator count (plain zonotopes)")
    p.add_argument("--template", choices=TEMPLATE_KINDS,
                   default=None, help="template scaling (constrained sets)")
    p.add_argument("--norm", choices=SCALING_NORMS, default=None,
                   help="norm the template scaling maximizes (default inf)")
    p.add_argument("--contain", type=_vector, default=None,
                   help="point the approximation must contain")
    p.add_argument("-o", "--output", required=True)

    p = op("hull", "convex hull of two sets (or a set and a point)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)

    p = op("rpi", "robust positively invariant set of x+ = Ax + w")
    p.add_argument("W", help="disturbance zonotope JSON")
    p.add_argument("--A", type=_matrix, required=True, dest="dynamics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=int, default=None,
                       help="one-step method with reachability depth s")
    group.add_argument("--eps", type=float, default=None,
                       help="iterative method with error bound eps")
    p.add_argument("-o", "--output", required=True)

    p = op("pontryagin", "Pontryagin difference a minus b")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--method", choices=("iterative", "onestep"),
                   default="iterative")
    p.add_argument("-o", "--output", required=True)

    p = op("wayset", "backward-reachable wayset of a scenario")
    p.add_argument("scenario", help="scenario JSON (A, B, X, U, x_star, N)")
    p.add_argument("--strategy", choices=WAYSET_STRATEGIES, default="LP")
    p.add_argument("--reduce", action="store_true",
                   help="compact the result before writing")
    p.add_argument("-o", "--output", required=True)

    p = op("volume", "volume estimate, or volume ratio with --ratio")
    p.add_argument("sets", nargs="+", help="one set, or two with --ratio")
    p.add_argument("--ratio", action="store_true")
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)

    p = op("project", "2-D projection polygon as CSV (x,y rows, ccw)")
    p.add_argument("set")
    p.add_argument("--dims", type=_dims, default=[0, 1])
    p.add_argument("-o", "--output", required=True)

    p = op("info", "print representation sizes")
    p.add_argument("set")

    return parser


def _require_kind(obj, what):
    if isinstance(obj, np.ndarray) or isinstance(obj, HPolytope):
        raise ValueError(f"{what} must be a zonotope or constrained zonotope")
    return obj


def _run(args):
    out = getattr(args, "output", None)

    if args.command == "map":
        Z = _require_kind(read_set(args.set), "input")
        write_set(out, linear_map(args.R, Z))
    elif args.command == "sum":
        a = _require_kind(read_set(args.a), "first operand")
        b = _require_kind(read_set(args.b), "second operand")
        write_set(out, minkowski_sum(a, b))
    elif args.command == "intersect":
        a = _require_kind(read_set(args.a), "first operand")
        b = read_set(args.b)
        if isinstance(b, HPolytope):
            # {z : R z in b}; a zero row of H R reads 0 <= f
            H = b.H if args.R is None else b.H @ args.R
            live = np.abs(H).sum(axis=1) > 0.0
            result = intersect_hpolytope(a, HPolytope(H[live], b.f[live]))
            if np.any(b.f[~live] < 0.0):
                result = _empty_cut(result)
        else:
            result = generalized_intersection(a, _require_kind(b, "operand"),
                                              args.R)
        write_set(out, result)
    elif args.command == "halfspace":
        Z = _require_kind(read_set(args.set), "input")
        hs = Halfspace(args.normal, args.offset)
        write_set(out, conzono_halfspace_intersection(Z, hs))
    elif args.command == "reduce":
        Z = _require_kind(read_set(args.set), "input")
        write_set(out, reduce_fully(Z))
    elif args.command == "inner":
        Z = _require_kind(read_set(args.set), "input")
        if (args.order is None) == (args.template is None):
            raise ValueError("pass exactly one of --order / --template")
        if args.order is not None:
            if Z.n_c:
                raise ValueError("--order applies to plain zonotopes")
            if args.contain is not None:
                raise ValueError("--contain applies to --template")
            if args.norm is not None:
                raise ValueError("--norm applies to --template")
            write_set(out, inner_reduce_zonotope(Z, args.order))
        else:
            template = make_template(Z, args.template)
            pts = None if args.contain is None else [args.contain]
            inner, _ = inner_scale(Z, template, norm=args.norm or "inf",
                                   must_contain=pts)
            write_set(out, inner)
    elif args.command == "hull":
        a = _require_kind(read_set(args.a), "first operand")
        b = read_set(args.b)
        if not isinstance(b, np.ndarray):
            b = _require_kind(b, "operand")
        write_set(out, convex_hull(a, b))
    elif args.command == "rpi":
        W = _require_kind(read_set(args.W), "W")
        sys_ = AutonomousSystem(args.dynamics, W)
        if args.s is not None:
            Z, _ = rpi_onestep(sys_, args.s)
        else:
            Z, _, _ = mrpi_iterative(sys_, args.eps)
        write_set(out, Z)
    elif args.command == "pontryagin":
        a = _require_kind(read_set(args.a), "first operand")
        b = _require_kind(read_set(args.b), "second operand")
        if args.method == "iterative":
            result = pontryagin_iterative(a, b)
        else:
            result, _ = pontryagin_onestep(a, b)
        write_set(out, result)
    elif args.command == "wayset":
        scenario = read_scenario(args.scenario)
        Z, _ = wayset(scenario.system, scenario.x_star, scenario.N,
                      strategy=args.strategy)
        if args.reduce:
            Z = wayset_reduce(Z)
        write_set(out, Z)
    elif args.command == "volume":
        from . import oracle
        seed = oracle.DEFAULT_SEED if args.seed is None else args.seed
        if args.ratio:
            if len(args.sets) != 2:
                raise ValueError("--ratio needs exactly two sets")
            x = _require_kind(read_set(args.sets[0]), "first set")
            y = _require_kind(read_set(args.sets[1]), "second set")
            print(f"{oracle.volume_ratio(x, y, args.mc_samples, seed):.6g}")
        else:
            if len(args.sets) != 1:
                raise ValueError("volume takes one set (or two with --ratio)")
            Z = _require_kind(read_set(args.sets[0]), "input")
            estimate, stderr = oracle.volume(Z, args.mc_samples, seed)
            print(f"{estimate:.6g} {stderr:.6g}")
    elif args.command == "project":
        from . import oracle
        Z = _require_kind(read_set(args.set), "input")
        if len(args.dims) != 2:
            raise ValueError("--dims needs exactly two indices")
        if not all(0 <= d < Z.n for d in args.dims):
            raise ValueError(f"--dims out of range for n = {Z.n}")
        R = np.zeros((2, Z.n))
        R[0, args.dims[0]] = 1.0
        R[1, args.dims[1]] = 1.0
        vertices = oracle.enumerate_vertices(linear_map(R, Z))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for v in vertices:
                fh.write(f"{float(v[0])!r},{float(v[1])!r}\n")
    elif args.command == "info":
        Z = read_set(args.set)
        if isinstance(Z, HPolytope):
            print(f"hpolytope n={Z.n} n_h={Z.n_h}")
        elif isinstance(Z, np.ndarray):
            print(f"point n={len(Z)}")
        else:
            kind = "zonotope" if Z.n_c == 0 else "conzono"
            print(f"{kind} n={Z.n} n_g={Z.n_g} n_c={Z.n_c} "
                  f"order={Z.order:.6g} dof_order={Z.dof_order:.6g}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _run(args)
    except SchemaError as exc:
        print(f"zonokit: schema error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except NumericalError as exc:
        print(f"zonokit: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (EmptySetError, ValueError, TypeError, OSError) as exc:
        print(f"zonokit: error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
