"""Command line front end.

Subcommands:

* ``fraclap generate`` -- build a level mesh and write the mesh document;
* ``fraclap renorm``   -- estimate renormalization constants over a level
  range and write the per-pair table;
* ``fraclap solve``    -- solve a renormalized Dirichlet problem and write
  the per-vertex solution field.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import meshfile
from .errors import FraclapError, UsageError
from .expressions import compile_expression
from .geometry import FAMILIES, build_level, check_level
from .renorm import (
    SOLVE_METHODS,
    auto_constant,
    estimate_energy_ratio,
    estimate_laplacian_ratio,
    solve_online,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_RENORM_FORMULATION = {"fd": "fd", "energy": "graph_energy",
                       "fem-edge": "fem_edge", "fem-area": "fem_area"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Graph Laplacians, finite elements and renormalization "
        "constants on self-similar fractal meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a level mesh and write it")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--level", required=True, type=int)
    gen.add_argument("--out", required=True)

    ren = sub.add_parser("renorm", help="estimate renormalization constants")
    ren.add_argument("--family", required=True, choices=FAMILIES)
    ren.add_argument("--method", required=True, choices=_RENORM_FORMULATION)
    ren.add_argument("--levels", required=True, metavar="A:B",
                     help="consecutive pairs (A,A+1) .. (B-1,B)")
    ren.add_argument("--out", required=True)

    sol = sub.add_parser("solve", help="solve a renormalized Dirichlet problem")
    sol.add_argument("--family", required=True, choices=FAMILIES)
    sol.add_argument("--level", required=True, type=int)
    sol.add_argument("--method", required=True, choices=SOLVE_METHODS)
    sol.add_argument("--constant", type=float, default=None,
                     help="renormalization constant; estimated from coarser "
                     "levels when omitted")
    sol.add_argument("--rhs", required=True, help="forcing expression in x, y, z")
    sol.add_argument("--bc", required=True,
                     help="comma separated boundary values in seed order")
    sol.add_argument("--out", required=True)
    return parser


def _parse_levels(text: str) -> tuple[int, int]:
    try:
        a_text, b_text = text.split(":")
        a, b = int(a_text), int(b_text)
    except ValueError:
        raise UsageError(f"levels must look like A:B, got {text!r}") from None
    if a < 1 or b <= a:
        raise UsageError("level range must satisfy 1 <= A < B")
    return a, b


def _cmd_generate(args) -> int:
    mesh = build_level(args.family, args.level)
    meshfile.write_mesh(mesh, args.out)
    print(
        f"{args.family} level {args.level}: {mesh.num_vertices} vertices, "
        f"{mesh.num_edges} edges, {mesh.num_cells} cells -> {args.out}"
    )
    return EXIT_OK


def _cmd_renorm(args) -> int:
    a, b = _parse_levels(args.levels)
    formulation = _RENORM_FORMULATION[args.method]
    check_level(args.family, b)
    estimates = [
        estimate_laplacian_ratio(args.family, n) if formulation == "fd"
        else estimate_energy_ratio(args.family, n, formulation)
        for n in range(a, b)
    ]
    meshfile.write_table(estimates, args.out)
    print("pair,max,mean,min,excluded_count")
    for est in estimates:
        print(f"{est.level_pair[0]}:{est.level_pair[1]},{est.max:.6g},"
              f"{est.mean:.6g},{est.min:.6g},{est.excluded_count}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    extra = {"rhs": args.rhs, "bc": args.bc}
    meshfile.check_header(extra)
    check_level(args.family, args.level)
    if args.constant is not None and not args.constant > 0:
        raise UsageError("constant must be positive")
    rhs = compile_expression(args.rhs)
    try:
        bc_values = [float(v) for v in args.bc.split(",")]
    except ValueError:
        raise UsageError(f"boundary values must be numbers, got {args.bc!r}") from None
    # every level keeps the seed's boundary vertices, so the seed gives the count
    nb = build_level(args.family, 0).boundary_indices.size
    if len(bc_values) != nb:
        raise UsageError(
            f"{args.family} has {nb} boundary vertices, "
            f"got {len(bc_values)} boundary values"
        )
    if not all(math.isfinite(v) for v in bc_values):
        raise UsageError(f"boundary values must be finite, got {args.bc!r}")
    mesh = build_level(args.family, args.level)
    h = {int(i): v for i, v in zip(mesh.boundary_indices, bc_values)}
    g = rhs.evaluate(mesh.vertices)
    if args.constant is None:
        constant, pair = auto_constant(args.family, args.method, args.level)
        print(f"estimated constant {constant:.6g} from level pair {pair}")
    else:
        constant = args.constant
    solution = solve_online(args.family, args.level, args.method, constant, g, h)
    meshfile.write_solution(mesh, solution, args.out, extra=extra)
    umin, umax = float(solution.values.min()), float(solution.values.max())
    print(
        f"{args.family} level {args.level} {args.method}: constant {constant:.6g}, "
        f"residual {solution.solver_residual:.3e}, range [{umin:.6g}, {umax:.6g}] "
        f"-> {args.out}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "renorm": _cmd_renorm,
        "solve": _cmd_solve,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FraclapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
