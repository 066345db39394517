"""Command line front end.

Subcommands:

* ``fraclap generate`` -- write a level's mesh document;
* ``fraclap renorm``   -- estimate renormalization constants over a level
  range and write the per-pair table;
* ``fraclap solve``    -- solve a renormalized Dirichlet problem and write
  the per-vertex solution field.

``run`` is the process entry of ``fraclap`` and ``python -m fraclap.cli``;
``main`` is the in-process one.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O failure,
5 memory failure (one ``memory failure:`` line that names the command and
the allocation that failed, or says "out of memory" when the error names
none).  An ``--out`` that cannot be written exits 4 after the usage checks
and before the requested level is built or written.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys

# the parser needs no numpy: each command imports what it runs
from . import FAMILIES, SOLVE_METHODS
from .errors import FraclapError, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_MEMORY = 5

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


def _check_out(path: str) -> None:
    """Raise ``OSError`` when ``path`` cannot be opened for writing: it is
    empty, a directory or a path ending in a separator, an existing file
    that is not writable, or a new file whose parent is not a writable
    directory.  Nothing is created."""
    code = 0
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path) or not os.path.basename(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.exists(parent):
            code = errno.ENOENT
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR
        elif not os.access(parent, os.W_OK | os.X_OK):
            code = errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _cmd_generate(args) -> int:
    from . import meshfile
    from .geometry import (_element_blocks, _template_level, _vertex_blocks, build_level,
                           builtin_system, check_level, predicted_vertices)

    family, level = args.family, args.level
    check_level(family, level)
    _check_out(args.out)
    # the rows come from the copy tree, with no level above the template
    # that they map: m**(level - t) copies of the level-t template's elements
    template = build_level(family, _template_level(family, level))
    copies = len(builtin_system(family).maps) ** (level - template.level)
    nv, ne, nc = (predicted_vertices(family, level), copies * template.num_edges,
                  copies * template.num_cells)
    bidx = template.boundary_indices
    meshfile._write_mesh(family, level, template.dimension, args.out,
                         (nv, _vertex_blocks(template, level)),
                         (ne, _element_blocks(template, level, 2)),
                         (nc, _element_blocks(template, level, 3)),
                         (len(bidx), meshfile._row_blocks(bidx)))
    print(f"{family} level {level}: {nv} vertices, {ne} edges, {nc} cells -> {args.out}")
    return EXIT_OK


def _cmd_renorm(args) -> int:
    from . import meshfile
    from .geometry import builtin_system, check_level
    from .renorm import _estimates

    a, b = _parse_levels(args.levels)
    formulation = _RENORM_FORMULATION[args.method]
    check_level(args.family, b)
    if formulation == "fem_area" and not builtin_system(args.family).seed.num_cells:
        raise UsageError(f"--method fem-area needs a mesh with cells; {args.family} has none")
    _check_out(args.out)
    estimates = list(_estimates(args.family, a, b, formulation))
    meshfile.write_table(estimates, args.out)
    print(meshfile._table(estimates, "%.6g"), end="")
    return EXIT_OK


def _cmd_solve(args) -> int:
    import numpy as np

    from . import meshfile
    from .expressions import compile_expression
    from .geometry import (_template_level, _vertex_blocks, build_level, check_level,
                           predicted_vertices)
    from .renorm import _renormalized, auto_constant, solve_online

    extra = {"rhs": args.rhs, "bc": args.bc}
    meshfile.check_header(extra)
    check_level(args.family, args.level)
    if args.constant is not None:  # the scaling solve_online applies, checked up front
        _renormalized(np.ones(1), args.constant, args.level)
    rhs = compile_expression(args.rhs)
    try:
        bc_values = [float(v) for v in args.bc.split(",")]
    except ValueError:
        raise UsageError(f"boundary values must be numbers, got {args.bc!r}") from None
    # every level keeps the seed's boundary vertices, so the seed gives the count
    seed = build_level(args.family, 0)
    nb = seed.boundary_indices.size
    if len(bc_values) != nb:
        raise UsageError(
            f"{args.family} has {nb} boundary vertices, "
            f"got {len(bc_values)} boundary values"
        )
    if not all(math.isfinite(v) for v in bc_values):
        raise UsageError(f"boundary values must be finite, got {args.bc!r}")
    if args.method == "rfem2d" and not seed.num_cells:
        raise UsageError(f"--method rfem2d needs a mesh with cells; {args.family} has none")
    if args.level == 0 and not seed.interior_indices.size:
        raise UsageError(f"{args.family} level 0 has no interior vertex; solve needs level >= 1")
    # every level starts with the seed's boundary points, so an --rhs that
    # fails there (an unknown name, a value that is not finite) fails now
    at_seed = rhs.evaluate(seed.vertices[seed.boundary_indices])
    _check_out(args.out)
    # the estimate builds no level, and solve none above the template that
    # its coordinate blocks map, held for the load and for the file
    constant = args.constant
    if constant is None:
        constant, pair = auto_constant(args.family, args.method, args.level)
    template = build_level(args.family, _template_level(args.family, args.level))
    # handed to solve_online, not kept: it lets go of g once the load exists;
    # an rhs that names no coordinate has its seed value everywhere
    g = [np.full(predicted_vertices(args.family, args.level), at_seed[0])]
    if not rhs._constant():
        for b, rows in _vertex_blocks(template, args.level):
            g[0][b] = rhs.evaluate(rows)
    h = {int(i): v for i, v in zip(seed.boundary_indices, bc_values)}
    if args.constant is None:
        print(f"estimated constant {constant:.6g} from level pair {pair}")
    solution = solve_online(args.family, args.level, args.method, constant, g.pop(), h)
    meshfile._write_solution(args.family, template.dimension,
                             _vertex_blocks(template, args.level), solution, args.out,
                             extra=extra)
    umin, umax = float(solution.values.min()), float(solution.values.max())
    print(
        f"{args.family} level {args.level} {args.method}: constant {constant:.6g}, "
        f"residual {solution.solver_residual:.3e}, range [{umin:.6g}, {umax:.6g}] "
        f"-> {args.out}"
    )
    return EXIT_OK


def _join_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with ``--bc``, ``--rhs`` or ``--constant`` joined by ``=`` to a
    next token that starts with ``-`` and is no option, nor the start of one:
    ``--bc -1,0`` reads as ``--bc=-1,0``; ``--bc --out f`` stays an error."""
    commands = parser._subparsers._group_actions[0].choices.values()
    options = [s for sub in commands for a in sub._actions for s in a.option_strings]
    joined = []
    for token in argv:
        if (joined and joined[-1] in ("--bc", "--rhs", "--constant") and token.startswith("-")
                and not any(s.startswith(token.partition("=")[0]) for s in options)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code; argparse's own refusals and ``--help`` raise
    ``SystemExit``.  The collector is left as it was found."""
    parser = _build_parser()
    args = parser.parse_args(_join_values(parser, sys.argv[1:] if argv is None else argv))
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
    except MemoryError as exc:
        # a bare MemoryError (a string or a list that failed) has no message
        print(f"memory failure: {args.command}: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_MEMORY


def run() -> None:
    """``main`` as a whole process, ended with ``main``'s exit code.

    A command's arrays are freed by reference counting, so the cyclic
    collector finds next to nothing while it runs: it is off.  ``gc.freeze``
    then moves every tracked object out of the interpreter's final
    collections, which would walk them all at exit (about 15 ms of a renorm
    command) only to free nothing that exit does not free anyway."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
