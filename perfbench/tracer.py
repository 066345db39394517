"""Run one fraclap command with a timing span around each layer's public
functions, and write the spans and counters as JSON.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/tracer.py TRACE.json -- generate --family koch --level 3 --out k.json

The library has no hooks: each listed function is replaced by a wrapper in
every ``fraclap.*`` module that holds it, so calls through ``from .x import
y`` bindings are traced too.  A span's self time is its duration minus the
spans it called.  Counter work (norms, file sizes) runs outside every span.
A listed name that no longer resolves is reported as missing.  The exit code
is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Public functions per module, traced as ``<module>.<function>``.
SPANS = {
    "geometry": ["build_level", "iterate", "embed"],
    "graphs": ["graph_laplacian"],
    "measures": ["fd_graph_stiffness", "fem_edge_stiffness", "fem_area_stiffness",
                 "load_vector", "vertex_weights"],
    "solver": ["partition", "linear_solve", "solve_dirichlet"],
    "renorm": ["estimate_laplacian_ratio", "estimate_energy_ratio", "auto_constant",
               "renormalize", "solve_online"],
    "expressions": ["compile_expression", "Expression.evaluate"],
    "meshfile": ["write_mesh", "write_table", "write_solution"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{module}.{name}" for module, names in SPANS.items() for name in names]
COUNTERS = ["geometry.vertices_built", "measures.nnz", "solver.unknowns",
            "solver.failed", "solver.backward_error_max", "meshfile.bytes_written"]


def _csr(a):
    import scipy.sparse as sp

    to_csr = getattr(a, "to_csr", None)
    return to_csr() if to_csr is not None else sp.csr_array(a)


def _count_build(counters, args, result, misses, ok):
    # a call that added a cache miss built the mesh; without a cache every call does
    if ok and (misses is None or misses[1] > misses[0]):
        counters["geometry.vertices_built"] += int(result.num_vertices)


def _count_nnz(counters, args, result, misses, ok):
    if ok:
        counters["measures.nnz"] += int(getattr(result, "matrix", result).nnz)


def _count_solve(counters, args, result, misses, ok):
    import numpy as np

    b = np.asarray(args[1], dtype=np.float64)
    counters["solver.unknowns"] += int(b.size)
    if not ok:
        return
    a = _csr(args[0])
    x = np.asarray(result, dtype=np.float64)
    scale = float(abs(a).sum(axis=1).max()) * float(np.abs(x).max()) + float(np.abs(b).max())
    if scale:
        error = float(np.abs(b - a @ x).max()) / scale
        counters["solver.backward_error_max"] = max(counters["solver.backward_error_max"], error)


def _count_bytes(counters, args, result, misses, ok):
    if ok:
        path = next(a for a in args if isinstance(a, (str, os.PathLike)))
        counters["meshfile.bytes_written"] += os.path.getsize(path)


COUNTER_HOOKS = {
    "geometry.build_level": _count_build,
    "measures.fd_graph_stiffness": _count_nnz,
    "measures.fem_edge_stiffness": _count_nnz,
    "measures.fem_area_stiffness": _count_nnz,
    "solver.linear_solve": _count_solve,
    "meshfile.write_mesh": _count_bytes,
    "meshfile.write_table": _count_bytes,
    "meshfile.write_solution": _count_bytes,
}


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info is not None else None


class Tracer:
    """Self time and call count per span, plus the counters."""

    def __init__(self, solve_error=()):
        self.spans = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters["solver.backward_error_max"] = 0.0
        self.counter_errors = []
        self._solve_error = solve_error
        self._open = []  # time covered by child spans, per open span

    def wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)
        span = self.spans[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _cache_misses(fn)
            result, ok = None, False
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except self._solve_error as exc:
                if not getattr(exc, "_counted_by_tracer", False):
                    exc._counted_by_tracer = True
                    self.counters["solver.failed"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                span["self_s"] += elapsed - self._open.pop()
                span["calls"] += 1
                if hook is not None:
                    t = time.perf_counter()
                    misses = None if before is None else (before, _cache_misses(fn))
                    try:
                        hook(self.counters, args, result, misses, ok)
                    except Exception as exc:  # a changed signature must not fail the command
                        self.counter_errors.append(f"{name}: {exc!r}")
                    elapsed += time.perf_counter() - t
                if self._open:
                    self._open[-1] += elapsed

        return traced


def install(tracer) -> list[str]:
    """Wrap every listed function; return the names that did not resolve."""
    modules = {}
    for module in SPANS:
        try:
            modules[module] = importlib.import_module(f"fraclap.{module}")
        except ImportError:
            pass
    holders = [m for key, m in sys.modules.items()
               if m is not None and (key == "fraclap" or key.startswith("fraclap."))]
    missing = []
    for module, names in SPANS.items():
        for qualname in names:
            name = f"{module}.{qualname}"
            owner = modules.get(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                missing.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            if path:  # a method: replace it on its class
                setattr(owner, attr, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
    return missing


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <fraclap arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    try:
        from fraclap.errors import SolveError
    except ImportError:
        SolveError = ()
    tracer = Tracer(SolveError)
    missing = install(tracer)
    code = 1
    try:
        import fraclap.cli

        code = fraclap.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters, "missing": missing,
                       "counter_errors": tracer.counter_errors, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
