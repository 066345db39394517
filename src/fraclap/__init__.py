"""fraclap: graph Laplacians, finite elements and renormalization constants
on mesh approximations of self-similar fractal sets.

The public names are imported from their home modules on first access
(PEP 562), so ``import fraclap`` -- and the command line, which parses its
arguments before it imports what a subcommand runs -- loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# the argument parser's choices, also the home of geometry.FAMILIES and
# renorm.SOLVE_METHODS
FAMILIES = ("koch", "sierpinski", "hata2d", "hata3d")
SOLVE_METHODS = ("rfd", "rfem1d", "rfem2d")

_EXPORTS = {
    "errors": ("AssemblyError", "FraclapError", "GeometryError", "SolveError", "UsageError"),
    "expressions": ("Expression", "compile_expression"),
    "geometry": ("AffineMap", "EmbeddingMap", "IFSystem", "LevelMesh", "apply_map",
                 "build_level", "builtin_system", "embed", "iterate"),
    "graphs": ("adjacency", "degree", "energy", "graph_laplacian"),
    "measures": ("MeasureKind", "VertexWeights", "fd_graph_stiffness", "fem_area_stiffness",
                 "fem_edge_stiffness", "load_vector", "vertex_weights"),
    "renorm": ("RenormEstimate", "auto_constant", "estimate_energy_ratio",
               "estimate_laplacian_ratio", "renormalize", "solve_online"),
    "solver": ("Solution", "linear_solve", "partition", "solve_condensed", "solve_dirichlet"),
}
# public name -> home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["FAMILIES", *_HOME])


def __getattr__(name):
    """A public name from its home module, or a home module itself (the
    submodules the package exports are attributes of it)."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
