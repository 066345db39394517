"""fraclap: graph Laplacians, finite elements and renormalization constants
on mesh approximations of self-similar fractal sets."""

from .errors import (
    AssemblyError,
    FraclapError,
    GeometryError,
    SolveError,
    UsageError,
)
from .expressions import Expression, compile_expression
from .geometry import (
    FAMILIES,
    AffineMap,
    EmbeddingMap,
    IFSystem,
    LevelMesh,
    apply_map,
    build_level,
    builtin_system,
    embed,
    iterate,
)
from .graphs import adjacency, degree, energy, graph_laplacian
from .measures import (
    MeasureKind,
    VertexWeights,
    fd_graph_stiffness,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
    vertex_weights,
)
from .renorm import (
    RenormEstimate,
    auto_constant,
    estimate_energy_ratio,
    estimate_laplacian_ratio,
    renormalize,
    solve_online,
)
from .solver import (
    Solution,
    linear_solve,
    partition,
    solve_condensed,
    solve_dirichlet,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AssemblyError",
    "EmbeddingMap",
    "Expression",
    "FAMILIES",
    "FraclapError",
    "GeometryError",
    "IFSystem",
    "LevelMesh",
    "MeasureKind",
    "RenormEstimate",
    "Solution",
    "SolveError",
    "UsageError",
    "VertexWeights",
    "adjacency",
    "apply_map",
    "auto_constant",
    "build_level",
    "builtin_system",
    "compile_expression",
    "degree",
    "embed",
    "energy",
    "estimate_energy_ratio",
    "estimate_laplacian_ratio",
    "fd_graph_stiffness",
    "fem_area_stiffness",
    "fem_edge_stiffness",
    "graph_laplacian",
    "iterate",
    "linear_solve",
    "load_vector",
    "partition",
    "renormalize",
    "solve_condensed",
    "solve_dirichlet",
    "solve_online",
    "vertex_weights",
]
