"""Vertex weights, load vectors and stiffness matrices for the three
discretizations: graph finite differences, edge-integral finite elements
and triangle-area finite elements.

Three measures are supported.  The self-similar measure gives every level-n
copy of the seed the same mass (1 / number of copies) and splits it equally
among the copy's vertices.  The edge-length and triangle-area measures are
unrescaled Euclidean measures; element integrals of piecewise-linear
integrands are evaluated in closed form, so the analytic identities between
the assembled matrices and the graph Laplacian hold to rounding error.

Each formulation is defined once, by its element matrices (``_elements``)
and its load (``_load``).  ``solver.solve_condensed`` takes them as they are;
the CSR builders below assemble the same elements (fd: ``graph_laplacian``).
``_elements`` says which element definition applies to a mesh: fd and
graph_energy take the unit edge element everywhere, and the weak forms take
one element per level on a level of a built-in family, and elements from
coordinates on any other mesh.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssemblyError, UsageError
from .geometry import FAMILIES, LevelMesh, _frozen, build_level, builtin_system
from .graphs import _EDGE_ELEMENT, _assemble_elements, graph_laplacian

if TYPE_CHECKING:
    import scipy.sparse as sp


class MeasureKind(str, enum.Enum):
    SELF_SIMILAR = "self_similar"
    EDGE_LENGTH = "edge_length"
    TRIANGLE_AREA = "triangle_area"


@dataclass(frozen=True)
class VertexWeights:
    """Per-vertex masses of one measure on one level mesh."""

    weights: np.ndarray = field(repr=False)
    kind: MeasureKind
    level: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights, np.float64))

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def _cell_areas(mesh: LevelMesh) -> np.ndarray:
    p = mesh.vertices[mesh.cells]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    if mesh.dimension == 2:
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        return 0.5 * np.abs(cross)
    return 0.5 * np.linalg.norm(np.cross(u, v), axis=1)


def _triangle_matrices(mesh: LevelMesh) -> np.ndarray:
    """Element matrices of the linear triangle elements, one (3, 3) block
    per cell in cell-vertex order.

    They come from the constant gradients of the barycentric basis on each
    triangle: K_ij = (e_i . e_j) / (4 S) with e_i the edge vector opposite
    vertex i.
    """
    if not mesh.num_cells:
        raise AssemblyError("area formulation requires a mesh with cells")
    if mesh.dimension != 2:
        raise AssemblyError("area formulation is only defined for planar meshes")
    p = mesh.vertices[mesh.cells]
    area = _cell_areas(mesh)
    if (area <= 0.0).any():
        raise AssemblyError("degenerate zero-area cell")
    e = p[:, (2, 0, 1), :] - p[:, (1, 2, 0), :]
    return np.einsum("cid,cjd->cij", e, e) / (4.0 * area)[:, None, None]


def _require_kind(kind) -> MeasureKind:
    try:
        return MeasureKind(kind)
    except ValueError:
        raise UsageError(f"unknown measure kind {kind!r}") from None


def vertex_weights(mesh: LevelMesh, kind) -> VertexWeights:
    """Vertex masses of the requested measure.

    self_similar: each level-n copy (cell when present, edge otherwise)
    carries mass 1/#copies, split equally among its vertices.
    edge_length: half the total length of the incident edges.
    triangle_area: a third of the total area of the incident cells.
    """
    kind = _require_kind(kind)
    n = mesh.num_vertices
    w = np.zeros(n)
    if kind is MeasureKind.SELF_SIMILAR:
        if mesh.num_cells:
            mass = 1.0 / mesh.num_cells
            np.add.at(w, mesh.cells.ravel(), mass / 3.0)
        else:
            mass = 1.0 / mesh.num_edges
            np.add.at(w, mesh.edges.ravel(), mass / 2.0)
    elif kind is MeasureKind.EDGE_LENGTH:
        half = 0.5 * mesh.edge_lengths()
        np.add.at(w, mesh.edges[:, 0], half)
        np.add.at(w, mesh.edges[:, 1], half)
    else:
        if not mesh.num_cells:
            raise AssemblyError("triangle_area measure requires a mesh with cells")
        third = _cell_areas(mesh) / 3.0
        for k in range(3):
            np.add.at(w, mesh.cells[:, k], third)
    return VertexWeights(w, kind, mesh.level)


def load_vector(mesh: LevelMesh, kind, g: np.ndarray) -> np.ndarray:
    """Right-hand side entries b(x) = integral of (interpolated g) phi_x.

    The self-similar measure uses vertex quadrature; the Euclidean measures
    integrate the piecewise-linear interpolant of g against the hat function
    exactly.
    """
    kind = _require_kind(kind)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (mesh.num_vertices,):
        raise UsageError("nodal data length does not match the mesh")
    if kind is MeasureKind.SELF_SIMILAR:
        return vertex_weights(mesh, kind).weights * g
    b = np.zeros(mesh.num_vertices)
    if kind is MeasureKind.EDGE_LENGTH:
        i, j = mesh.edges[:, 0], mesh.edges[:, 1]
        length = mesh.edge_lengths()
        # int over one edge of (g_a phi_a + g_b phi_b) phi_a = L (g_a/3 + g_b/6)
        np.add.at(b, i, length * (g[i] / 3.0 + g[j] / 6.0))
        np.add.at(b, j, length * (g[j] / 3.0 + g[i] / 6.0))
        return b
    if not mesh.num_cells:
        raise AssemblyError("triangle_area load requires a mesh with cells")
    area = _cell_areas(mesh)
    c = mesh.cells
    gc = g[c]
    # int over a triangle of (sum g_k phi_k) phi_i = S (2 g_i + g_j + g_k) / 12
    for i in range(3):
        contrib = area * (2.0 * gc[:, i] + gc[:, (i + 1) % 3] + gc[:, (i + 2) % 3]) / 12.0
        np.add.at(b, c[:, i], contrib)
    return b


_LOAD_MEASURE = {
    "graph_energy": MeasureKind.SELF_SIMILAR,
    "fem_edge": MeasureKind.EDGE_LENGTH,
    "fem_area": MeasureKind.TRIANGLE_AREA,
}


# A mesh whose lengths are the similarity's prediction within this relative
# distance takes the level's one element.  Built levels drift from it by at
# most about 3e-12 (Koch 9); a moved vertex or another mesh is farther off.
_LEVEL_FIT = 1e-9


@functools.lru_cache(maxsize=None)
def _seed(family: str) -> tuple[LevelMesh, float]:
    """The level-0 mesh of a built-in family and ``1/r``, the reciprocal of
    the one similarity ratio of its maps (3, or 2 for Sierpinski)."""
    ifs = builtin_system(family)
    return build_level(family, 0), float(1.0 / np.linalg.norm(ifs.maps[0].linear, 2))


def _level(mesh: LevelMesh):
    """``(seed, s)``: the level-0 mesh of the built-in family of ``mesh`` and
    ``s = (1/r)**level``, by which that family's level-``mesh.level``
    lengths divide the seed's; ``None`` for any other family name."""
    if mesh.family not in FAMILIES:
        return None
    seed, grow = _seed(mesh.family)
    try:
        return seed, grow ** int(mesh.level)
    except OverflowError:
        return None


def _fits(ratios: np.ndarray) -> bool:
    """Every ratio of coordinate length over predicted length is 1 within
    ``_LEVEL_FIT``; overwrites ``ratios``."""
    ratios -= 1.0
    return bool(np.abs(ratios, out=ratios).max() <= _LEVEL_FIT)


def _cell_sides(mesh: LevelMesh) -> np.ndarray:
    """(cells, 3): the length of the side opposite each cell vertex."""
    v, c = mesh.vertices, mesh.cells
    return np.column_stack([
        np.linalg.norm(v[c[:, (i + 2) % 3]] - v[c[:, (i + 1) % 3]], axis=1) for i in range(3)
    ])


def _edge_elements(mesh: LevelMesh) -> np.ndarray:
    """The fem-edge elements ``_EDGE_ELEMENT / L``.  When every edge measures
    ``L0 r**n`` (``_level``; ``L0`` the first seed edge's length) they are
    the one element ``_EDGE_ELEMENT / (L0 r**n)``, as a stride-0 stack."""
    length = mesh.edge_lengths()
    if (length <= 0.0).any():
        raise AssemblyError("zero-length edge")
    level = _level(mesh)
    if level is not None:
        seed, s = level
        c = s / seed.edge_lengths()[0]
        if _fits(length * c):
            return np.broadcast_to(_EDGE_ELEMENT * c, (mesh.num_edges, 2, 2))
    return (1.0 / length)[:, None, None] * _EDGE_ELEMENT


def _area_elements(mesh: LevelMesh) -> np.ndarray:
    """The fem-area elements (``_triangle_matrices``).  When every cell has
    the seed cell's sides times ``r**n``, position by position (``_level``),
    every cell is similar to the seed cell, and the linear stiffness depends
    only on the angles: the elements are the seed cell's, as a stride-0
    stack."""
    level = _level(mesh) if mesh.num_cells and mesh.dimension == 2 else None
    if level is not None and level[0].num_cells:
        seed, s = level
        if _fits(_cell_sides(mesh) * (s / _cell_sides(seed)[0])):
            return np.broadcast_to(_triangle_matrices(seed)[0], (mesh.num_cells, 3, 3))
    return _triangle_matrices(mesh)


def _elements(mesh: LevelMesh, formulation: str):
    """Vertex rows (edges or cells) and element matrices whose sum is the
    formulation's stiffness matrix.

    fd and graph_energy take the unit edge element on every edge.  fem_edge
    (``_edge_elements``) and fem_area (``_area_elements``) take one element
    per level on a mesh whose lengths fit its built-in family's similarity
    at its level, and elements from coordinates on any other mesh.  Either
    way a stack of one element is a stride-0 view, which the condensation
    serves with one block per depth.
    """
    if formulation == "fem_area":
        return mesh.cells, _area_elements(mesh)
    if formulation not in ("fd", "graph_energy", "fem_edge"):
        raise UsageError(f"unknown formulation {formulation!r}")
    if not mesh.num_edges:
        raise AssemblyError("mesh has no edges")
    if formulation != "fem_edge":
        return mesh.edges, np.broadcast_to(_EDGE_ELEMENT, (mesh.num_edges, 2, 2))
    return mesh.edges, _edge_elements(mesh)


def _load(mesh: LevelMesh, formulation: str, g: np.ndarray) -> np.ndarray:
    """fd takes ``g`` pointwise; the weak forms integrate it against the
    formulation's natural measure.  fem_edge takes half the edge-length
    load, matching the factor-two relation between the self-similar and
    edge-length measures."""
    if formulation == "fd":
        return g
    load = load_vector(mesh, _LOAD_MEASURE[formulation], g)
    return 0.5 * load if formulation == "fem_edge" else load


def fd_graph_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """The graph Laplacian, used as the finite-difference operator."""
    return graph_laplacian(mesh)


def fem_edge_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """One-dimensional linear elements along edges: 1/L conductances."""
    return _assemble_elements(mesh.num_vertices, *_elements(mesh, "fem_edge"))


def fem_area_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """Linear triangle elements over cells (see ``_triangle_matrices``)."""
    return _assemble_elements(mesh.num_vertices, *_elements(mesh, "fem_area"))
