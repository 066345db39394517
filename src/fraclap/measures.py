"""Vertex weights, load vectors and stiffness matrices for the three
discretizations: graph finite differences, edge-integral finite elements
and triangle-area finite elements.

Three measures are supported.  The self-similar measure gives every level-n
copy of the seed the same mass (1 / number of copies) and splits it equally
among the copy's vertices.  The edge-length and triangle-area measures are
unrescaled Euclidean measures; element integrals of piecewise-linear
integrands are evaluated in closed form, so the analytic identities between
the assembled matrices and the graph Laplacian hold to rounding error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssemblyError, UsageError
from .geometry import LevelMesh, _frozen
from .graphs import _assemble, graph_laplacian

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


def _edge_conductances(mesh: LevelMesh, unit: bool = False) -> np.ndarray:
    """Per-edge conductances: 1 for the graph operators, 1/L for the
    one-dimensional linear elements."""
    if not mesh.num_edges:
        raise AssemblyError("mesh has no edges")
    if unit:
        return np.ones(mesh.num_edges)
    length = mesh.edge_lengths()
    if (length <= 0.0).any():
        raise AssemblyError("zero-length edge")
    return 1.0 / length


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


def fd_graph_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """The graph Laplacian, used as the finite-difference operator."""
    return graph_laplacian(mesh)


def fem_edge_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """One-dimensional linear elements along edges: 1/L conductances."""
    wts = _edge_conductances(mesh)
    n = mesh.num_vertices
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([wts, wts, -wts, -wts])
    return _assemble(n, rows, cols, vals)


def fem_area_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """Linear triangle elements over cells (see ``_triangle_matrices``)."""
    local = _triangle_matrices(mesh)
    rows = np.repeat(mesh.cells, 3, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 3)).ravel()
    return _assemble(mesh.num_vertices, rows, cols, local.ravel())
