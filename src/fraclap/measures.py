"""Vertex weights, load vectors and stiffness matrices for the three
discretizations: graph finite differences, edge-integral finite elements
and triangle-area finite elements.

Three measures are supported.  The self-similar measure gives every level-n
copy of the seed the same mass (1 / number of copies) and splits it equally
among the copy's vertices.  The edge-length and triangle-area measures are
unrescaled Euclidean measures; element integrals of piecewise-linear
integrands are evaluated in closed form, so the analytic identities between
the assembled matrices and the graph Laplacian hold to rounding error.

Each measure is defined once, by its element mass matrices (``_masses``),
and each formulation by its element matrices (``_elements``) and its load
(``_load``).  ``solver.solve_condensed`` takes them as they are; the CSR
builders below assemble the same elements (fd: ``graph_laplacian``).  fd,
graph_energy and the self-similar measure take one element everywhere; the
weak forms and the Euclidean measures take one element per level on a
built level, coordinates included, decided by the structure with no edge
measured (``_level``), and elements from coordinates on any other mesh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssemblyError, UsageError
from .geometry import LevelMesh, _abs_max, _built, _frozen, _structure
from .graphs import _EDGE_ELEMENT, _apply_elements, _assemble_elements, graph_laplacian

if TYPE_CHECKING:
    import scipy.sparse as sp


class MeasureKind(str, enum.Enum):
    SELF_SIMILAR = "self_similar"
    EDGE_LENGTH = "edge_length"
    TRIANGLE_AREA = "triangle_area"


@dataclass(frozen=True, eq=False)
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


def _cell_areas(p: np.ndarray) -> np.ndarray:
    """The areas of the triangles with the corners ``p[:, 0..2]``."""
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if p.shape[2] == 2:
        return 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return 0.5 * np.linalg.norm(np.cross(u, v), axis=1)


def _triangle_matrices(mesh: LevelMesh) -> np.ndarray:
    """Element matrices of the linear triangle elements, one (3, 3) block
    per cell in cell-vertex order.

    They come from the constant gradients of the barycentric basis on each
    triangle: K_ij = (e_i . e_j) / (4 S) with e_i the edge vector opposite
    vertex i.  K is scale-free, so the corners are scaled by ``2**-e`` (``e``
    the binary exponent of ``max |vertices|``) before any product: that is
    exact, and no product of gaps overflows or underflows to a zero area.
    """
    if not mesh.num_cells:
        raise AssemblyError("area formulation requires a mesh with cells")
    if mesh.dimension != 2:
        raise AssemblyError("area formulation is only defined for planar meshes")
    p = mesh.vertices[mesh.cells]
    np.ldexp(p, -int(np.frexp(_abs_max(mesh.vertices))[1]), out=p)
    area = _cell_areas(p)
    if (area <= 0.0).any():
        raise AssemblyError("degenerate zero-area cell")
    e = p[:, (2, 0, 1), :] - p[:, (1, 2, 0), :]
    return np.einsum("cid,cjd->cij", e, e) / (4.0 * area)[:, None, None]


def load_vector(mesh: LevelMesh, kind, g: np.ndarray) -> np.ndarray:
    """Right-hand side entries b(x) = integral of (interpolated g) phi_x,
    summed over the mass elements (``_masses``).

    The self-similar measure uses vertex quadrature; the Euclidean measures
    integrate the piecewise-linear interpolant of g against the hat function
    exactly.
    """
    rows, local = _masses(mesh, kind)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (mesh.num_vertices,):
        raise UsageError("nodal data length does not match the mesh")
    return _apply_elements(rows, local, g)


def vertex_weights(mesh: LevelMesh, kind) -> VertexWeights:
    """Vertex masses of the requested measure: the load of g = 1.

    self_similar: each level-n copy (cell when present, edge otherwise)
    carries mass 1/#copies, split equally among its vertices.
    edge_length: half the total length of the incident edges.
    triangle_area: a third of the total area of the incident cells.
    """
    weights = load_vector(mesh, kind, np.ones(mesh.num_vertices))  # checks ``kind``
    return VertexWeights(weights, MeasureKind(kind), mesh.level)


_LOAD_MEASURE = {
    "graph_energy": MeasureKind.SELF_SIMILAR,
    "fem_edge": MeasureKind.EDGE_LENGTH,
    "fem_area": MeasureKind.TRIANGLE_AREA,
}


def _level(mesh: LevelMesh):
    """``(seed, c)`` when ``mesh`` is its family's built level with its
    coordinates (``geometry._built``), ``None`` for any other mesh.  ``1/c =
    L0 r**n`` is the length of every edge of the level, with ``L0`` the
    longest seed edge's length and ``1/r`` the ``grow`` of
    ``geometry._structure``; no edge of ``mesh`` is measured.

    The level's fem-edge element is ``c`` times the unit element.  Every
    seed edge has the length ``L0`` and every side of a seed cell is a seed
    edge, and a level's cells are copies of the seed cell (``geometry._glue``),
    so every cell of a level is the seed cell scaled by ``r**n``: its linear
    stiffness, which depends only on the angles, is the seed cell's, and its
    area is the seed cell's over ``(c L0)**2``.
    """
    built = _built(mesh)
    if built is None or built is not mesh and not np.array_equal(built.vertices, mesh.vertices):
        return None
    seed, _, grow = _structure(mesh.family)
    return seed, grow ** mesh.level / float(seed.edge_lengths().max())


def _masses(mesh: LevelMesh, kind):
    """Vertex rows and element mass matrices whose element sum
    ``sum_k M_k g[rows[k]]`` is the load of ``g`` (``load_vector``).

    self_similar: the diagonal element ``I / (k p)`` on each of the k
    p-vertex copies (cells when present, edges otherwise); edge_length:
    ``L [[2, 1], [1, 2]] / 6``; triangle_area: ``S (1 + I) / 12``, the
    integrals of ``phi_i phi_j``.  On a built level (``_level``) L and S
    are one number, and every stack of one element is a stride-0 view.
    """
    try:
        kind = MeasureKind(kind)
    except ValueError:
        raise UsageError(f"unknown measure kind {kind!r}") from None
    if kind is MeasureKind.SELF_SIMILAR:
        rows = mesh.cells if mesh.num_cells else mesh.edges
        k, p = rows.shape
        if not k:
            raise AssemblyError("mesh has no edges")
        return rows, np.broadcast_to(np.eye(p) * (1.0 / k / p), (k, p, p))
    if kind is MeasureKind.EDGE_LENGTH:
        rows, unit, level = mesh.edges, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, _level(mesh)
        size = mesh.edge_lengths() if level is None else 1.0 / level[1]
    else:
        if not mesh.num_cells:
            raise AssemblyError("triangle_area measure requires a mesh with cells")
        rows, unit, level = mesh.cells, (1.0 + np.eye(3)) / 12.0, _level(mesh)
        if level is None:
            size = _cell_areas(mesh.vertices[mesh.cells])
        else:
            seed, c = level
            size = _cell_areas(seed.vertices[seed.cells])[0] / (c * seed.edge_lengths().max()) ** 2
    return rows, np.broadcast_to(np.multiply.outer(size, unit), (*rows.shape, rows.shape[1]))


def _elements(mesh: LevelMesh, formulation: str):
    """Vertex rows (edges or cells) and element matrices whose sum is the
    formulation's stiffness matrix.

    fd and graph_energy take the unit edge element on every edge.  fem_edge
    takes ``_EDGE_ELEMENT / L`` and fem_area ``_triangle_matrices``: one
    element per level on a built level (``_level``), and elements from
    coordinates on any other mesh.  Either way a stack of one element is a
    stride-0 view, which the condensation serves with one block per depth.
    """
    if formulation == "fem_area":
        level = _level(mesh)
        local = _triangle_matrices(mesh) if level is None else _triangle_matrices(level[0])[0]
        return mesh.cells, np.broadcast_to(local, (mesh.num_cells, 3, 3))
    if formulation not in ("fd", "graph_energy", "fem_edge"):
        raise UsageError(f"unknown formulation {formulation!r}")
    if not mesh.num_edges:
        raise AssemblyError("mesh has no edges")
    if formulation != "fem_edge":
        return mesh.edges, np.broadcast_to(_EDGE_ELEMENT, (mesh.num_edges, 2, 2))
    level = _level(mesh)
    if level is None:
        length = mesh.edge_lengths()
        if (length <= 0.0).any():
            raise AssemblyError("zero-length edge")
        c = (1.0 / length)[:, None, None]
    else:
        c = level[1]
    return mesh.edges, np.broadcast_to(_EDGE_ELEMENT * c, (mesh.num_edges, 2, 2))


def _load(mesh: LevelMesh, formulation: str, g: np.ndarray) -> np.ndarray:
    """fd takes ``g`` pointwise; the weak forms integrate it against the
    formulation's natural measure.  fem_edge takes half the edge-length
    load, matching the factor-two relation between the self-similar and
    edge-length measures."""
    if formulation == "fd":
        return g
    load = load_vector(mesh, _LOAD_MEASURE[formulation], g)
    if formulation == "fem_edge":
        load *= 0.5  # in place: halving is exact, so the bits are 0.5 * load's
    return load


def fd_graph_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """The graph Laplacian, used as the finite-difference operator."""
    return graph_laplacian(mesh)


def fem_edge_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """One-dimensional linear elements along edges: 1/L conductances."""
    return _assemble_elements(mesh.num_vertices, *_elements(mesh, "fem_edge"))


def fem_area_stiffness(mesh: LevelMesh) -> sp.csr_array:
    """Linear triangle elements over cells (see ``_triangle_matrices``)."""
    return _assemble_elements(mesh.num_vertices, *_elements(mesh, "fem_area"))
