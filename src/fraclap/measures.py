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
weak forms and the Euclidean measures take one element per level, read off
the structure with no level built or edge measured (``_level_forms``, which
the renorm estimates read too), on a built level with its coordinates
(``_level``), and elements from coordinates on any other mesh.  A solve's
load on a level that is never built sums the one mass element over the
copy table's rows as the copy tree's walk yields them (``_level_load``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssemblyError, UsageError
from .geometry import (LevelMesh, _abs_max, _built, _element_blocks, _element_rows, _kept,
                       _structure, predicted_vertices)
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
        object.__setattr__(self, "weights", _kept(self.weights, np.float64))

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
    weights.setflags(write=False)  # handed over: VertexWeights keeps it without a copy
    return VertexWeights(weights, MeasureKind(kind), mesh.level)


_LOAD_MEASURE = {
    "graph_energy": MeasureKind.SELF_SIMILAR,
    "fem_edge": MeasureKind.EDGE_LENGTH,
    "fem_area": MeasureKind.TRIANGLE_AREA,
}
_WEAK_FORM = {kind: formulation for formulation, kind in _LOAD_MEASURE.items()}

# The unit mass elements of the edge-length and triangle-area measures.
_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_AREA_MASS = (1.0 + np.eye(3)) / 12.0


def _level(mesh: LevelMesh) -> LevelMesh | None:
    """``mesh``'s built level when ``mesh`` is its family's built level with
    its coordinates (``geometry._built``), ``None`` for any other mesh: its
    elements and masses are then ``_level_forms``', with no edge measured."""
    built = _built(mesh)
    if built is None or built is not mesh and not np.array_equal(built.vertices, mesh.vertices):
        return None
    return built


def _level_forms(family: str, level: int, formulation: str):
    """``(local, mass)``: the one element matrix of ``formulation`` on
    ``build_level(family, level)`` and the one mass element of its load
    measure (``None`` for fd), with no level built.  ``1/c = L0 r**n`` is
    the length of every edge of the level, ``L0`` the longest seed edge's
    and ``1/r`` the ``grow`` of ``geometry._structure``.  Every seed edge
    has the length ``L0`` and every side of a seed cell is a seed edge, and
    a level's cells are the seed cell's copies (``geometry._element_blocks``),
    so every cell of a level is the seed cell scaled by ``r**n``: its linear
    stiffness, which depends only on the angles, is the seed cell's, and
    its area is the seed cell's over ``(c L0)**2``."""
    seed, glue, grow = _structure(family)
    length = float(seed.edge_lengths().max())
    c = grow ** level / length
    if formulation == "fem_area":
        local = _triangle_matrices(seed)[0]  # refuses a seed without cells first
        return local, _cell_areas(seed.vertices[seed.cells])[0] / (c * length) ** 2 * _AREA_MASS
    if formulation == "fem_edge":
        return _EDGE_ELEMENT * c, 1.0 / c * _EDGE_MASS
    p = _element_rows(seed).shape[1]
    return _EDGE_ELEMENT, None if formulation == "fd" else np.eye(p) * (1.0 / len(glue)**level / p)


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
        rows = _element_rows(mesh)
        k, p = rows.shape
        if not k:
            raise AssemblyError("mesh has no edges")
        return rows, np.broadcast_to(np.eye(p) * (1.0 / k / p), (k, p, p))
    if kind is MeasureKind.TRIANGLE_AREA and not mesh.num_cells:
        raise AssemblyError("triangle_area measure requires a mesh with cells")
    rows = mesh.edges if kind is MeasureKind.EDGE_LENGTH else mesh.cells
    if _level(mesh):
        mass = _level_forms(mesh.family, mesh.level, _WEAK_FORM[kind])[1]
    elif kind is MeasureKind.EDGE_LENGTH:
        mass = np.multiply.outer(mesh.edge_lengths(), _EDGE_MASS)
    else:
        mass = np.multiply.outer(_cell_areas(mesh.vertices[mesh.cells]), _AREA_MASS)
    return rows, np.broadcast_to(mass, (*rows.shape, rows.shape[1]))


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
        local = (_level_forms(mesh.family, mesh.level, formulation)[0] if _level(mesh)
                 else _triangle_matrices(mesh))
        return mesh.cells, np.broadcast_to(local, (mesh.num_cells, 3, 3))
    if formulation not in ("fd", "graph_energy", "fem_edge"):
        raise UsageError(f"unknown formulation {formulation!r}")
    if not mesh.num_edges:
        raise AssemblyError("mesh has no edges")
    if formulation != "fem_edge":
        local = _EDGE_ELEMENT
    elif _level(mesh):
        local = _level_forms(mesh.family, mesh.level, formulation)[0]
    else:
        length = mesh.edge_lengths()
        if (length <= 0.0).any():
            raise AssemblyError("zero-length edge")
        local = _EDGE_ELEMENT * (1.0 / length)[:, None, None]
    return mesh.edges, np.broadcast_to(local, (mesh.num_edges, 2, 2))


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


def _level_load(family: str, level: int, formulation: str, g: np.ndarray) -> np.ndarray:
    """``_load`` on ``build_level(family, level)``, bit for bit, with no level
    built: the one mass element of ``_level_forms`` on the level's edges or
    cells, in their order, as the copy tree gives them
    (``geometry._element_blocks``)."""
    if formulation == "fd":
        return g
    seed, mass = _structure(family)[0], _level_forms(family, level, formulation)[1]
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (predicted_vertices(family, level),):
        raise UsageError("nodal data length does not match the mesh")
    load = _apply_elements((block for _, block in _element_blocks(seed, level, len(mass))),
                           mass, g)
    if formulation == "fem_edge":
        load *= 0.5  # as in _load
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
