"""Adjacency, degree and Laplacian matrices of a level mesh, plus the
associated energy bilinear form.

Every operator is a canonical scipy ``csr_array``: sorted indices, no
duplicate entries and no explicit zeros.  ``_assemble`` builds one from raw
triplets, whose duplicates scipy sums, and imports scipy, so building and
writing meshes never loads it.
``_assemble_elements`` sums element matrices into one: ``graph_laplacian``
sums the unit edge element ``_EDGE_ELEMENT``, and the fem stiffness builders
sum the elements of ``measures._elements``.  ``_apply_elements`` applies
such a sum to a vector unassembled (leaf blocks, mass elements), a fixed
block of elements at a time, with the bits of one whole-mesh pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .geometry import LevelMesh, _blocks

if TYPE_CHECKING:
    import scipy.sparse as sp

# Edge element matrix of unit conductance: (e_a - e_b)(e_a - e_b)^T.
_EDGE_ELEMENT = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _assemble(n: int, rows, cols, vals) -> sp.csr_array:
    """Square ``n`` x ``n`` CSR array from triplets: scipy's coo-to-csr
    conversion sums the duplicates, and exact zeros are dropped."""
    import scipy.sparse as sp

    n = int(n)
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if not rows.shape == cols.shape == vals.shape:
        raise UsageError("triplet arrays must be aligned")
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise UsageError("triplet index out of range")
    if not np.isfinite(vals).all():
        raise UsageError("matrix values must be finite")
    a = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.eliminate_zeros()
    return a


def _assemble_elements(n: int, elements: np.ndarray, local: np.ndarray) -> sp.csr_array:
    """CSR sum of the element matrices ``local[k]`` on the vertex rows
    ``elements[k]``."""
    rows = np.broadcast_to(elements[:, :, None], local.shape)
    cols = np.broadcast_to(elements[:, None, :], local.shape)
    return _assemble(n, rows, cols, local)


def _apply_elements(elements: np.ndarray, local: np.ndarray, u: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The products ``local[k] @ u[elements[k]]`` summed per vertex: the sum
    of the element matrices times ``u``, added into ``out`` when it is
    given.  One matrix may serve every element.

    The elements go ``geometry._SCAN_ROWS`` at a time, so no whole-mesh
    ``(elements, p)`` gather, product or intp index copy is formed.  Each
    block's products are added into one output (zeroed when not given) by
    ``np.add.at``, in element order, so every vertex sums its terms in the
    order of one ``np.bincount`` over all elements, and the result has its
    bits."""
    local = np.broadcast_to(local, (*elements.shape, elements.shape[1]))
    if out is None:
        out = np.zeros(u.size)
    for s in _blocks(len(elements)):
        rows = elements[s]
        ku = np.einsum("kab,kb->ka", local[s], u[rows])
        np.add.at(out, rows.ravel(), ku.ravel())
    return out


def adjacency(mesh: LevelMesh) -> sp.csr_array:
    """Symmetric 0/1 adjacency matrix of the mesh edges."""
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    return _assemble(mesh.num_vertices, rows, cols, np.ones(rows.size))


def degree(mesh: LevelMesh) -> sp.csr_array:
    """Diagonal matrix of vertex degrees (counted from the edge list)."""
    n = mesh.num_vertices
    deg = np.bincount(mesh.edges.ravel(), minlength=n).astype(np.float64)
    idx = np.arange(n)
    return _assemble(n, idx, idx, deg)


def graph_laplacian(mesh: LevelMesh) -> sp.csr_array:
    """Degree minus adjacency; symmetric PSD with zero row sums."""
    local = np.broadcast_to(_EDGE_ELEMENT, (mesh.num_edges, 2, 2))
    return _assemble_elements(mesh.num_vertices, mesh.edges, local)


def energy(lap: sp.csr_array, u: np.ndarray, v: np.ndarray) -> float:
    """Bilinear form u^T L v.

    When ``lap`` is a graph Laplacian this equals the sum over edges of
    (u(x) - u(y)) (v(x) - v(y)).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (lap.shape[0],) or v.shape != (lap.shape[1],):
        raise UsageError("vector lengths do not match the operator")
    coo = lap.tocoo()
    return float(np.sum(coo.data * u[coo.row] * v[coo.col]))
