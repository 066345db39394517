"""Adjacency, degree and Laplacian matrices of a level mesh, plus the
associated energy bilinear form.

Matrices are stored as sorted, duplicate-free triplets so assembly stays
simple; solver-oriented formats are produced on demand. scipy is imported
only there (``from_scipy`` and ``to_csr``), so building and writing meshes
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .geometry import LevelMesh, _frozen

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class SparseMatrix:
    """Triplet-based sparse matrix, sorted by (row, col), unique keys."""

    nrows: int
    ncols: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = _frozen(self.rows, np.int64)
        cols = _frozen(self.cols, np.int64)
        vals = _frozen(self.vals, np.float64)
        if not (rows.shape == cols.shape == vals.shape and rows.ndim == 1):
            raise UsageError("triplet arrays must be one-dimensional and aligned")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.nrows:
                raise UsageError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.ncols:
                raise UsageError("column index out of range")
        if not np.isfinite(vals).all():
            raise UsageError("matrix values must be finite")
        key = rows * self.ncols + cols
        if np.any(np.diff(key) <= 0):
            raise UsageError("triplets must be sorted with unique (row, col) keys")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @classmethod
    def from_triplets(cls, nrows, ncols, rows, cols, vals) -> "SparseMatrix":
        """Coalesce raw triplets: sum duplicates, sort, drop exact zeros."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        key = rows * int(ncols) + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        uniq, start = np.unique(key, return_index=True)
        summed = np.add.reduceat(vals, start) if vals.size else vals
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]
        return cls(int(nrows), int(ncols), uniq // int(ncols), uniq % int(ncols), summed)

    @classmethod
    def from_scipy(cls, m) -> "SparseMatrix":
        import scipy.sparse as sp

        coo = sp.coo_matrix(m)
        return cls.from_triplets(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_csr(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.nrows, self.ncols)
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self.rows, self.cols] = self.vals
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise UsageError(f"vector length {x.shape} does not match {self.shape}")
        out = np.zeros(self.nrows)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def scaled(self, factor: float) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols,
                            self.vals * float(factor))

    def is_symmetric(self, tol: float = 0.0) -> bool:
        if self.nrows != self.ncols:
            return False
        d = self.to_csr() - self.to_csr().T
        return d.nnz == 0 or np.abs(d.data).max() <= tol


def adjacency(mesh: LevelMesh) -> SparseMatrix:
    """Symmetric 0/1 adjacency matrix of the mesh edges."""
    n = mesh.num_vertices
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    return SparseMatrix.from_triplets(n, n, rows, cols, np.ones(rows.size))


def degree(mesh: LevelMesh) -> SparseMatrix:
    """Diagonal matrix of vertex degrees (counted from the edge list)."""
    n = mesh.num_vertices
    deg = np.bincount(mesh.edges.ravel(), minlength=n).astype(np.float64)
    idx = np.arange(n)
    return SparseMatrix.from_triplets(n, n, idx, idx, deg)


def graph_laplacian(mesh: LevelMesh) -> SparseMatrix:
    """Degree minus adjacency; symmetric PSD with zero row sums."""
    n = mesh.num_vertices
    deg = np.bincount(mesh.edges.ravel(), minlength=n).astype(np.float64)
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([deg, -np.ones(2 * i.size)])
    return SparseMatrix.from_triplets(n, n, rows, cols, vals)


def energy(lap: SparseMatrix, u: np.ndarray, v: np.ndarray) -> float:
    """Bilinear form u^T L v.

    When ``lap`` is a graph Laplacian this equals the sum over edges of
    (u(x) - u(y)) (v(x) - v(y)).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (lap.nrows,) or v.shape != (lap.ncols,):
        raise UsageError("vector lengths do not match the operator")
    return float(np.sum(lap.vals * u[lap.rows] * v[lap.cols]))
