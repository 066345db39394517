"""Dirichlet problems: the interior block system of a symmetric PSD operator.

A problem is a mesh, the element matrices ``local[k]`` on the vertex rows
``elements[k]`` whose sum is the operator, a load and the boundary values;
``_problem`` checks it for both exact solvers, which share one contract.
``solve_dirichlet`` assembles the operator (``graphs._assemble_elements``)
and factors its interior block with SuperLU (``partition`` and
``linear_solve``, which take any CSR operator); scipy is imported only
there.  ``solve_condensed`` takes a level as ``geometry.build_level`` builds
it, with its edges or cells as elements, and solves by self-similar static
condensation with numpy alone: the m copies of a level meet only at images
of the seed vertices, so each copy condenses onto its boundary from the
leaves up, and the values come back down from the Dirichlet data.  Every
leaf must carry the same element matrices, as the stride-0 stacks of every
built-in formulation do (``measures._elements``): each depth then holds one
block, factored once (``_depth_blocks``).  The blocks and the way down
(``_extend``) need only the leaf block and the gluing table
(``geometry._copy_starts``), so the renorm estimates share them with no
level built.  The leaf block is applied unassembled by
``graphs._apply_elements``, which also sums the loads of ``measures``.
The condensation works on whole-length vectors that hold zero on the
boundary, a block of copies at a time, so it needs a few vectors of the
mesh's length beyond the problem; ``linear_solve`` and ``solve_dirichlet``
keep interior-length vectors.

Contract: the interior solution ``x`` of ``A x = b`` meets
``|b - A x|_inf <= BACKWARD_ERROR_BOUND * (|A|_inf |x|_inf + |b|_inf)``,
after one step of iterative refinement if the first solve does not, or the
solve raises ``SolveError``, which names data that overflow double precision.
It reads on the interior: a whole-length vector's zero boundary entries add
nothing to its norm.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, SolveError, UsageError
from .geometry import (LevelMesh, _abs_max, _blocks, _copy_starts, _copy_table, _element_rows,
                       _kept, _structure)
from .graphs import _apply_elements, _assemble_elements

if TYPE_CHECKING:
    import scipy.sparse as sp

# Normwise backward error every solve must meet; a backward-stable solve
# reaches a few units of roundoff (about 1e-16).
BACKWARD_ERROR_BOUND = 1e-13


def _check_symmetric(gap: float, size: float) -> None:
    """Refuse an operator ``A`` with ``max |A - A^T| > 1e-12 max(|A|, 1)``."""
    if gap > 1e-12 * max(size, 1.0):
        raise SolveError("operator is not symmetric")


def _check_interior(size: int) -> None:
    """Refuse a problem with no interior vertex (``size`` of them)."""
    if not size:
        raise SolveError("empty interior: every vertex is a boundary vertex")


def _problem(mesh: LevelMesh, elements, local, load, boundary_values):
    """The checked Dirichlet problem: ``(bidx, u0, elements, local, load)``,
    the sorted boundary indices and their values, the element rows, and the
    element matrices and load as float64 arrays."""
    elements, local = np.asarray(elements), np.asarray(local, dtype=np.float64)
    k, p = elements.shape if elements.ndim == 2 else (0, 0)
    if not k * p or local.shape != (k, p, p):
        raise UsageError(f"elements {elements.shape} and local {local.shape} must be "
                         "(k, p) and (k, p, p) with k, p >= 1")
    try:
        given = {operator.index(i): boundary_values[i] for i in boundary_values}
    except TypeError:
        raise UsageError("boundary value keys must be integer vertex indices") from None
    # not np.unique: its plain form imports numpy.ma on first use (numpy 2.4)
    expected = sorted(set(mesh.boundary_indices.tolist()))
    if given.keys() != set(expected):
        raise UsageError(f"boundary values must cover exactly the boundary indices {expected}")
    bidx = np.array(expected, dtype=np.int64)
    u0 = np.array([given[i] for i in expected], dtype=np.float64)
    if not np.isfinite(u0).all():
        raise UsageError("boundary values must be finite")
    load = np.asarray(load, dtype=np.float64)
    if load.shape != (mesh.num_vertices,):
        raise UsageError("load length does not match the mesh")
    if not np.isfinite(load).all():
        raise UsageError("load must be finite")
    # a broadcast stack (stride 0 over its elements) is checked on its one matrix
    one = local[:1] if local.strides[0] == 0 else local
    _check_symmetric(_abs_max(one - one.transpose(0, 2, 1)), _abs_max(one))
    _check_interior(mesh.num_vertices - bidx.size)  # distinct indices, each in range
    return bidx, u0, elements, local, load


@dataclass(frozen=True, eq=False)
class Solution:
    """Nodal solution with solve metadata.  The solvers report a plain
    Dirichlet solve; ``renorm.solve_online`` stamps its method and constant."""

    values: np.ndarray = field(repr=False)
    level: int
    solver_residual: float
    method: str = "dirichlet"
    renorm_constant_applied: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _kept(self.values, np.float64))


def partition(a: sp.csr_array, boundary):
    """Split a square CSR operator into interior-interior and
    interior-boundary blocks.

    Returns ``(A_II, A_I0, interior_idx, boundary_idx)``.
    """
    n, ncols = a.shape
    if n != ncols:
        raise UsageError("partition requires a square operator")
    boundary_idx = np.unique(np.asarray(list(boundary), dtype=np.int64))
    if boundary_idx.size and (boundary_idx.min() < 0 or boundary_idx.max() >= n):
        raise UsageError("boundary index out of range")
    interior_idx = np.setdiff1d(np.arange(n), boundary_idx)
    _check_interior(interior_idx.size)
    rows = a[interior_idx]
    return rows[:, interior_idx], rows[:, boundary_idx], interior_idx, boundary_idx


def _contract_solve(solve, apply, b: np.ndarray, norm_a: float):
    """``x`` with ``solve(b) ~ A^-1 b`` refined once through ``apply(x) = A x``
    if needed, and the residual ``|b - A x|_inf`` that meets the contract.
    The residual and the refined ``x`` are formed in place.  Data that
    overflow double precision give a residual or bound that is not finite:
    numpy's warnings are off, and one ``SolveError`` says so."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = solve(b)
        r = apply(x)
        np.subtract(b, r, out=r)

        def bound():
            return BACKWARD_ERROR_BOUND * (norm_a * _abs_max(x) + _abs_max(b))

        if _abs_max(r) > bound():
            x += solve(r)
            r = apply(x)
            np.subtract(b, r, out=r)
        residual, limit = _abs_max(r), float(bound())
    # the bound is finite only when b and x are
    if not (np.isfinite(residual) and np.isfinite(limit)):
        raise SolveError("the data overflow double precision")
    if not residual <= limit:
        raise SolveError(f"residual {residual:.3e} exceeds the solver contract {limit:.3e}")
    return x, residual


def linear_solve(a: sp.csr_array, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``A x = b`` for symmetric positive definite CSR ``A`` with a
    SuperLU factorization.

    Returns ``x`` and the residual ``|b - A x|_inf``, which meets the
    module's backward-error contract, or raises ``SolveError``.
    """
    import scipy.sparse.linalg as spla

    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise UsageError("system dimensions do not agree")
    magnitude = abs(a)
    _check_symmetric(abs(a - a.T).max(), magnitude.max())
    try:
        lu = spla.splu(a.tocsc())
    except RuntimeError as exc:
        raise SolveError(f"direct factorization failed: {exc}") from None
    norm_a = float(magnitude.sum(axis=1).max())
    return _contract_solve(lu.solve, a.__matmul__, b, norm_a)


def solve_dirichlet(mesh: LevelMesh, elements: np.ndarray, local: np.ndarray,
                    load: np.ndarray, boundary_values: dict[int, float]) -> Solution:
    """Solve the Dirichlet problem of the operator ``sum_k local[k]`` on the
    vertices ``elements[k]`` by assembling it and factoring its interior
    block with SuperLU; ``mesh`` may be any ``LevelMesh``."""
    bidx, u0, elements, local, load = _problem(mesh, elements, local, load, boundary_values)
    a = _assemble_elements(mesh.num_vertices, elements, local)
    a_ii, a_i0, interior_idx, _ = partition(a, bidx)
    with np.errstate(over="ignore", invalid="ignore"):  # _contract_solve reports overflow
        rhs = load[interior_idx] - a_i0 @ u0
    x, residual = linear_solve(a_ii, rhs)
    values = np.empty(mesh.num_vertices)
    values[bidx] = u0
    values[interior_idx] = x
    values.setflags(write=False)  # handed over: Solution keeps it without a copy
    return Solution(values=values, level=mesh.level, solver_residual=residual)


class _Condensation:
    """The interior block of ``sum_k local[k]`` over the edges or cells of a
    built level, eliminated copy by copy.

    The mesh and elements must be as ``solve_condensed`` takes them, or
    ``GeometryError`` is raised (coordinates are not compared).  A built
    level is m copies of the level below, so its leaves are the ``m**n``
    copies of the seed (``_copy_table``), each listing its elements at the
    seed's edge or cell positions, and all of them carry one leaf block,
    which ``product`` and ``norm`` apply.  Going up one depth, the m children
    of a copy are summed into the level-1 vertex set V1 by the glue and the
    vertices of V1 outside V0 are eliminated.  Every copy of a depth has the
    same block, so each depth keeps one ``inv_ii = A_II^-1`` and one ``x_ib =
    inv_ii A_IB`` (``depths``, from the leaves up).  The new V1 vertices of
    its copies lie where the glue puts them (``geometry._copy_starts``), so
    no depth reads the leaves, and both passes of ``solve`` are matrix
    products over blocks of copies.  The row sums of the block are carried
    up the depths, and each Schur complement takes its diagonal from them,
    without cancellation.  Vectors are whole-length and zero on the boundary.
    """

    def __init__(self, mesh: LevelMesh, elements, local):
        self.leaves = _copy_table(mesh)
        p = elements.shape[1]
        rows = _element_rows(mesh, p)
        if not (elements is rows or np.array_equal(elements, rows)):
            raise GeometryError("condensation needs the edges or cells of a level as "
                                "build_level builds it; solve other meshes with solve_dirichlet")
        seed, self.glue, _ = _structure(mesh.family)  # (child, child vertex) -> V1
        self.block = _leaf_block(_element_rows(seed, p), seed.num_vertices, local)
        self.size, self.boundary = mesh.num_vertices, mesh.boundary_indices
        self.family, self.level, self.nv1 = mesh.family, mesh.level, int(self.glue.max()) + 1
        self.depths = list(_depth_blocks(self.block, self.glue, mesh.level))

    def product(self, u: np.ndarray) -> np.ndarray:
        """The assembled operator times ``u``."""
        return _apply_elements(self.leaves, self.block, u)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A_II x`` for a whole-length ``x`` that is zero on the boundary:
        the product with its boundary rows set to zero."""
        y = self.product(x)
        y[self.boundary] = 0.0
        return y

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A_II^-1 b`` for a whole-length ``b``, whose boundary entries are
        not read; the result is zero on the boundary (the top level's V0,
        which no depth eliminates).  Loads condense up, values come back
        down (``_extend``), each depth in blocks of copies (``geometry._blocks``).
        A vertex is eliminated at one depth only, so its condensed load waits
        in the result until the way down replaces it by its value."""
        m, nb = self.glue.shape
        u = np.zeros(b.size)
        # the leaves condense no interior: a read-only zero view goes up
        up = np.broadcast_to(0.0, self.leaves.shape)
        for (first, new), (_, x_ib) in zip(_copy_starts(self.family, self.level, upward=True),
                                           self.depths):
            below, up = up, np.empty((len(first), nb))
            for s in _blocks(len(first)):
                rows = first[s, None] + new
                fv = np.zeros((len(rows), self.nv1))
                for i, g in enumerate(self.glue):  # child i of each copy
                    fv[:, g] += below[s.start * m + i:s.stop * m:m]
                f_i = fv[:, nb:] + b[rows]
                # A_BI A_II^-1 f_I = (A_II^-1 A_IB)^T f_I by symmetry
                np.subtract(fv[:, :nb], f_i @ x_ib, out=up[s])
                u[rows] = f_i
        down = [(lambda rows, inv_ii=inv_ii: u[rows] @ inv_ii.T, x_ib)
                for inv_ii, x_ib in self.depths[::-1]]
        return _extend(u, self.glue, _copy_starts(self.family, self.level), down)

    def norm(self) -> float:
        """``|A_II|_inf``, exact for any symmetric leaf block: the leaves of a
        built level share no pair of vertices (``geometry._glue``), so no two
        leaf blocks add into one off-diagonal entry.  One whole-length vector
        takes the diagonal, then its magnitude, then the off-diagonal
        magnitudes at interior columns; the boundary rows are zeroed before
        the maximum."""
        eye = np.eye(self.leaves.shape[1])
        interior = np.ones(self.size)  # einsum casts a bool vector slowly
        interior[self.boundary] = 0.0
        rows = _apply_elements(self.leaves, self.block * eye, interior)
        np.abs(rows, out=rows)
        _apply_elements(self.leaves, abs(self.block) * (1.0 - eye), interior, out=rows)
        rows[self.boundary] = 0.0
        return float(rows.max())


def _extend(out: np.ndarray, glue: np.ndarray, starts, depths) -> np.ndarray:
    """The way down of a condensation, from the top, a block of copies at a
    time (``_blocks``): copy ``w`` of a depth ``(interior, x_ib)``, whose new
    V1 vertices are ``rows = first[w] + new`` for the depth's ``(first, new)``
    in ``starts`` (``geometry._copy_starts``), takes ``interior(rows) - v0 @
    x_ib.T`` there for its V0 values ``v0``.  The top's V0 values are zero;
    every other copy's are its parent's V1 values, carried by the glue."""
    m, nb = glue.shape
    v0 = np.zeros((1, nb))
    for d, ((first, new), (interior, x_ib)) in enumerate(zip(starts, depths), 1):
        below = np.empty((m * len(first) if d < len(depths) else 0, nb))
        for s in _blocks(len(first)):
            rows = first[s, None] + new
            values = interior(rows) - v0[s] @ x_ib.T
            out[rows] = values
            if len(below):
                below[s.start * m:s.stop * m] = np.hstack([v0[s], values])[:, glue].reshape(-1, nb)
        v0 = below
    return out


def _depth_blocks(block: np.ndarray, glue: np.ndarray, depths: int):
    """``(inv_ii, x_ib)`` of ``depths`` depths above leaves that carry
    ``block``, from the leaves up (``_Condensation``); the Schur complement
    of each is the next one's block.  A singular interior block raises
    ``SolveError``."""
    nb, nv1 = glue.shape[1], int(glue.max()) + 1
    schur, sums, diag = block, block.sum(axis=1), np.arange(nb)  # row sums of ``schur``
    for _ in range(depths):
        a, s = np.zeros((nv1, nv1)), np.zeros(nv1)
        for g in glue:
            a[g[:, None], g] += schur
            s[g] += sums
        try:
            inv_ii = np.linalg.inv(a[nb:, nb:])
        except np.linalg.LinAlgError:
            raise SolveError("singular interior block") from None
        x_ib = inv_ii @ a[nb:, :nb]
        # a_bb - a_bi x_ib cancels on the diagonal only (on an M-matrix block
        # every off-diagonal term has one sign): keep the symmetrized
        # off-diagonal part, and set the diagonal from the row sums
        # s_B - x_ib^T s_I of the Schur complement
        schur = a[:nb, :nb] - a[:nb, nb:] @ x_ib
        schur = 0.5 * (schur + schur.T)
        sums = s[:nb] - s[nb:] @ x_ib
        schur[diag, diag] = 0.0
        schur[diag, diag] = sums - schur.sum(axis=1)
        yield inv_ii, x_ib


def _leaf_block(pos: np.ndarray, nb: int, local) -> np.ndarray:
    """The ``nb``-square block that every leaf carries: the element matrices
    of a leaf summed, in element order, at the seed positions ``pos`` of its
    elements (the seed's edges or cells).  ``local`` lists the elements leaf
    after leaf.  Every leaf must carry the same element matrices
    (``UsageError``), which a stride-0 ``local`` does without a comparison.
    """
    local = local.reshape(-1, *pos.shape, pos.shape[1])
    if local.strides[0] != 0 and not (local == local[:1]).all():
        raise UsageError("condensation needs the same element matrices on every leaf; "
                         "solve other stacks with solve_dirichlet")
    block = np.zeros((nb, nb))
    np.add.at(block, (pos[:, :, None], pos[:, None, :]), local[0])
    return block


def solve_condensed(mesh: LevelMesh, elements: np.ndarray, local: np.ndarray,
                    load: np.ndarray, boundary_values: dict[int, float]) -> Solution:
    """Solve the Dirichlet problem of the operator ``sum_k local[k]`` on the
    vertices ``elements[k]`` by self-similar static condensation, without
    assembling it and without scipy.

    ``mesh`` must be ``build_level(mesh.family, mesh.level)`` or have its
    vertex count, edges, cells and boundary indices (``geometry._copy_table``),
    and ``elements`` must be its edges or its cells; otherwise
    ``GeometryError`` is raised.  Every leaf must carry the same element
    matrices, as the stride-0 stacks of ``measures._elements`` do; other
    stacks raise ``UsageError`` and go to ``solve_dirichlet``.
    """
    bidx, u0, elements, local, load = _problem(mesh, elements, local, load, boundary_values)
    cond = _Condensation(mesh, elements, local)
    norm_a = cond.norm()
    if not np.isfinite(norm_a):
        raise UsageError("operator entries are not finite")
    values = np.zeros(mesh.num_vertices)
    values[bidx] = u0
    with np.errstate(over="ignore", invalid="ignore"):  # _contract_solve reports overflow
        rhs = np.subtract(load, cond.product(values), out=values)
    rhs[bidx] = 0.0
    x, residual = _contract_solve(cond.solve, cond.apply, rhs, norm_a)
    x[bidx] = u0
    x.setflags(write=False)  # handed over: Solution keeps it without a copy
    return Solution(values=x, level=mesh.level, solver_residual=residual)
