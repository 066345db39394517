"""Dirichlet problems: the interior block system of a symmetric PSD operator.

A problem is a mesh, the element matrices ``local[k]`` on the vertex rows
``elements[k]`` whose sum is the operator, a load and the boundary values;
``_problem`` checks it for both exact solvers, which share one contract.
``solve_dirichlet`` assembles the operator (``graphs._assemble_elements``)
and factors its interior block with SuperLU (``partition`` and
``linear_solve``, which take any CSR operator); scipy is imported only
there.  ``solve_condensed`` takes a mesh built by ``geometry.build_level``
and solves by self-similar static condensation with numpy alone: the m
copies of a level meet only at images of the seed vertices, so each copy
condenses onto its boundary from the leaves up, and the values come back
down from the Dirichlet data.  A depth holds one block when ``local`` is a
stride-0 stack, as every built-in formulation passes (``measures._elements``),
and one block per copy otherwise; either is served to the copies through
one ``np.broadcast_to`` view.

Contract: the interior solution ``x`` of ``A x = b`` meets
``|b - A x|_inf <= BACKWARD_ERROR_BOUND * (|A|_inf |x|_inf + |b|_inf)``,
after one step of iterative refinement if the first solve does not, or the
solve raises ``SolveError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, SolveError, UsageError
from .geometry import LevelMesh, _copy_table, _frozen, _seed_glue
from .graphs import _assemble_elements

if TYPE_CHECKING:
    import scipy.sparse as sp

# Normwise backward error every solve must meet; a backward-stable solve
# reaches a few units of roundoff (about 1e-16).
BACKWARD_ERROR_BOUND = 1e-13


def _problem(mesh: LevelMesh, elements, local, load, boundary_values):
    """The checked Dirichlet problem: ``(interior, bidx, u0, elements, local,
    load)``, the interior vertex mask, the sorted boundary indices and their
    values, the element rows, and the element matrices and load as float64
    arrays."""
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
    magnitude = abs(one).max()
    if abs(one - one.transpose(0, 2, 1)).max() > 1e-12 * max(magnitude, 1.0):
        raise SolveError("operator is not symmetric")
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[bidx] = False
    if not interior.any():
        raise SolveError("empty interior: every vertex is a boundary vertex")
    return interior, bidx, u0, elements, local, load


@dataclass(frozen=True)
class Solution:
    """Nodal solution with solve metadata.  The solvers report a plain
    Dirichlet solve; ``renorm.solve_online`` stamps its method and constant."""

    values: np.ndarray = field(repr=False)
    level: int
    solver_residual: float
    method: str = "dirichlet"
    renorm_constant_applied: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))


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
    if interior_idx.size == 0:
        raise SolveError("empty interior: every vertex is a boundary vertex")
    rows = a[interior_idx]
    return rows[:, interior_idx], rows[:, boundary_idx], interior_idx, boundary_idx


def _contract_solve(solve, apply, b: np.ndarray, norm_a: float):
    """``x`` with ``solve(b) ~ A^-1 b`` refined once through ``apply(x) = A x``
    if needed, and the residual ``|b - A x|_inf`` that meets the contract."""
    x = solve(b)
    if not np.isfinite(x).all():
        raise SolveError("singular interior block")
    r = b - apply(x)

    def bound():
        return BACKWARD_ERROR_BOUND * (norm_a * np.abs(x).max() + np.abs(b).max())

    if np.abs(r).max() > bound():
        x = x + solve(r)
        r = b - apply(x)
    residual = float(np.abs(r).max())
    if not residual <= bound():
        raise SolveError(f"residual {residual:.3e} exceeds the solver contract "
                         f"{bound():.3e}")
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
    if abs(a - a.T).max() > 1e-12 * max(magnitude.max(), 1.0):
        raise SolveError("operator is not symmetric")
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
    _, bidx, u0, elements, local, load = _problem(mesh, elements, local, load,
                                                  boundary_values)
    a = _assemble_elements(mesh.num_vertices, elements, local)
    a_ii, a_i0, interior_idx, _ = partition(a, bidx)
    x, residual = linear_solve(a_ii, load[interior_idx] - a_i0 @ u0)
    values = np.empty(mesh.num_vertices)
    values[bidx] = u0
    values[interior_idx] = x
    return Solution(values=values, level=mesh.level, solver_residual=residual)


class _Condensation:
    """The interior block of ``sum_k local[k]`` over the vertex rows
    ``elements[k]`` of a ``build_level`` mesh, eliminated copy by copy.

    Leaves are the ``m**n`` copies of the seed.  Going up one depth, the m
    children of every copy are scattered into the level-1 vertex set V1 and
    the vertices of V1 outside V0 are eliminated, batched over the copies of
    that depth.  Each vertex becomes interior at exactly one copy.

    A depth holds one block, when ``local`` is a stride-0 stack, or one block
    per copy in copy order.  The leaf blocks, ``a_ii`` and ``x_ib`` are
    served to the copies through ``np.broadcast_to`` views (stride 0 for one
    block), so both layouts give the values a per-copy elimination computes.
    """

    def __init__(self, mesh: LevelMesh, elements, local, interior: np.ndarray):
        seed, self.glue = _seed_glue(mesh.family)  # (child, child vertex) -> V1
        self.leaves = _copy_table(mesh, seed)
        m, nb = self.glue.shape
        nv1 = int(self.glue.max()) + 1
        if (nb != seed.boundary_indices.size or self.leaves.shape[0] != m**mesh.level
                or np.bincount(self.glue.ravel(), minlength=nv1).min() == 0):
            raise GeometryError("mesh is not a self-similar level of its family")
        self.blocks = _leaf_blocks(self.leaves, elements, local)
        self.interior = interior
        ids, schur, self.depths = self.leaves, self.blocks, []
        for d in range(mesh.level - 1, -1, -1):
            copies = m**d
            child = ids.reshape(copies, m * nb)
            v1 = np.empty((copies, nv1), dtype=np.int64)
            v1[:, self.glue.ravel()] = child
            if not (v1[:, self.glue.ravel()] == child).all():
                raise GeometryError("copies disagree on a shared vertex")
            blocks = 1 if schur.shape[0] == 1 else copies
            children = np.broadcast_to(schur, (blocks * m, nb, nb)).reshape(blocks, m, nb, nb)
            a = np.zeros((blocks, nv1, nv1))
            for i, g in enumerate(self.glue):
                a[:, g[:, None], g] += children[:, i]
            a_ii = a[:, nb:, nb:].copy()
            try:
                x_ib = np.linalg.solve(a_ii, a[:, nb:, :nb])
            except np.linalg.LinAlgError:
                raise SolveError("singular interior block") from None
            schur = a[:, :nb, :nb] - a[:, :nb, nb:] @ x_ib
            self.depths.append((v1, a_ii, x_ib))
            ids = v1[:, :nb]
        eliminated = [ids.ravel()] + [v1[:, nb:].ravel() for v1, *_ in self.depths]
        once = np.bincount(np.concatenate(eliminated), minlength=mesh.num_vertices) == 1
        if not (once.all() and np.array_equal(np.sort(ids.ravel()), mesh.boundary_indices)):
            raise GeometryError("copies do not partition the mesh vertices")

    def product(self, u: np.ndarray) -> np.ndarray:
        """The assembled operator times ``u``: per-leaf products summed per vertex."""
        blocks = np.broadcast_to(self.blocks, (*self.leaves.shape, self.leaves.shape[1]))
        ku = np.einsum("wab,wb->wa", blocks, u[self.leaves])
        return np.bincount(self.leaves.ravel(), weights=ku.ravel(), minlength=u.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A_II x`` for an interior vector ``x``."""
        u = np.zeros(self.interior.size)
        u[self.interior] = x
        return self.product(u)[self.interior]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A_II^-1 b``: loads condense up, values come back down."""
        f = np.zeros(self.interior.size)
        f[self.interior] = b
        nb = self.leaves.shape[1]
        up, loads = np.zeros(self.leaves.shape), []
        for v1, _, x_ib in self.depths:
            children, fv = up.reshape(v1.shape[0], -1, nb), np.zeros(v1.shape)
            for i, g in enumerate(self.glue):
                fv[:, g] += children[:, i]
            f_i = fv[:, nb:] + f[v1[:, nb:]]
            # A_BI A_II^-1 f_I = (A_II^-1 A_IB)^T f_I by symmetry
            x_ib = np.broadcast_to(x_ib, (*f_i.shape, nb))
            up = fv[:, :nb] - np.einsum("wib,wi->wb", x_ib, f_i)
            loads.append(f_i)
        u, u_b = np.zeros(f.size), np.zeros((1, nb))
        for d, ((v1, a_ii, x_ib), f_i) in enumerate(zip(self.depths[::-1], loads[::-1])):
            # one solve per copy: a multi-RHS solve per block changes the bits
            a_ii = np.broadcast_to(a_ii, (*f_i.shape, f_i.shape[1]))
            x_ib = np.broadcast_to(x_ib, (*f_i.shape, nb))
            u_i = np.linalg.solve(a_ii, f_i[..., None])[..., 0]
            u_i -= np.einsum("wib,wb->wi", x_ib, u_b)
            u[v1[:, nb:]] = u_i
            if d + 1 < len(self.depths):  # the leaves' boundary values are not read
                u_b = np.concatenate([u_b, u_i], axis=1)[:, self.glue].reshape(-1, nb)
        return u[self.interior]

    def norm(self) -> float:
        """``|A_II|_inf``; exact when no two leaves share a pair of vertices,
        as on the built-in families, and an upper bound otherwise."""
        def off_diagonal(blocks, mask):
            off = abs(blocks) * mask[:, None, :]
            return off.sum(axis=2) - np.diagonal(off, axis1=1, axis2=2)

        leaves, mask = self.leaves.ravel(), self.interior[self.leaves]
        blocks = np.broadcast_to(self.blocks, (*mask.shape, mask.shape[1]))
        # per block for the leaves inside the interior, per leaf for the others
        inner = off_diagonal(self.blocks, np.ones(self.blocks.shape[:2], dtype=bool))
        off_sum = np.broadcast_to(inner, mask.shape).copy()
        edge = np.flatnonzero(~mask.all(axis=1))
        off_sum[edge] = off_diagonal(blocks[edge], mask[edge])
        diag = np.diagonal(blocks, axis1=1, axis2=2)
        n = self.interior.size
        row = (abs(np.bincount(leaves, weights=diag.ravel(), minlength=n))
               + np.bincount(leaves, weights=off_sum.ravel(), minlength=n))
        return float(row[self.interior].max())


def _leaf_blocks(leaves: np.ndarray, elements, local) -> np.ndarray:
    """Element matrices summed into seed-sized leaf blocks: one block when
    ``local`` is a broadcast stack (stride 0 over its elements), else one
    per leaf in leaf order.  The seed positions of the element vertices are
    read from the first leaf; every other leaf must list its elements in
    the same order.
    """
    nleaf, nb = leaves.shape
    per_leaf, extra = divmod(elements.shape[0], nleaf)
    if extra:
        raise GeometryError("element count is not a multiple of the copy count")
    elements = elements.reshape(nleaf, per_leaf, -1)
    hit = elements[0, :, :, None] == leaves[0]
    if not hit.any(axis=2).all():
        raise GeometryError("an element lies outside its copy")
    pos = hit.argmax(axis=2)
    if not (leaves[:, pos] == elements).all():
        raise GeometryError("elements do not follow the copy layout of the first leaf")
    local = local.reshape(nleaf, per_leaf, *local.shape[1:])
    if local.strides[0] == 0:
        local = local[:1]
    blocks = np.zeros((local.shape[0], nb, nb))
    for e, a, b in np.ndindex(local.shape[1:]):
        blocks[:, pos[e, a], pos[e, b]] += local[:, e, a, b]
    return blocks


def solve_condensed(mesh: LevelMesh, elements: np.ndarray, local: np.ndarray,
                    load: np.ndarray, boundary_values: dict[int, float]) -> Solution:
    """Solve the Dirichlet problem of the operator ``sum_k local[k]`` on the
    vertices ``elements[k]`` (edges or cells of ``mesh``) by self-similar
    static condensation, without assembling it and without scipy.

    ``mesh`` must be laid out as ``build_level`` builds it: a mesh whose
    copies do not glue as its family's level-1 mesh raises ``GeometryError``.
    ``elements`` must list the same number of elements per leaf copy, in
    leaf order, and every leaf must list its elements, and the vertices of
    each, in the order of the first leaf (as the edges and cells of
    ``build_level`` do); otherwise ``GeometryError`` is raised.
    """
    interior, bidx, u0, elements, local, load = _problem(mesh, elements, local, load,
                                                         boundary_values)
    cond = _Condensation(mesh, elements, local, interior)
    norm_a = cond.norm()
    if not np.isfinite(norm_a):
        raise UsageError("operator entries are not finite")
    values = np.zeros(mesh.num_vertices)
    values[bidx] = u0
    rhs = load[interior] - cond.product(values)[interior]
    x, residual = _contract_solve(cond.solve, cond.apply, rhs, norm_a)
    values[interior] = x
    return Solution(values=values, level=mesh.level, solver_residual=residual)
