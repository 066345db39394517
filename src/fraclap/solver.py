"""Dirichlet problems via boundary/interior block partitioning.

Operators are scipy CSR arrays (see ``graphs._assemble``). The interior
block of the (symmetric PSD) operator is positive definite on connected
meshes with a nonempty boundary, so the reduced system is solved with a
sparse direct (SuperLU) factorization at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolveError, UsageError
from .geometry import LevelMesh, _frozen

if TYPE_CHECKING:
    import scipy.sparse as sp

RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class DirichletProblem:
    """Operator, load and boundary data for one solve."""

    operator: sp.csr_array
    load: np.ndarray
    boundary_values: dict[int, float]
    mesh: LevelMesh

    def __post_init__(self):
        load = _frozen(self.load, np.float64)
        n = self.mesh.num_vertices
        if getattr(self.operator, "format", None) != "csr":
            raise UsageError("operator must be a scipy CSR array")
        if self.operator.shape != (n, n):
            raise UsageError("operator shape does not match the mesh")
        if load.shape != (n,):
            raise UsageError("load length does not match the mesh")
        expected = set(int(i) for i in self.mesh.boundary_indices)
        got = set(int(i) for i in self.boundary_values)
        if expected != got:
            raise UsageError(
                f"boundary values must cover exactly the boundary indices {sorted(expected)}"
            )
        values = np.fromiter(self.boundary_values.values(), dtype=np.float64)
        if not np.isfinite(values).all():
            raise UsageError("boundary values must be finite")
        object.__setattr__(self, "load", load)
        object.__setattr__(self, "boundary_values", dict(self.boundary_values))


@dataclass(frozen=True)
class Solution:
    """Nodal solution with solve metadata."""

    values: np.ndarray = field(repr=False)
    method: str
    level: int
    renorm_constant_applied: float | None
    solver_residual: float

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


def linear_solve(a: sp.csr_array, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive definite CSR ``A``.

    Guarantees ``|A x - b|_inf <= 1e-10 * max(1, |b|_inf)`` or raises.
    """
    import scipy.sparse.linalg as spla

    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise UsageError("system dimensions do not agree")
    if abs(a - a.T).max() > 1e-12 * max(abs(a).max(), 1.0):
        raise SolveError("operator is not symmetric")
    tol = RESIDUAL_BOUND * max(1.0, float(np.abs(b).max()))
    try:
        lu = spla.splu(a.tocsc())
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolveError(f"direct factorization failed: {exc}") from None
    if not np.isfinite(x).all():
        raise SolveError("singular interior block")
    # one step of iterative refinement if rounding left a residual
    r = b - a @ x
    if np.abs(r).max() > tol:
        x = x + lu.solve(r)
    residual = float(np.abs(b - a @ x).max())
    if residual > tol:
        raise SolveError(f"residual {residual:.3e} exceeds the solver contract")
    return x


def solve_dirichlet(
    problem: DirichletProblem,
    method: str = "dirichlet",
    renorm_constant: float | None = None,
) -> Solution:
    """Solve the interior block system and report the solution."""
    mesh = problem.mesh
    a_ii, a_i0, interior_idx, boundary_idx = partition(
        problem.operator, mesh.boundary_indices
    )
    u0 = np.array([problem.boundary_values[int(i)] for i in boundary_idx])
    rhs = problem.load[interior_idx] - a_i0 @ u0
    x = linear_solve(a_ii, rhs)
    residual = float(np.abs(a_ii @ x - rhs).max())
    values = np.empty(mesh.num_vertices)
    values[boundary_idx] = u0
    values[interior_idx] = x
    return Solution(
        values=values,
        method=method,
        level=mesh.level,
        renorm_constant_applied=renorm_constant,
        solver_residual=residual,
    )
