"""Renormalization-constant estimation and renormalized Dirichlet solves.

The estimators solve the un-normalized model problem (unit forcing, zero
boundary data) at two consecutive levels and compare the solutions at the
shared coarse interior vertices.  The per-vertex ratio of the fine solution
over the coarse one stabilizes at the renormalization constant of the
chosen formulation; its statistics are reported per level pair.  The
coarse-to-fine vertex map is read off the copy tables of the two levels
(``geometry._table_embedding``), not searched for by coordinates.

Every solve here is on a built-in family, so the model solves and
``solve_online`` hand the element matrices of the formulation to
``solver.solve_condensed`` and never assemble or factor a sparse matrix;
scipy is not imported.  ``renormalize`` still scales an assembled operator
for callers of ``solver.partition`` and ``solver.linear_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import SOLVE_METHODS
from .errors import SolveError, UsageError
from .geometry import LevelMesh, _abs_max, _kept, _level_index, _table_embedding, build_level
from .measures import _elements, _load
from .solver import Solution, solve_condensed

if TYPE_CHECKING:
    import scipy.sparse as sp

# Ratio denominators below this fraction of the field maximum are excluded
# from the statistics instead of polluting min/max.
DENOMINATOR_GUARD = 1e-14

ENERGY_FORMULATIONS = ("graph_energy", "fem_edge", "fem_area")
_METHOD_FORMULATION = {"rfd": "fd", "rfem1d": "fem_edge", "rfem2d": "fem_area"}


@dataclass(frozen=True, eq=False)
class RenormEstimate:
    """Ratio field and statistics for one consecutive level pair."""

    level_pair: tuple[int, int]
    ratios: np.ndarray = field(repr=False)
    max: float = 0.0
    mean: float = 0.0
    min: float = 0.0
    direction: str = "fine_over_coarse"
    method: str = "fd"
    excluded_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ratios", _kept(self.ratios, np.float64))


def _model_solution(mesh: LevelMesh, formulation: str) -> np.ndarray:
    """Un-normalized model solution: unit forcing, zero boundary data."""
    elements, local = _elements(mesh, formulation)
    load = _load(mesh, formulation, np.ones(mesh.num_vertices))
    zero = {int(i): 0.0 for i in mesh.boundary_indices}
    return solve_condensed(mesh, elements, local, load, zero).values


def _ratio_statistics(z_coarse, z_fine, embedding, interior_idx):
    den = z_coarse[interior_idx]
    num = z_fine[embedding.index_map[interior_idx]]
    scale = _abs_max(z_coarse)
    keep = np.abs(den) >= DENOMINATOR_GUARD * scale
    excluded = int(interior_idx.size - keep.sum())
    ratios = num[keep] / den[keep]
    return ratios, excluded


def _estimates(family: str, a: int, b: int, formulation: str):
    """The estimates of the pairs ``(a, a+1)`` .. ``(b-1, b)``, in order.
    Each pair hands its fine level and model solution to the next as its
    coarse ones, so every level is built and solved once, and nothing is
    kept once the generator ends or is dropped."""
    if a < 1:
        raise UsageError("estimation requires level >= 1")
    coarse, z_c = build_level(family, a), None
    for n in range(a, b):
        interior = coarse.interior_indices
        if interior.size == 0:
            raise SolveError(f"level {n} has no interior vertices to compare")
        if z_c is None:
            z_c = _model_solution(coarse, formulation)
        fine = build_level(family, n + 1)
        embedding = _table_embedding(coarse, fine)
        del coarse  # the coarse level goes before the fine solve
        z_f = _model_solution(fine, formulation)
        ratios, excluded = _ratio_statistics(z_c, z_f, embedding, interior)
        if ratios.size == 0:
            raise SolveError("all coarse interior vertices were excluded by the "
                             "near-zero denominator guard")
        lo, hi = float(ratios.min()), float(ratios.max())
        ratios.setflags(write=False)  # handed over: RenormEstimate keeps it without a copy
        coarse, z_c = fine, z_f
        yield RenormEstimate(
            level_pair=(n, n + 1),
            ratios=ratios,
            max=hi,
            # the rounded mean of near-equal ratios can fall an ulp outside them
            mean=min(max(float(ratios.mean()), lo), hi),
            min=lo,
            direction="fine_over_coarse",
            method=formulation,
            excluded_count=excluded,
        )


def _estimate(family: str, n: int, formulation: str) -> RenormEstimate:
    n = _level_index(n)  # 2.7 is not level 2, nor "2" a TypeError
    return next(_estimates(family, n, n + 1, formulation))


def estimate_laplacian_ratio(family: str, n: int) -> RenormEstimate:
    """Ratio of un-normalized graph-Laplacian solutions (unit interior load)
    at levels n+1 and n; stabilizes at the operator renormalization constant.
    """
    return _estimate(family, n, "fd")


def estimate_energy_ratio(
    family: str, n: int, formulation: str = "graph_energy"
) -> RenormEstimate:
    """Ratio of un-normalized weak-form solutions at levels n+1 and n.

    The load comes from the formulation's natural measure with unit data
    (``measures._load``): graph_energy uses the self-similar vertex weights,
    fem_edge half the edge length measure and fem_area the triangle area
    measure.  A factor common to both loads cancels in the ratios.
    """
    if formulation not in ENERGY_FORMULATIONS:
        raise UsageError(
            f"formulation must be one of {ENERGY_FORMULATIONS}, got {formulation!r}"
        )
    return _estimate(family, n, formulation)


def _renormalized(values: np.ndarray, constant: float, n: int) -> np.ndarray:
    """``values * constant**n``, refusing a level that is not a nonnegative
    integer (``geometry._level_index``) and a scaling that is not finite and
    nonzero.  A broadcast stack (stride 0 over its first axis) scales its one
    element and stays broadcast."""
    if not constant > 0:
        raise UsageError("renormalization constant must be positive")
    n = _level_index(n)
    try:
        factor = float(constant) ** n
    except OverflowError:
        factor = math.inf
    stacked = values.ndim > 0 and values.strides[0] == 0
    with np.errstate(over="ignore"):
        scaled = (values[:1] if stacked else values) * factor
    if not (math.isfinite(constant) and factor > 0 and np.isfinite(scaled).all()):
        raise UsageError(f"constant**level = {constant:g}**{n} does not scale the "
                         "operator to finite nonzero values")
    return np.broadcast_to(scaled, values.shape) if stacked else scaled


def renormalize(base: sp.csr_array, constant: float, n: int) -> sp.csr_array:
    """Scale a stiffness matrix by constant**n."""
    scaled = base.copy()
    scaled.data = _renormalized(base.data, constant, n)
    return scaled


def default_estimate_pair(level: int) -> tuple[int, int]:
    """Pre-processing pair for a solve at ``level``: the two largest feasible
    levels below it, falling back to (1, 2) for small levels; a level that
    is not an integer raises ``UsageError`` (``geometry._level_index``)."""
    a = max(1, _level_index(level) - 2)
    return (a, a + 1)


def auto_constant(family: str, method: str, level: int):
    """Estimate the constant for ``solve_online`` from a coarser level pair."""
    if method not in SOLVE_METHODS:
        raise UsageError(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    pair = default_estimate_pair(level)
    return _estimate(family, pair[0], _METHOD_FORMULATION[method]).mean, pair


def solve_online(
    family: str,
    n: int,
    method: str,
    constant: float,
    g: np.ndarray,
    h: dict[int, float],
) -> Solution:
    """Solve the renormalized Dirichlet problem at level ``n``.

    Each method solves one formulation (``_elements`` and ``_load``): rfd
    the graph Laplacian with ``g`` taken pointwise, rfem1d the edge
    stiffness with half the edge-length load, rfem2d the area stiffness
    with the area load.  The element matrices are scaled by constant**n and
    the problem is solved by condensation.
    """
    if method not in SOLVE_METHODS:
        raise UsageError(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    mesh = build_level(family, n)
    formulation = _METHOD_FORMULATION[method]
    elements, local = _elements(mesh, formulation)
    load = _load(mesh, formulation, g)
    del g  # a weak form's load is a new vector: a caller's g that is handed over goes here
    local = _renormalized(local, constant, n)
    solution = solve_condensed(mesh, elements, local, load, h)
    return replace(solution, method=method, renorm_constant_applied=float(constant))
