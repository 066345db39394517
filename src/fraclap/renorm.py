"""Renormalization-constant estimation and renormalized Dirichlet solves.

The estimators solve the un-normalized model problem (unit forcing, zero
boundary data) at two consecutive levels and compare the solutions at the
shared coarse interior vertices.  The per-vertex ratio of the fine solution
over the coarse one stabilizes at the renormalization constant of the
chosen formulation; its statistics are reported per level pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolveError, UsageError
from .geometry import LevelMesh, _frozen, build_level, embed
from .measures import (
    MeasureKind,
    fd_graph_stiffness,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
)
from .solver import DirichletProblem, Solution, solve_dirichlet

if TYPE_CHECKING:
    import scipy.sparse as sp

# Ratio denominators below this fraction of the field maximum are excluded
# from the statistics instead of polluting min/max.
DENOMINATOR_GUARD = 1e-14

ENERGY_FORMULATIONS = ("graph_energy", "fem_edge", "fem_area")
SOLVE_METHODS = ("rfd", "rfem1d", "rfem2d")


@dataclass(frozen=True)
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
        object.__setattr__(self, "ratios", _frozen(self.ratios, np.float64))


def _operator_and_load(mesh: LevelMesh, formulation: str):
    ones = np.ones(mesh.num_vertices)
    if formulation == "fd":
        return fd_graph_stiffness(mesh), ones
    if formulation == "graph_energy":
        return fd_graph_stiffness(mesh), load_vector(mesh, MeasureKind.SELF_SIMILAR, ones)
    if formulation == "fem_edge":
        return fem_edge_stiffness(mesh), load_vector(mesh, MeasureKind.EDGE_LENGTH, ones)
    if formulation == "fem_area":
        return fem_area_stiffness(mesh), load_vector(mesh, MeasureKind.TRIANGLE_AREA, ones)
    raise UsageError(f"unknown formulation {formulation!r}")


def _solve_model(mesh: LevelMesh, stiffness: sp.csr_array, load: np.ndarray) -> np.ndarray:
    zero = {int(i): 0.0 for i in mesh.boundary_indices}
    return solve_dirichlet(DirichletProblem(stiffness, load, zero, mesh)).values


@functools.lru_cache(maxsize=128)
def _model_solution(family: str, level: int, formulation: str) -> np.ndarray:
    mesh = build_level(family, level)
    stiffness, load = _operator_and_load(mesh, formulation)
    values = _solve_model(mesh, stiffness, load)
    values.setflags(write=False)
    return values


def _ratio_statistics(z_coarse, z_fine, embedding, interior_idx):
    den = z_coarse[interior_idx]
    num = z_fine[embedding.index_map[interior_idx]]
    scale = float(np.abs(z_coarse).max())
    keep = np.abs(den) >= DENOMINATOR_GUARD * scale
    excluded = int(interior_idx.size - keep.sum())
    ratios = num[keep] / den[keep]
    return ratios, excluded


def _estimate(family: str, n: int, formulation: str, method_tag: str) -> RenormEstimate:
    if n < 1:
        raise UsageError("estimation requires level >= 1")
    coarse = build_level(family, n)
    fine = build_level(family, n + 1)
    if coarse.interior_indices.size == 0:
        raise SolveError(f"level {n} has no interior vertices to compare")
    embedding = embed(coarse, fine)
    z_c = _model_solution(family, n, formulation)
    z_f = _model_solution(family, n + 1, formulation)
    ratios, excluded = _ratio_statistics(z_c, z_f, embedding, coarse.interior_indices)
    if ratios.size == 0:
        raise SolveError("all coarse interior vertices were excluded by the "
                         "near-zero denominator guard")
    return RenormEstimate(
        level_pair=(n, n + 1),
        ratios=ratios,
        max=float(ratios.max()),
        mean=float(ratios.mean()),
        min=float(ratios.min()),
        direction="fine_over_coarse",
        method=method_tag,
        excluded_count=excluded,
    )


def estimate_laplacian_ratio(family: str, n: int) -> RenormEstimate:
    """Ratio of un-normalized graph-Laplacian solutions (unit interior load)
    at levels n+1 and n; stabilizes at the operator renormalization constant.
    """
    return _estimate(family, n, "fd", "fd")


def estimate_energy_ratio(
    family: str, n: int, formulation: str = "graph_energy"
) -> RenormEstimate:
    """Ratio of un-normalized weak-form solutions at levels n+1 and n.

    The load comes from the formulation's natural measure with unit data:
    graph_energy uses the self-similar vertex weights, fem_edge the edge
    length measure and fem_area the triangle area measure.
    """
    if formulation not in ENERGY_FORMULATIONS:
        raise UsageError(
            f"formulation must be one of {ENERGY_FORMULATIONS}, got {formulation!r}"
        )
    return _estimate(family, n, formulation, formulation)


def renormalize(base: sp.csr_array, constant: float, n: int) -> sp.csr_array:
    """Scale a stiffness matrix by constant**n."""
    if not constant > 0:
        raise UsageError("renormalization constant must be positive")
    if n < 0:
        raise UsageError("level must be nonnegative")
    try:
        factor = float(constant) ** int(n)
    except OverflowError:
        factor = math.inf
    with np.errstate(over="ignore"):
        scaled = base * factor
    if not (math.isfinite(constant) and factor > 0 and np.isfinite(scaled.data).all()):
        raise UsageError(f"constant**level = {constant:g}**{n} does not scale the "
                         "operator to finite nonzero values")
    return scaled


def default_estimate_pair(level: int) -> tuple[int, int]:
    """Pre-processing pair for a solve at ``level``: the two largest feasible
    levels below it, falling back to (1, 2) for small levels."""
    a = max(1, int(level) - 2)
    return (a, a + 1)


def auto_constant(family: str, method: str, level: int):
    """Estimate the constant for ``solve_online`` from a coarser level pair."""
    pair = default_estimate_pair(level)
    if method == "rfd":
        est = estimate_laplacian_ratio(family, pair[0])
    elif method == "rfem1d":
        est = estimate_energy_ratio(family, pair[0], "fem_edge")
    elif method == "rfem2d":
        est = estimate_energy_ratio(family, pair[0], "fem_area")
    else:
        raise UsageError(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    return est.mean, pair


def solve_online(
    family: str,
    n: int,
    method: str,
    constant: float,
    g: np.ndarray,
    h: dict[int, float],
    *,
    fem_edge_half_load: bool = True,
) -> Solution:
    """Solve the renormalized Dirichlet problem at level ``n``.

    rfd scales the graph Laplacian and takes ``g`` pointwise at interior
    vertices; rfem1d scales the edge stiffness with (by default) half the
    edge-length load, matching the factor-two relation between the
    self-similar and edge-length measures; rfem2d scales the area stiffness
    with the area load.
    """
    if method not in SOLVE_METHODS:
        raise UsageError(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    if not constant > 0:
        raise UsageError("renormalization constant must be positive")
    mesh = build_level(family, n)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (mesh.num_vertices,):
        raise UsageError("forcing data length does not match the mesh")
    if method == "rfd":
        stiffness = fd_graph_stiffness(mesh)
        load = g
    elif method == "rfem1d":
        stiffness = fem_edge_stiffness(mesh)
        load = load_vector(mesh, MeasureKind.EDGE_LENGTH, g)
        if fem_edge_half_load:
            load = 0.5 * load
    else:
        stiffness = fem_area_stiffness(mesh)
        load = load_vector(mesh, MeasureKind.TRIANGLE_AREA, g)
    operator = renormalize(stiffness, constant, n)
    problem = DirichletProblem(operator, load, h, mesh)
    return solve_dirichlet(problem, method=method, renorm_constant=float(constant))
