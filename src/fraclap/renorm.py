"""Renormalization-constant estimation and renormalized Dirichlet solves.

The estimators solve the un-normalized model problem (unit forcing, zero
boundary data) at two consecutive levels and compare the solutions at the
shared coarse interior vertices.  The per-vertex ratio of the fine solution
over the coarse one stabilizes at the renormalization constant of the
chosen formulation; its statistics are reported per level pair.  No level
is built: every copy of a depth condenses the model load alike, so both
solutions are read off the family's structure by the condensation's depth
blocks and way down (``_model_values``; Kigami, *Analysis on Fractals*,
3.1-3.2; Strichartz, *Differential Equations on Fractals*, 1.3-1.4).

Contract: the estimate forms no residual.  Its model values are those of
``solver.solve_condensed`` on the built levels, bit for bit, as the tests
check on every pair up to Sierpinski 9:10, Koch 7:8, hata2d 6:7 and hata3d
5:6 and on the largest admitted pairs.  With nonnegative data that solve is
entrywise within 2 eps per level of an exact rational solution, as the
tests check on all 13 family and formulation pairs (at most 4.1 eps at
Sierpinski 5, Koch 5, hata2d 4 and hata3d 4, and 6.5 eps in the deep suite).

``solve_online`` hands the one element matrix of the formulation and its
load to the condensation (``solver._solve_level``), with no level built,
and never assembles or factors a sparse matrix; scipy is not imported.
``renormalize`` still scales an assembled operator for callers of
``solver.partition`` and ``solver.linear_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import SOLVE_METHODS
from .errors import SolveError, UsageError
from .geometry import (_abs_max, _copy_starts, _element_rows, _kept, _level_index, _structure,
                       check_level, predicted_vertices)
from .graphs import _apply_elements
from .measures import _level_forms, _level_load
from .solver import Solution, _depth_blocks, _extend, _leaf_block, _solve_level

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


def _model_values(family: str, n: int, level: int, formulation: str) -> np.ndarray:
    """The model solution of ``build_level(family, level)``, ``level >= n``,
    at the interior vertices of level ``n`` in their order (copy ``w`` of
    depth ``d`` has the same new vertices at every level past ``d``), with
    no level built; ``check_level`` refuses ``level`` first.  Up: a copy of
    a depth condenses its children's rows and the load summed on V1 with
    the level's mass element, one row per depth, formed on one row at the
    top and two below as ``_Condensation.solve`` forms it (``_blocks``).
    Down: the condensation's way down (``_extend``) over the top ``n``
    depths, each copy's new values the depth's one row less ``v0 @ x_ib.T``,
    placed by level ``n``'s layout (``_copy_starts``)."""
    check_level(family, level)
    seed, glue, _ = _structure(family)
    nb, nv1 = glue.shape[1], int(glue.max()) + 1
    local, mass = _level_forms(family, level, formulation)
    pos = _element_rows(seed, len(local))
    block = _leaf_block(pos, nb, np.broadcast_to(local, (len(pos), *local.shape)))
    load = np.ones(nv1)
    if mass is not None:  # ``measures._load`` on V1
        rows = glue[:, _element_rows(seed, len(mass))].reshape(-1, len(mass))
        load = _apply_elements(rows, mass, load) * (0.5 if formulation == "fem_edge" else 1.0)
    up, depths = np.zeros(nb), []
    for h, (inv_ii, x_ib) in enumerate(_depth_blocks(block, glue, level)):
        fv = np.zeros(nv1)
        for g in glue:  # the children's rows, summed in child order as in solve
            fv[g] += up
        f_i = np.repeat(fv[None, nb:] + load[nb:], 1 if h == level - 1 else 2, axis=0)
        up = fv[:nb] - (f_i @ x_ib)[0]
        depths.append((lambda rows, u_i=(f_i @ inv_ii.T)[0]: u_i, x_ib))
    starts = ((walk, new - nb) for walk, new in _copy_starts(family, n))
    return _extend(np.empty(predicted_vertices(family, n) - nb), glue, starts, depths[::-1][:n])


def _estimates(family: str, a: int, b: int, formulation: str):
    """The estimates of the pairs ``(a, a+1)`` .. ``(b-1, b)``, in order;
    each refuses its coarse level, then its fine one, as it reaches them."""
    if a < 1:
        raise UsageError("estimation requires level >= 1")
    for n in range(a, b):
        den, num = (_model_values(family, n, level, formulation) for level in (n, n + 1))
        keep = np.abs(den) >= DENOMINATOR_GUARD * _abs_max(den)
        excluded = int(keep.size - np.count_nonzero(keep))
        # in place when nothing is excluded: the bits of num[keep] / den[keep]
        ratios = num[keep] / den[keep] if excluded else np.divide(num, den, out=num)
        if ratios.size == 0:
            raise SolveError("all coarse interior vertices were excluded by the "
                             "near-zero denominator guard")
        lo, hi = float(ratios.min()), float(ratios.max())
        ratios.setflags(write=False)  # handed over: RenormEstimate keeps it without a copy
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

    Each method solves one formulation (``measures._level_forms`` and
    ``measures._level_load``): rfd the graph Laplacian with ``g`` taken
    pointwise, rfem1d the edge stiffness with half the edge-length load,
    rfem2d the area stiffness with the area load.  The element matrices are
    scaled by constant**n and the problem is solved by condensation, as
    ``solver.solve_condensed`` solves it on ``build_level(family, n)``, bit
    for bit, with no level built.
    """
    if method not in SOLVE_METHODS:
        raise UsageError(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    check_level(family, n)
    formulation = _METHOD_FORMULATION[method]
    seed, glue, _ = _structure(family)
    local = _level_forms(family, n, formulation)[0]
    local = np.broadcast_to(local, (len(glue)**n * len(_element_rows(seed, len(local))),
                                    *local.shape))
    load = _level_load(family, n, formulation, g)
    del g  # a weak form's load is a new vector: a caller's g that is handed over goes here
    local = _renormalized(local, constant, n)
    solution = _solve_level(family, n, local, load, h)
    return replace(solution, method=method, renorm_constant_applied=float(constant))
