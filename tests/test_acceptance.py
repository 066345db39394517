"""Acceptance suite.

Each test exercises one exit criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines for passing criteria as well).
"""

import numpy as np
import pytest

from fraclap.geometry import FAMILIES, LevelMesh, build_level, embed
from fraclap.graphs import graph_laplacian
from fraclap.measures import (
    MeasureKind,
    _elements,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
    vertex_weights,
)
from fraclap.renorm import (
    estimate_energy_ratio,
    estimate_laplacian_ratio,
    solve_online,
)
from fraclap.solver import solve_dirichlet

SQRT3 = np.sqrt(3.0)


def _report(cid, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {cid:>2}] {status}: {description}")
    assert not violations, f"criterion {cid}: {violations}"


def test_criterion_01_table_fd_ratio_sierpinski():
    violations = []
    for n in (3, 4, 5):
        est = estimate_laplacian_ratio("sierpinski", n)
        for name, value in (("max", est.max), ("mean", est.mean)):
            if abs(value - 5.0) > 1e-3:
                violations.append(f"pair {est.level_pair} {name}={value}")
    _report(1, "sierpinski finite-difference ratios equal 5", violations)


def test_criterion_02_table_energy_ratio_sierpinski():
    violations = []
    for n in (3, 4, 5):
        est = estimate_energy_ratio("sierpinski", n, "graph_energy")
        for name, value in (("max", est.max), ("mean", est.mean)):
            if abs(value - 1.6667) > 1e-3:
                violations.append(f"pair {est.level_pair} {name}={value}")
    _report(2, "sierpinski graph-energy ratios equal 1.6667", violations)


def test_criterion_03_tables_fem_ratios_sierpinski():
    violations = []
    for formulation in ("fem_edge", "fem_area"):
        for n in (4, 5, 6):
            est = estimate_energy_ratio("sierpinski", n, formulation)
            for name, value in (("max", est.max), ("mean", est.mean)):
                if abs(value - 1.25) > 1e-3:
                    violations.append(
                        f"{formulation} pair {est.level_pair} {name}={value}"
                    )
    _report(3, "sierpinski fem ratios (edge and area) equal 1.2500", violations)


def test_criterion_04_table_koch():
    violations = []
    for n in (3, 4, 5):
        est = estimate_energy_ratio("koch", n, "fem_edge")
        for name, value in (("max", est.max), ("mean", est.mean)):
            if abs(value - 1.7778) > 1e-3:
                violations.append(f"pair {est.level_pair} {name}={value}")
    _report(4, "koch fem-edge ratios equal 1.7778", violations)


def test_criterion_05_table_hata():
    violations = []
    for n in (3, 4, 5):
        est = estimate_energy_ratio("hata2d", n, "fem_edge")
        for name, value in (("max", est.max), ("mean", est.mean)):
            if abs(value - 1.6667) > 1e-3:
                violations.append(f"pair {est.level_pair} {name}={value}")
    _report(5, "hata2d fem-edge ratios equal 1.6667", violations)


@pytest.mark.parametrize("cid, family, method, n, constant", [
    (11, "koch", "fd", 5, 16.0),
    (12, "koch", "energy", 4, 4.0),
    (13, "hata3d", "fd", 5, 18.0),
    (14, "hata3d", "energy", 4, 3.0),
], ids=["koch-fd", "koch-energy", "hata3d-fd", "hata3d-energy"])
def test_criteria_11_to_14_koch_and_hata3d_constants(cid, family, method, n, constant):
    if method == "fd":
        est = estimate_laplacian_ratio(family, n)
    else:
        est = estimate_energy_ratio(family, n, "graph_energy")
    violations = [f"pair {est.level_pair} {name}={value}"
                  for name, value in (("max", est.max), ("mean", est.mean), ("min", est.min))
                  if abs(value - constant) > 1e-3 * constant]
    _report(cid, f"{family} {method} ratios equal {constant:g}", violations)


def test_criterion_06_stiffness_identities():
    violations = []
    for n in range(1, 7):
        mesh = build_level("sierpinski", n)
        lap = graph_laplacian(mesh)
        pairs = (
            ("edge", fem_edge_stiffness(mesh), 2.0**n),
            ("area", fem_area_stiffness(mesh), SQRT3 / 6),
        )
        for name, matrix, factor in pairs:
            gap = np.abs(matrix.toarray() - factor * lap.toarray()).max()
            if gap > 1e-12 * np.abs(matrix.data).max():
                violations.append(f"{name} level {n} gap={gap:.3e}")
    _report(6, "fem stiffness equals the scaled graph Laplacian, n=1..6",
            violations)


def test_criterion_07_unit_load_formulas():
    violations = []
    for n in range(1, 7):
        mesh = build_level("sierpinski", n)
        ones = np.ones(mesh.num_vertices)
        interior = mesh.interior_indices
        edge = load_vector(mesh, MeasureKind.EDGE_LENGTH, ones)[interior]
        area = load_vector(mesh, MeasureKind.TRIANGLE_AREA, ones)[interior]
        expected_edge = 2.0 ** (1 - n)
        expected_area = (SQRT3 / 6) * 2.0 ** (-2 * n)
        if np.abs(edge - expected_edge).max() > 1e-14 * expected_edge:
            violations.append(f"edge load level {n}")
        if np.abs(area - expected_area).max() > 1e-14 * expected_area:
            violations.append(f"area load level {n}")
    _report(7, "unit-data interior loads match the closed forms, n=1..6",
            violations)


def test_criterion_08_measure_normalization():
    violations = []
    for n in range(1, 7):
        total = vertex_weights(build_level("sierpinski", n),
                               MeasureKind.SELF_SIMILAR).total
        if abs(total - 1.0) > 1e-14:
            violations.append(f"level {n} total={total!r}")
    _report(8, "self-similar vertex weights sum to one, n=1..6", violations)


def test_criterion_09_property_suite():
    violations = []
    rng = np.random.default_rng(2024)

    # discrete maximum principle, all families, levels <= 5
    for family in FAMILIES:
        for level in range(1, 6):
            mesh = build_level(family, level)
            h = {int(i): float(v) for i, v in
                 zip(mesh.boundary_indices,
                     rng.uniform(-1, 2, mesh.boundary_indices.size))}
            sol = solve_dirichlet(mesh, *_elements(mesh, "fd"), np.zeros(mesh.num_vertices), h)
            hv = np.array(list(h.values()))
            if sol.values.min() < hv.min() - 1e-10 or sol.values.max() > hv.max() + 1e-10:
                violations.append(f"maximum principle {family} level {level}")

    # linearity
    mesh = build_level("sierpinski", 3)
    elements, local = _elements(mesh, "fd")
    g1, g2 = rng.normal(size=(2, mesh.num_vertices))
    h1 = {int(i): float(rng.normal()) for i in mesh.boundary_indices}
    h2 = {int(i): float(rng.normal()) for i in mesh.boundary_indices}
    alpha, beta = 1.7, -0.4
    u1 = solve_dirichlet(mesh, elements, local, g1, h1).values
    u2 = solve_dirichlet(mesh, elements, local, g2, h2).values
    combo = solve_dirichlet(mesh, elements, local, alpha * g1 + beta * g2,
                            {k: alpha * h1[k] + beta * h2[k] for k in h1}).values
    if np.abs(combo - (alpha * u1 + beta * u2)).max() > 1e-10 * max(
            1.0, np.abs(combo).max()):
        violations.append("linearity")

    # reflection symmetry under the mirror exchanging the two zero corners
    sol = solve_dirichlet(mesh, elements, local, np.zeros(mesh.num_vertices),
                          {0: 1.0, 1: 0.0, 2: 0.0})
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    reflected = LevelMesh(mesh.family, mesh.level,
                          mesh.vertices @ np.array([[c, s], [s, -c]]).T, mesh.edges,
                          mesh.cells, mesh.boundary_indices)
    idx = embed(reflected, mesh).index_map
    if np.abs(sol.values[idx] - sol.values).max() > 1e-10:
        violations.append("reflection symmetry")

    # Laplacian kernel and positive semidefiniteness
    for family in FAMILIES:
        for level in range(0, 4):
            mesh_k = build_level(family, level)
            lap_k = graph_laplacian(mesh_k)
            if np.abs(lap_k @ np.ones(mesh_k.num_vertices)).max() != 0.0:
                violations.append(f"kernel {family} level {level}")
            u = rng.normal(size=(20, mesh_k.num_vertices))
            quad = np.einsum("nk,nk->k", u.T, lap_k @ u.T)
            if quad.min() < -1e-12 * max(1.0, np.abs(quad).max()):
                violations.append(f"psd {family} level {level}")

    # dense-oracle equivalence on every mesh with at most 50 vertices
    for family in FAMILIES:
        level = 1
        while True:
            mesh_k = build_level(family, level)
            if mesh_k.num_vertices > 50:
                break
            lap_k = graph_laplacian(mesh_k)
            load = rng.normal(size=mesh_k.num_vertices)
            h = {int(i): float(v) for i, v in
                 zip(mesh_k.boundary_indices,
                     rng.normal(size=mesh_k.boundary_indices.size))}
            sol = solve_dirichlet(mesh_k, *_elements(mesh_k, "fd"), load, h).values
            dense = lap_k.toarray()
            bidx = np.sort(mesh_k.boundary_indices)
            iidx = np.setdiff1d(np.arange(mesh_k.num_vertices), bidx)
            u0 = np.array([h[int(i)] for i in bidx])
            ref_i = np.linalg.solve(dense[np.ix_(iidx, iidx)],
                                    load[iidx] - dense[np.ix_(iidx, bidx)] @ u0)
            ref = np.empty(mesh_k.num_vertices)
            ref[bidx] = u0
            ref[iidx] = ref_i
            if np.abs(sol - ref).max() > 1e-10 * max(1.0, np.abs(ref).max()):
                violations.append(f"dense oracle {family} level {level}")
            level += 1

    # ratio-field constancy on sierpinski at the tabulated pairs
    for formulation, levels in (("fd", (3, 4, 5)), ("graph_energy", (3, 4, 5)),
                                ("fem_edge", (4, 5, 6)), ("fem_area", (4, 5, 6))):
        for n in levels:
            if formulation == "fd":
                est = estimate_laplacian_ratio("sierpinski", n)
            else:
                est = estimate_energy_ratio("sierpinski", n, formulation)
            if est.max - est.min > 1e-3 * est.mean:
                violations.append(f"ratio constancy {formulation} pair {est.level_pair}")

    _report(9, "property suite (maximum principle, linearity, symmetry, "
               "kernel/PSD, dense oracle, ratio constancy)", violations)


def test_criterion_10_figure_configuration_smoke_runs():
    violations = []

    def check(family, level, method, rhs, bc):
        mesh = build_level(family, level)
        if rhs == "sin(x+y)":
            g = np.sin(mesh.vertices[:, 0] + mesh.vertices[:, 1])
        else:
            g = np.zeros(mesh.num_vertices)
        h = {int(i): float(v) for i, v in zip(mesh.boundary_indices, bc)}
        from fraclap.renorm import auto_constant

        constant, _ = auto_constant(family, method, level)
        sol = solve_online(family, level, method, constant, g, h)
        tag = f"{family} n={level} {method} rhs={rhs}"
        for i, v in zip(mesh.boundary_indices, bc):
            if sol.values[int(i)] != v:
                violations.append(f"{tag}: boundary not exact")
                break
        if not np.isfinite(sol.values).all():
            violations.append(f"{tag}: non-finite values")
        if rhs == "0":
            hv = np.array(bc)
            if (sol.values.min() < hv.min() - 1e-10
                    or sol.values.max() > hv.max() + 1e-10):
                violations.append(f"{tag}: maximum principle violated")

    # sierpinski level 5 with sinusoidal forcing, all three methods
    for method in ("rfd", "rfem1d", "rfem2d"):
        check("sierpinski", 5, method, "sin(x+y)", [1.0, 0.0, 0.0])
    # koch at level 5 (forced) and level 3 (harmonic)
    for method in ("rfd", "rfem1d"):
        check("koch", 5, method, "sin(x+y)", [1.0, 0.0])
        check("koch", 3, method, "0", [1.0, 0.0])
    # hata tree at level 3, forced and harmonic
    for method in ("rfd", "rfem1d"):
        check("hata2d", 3, method, "sin(x+y)", [1.0, 0.0])
        check("hata2d", 3, method, "0", [1.0, 0.0])
    # non-planar hata tree, finite differences only
    check("hata3d", 3, "rfd", "0", [1.0, 0.0])

    _report(10, "figure-configuration solves complete with exact boundary "
                "data and the maximum principle", violations)
